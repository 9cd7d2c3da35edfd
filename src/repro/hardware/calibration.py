"""Calibration constants for the hardware model.

Derivations (all from public spec sheets + the paper's own measurements):

**Intel Skylake, c5.9xlarge (18 physical cores).**
Peak fp32 ≈ 18 cores × 2 FMA × 16 lanes × ~3.1 GHz ≈ 1.78 TFLOPs.
Table 4 shows TVM-static BERT seq-128 at 19.38 ms; BERT-base at L=128 is
≈22.4 GFLOP, implying ~1.16 TFLOPs sustained → GEMM efficiency ≈ 0.65.
L3 = 24.75 MB; a 1-layer LSTM's weights (812×2048 fp32 ≈ 6.6 MB) are
cache-resident, and Table 1's 47.8 µs/token ≈ 6.6 MB / 47.8 µs ≈ 139 GB/s
— i.e. L3-bandwidth-bound, so cache_bw ≈ 140 GB/s, DRAM ≈ 90 GB/s.

**Nvidia T4, g4dn.4xlarge.** Peak fp32 8.1 TFLOPs, GDDR6 320 GB/s, PCIe
gen3 x8 ≈ 6 GB/s effective. Kernel launch ≈ 5–10 µs. The LSTM row of
Table 1 (93 µs/token > Intel's 47.8) pins the under-saturation scale:
batch-1 GEMV is launch+bandwidth bound on a GPU.

**ARM Cortex-A72, a1.4xlarge (16 cores).** Peak fp32 ≈ 16 × 2.3 GHz × 8
lanes ≈ 294 GFLOPs. Table 4's 223.5 ms for static BERT seq-128 implies
~100 GFLOPs sustained → efficiency ≈ 0.34 for well-tuned kernels.
Vendor-library coverage on ARM is weak (the paper's frameworks perform
"less favorably"): OpenBLAS-class GEMV is effectively single-threaded,
hence the very low library bandwidth fraction.

Framework overheads (µs per operator dispatch, per platform) are in
:mod:`repro.baselines.overhead` with their own derivations.
"""

# Per-instruction cost of the Nimble VM dispatch loop (coarse-grained
# CISC-style instructions; §5.2 argues this is negligible vs. kernels).
VM_INSTRUCTION_US = {
    "intel": 0.08,
    "nvidia": 0.08,
    "arm": 0.30,
}

# Per-launch host cost of replaying a launch tape (`repro.vm.tape`), the
# static baseline of Table 4: cheaper than a VM dispatch — it is an array
# walk, not an instruction decode.
TAPE_NODE_US = {
    "intel": 0.05,
    "nvidia": 0.05,
    "arm": 0.25,
}

# Host-side cost of one fresh buffer allocation vs. a pooled reuse.
ALLOC_FRESH_US = {
    "intel": 4.0,
    "nvidia": 5.0,
    "arm": 10.0,
}
ALLOC_POOLED_US = {
    "intel": 0.25,
    "nvidia": 0.25,
    "arm": 0.9,
}

# Shape-function kernels are tiny scalar computations on the host.
SHAPE_FUNC_US = {
    "intel": 5.0,
    "nvidia": 5.0,
    "arm": 20.0,
}

# Penalty multiplier for un-eliminated boundary checks in symbolic kernels
# (§4.5): a fully generic kernel pays this on its innermost loops. The
# per-residue dispatch reduces the *fraction* of iterations that check.
BOUNDARY_CHECK_PENALTY = {
    "intel": 0.35,
    "nvidia": 0.25,
    "arm": 0.55,
}

# Residual index-computation overhead of symbolic (vs. static) kernels even
# with full dispatch — Table 4 measures 5–25 % end-to-end on CPUs.
SYMBOLIC_INDEX_OVERHEAD = {
    "intel": 0.075,
    "nvidia": 0.03,
    "arm": 0.045,
}

# Modeled cost of compiling one shape-specialized executable at serving
# time (the tiered-compilation hot path): a fixed pipeline overhead plus a
# per-kernel code-generation charge. Order-of-magnitude from TVM-class
# compilers with schedules already chosen (no tuning): tens of
# milliseconds per kernel, slower on ARM hosts. The charge is split the
# way the staged pipeline splits the work (docs/serving.md): the
# shape-independent *prefix* (normalization, CSE, lambda lifting,
# dynamic type inference) runs once per (module, platform); only the
# *suffix* (shape binding, residual inference, fusion, allocation,
# codegen) repeats per variant. The split is 60/40: normalization walks
# the whole module and dominates, while the suffix starts from an
# already-normalized IR.
SPECIALIZE_PREFIX_FRACTION = 0.6
SPECIALIZE_PREFIX_BASE_US = {
    "intel": 12_000.0,
    "nvidia": 15_000.0,
    "arm": 36_000.0,
}
SPECIALIZE_PREFIX_PER_KERNEL_US = {
    "intel": 2_400.0,
    "nvidia": 3_000.0,
    "arm": 7_200.0,
}
SPECIALIZE_SUFFIX_BASE_US = {
    "intel": 8_000.0,
    "nvidia": 10_000.0,
    "arm": 24_000.0,
}
SPECIALIZE_SUFFIX_PER_KERNEL_US = {
    "intel": 1_600.0,
    "nvidia": 2_000.0,
    "arm": 4_800.0,
}

# Modeled cost of *restoring* a specialized executable from the on-disk
# artifact store instead of recompiling it: mmap/read the blob, decode
# the bytecode, re-materialize kernels from their serialized schedules.
# Order-of-magnitude from deserializing megabyte-class artifacts —
# hundreds of microseconds, i.e. ~2 orders of magnitude under the
# compile charge, which is the entire point of persisting.
RESTORE_BASE_US = {
    "intel": 300.0,
    "nvidia": 350.0,
    "arm": 900.0,
}
RESTORE_PER_KERNEL_US = {
    "intel": 30.0,
    "nvidia": 35.0,
    "arm": 90.0,
}

# Multi-stream scheduling: calibrated costs of the cross-stream sync
# primitives the AOT scheduler emits (see docs/scheduling.md). Host-side
# cudaEventRecord / cudaStreamWaitEvent are driver calls in the same
# class as a kernel enqueue (~1 µs on the T4's host); the device-side
# propagation of a wait that actually stalls a stream costs about the
# same again. CPU platforms run kernels synchronously, so streams never
# engage there — the constants exist for every platform because the
# interpreter reads them unconditionally.
STREAM_EVENT_RECORD_US = {
    "intel": 0.4,
    "nvidia": 1.0,
    "arm": 1.2,
}
STREAM_WAIT_EVENT_US = {
    "intel": 0.4,
    "nvidia": 1.0,
    "arm": 1.2,
}
STREAM_EVENT_SYNC_US = {
    "intel": 0.0,
    "nvidia": 1.5,
    "arm": 0.0,
}
