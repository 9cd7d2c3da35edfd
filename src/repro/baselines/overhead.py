"""Framework overhead calibration (µs), with derivations.

All numbers are per-platform because the paper's ARM results hinge on the
a1.4xlarge's slow cores executing the frameworks' host-side C++/Python:
the same dispatcher that costs 2–4 µs on a 3.4 GHz Skylake costs an order
of magnitude more on a 2.3 GHz A72 with a fraction of the IPC.

Derivation anchors (Table 1, 1-layer LSTM, µs/token). A token there is
15 framework ops (13 per LSTM cell, plus the ``take`` + ``reshape`` of
x[t]) and a sentence 2 more (its zero states); the per-op constants
were fit to a count of ~11 ops/token and are not re-fit to 15:

* PyTorch Intel 79.3 vs Nimble 47.8 → ≈31 µs of eager overhead/token →
  ≈2.8 µs/op dispatch at ~11 ops (matches public torch dispatcher
  microbenchmarks);
  ARM 1729.5 → ≈90 µs/op plus the slower un-fused kernel stream.
* MXNet's engine enqueues ops through a dependency scheduler: ≈2× the
  eager dispatch on Intel, and its ARM BLAS coverage is poor.
* TensorFlow's graph executor is cheap per op (one scheduled node
  each) but its dynamic control flow (Switch/Merge/Enter/NextIteration
  per loop iteration) costs ≈10 µs/primitive on Intel (Yu et al.,
  EuroSys'18 report tens of µs per iteration), ≈40 on ARM.
* PyTorch Tree-LSTM: Python recursion builds an autograd graph per node;
  Table 2 (701.6 µs/token ≈ 13.3 ms per 19-leaf tree over ≈37 nodes)
  implies ≈300 µs of Python per tree node on Intel.
* TF Fold re-compiles per input: Table 2's 209.9 µs/token ≈ 4 ms/tree of
  which compute is small → ≈3.9 ms graph construction+compilation per
  input on Intel.
"""

# Per-operator host dispatch cost (µs).
EAGER_OP_US = {"intel": 2.8, "nvidia": 9.0, "arm": 30.0}
HYBRID_OP_US = {"intel": 13.0, "nvidia": 3.0, "arm": 44.0}
GRAPH_NODE_US = {"intel": 1.6, "nvidia": 1.6, "arm": 7.0}

# TF-style control-flow primitives (Switch/Merge/Enter/Exit/NextIteration).
CONTROL_PRIMITIVE_US = {"intel": 13.0, "nvidia": 16.0, "arm": 14.0}

# Each framework bundles its own kernel library, whose quality varies by
# platform (§7: "frameworks generally perform poorly on devices ... not in
# the first tier of device support"). These override the platform default:
#
# * TF/Eigen on ARM: decent multithreaded GEMM/GEMV (Table 1's ARM column
#   has TF beating PyTorch/MXNet; Table 3 has TF ≈ Nimble's compiled
#   dense kernels on ARM, as the paper notes);
# * TF/Eigen on Intel: clearly behind MKL for transformer GEMMs (TF's
#   Table 3 Intel row is 2.5× Nimble);
# * PyTorch's bundled aarch64 GEMM (pre-XNNPACK aten) is very poor
#   compute-bound (Table 3 ARM: 4.1× Nimble) though its GEMV streaming is
#   OpenBLAS-class;
# * MXNet's ARM BLAS trails across the board (20.3× on LSTM).
from repro.hardware.specs import LibraryProfile

FRAMEWORK_LIBRARY = {
    ("tensorflow", "arm"): LibraryProfile(
        name="eigen-arm", gemm_efficiency=0.33, bandwidth_fraction=0.30,
        elemwise_efficiency=0.50,
    ),
    ("tensorflow", "intel"): LibraryProfile(
        name="eigen-intel", gemm_efficiency=0.32, bandwidth_fraction=0.55,
        elemwise_efficiency=0.40,
    ),
    ("pytorch", "arm"): LibraryProfile(
        name="aten-arm", gemm_efficiency=0.085, bandwidth_fraction=0.13,
        elemwise_efficiency=0.35,
    ),
    ("mxnet", "arm"): LibraryProfile(
        name="openblas-arm", gemm_efficiency=0.126, bandwidth_fraction=0.055,
        elemwise_efficiency=0.15,
    ),
}

# MXNet foreach/while_loop operator: per-iteration scheduling.
HYBRID_LOOP_ITER_US = {"intel": 12.0, "nvidia": 10.0, "arm": 60.0}

# PyTorch: Python-level recursion + tensor bookkeeping per tree node.
EAGER_TREE_NODE_US = {"intel": 300.0, "nvidia": 300.0, "arm": 380.0}

# TF Fold: per-input analysis + graph construction + compilation. The
# paper reports Fold on Intel only (it was not built on ARM), so these
# name only that platform, and FoldFramework.supports reads them.
FOLD_COMPILE_PER_INPUT_US = {"intel": 3600.0}
# Fold's batched execution: per-depth-level scheduling cost.
FOLD_LEVEL_US = {"intel": 25.0}

# Session / engine fixed cost per inference call.
SESSION_RUN_US = {"intel": 20.0, "nvidia": 25.0, "arm": 70.0}
