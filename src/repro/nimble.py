"""The public compile-and-run API.

    import repro.nimble as nimble
    from repro.hardware import intel_cpu

    exe, report = nimble.build(mod, platform=intel_cpu())
    vm = nimble.VirtualMachine(exe)
    out = vm.run(x)

Every compile is one pipeline (Figure 2) in two stages. The *prefix*
— type inference with ``Any`` → constant folding → ANF → CSE → (on
one-queue platforms) combining parallel dense layers → lambda lifting
— depends only on (module, platform), never on which shape gets bound.
The *suffix* — dynamic-aware fusion → manifest allocation → device
placement → memory planning → VM bytecode + kernel generation — runs
once per executable.

``build`` runs the prefix and then the suffix with no binding: the
dynamic executable. ``specialize`` is the static tier of the same
pipeline: it resumes from a prefix, binds the entry function's ``Any``
dims to concrete values (``SpecializeShapes``, plus ``SpecializeBatch``
for a batched variant), finishes type inference and runs the same
suffix, so shape functions disappear, allocations get compile-time
sizes, and kernels compile without residue dispatch — while sharing the
dynamic build's :class:`KernelCache` so common (already-static) kernels
compile once.

:func:`build_prefix` packages the prefix as a
:class:`SpecializationPrefix`; member and batched variants of the same
shape share one, and ``specialize(prefix=None)`` builds a fresh one for
the call. :func:`compile_prefix` caches prefixes in-process per
(fingerprint, platform); the serving layer also persists them in the
``repro.store`` artifact store, so a restarted server skips the prefix
work.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.kernels import KernelCache
from repro.core.device import DevicePlace, PlacementReport
from repro.core.memory import ManifestAlloc, MemoryPlan, MemoryPlanReport
from repro.core.typing import InferType
from repro.errors import CompilerError, SerializationError
from repro.hardware.platforms import Platform, intel_cpu
from repro.ir import codec
from repro.ir.module import IRModule
from repro.ir.printer import module_fingerprint
from repro.passes import (
    CombineParallelDense,
    CommonSubexprElimination,
    FoldConstant,
    FuseOps,
    LambdaLift,
    Sequential,
    SpecializeBatch,
    SpecializeShapes,
    ToANF,
)
from repro.vm.compiler import CompilerOptions, VMCompiler
from repro.vm.executable import ChunkReader, Executable
from repro.vm.interpreter import VirtualMachine  # re-export for convenience

__all__ = [
    "build",
    "build_prefix",
    "compile_prefix",
    "clear_prefix_cache",
    "prefix_store_key",
    "specialize",
    "save_artifacts",
    "load_artifacts",
    "BuildReport",
    "CompilerOptions",
    "SpecializationPrefix",
    "VirtualMachine",
]


@dataclass
class BuildReport:
    """Everything the compiler learned along the way (used by benchmarks)."""

    pass_timings: Dict[str, float] = field(default_factory=dict)
    memory: Optional[MemoryPlanReport] = None
    placement: Optional[PlacementReport] = None
    num_kernels: int = 0
    num_instructions: int = 0
    # The module right after type inference: callers that need checked
    # types (e.g. the serving layer's shape bucketer) reuse this instead
    # of re-running inference.
    typed_module: Optional[IRModule] = None


# ---------------------------------------------------------------------------
# The prefix: shape-independent, run once per (module, platform)
# ---------------------------------------------------------------------------

# Serialization version of prefix payloads (the store stamps it on their
# envelope). Bumping it changes every prefix store key (the version is a
# key component), so stale blobs are never even looked up — the same
# structural-staleness scheme executables use.
PREFIX_VERSION = 2


def prefix_store_key(source_signature: str, platform_name: str) -> str:
    """The artifact-store key of one module's specialization prefix:
    content-addressed over (module fingerprint, platform, blob format),
    mirroring :func:`repro.vm.executable.artifact_key` for executables."""
    identity = repr(("nimble-prefix", source_signature, platform_name, PREFIX_VERSION))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


@dataclass
class SpecializationPrefix:
    """The shape-independent front of the specialization pipeline, run
    once per (module fingerprint, platform) and shared by every shape
    variant — member-wise and batched alike.

    ``module`` is the dynamic module after type inference, constant
    folding, ANF conversion, CSE, combining parallel dense layers
    (one-queue platforms) and lambda lifting: everything that does not
    depend on which ``Any`` tokens get bound.
    Fusion is deliberately *not* in the prefix — fused primitive
    parameters carry checked-type annotations with fresh ``Any`` tokens
    a later binding could never reach, and the batch rewrite needs a
    pre-fusion module — so fusion runs in the per-variant suffix, after
    binding, where it sees static extents.

    ``save``/``load`` are the payload the artifact store seals in its
    envelope (``repro.store.envelope`` owns magic, version and digest):
    the pickled module plus its identity. ``load`` checks what only the
    payload can say — that it holds a module, built from the expected
    source — and raises :class:`SerializationError`, which the store
    turns into a counted skip, never a wrong compile."""

    module: IRModule
    source_signature: str
    platform_name: str
    entry: str = "main"
    pass_timings: Dict[str, float] = field(default_factory=dict)

    def store_key(self) -> str:
        return prefix_store_key(self.source_signature, self.platform_name)

    def save(self) -> bytes:
        return b"".join(self.save_chunks())

    def save_chunks(self) -> list:
        """:meth:`save` in the pieces it is joined from: lengths and
        pickle as ``bytes``, then every array buffer of the module as a
        ``memoryview`` — raw C-contiguous bytes, so a weight is the same
        store chunk here as in the executables compiled from it."""
        buffers = []
        identity = (self.source_signature, self.platform_name, self.entry, self.module)
        pickled = codec.dumps(identity, buffer_callback=lambda b: buffers.append(b.raw()))
        sizes = (len(pickled), len(buffers), *(len(b) for b in buffers))
        return [struct.pack(f"<{len(sizes)}Q", *sizes) + pickled, *buffers]

    @staticmethod
    def load(
        payload: bytes, expected_signature: Optional[str] = None
    ) -> "SpecializationPrefix":
        return SpecializationPrefix.load_chunks([payload], expected_signature)

    @staticmethod
    def load_chunks(
        chunks, expected_signature: Optional[str] = None
    ) -> "SpecializationPrefix":
        """Deserialize the byte stream *chunks* concatenate to. As in
        ``Executable.load_chunks`` a buffer that is one array chunk is
        shared and any other copied (pickle would alias the payload)."""
        with codec.decoding("prefix blob"):
            reader = ChunkReader(chunks)
            size, count = struct.unpack("<2Q", reader.read(16))
            lengths = struct.unpack(f"<{count}Q", reader.read(8 * count))
            pickled = reader.read(size)
            buffers = [reader.array(n) for n in lengths]
            signature, platform_name, entry, module = codec.loads(pickled, buffers)
        if not isinstance(module, IRModule):
            raise SerializationError(
                f"prefix blob holds a {type(module).__name__}, not a module"
            )
        if expected_signature is not None and signature != expected_signature:
            raise SerializationError(
                f"prefix was built from module {signature[:12]}…, "
                f"expected {expected_signature[:12]}…"
            )
        return SpecializationPrefix(
            module=module,
            source_signature=signature,
            platform_name=platform_name,
            entry=entry,
        )


def _run_prefix(
    mod: IRModule, platform: Platform
) -> Tuple[IRModule, IRModule, Dict[str, float]]:
    """The shape-independent prefix every compile starts with: inference
    with ``Any`` dims, then every normalization pass whose output a
    shape binding cannot change. Parallel dense layers combine into one
    GEMM only where the platform has one device queue: with more, the
    stream scheduler overlaps them instead. Returns the typed source
    module, the normalized module and the pass timings."""
    infer_start = time.perf_counter()
    typed = InferType()(mod)
    infer_time = time.perf_counter() - infer_start
    one_queue = [CombineParallelDense()] if platform.max_streams == 1 else []
    pipeline = Sequential(
        [
            FoldConstant(),
            ToANF(),
            CommonSubexprElimination(),
            *one_queue,
            LambdaLift(),
        ]
    )
    normalized = pipeline.run(typed)
    return typed, normalized, _summed({"InferType": infer_time}, pipeline.timings)


def build_prefix(
    mod: IRModule,
    platform: Optional[Platform] = None,
    source_signature: Optional[str] = None,
    entry: str = "main",
) -> SpecializationPrefix:
    """Run the prefix over the *dynamic* module and package it for
    ``specialize(prefix=...)``: every variant of the module, member-wise
    and batched, resumes from it."""
    platform = platform or intel_cpu()
    signature = (
        source_signature if source_signature is not None
        else module_fingerprint(mod)
    )
    _, normalized, timings = _run_prefix(mod, platform)
    if entry not in normalized:
        raise CompilerError(f"module has no entry function {entry!r}")
    return SpecializationPrefix(
        module=normalized,
        source_signature=signature,
        platform_name=platform.name,
        entry=entry,
        pass_timings=timings,
    )


# The in-process prefix cache, keyed (module fingerprint, platform name).
# Entries are inserted only after a prefix builds *completely* — an
# exception mid-construction leaves no partial entry to poison later
# callers.
_PREFIX_CACHE: Dict[Tuple[str, str], SpecializationPrefix] = {}


def clear_prefix_cache() -> None:
    """Drop every in-process cached prefix (test isolation hook)."""
    _PREFIX_CACHE.clear()


def compile_prefix(
    mod: IRModule,
    platform: Optional[Platform] = None,
    source_signature: Optional[str] = None,
    entry: str = "main",
    use_cache: bool = True,
) -> Tuple[SpecializationPrefix, str]:
    """:func:`build_prefix` behind the in-process cache; returns
    ``(prefix, origin)`` with origin ``"memory"`` (cached) or
    ``"built"`` (computed now). Persisting prefixes across processes is
    the serving layer's job (``SpecializationManager`` reads and writes
    them through its artifact store)."""
    platform = platform or intel_cpu()
    signature = (
        source_signature if source_signature is not None
        else module_fingerprint(mod)
    )
    key = (signature, platform.name)
    if use_cache and key in _PREFIX_CACHE:
        return _PREFIX_CACHE[key], "memory"
    prefix = build_prefix(mod, platform, source_signature=signature, entry=entry)
    if use_cache:
        _PREFIX_CACHE[key] = prefix
    return prefix, "built"


# ---------------------------------------------------------------------------
# The suffix: everything that depends on the binding
# ---------------------------------------------------------------------------


def _summed(*timings: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in timings:
        for name, seconds in part.items():
            out[name] = out.get(name, 0.0) + seconds
    return out


def _compile_suffix(
    module: IRModule,
    platform: Platform,
    options: Optional[CompilerOptions],
    kernel_cache: Optional[KernelCache],
    source_signature: str,
    timings: Dict[str, float],
    plan_memory: bool = True,
    specialized_shapes: Optional[tuple] = None,
    specialized_batch: Optional[int] = None,
) -> Tuple[Executable, BuildReport]:
    """The one suffix of every compile, over a typed, normalized module:
    fusion, manifest allocation, placement and planning, then VM
    bytecode + kernels, stamped with the artifact-store identity and
    what the executable was specialized to (``None`` for a dynamic
    build)."""
    passes: List = []
    if specialized_batch is not None:
        # The batch rewrite emits nested calls (lifted reshapes,
        # offset-index chains), so a batched module re-normalizes before
        # fusion; a bare shape binding keeps the prefix's strict ANF.
        passes += [ToANF(), CommonSubexprElimination()]
    # Placement must precede planning: the coalescer may only multiplex
    # tensors that live on the same device, and output buffers must be
    # allocated directly on their kernel's device (never copy-patched).
    device_pass = DevicePlace(platform.host, platform.compute)
    passes += [FuseOps(), ManifestAlloc(), device_pass]
    memory_pass = MemoryPlan() if plan_memory else None
    if memory_pass is not None:
        passes.append(memory_pass)

    pipeline = Sequential(passes)
    lowered = pipeline.run(module)

    compiler = VMCompiler(platform, options, kernel_cache)
    exe = compiler.compile(lowered, specialized_shapes, specialized_batch)
    # Which module these bytes were compiled from: always the *dynamic*
    # source, so all of one model's shape variants share a module
    # identity in the store key.
    exe.source_signature = source_signature

    report = BuildReport(
        pass_timings=_summed(timings, pipeline.timings),
        memory=memory_pass.report if memory_pass is not None else None,
        placement=device_pass.report,
        num_kernels=len(exe.kernels),
        num_instructions=exe.num_instructions,
        typed_module=module,
    )
    return exe, report


def build(
    mod: IRModule,
    platform: Optional[Platform] = None,
    options: Optional[CompilerOptions] = None,
    plan_memory: bool = True,
    kernel_cache: Optional[KernelCache] = None,
) -> Tuple[Executable, BuildReport]:
    """Compile a module for *platform*: the prefix, then the suffix with
    no binding. ``plan_memory=False`` disables the §4.3 coalescing/kill
    pass (the memory-planning ablation)."""
    platform = platform or intel_cpu()
    typed, normalized, timings = _run_prefix(mod, platform)
    exe, report = _compile_suffix(
        normalized, platform, options, kernel_cache,
        module_fingerprint(mod), timings, plan_memory=plan_memory,
    )
    # The serving layer's shape bucketer reads the entry's `Any` tokens
    # off the typed *source* module.
    report.typed_module = typed
    return exe, report


def specialize(
    mod: IRModule,
    platform: Optional[Platform] = None,
    shapes=None,
    options: Optional[CompilerOptions] = None,
    kernel_cache: Optional[KernelCache] = None,
    entry: str = "main",
    batch: int = 1,
    source_signature: Optional[str] = None,
    prefix: Optional[SpecializationPrefix] = None,
) -> Tuple[Executable, BuildReport]:
    """Compile a static-shape executable for one concrete input shape.

    ``shapes`` gives one shape spec per entry parameter (a tuple of ints
    for tensor params, nested tuples for tuple params, ``None`` to leave
    a param dynamic, ``None`` for a tensor dim to leave that dim
    dynamic). Pass the dynamic build's ``kernel_cache``
    to share already-compiled static kernels between the tiers. The
    returned executable carries ``specialized_shapes`` describing what it
    was specialized to, and its outputs are bit-identical to the dynamic
    executable's on matching inputs — only the dispatch/shape-function/
    allocation overhead changes.

    ``batch > 1`` additionally specializes at *batch granularity*
    (:class:`SpecializeBatch`): the executable runs ``batch``
    identical-shape members per call — inputs stacked along axis 0,
    outputs split back — with each GEMM site compiling to one batched
    kernel instead of ``batch`` member-wise launches. Outputs remain
    bit-identical per member. ``specialized_shapes`` stays in member
    terms; the stacking factor is recorded separately as
    ``specialized_batch``. Raises
    :class:`repro.passes.BatchSpecializeError` on modules that cannot be
    batch-rewritten (e.g. ADT entries).

    Every variant resumes from a :class:`SpecializationPrefix` for this
    module and platform: ``prefix`` if given (member and batched
    variants share one), else one built for this call alone. The
    binding is substituted into the normalized prefix module, residual
    type inference finishes the staticization, and the suffix ``build``
    ends with runs. A shared prefix and a per-call one give the same
    artifact key and bitwise-identical outputs
    (``tests/test_differential.py`` fuzzes both claims).
    """
    platform = platform or intel_cpu()
    # The store key's module component must be the *dynamic* source
    # module — the thing a restarted server still has in hand when it
    # asks "do I already own a build for this shape?" — not the
    # specialized module, which only exists after the compile the store
    # is supposed to skip. Computed here (once) unless the caller
    # already holds it.
    if source_signature is None:
        source_signature = module_fingerprint(mod)
    timings: Dict[str, float] = {}
    if prefix is None:
        prefix = build_prefix(mod, platform, source_signature, entry)
        timings = prefix.pass_timings
    if prefix.source_signature != source_signature:
        raise CompilerError(
            f"specialization prefix was built from module "
            f"{prefix.source_signature[:12]}…, not {source_signature[:12]}…"
        )
    if prefix.platform_name != platform.name:
        raise CompilerError(
            f"specialization prefix was built for platform "
            f"{prefix.platform_name!r}, not {platform.name!r}"
        )
    if entry not in prefix.module or entry not in mod:
        raise CompilerError(f"module has no entry function {entry!r}")
    spec_pass = SpecializeShapes(shapes=shapes, entry=entry)
    specialized = spec_pass(prefix.module)
    if batch > 1:
        specialized = SpecializeBatch(batch, entry=entry)(specialized)

    infer_start = time.perf_counter()
    typed = InferType()(specialized)
    infer_time = time.perf_counter() - infer_start
    return _compile_suffix(
        typed, platform, options, kernel_cache, source_signature,
        _summed(timings, {"InferType": infer_time}),
        specialized_shapes=spec_pass.bound_shapes,
        specialized_batch=batch if batch > 1 else None,
    )

# ---------------------------------------------------------------------------
# Artifact persistence (the on-disk store, `repro.store`)
# ---------------------------------------------------------------------------


def save_artifacts(
    artifact_dir,
    executables: Sequence[Executable],
    kernel_cache: Optional[KernelCache] = None,
) -> List[str]:
    """Persist compiled *executables* (and optionally the shared
    *kernel_cache*) to the versioned store at *artifact_dir*; returns
    the content-hash key each executable was filed under.

    The inverse of :func:`load_artifacts`. The serving layer does this
    automatically (``ServeConfig(artifact_dir=...)``); the free
    functions cover ahead-of-time deployment — compile a model's known
    shapes once, ship the directory, start every replica warm.
    """
    from repro.store import ArtifactStore

    store = ArtifactStore(artifact_dir)
    keys = [store.put(exe) for exe in executables]
    if kernel_cache is not None:
        store.save_kernel_cache(kernel_cache)
    return keys


def load_artifacts(
    artifact_dir,
    kernel_cache: Optional[KernelCache] = None,
) -> Dict[str, Executable]:
    """Load every valid artifact in the store at *artifact_dir*, keyed
    by content hash; corrupt or stale blobs are skipped (see
    ``ArtifactStore.reject_log``), never raised. When *kernel_cache* is
    given, the persisted kernel cache merges into it, so subsequent
    ``build``/``specialize`` calls reuse the stored tuning work.
    """
    from repro.store import ArtifactStore

    store = ArtifactStore(artifact_dir)
    if kernel_cache is not None:
        store.load_kernel_cache(kernel_cache)
    out: Dict[str, Executable] = {}
    for key in store.keys():
        exe = store.get(key)
        if exe is not None:
            out[key] = exe
    return out
