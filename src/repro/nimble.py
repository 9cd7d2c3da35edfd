"""The public compile-and-run API.

    import repro.nimble as nimble
    from repro.hardware import intel_cpu

    exe, report = nimble.build(mod, platform=intel_cpu())
    vm = nimble.VirtualMachine(exe)
    out = vm.run(x)

``build`` runs the full dynamic-compilation pipeline of Figure 2: type
inference with ``Any`` → constant folding → simplification → ANF → CSE →
DCE → dynamic-aware fusion → manifest allocation → memory planning →
device placement → VM bytecode + kernel generation.

``specialize`` is the static tier of the same pipeline: it binds the
entry function's ``Any`` dims to concrete values (``SpecializeShapes``)
and re-runs the identical pass sequence, so shape functions disappear,
allocations get compile-time sizes, and kernels compile without residue
dispatch — while sharing the dynamic build's :class:`KernelCache` so
common (already-static) kernels compile once.

Specialization is *staged*: the shape-independent front of the pipeline
— type inference over the dynamic module, constant folding,
simplification, ANF conversion, CSE, DCE, and lambda lifting — depends
only on (module, platform), never on which shape gets bound, so
:func:`build_prefix` runs it once and packages the result as a
:class:`SpecializationPrefix`. ``specialize(prefix=...)`` then runs only
the *suffix* per variant: substitute the binding, finish residual type
inference, and re-run fusion, manifest allocation, placement, planning,
and codegen. Member and batched variants of the same shape share one
prefix. :func:`compile_prefix` adds the caching: in-process per
(fingerprint, platform), and persistently in the ``repro.store``
artifact store, so even a restarted server skips the prefix work.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.kernels import KernelCache
from repro.core.device import DevicePlace, PlacementReport
from repro.core.memory import ManifestAlloc, MemoryPlan, MemoryPlanReport
from repro.core.typing import InferType, translate_binding
from repro.errors import CompilerError, SerializationError
from repro.hardware.platforms import Platform, intel_cpu
from repro.ir.module import IRModule
from repro.ir.printer import module_fingerprint
from repro.passes import (
    CommonSubexprElimination,
    DeadCodeElimination,
    FoldConstant,
    FuseOps,
    LambdaLift,
    Sequential,
    SimplifyExpressions,
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
    bytecode_bytes: int = 0
    kernel_code_bytes: int = 0
    # The module right after type inference: callers that need checked
    # types (e.g. the serving layer's shape bucketer) reuse this instead
    # of re-running inference.
    typed_module: Optional[IRModule] = None


def _lower_and_compile(
    typed: IRModule,
    platform: Platform,
    options: CompilerOptions,
    plan_memory: bool,
    kernel_cache: Optional[KernelCache],
    source_signature: str,
    passes: List,
    pre_timings: Dict[str, float],
) -> Tuple[Executable, BuildReport]:
    """The shared back half of every compile: run *passes* (then
    placement and planning) over the already type-checked *typed*, emit
    VM bytecode + kernels, and stamp the artifact-store identity."""
    passes = list(passes)
    # Placement must precede planning: the coalescer may only multiplex
    # tensors that live on the same device, and output buffers must be
    # allocated directly on their kernel's device (never copy-patched).
    device_pass = DevicePlace(platform.host, platform.compute)
    passes.append(device_pass)
    memory_pass = MemoryPlan() if plan_memory else None
    if memory_pass is not None:
        passes.append(memory_pass)

    pipeline = Sequential(passes)
    lowered = pipeline.run(typed)

    compiler = VMCompiler(platform, options, kernel_cache)
    exe = compiler.compile(lowered)
    # Stamp the artifact-store identity: which module these bytes were
    # compiled from. `specialize` passes the *dynamic* source module's
    # fingerprint so all of one model's shape variants share a module
    # identity in the store key.
    exe.source_signature = source_signature

    report = BuildReport(
        pass_timings={**pre_timings, **pipeline.timings},
        memory=memory_pass.report if memory_pass is not None else None,
        placement=device_pass.report,
        num_kernels=len(exe.kernels),
        num_instructions=exe.num_instructions,
        bytecode_bytes=exe.bytecode_size_bytes(),
        kernel_code_bytes=exe.kernel_code_size_bytes(),
        typed_module=typed,
    )
    return exe, report


def build(
    mod: IRModule,
    platform: Optional[Platform] = None,
    options: Optional[CompilerOptions] = None,
    plan_memory: bool = True,
    kernel_cache: Optional[KernelCache] = None,
    source_signature: Optional[str] = None,
) -> Tuple[Executable, BuildReport]:
    """Compile a module for *platform*. ``plan_memory=False`` disables the
    §4.3 coalescing/kill pass (the memory-planning ablation).
    ``source_signature`` overrides the artifact-store identity stamped on
    the executable (fingerprinting hashes every constant's bytes, so
    callers that already hold the right fingerprint — ``specialize``, the
    serving manager — pass it instead of paying the hash again)."""
    platform = platform or intel_cpu()
    options = options or CompilerOptions()

    infer_start = time.perf_counter()
    typed = InferType()(mod)
    infer_time = time.perf_counter() - infer_start

    passes = [
        FoldConstant(),
        SimplifyExpressions(),
        ToANF(),
        CommonSubexprElimination(),
        DeadCodeElimination(),
        LambdaLift(),
        FuseOps(),
        ManifestAlloc(),
    ]
    signature = (
        source_signature if source_signature is not None
        else module_fingerprint(mod)
    )
    return _lower_and_compile(
        typed, platform, options, plan_memory, kernel_cache, signature,
        passes, {"InferType": infer_time},
    )


# ---------------------------------------------------------------------------
# Staged specialization: the shape-independent prefix
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


@contextlib.contextmanager
def _deep_recursion(limit: int = 20_000):
    """Pickling an ANF module recurses once per Let link; a long chain
    overruns the default interpreter limit long before it troubles
    memory. Raised temporarily, never lowered."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@dataclass
class SpecializationPrefix:
    """The shape-independent front of the specialization pipeline, run
    once per (module fingerprint, platform) and shared by every shape
    variant — member-wise and batched alike.

    ``module`` is the dynamic module after type inference, constant
    folding, simplification, ANF conversion, CSE, DCE, and lambda
    lifting: everything that does not depend on which ``Any`` tokens get
    bound. Fusion is deliberately *not* in the prefix — fused primitive
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
        with _deep_recursion():
            pickled = pickle.dumps(
                identity, protocol=5, buffer_callback=lambda b: buffers.append(b.raw())
            )
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
        reader = ChunkReader(chunks)
        try:
            size, count = struct.unpack("<2Q", reader.read(16))
            lengths = struct.unpack(f"<{count}Q", reader.read(8 * count))
            pickled = reader.read(size)
            buffers = [reader.array(n) for n in lengths]
            with _deep_recursion():
                signature, platform_name, entry, module = pickle.loads(
                    pickled, buffers=buffers
                )
        except Exception as err:  # corrupt pickles raise all sorts
            raise SerializationError(
                f"prefix blob failed to deserialize: {err}"
            )
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


def build_prefix(
    mod: IRModule,
    platform: Optional[Platform] = None,
    source_signature: Optional[str] = None,
    entry: str = "main",
) -> SpecializationPrefix:
    """Run the shape-independent prefix of the specialization pipeline
    over the *dynamic* module: inference with ``Any`` dims, then every
    normalization pass whose output a shape binding cannot change.
    The result feeds ``specialize(prefix=...)`` for each variant."""
    platform = platform or intel_cpu()
    signature = (
        source_signature if source_signature is not None
        else module_fingerprint(mod)
    )
    infer_start = time.perf_counter()
    typed = InferType()(mod)
    infer_time = time.perf_counter() - infer_start
    pipeline = Sequential(
        [
            FoldConstant(),
            SimplifyExpressions(),
            ToANF(),
            CommonSubexprElimination(),
            DeadCodeElimination(),
            LambdaLift(),
        ]
    )
    normalized = pipeline.run(typed)
    if entry not in normalized:
        raise CompilerError(f"module has no entry function {entry!r}")
    return SpecializationPrefix(
        module=normalized,
        source_signature=signature,
        platform_name=platform.name,
        entry=entry,
        pass_timings={"InferType": infer_time, **pipeline.timings},
    )


# The in-process prefix cache, keyed (module fingerprint, platform name).
# Entries are inserted only after a prefix builds *completely* — an
# exception mid-construction leaves no partial entry to poison later
# callers (see compile_prefix).
_PREFIX_CACHE: Dict[Tuple[str, str], SpecializationPrefix] = {}


def clear_prefix_cache() -> None:
    """Drop every in-process cached prefix (test isolation hook)."""
    _PREFIX_CACHE.clear()


def compile_prefix(
    mod: IRModule,
    platform: Optional[Platform] = None,
    source_signature: Optional[str] = None,
    entry: str = "main",
    store=None,
    use_cache: bool = True,
) -> Tuple[SpecializationPrefix, str]:
    """Obtain the specialization prefix for (mod, platform), cheapest
    source first; returns ``(prefix, origin)`` with origin one of
    ``"memory"`` (in-process cache), ``"store"`` (validated artifact-
    store blob), or ``"built"`` (computed now).

    Cache-poisoning safety: the in-process cache and the store are
    written strictly *after* a complete, successful build — a pass that
    raises mid-prefix leaves both untouched, so the next call rebuilds
    from scratch instead of reusing a partial result. Store blobs that
    fail validation are skipped (the store counts the reject in its
    ``reject_log``) and the prefix is rebuilt — never trusted."""
    platform = platform or intel_cpu()
    signature = (
        source_signature if source_signature is not None
        else module_fingerprint(mod)
    )
    key = (signature, platform.name)
    if use_cache:
        found = _PREFIX_CACHE.get(key)
        if found is not None:
            return found, "memory"
    if store is not None:
        found = store.get_prefix(
            prefix_store_key(signature, platform.name),
            expected_signature=signature,
        )
        if found is not None:
            if use_cache:
                _PREFIX_CACHE[key] = found
            return found, "store"
    prefix = build_prefix(
        mod, platform, source_signature=signature, entry=entry
    )
    if use_cache:
        _PREFIX_CACHE[key] = prefix
    if store is not None:
        store.put_prefix(prefix)
    return prefix, "built"


def specialize(
    mod: IRModule,
    platform: Optional[Platform] = None,
    shapes=None,
    binding=None,
    options: Optional[CompilerOptions] = None,
    plan_memory: bool = True,
    kernel_cache: Optional[KernelCache] = None,
    entry: str = "main",
    batch: int = 1,
    source_signature: Optional[str] = None,
    prefix: Optional[SpecializationPrefix] = None,
) -> Tuple[Executable, BuildReport]:
    """Compile a static-shape executable for one concrete input shape.

    ``shapes`` gives one shape spec per entry parameter (a tuple of ints
    for tensor params, nested tuples for tuple params, ``None`` to leave
    a param dynamic); alternatively ``binding`` maps ``Any`` identity
    tokens to values directly. Pass the dynamic build's ``kernel_cache``
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

    With ``prefix`` (a :class:`SpecializationPrefix` for this module and
    platform), only the shape-binding *suffix* runs: the binding is
    substituted into the already normalized prefix module, residual type
    inference finishes the staticization, and just fusion, manifest
    allocation, placement, planning, and codegen execute per variant.
    Outputs are bit-identical to the monolithic path and the executable
    carries the same artifact key (``tests/test_differential.py`` fuzzes
    both claims); only the per-variant compile work shrinks.
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
    if prefix is not None:
        return _specialize_from_prefix(
            mod, prefix, platform, shapes, binding, options, plan_memory,
            kernel_cache, entry, batch, source_signature,
        )
    spec_pass = SpecializeShapes(shapes=shapes, binding=binding, entry=entry)
    specialized = spec_pass(mod)
    if batch > 1:
        specialized = SpecializeBatch(batch, entry=entry)(specialized)
    opts = _variant_options(options, spec_pass.bound_shapes, batch)
    return build(
        specialized, platform, opts, plan_memory=plan_memory,
        kernel_cache=kernel_cache, source_signature=source_signature,
    )


def _variant_options(
    base: Optional[CompilerOptions], bound_shapes, batch: int
) -> CompilerOptions:
    base = base or CompilerOptions()
    return CompilerOptions(
        tune=base.tune,
        num_dispatch_kernels=base.num_dispatch_kernels,
        allow_library=base.allow_library,
        schedule=base.schedule,
        tuning_trials=base.tuning_trials,
        specialized_shapes=bound_shapes,
        specialized_batch=batch if batch > 1 else None,
        device_streams=base.device_streams,
        verify=base.verify,
    )


def _specialize_from_prefix(
    mod: IRModule,
    prefix: SpecializationPrefix,
    platform: Platform,
    shapes,
    binding,
    options: Optional[CompilerOptions],
    plan_memory: bool,
    kernel_cache: Optional[KernelCache],
    entry: str,
    batch: int,
    source_signature: str,
) -> Tuple[Executable, BuildReport]:
    """The shape-binding suffix: everything ``specialize`` must redo per
    variant once the shape-independent prefix exists."""
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
    if binding:
        # The binding is expressed in the *source* module's Any-token
        # space. In-process the prefix shares those token objects, but a
        # store-restored prefix was pickled under another process's
        # token counter — translate positionally (entry annotations are
        # structurally identical) so the substitution lands either way.
        binding = translate_binding(mod[entry], prefix.module[entry], binding)
    spec_pass = SpecializeShapes(shapes=shapes, binding=binding, entry=entry)
    specialized = spec_pass(prefix.module)
    if batch > 1:
        specialized = SpecializeBatch(batch, entry=entry)(specialized)

    infer_start = time.perf_counter()
    typed = InferType()(specialized)
    infer_time = time.perf_counter() - infer_start
    # The prefix module is already in strict ANF and the shape
    # substitution preserves that structure, so the member-wise suffix
    # goes straight to fusion. The batch rewrite, however, emits nested
    # calls (lifted reshapes, offset-index chains), so its suffix
    # re-normalizes first — exactly what the monolithic path's full
    # pipeline did after SpecializeBatch.
    passes: List = []
    if batch > 1:
        passes += [
            ToANF(),
            CommonSubexprElimination(),
            DeadCodeElimination(),
        ]
    passes += [FuseOps(), ManifestAlloc()]
    opts = _variant_options(options, spec_pass.bound_shapes, batch)
    return _lower_and_compile(
        typed, platform, opts, plan_memory, kernel_cache, source_signature,
        passes, {"InferType": infer_time},
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
