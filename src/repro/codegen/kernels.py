"""Compiled kernel artifacts and runtime shape dispatch (§4.5).

A :class:`KernelSet` is what the VM's ``InvokePacked`` invokes: the NumPy
executor for the fused group plus a dispatch table of residue-specialized
symbolic variants and (optionally) a vendor-library alternative. At call
time the set inspects the runtime shapes, dispatches to the variant for
``rows % tile``, and reports the modeled duration — choosing the library
implementation when profiling says it is faster, exactly the paper's
selection mechanism.

:class:`ShapeFuncKernel` is the compiled form of a shape function; it runs
on the host and its cost is charged as "other instructions" in the
Table 4 breakdown.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.cost_model import kernel_cost_us
from repro.codegen.schedule import TUNE_AT, Schedule, best_schedule, default_schedule
from repro.codegen.workload import GEMM_OPS, KernelProgram, Workload, compute_workload
from repro.core.memory.prim_info import (
    PrimFuncInfo,
    analyze_prim_func,
    prim_calls,
    run_fused_shape_func,
)
from repro.errors import CompilerError, NimbleError
from repro.hardware import calibration
from repro.hardware.platforms import Platform
from repro.hardware.specs import DeviceSpec
from repro.ir import codec
from repro.ir.analysis import structural_equal, structural_hash
from repro.ir.expr import Constant, Expr, Function, Var
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, has_any_dim, type_hash
from repro.ops.shape_funcs import prod

Shape = Tuple[int, ...]


def canonical_mnk(func: Function, in_shapes: Sequence[Shape], out_shape: Shape) -> Tuple[int, int, int]:
    """(rows, cols, reduction) the schedule's loop nest maps to."""
    param_index = {p: i for i, p in enumerate(func.params)}

    def arg_shape(arg: Expr, fallback: Shape) -> Shape:
        if isinstance(arg, Var) and arg in param_index:
            return tuple(in_shapes[param_index[arg]])
        if isinstance(arg, Constant):
            return tuple(arg.value.shape)
        return fallback

    for call in prim_calls(func):
        if isinstance(call.op, Op) and call.op.name in GEMM_OPS:
            if call.op.name == "nn.dense":
                d_shape = arg_shape(call.args[0], out_shape)
                w_shape = arg_shape(call.args[1], (1, 1))
                m = prod(d_shape[:-1]) if len(d_shape) > 1 else 1
                return (max(1, m), w_shape[0], w_shape[1])
            if call.op.name == "nn.batch_matmul":
                a_shape = arg_shape(call.args[0], out_shape)
                return (max(1, a_shape[0] * a_shape[1]), out_shape[-1], a_shape[-1])
            if call.op.name == "nn.conv2d":
                w_shape = arg_shape(call.args[1], (1, 1, 1, 1))
                m = prod(out_shape) // max(1, out_shape[1]) if len(out_shape) == 4 else prod(out_shape)
                return (max(1, m), w_shape[0], prod(w_shape[1:]))
    # Elementwise / injective kernels: rows × cols of the output.
    if len(out_shape) >= 2:
        return (prod(out_shape[:-1]), out_shape[-1], 1)
    return (out_shape[0] if out_shape else 1, 1, 1)


def instantiate_shapes(prim: Function, m: int) -> List[Shape]:
    """Concrete input shapes with every ``Any`` dim replaced by *m* (current
    dynamic models need a single symbolic variable — §4.5)."""
    shapes: List[Shape] = []
    for p in prim.params:
        ty = p.checked_type or p.type_annotation
        if not isinstance(ty, TensorType):
            raise CompilerError(f"cannot instantiate non-tensor param {p.name_hint}")
        shapes.append(tuple(m if isinstance(d, Any) else d for d in ty.shape))
    return shapes


def build_schedule(prim: Function, searches: Dict[tuple, Schedule]) -> Schedule:
    """The schedule a build gives *prim*: :func:`best_schedule` at the
    canonical (m, n, k) of its shapes, each ``Any`` at ``TUNE_AT`` rows.
    A kernel whose shapes do not determine its workload (data-dependent
    outputs, non-tensor params) keeps the default. *searches* holds one
    search per (m, n, k, symbolic), shared by the kernels of one cache."""
    try:
        in_shapes = instantiate_shapes(prim, TUNE_AT)
        workload = compute_workload(prim, in_shapes)
    except NimbleError:
        return default_schedule()
    key = (*canonical_mnk(prim, in_shapes, workload.out_shapes[0]), is_symbolic_prim(prim))
    found = searches.get(key)
    if found is None:
        found = searches[key] = best_schedule(*key)
    return found


def prim_signature(func: Function) -> Tuple[int, ...]:
    """Shape-signature component of a kernel cache key.

    ``structural_hash`` is alpha-insensitive and ignores variable *types*,
    so a shape-specialized prim (``dense`` over ``(12, 16)``) hashes equal
    to its symbolic original (``dense`` over ``(Any, 16)``). Keying caches
    on structure alone would hand the symbolic kernel back to a static
    compile (and vice versa); the type hashes of params and return
    disambiguate — ``type_hash`` maps ``Any`` to a distinct marker.
    """
    parts = []
    for p in func.params:
        ty = p.checked_type or p.type_annotation
        parts.append(type_hash(ty) if ty is not None else 0)
    ret = func.ret_type
    parts.append(type_hash(ret) if ret is not None else 0)
    return tuple(parts)


def is_symbolic_prim(func: Function) -> bool:
    """Does this kernel face a symbolic (Any) shape at compile time?"""
    for p in func.params:
        ty = p.checked_type or p.type_annotation
        if ty is not None and has_any_dim(ty):
            return True
    ret = func.ret_type
    return ret is not None and has_any_dim(ret)


# Distinct input-shape keys one KernelSet keeps a price for. Pricing is
# pure, so the memo is simply cleared when it fills: a serving process
# that keeps seeing new shapes stays bounded and re-prices on demand.
INVOKE_COST_MEMO_CAP = 1024


@dataclass(frozen=True)
class KernelInvocation:
    """Outcome of one dispatch: modeled duration + which impl ran.

    Frozen: one instance is handed to every caller that prices the same
    (kernel, shapes)."""

    duration_us: float
    impl: str
    residues_per_kernel: int
    flops: float = 0.0


class KernelSet:
    """All generated variants of one fused kernel on one platform."""

    def __init__(
        self,
        prim: Function,
        platform: Platform,
        spec: DeviceSpec,
        schedule: Optional[Schedule] = None,
        num_dispatch_kernels: Optional[int] = None,
        allow_library: bool = True,
    ) -> None:
        self.prim = prim
        self.platform = platform
        self.spec = spec
        self.schedule = schedule or default_schedule()
        self.symbolic = is_symbolic_prim(prim)
        # Full dispatch by default: one kernel per residue class (§4.5).
        self.num_dispatch_kernels = (
            num_dispatch_kernels
            if num_dispatch_kernels is not None
            else (self.schedule.tile if self.symbolic else 1)
        )
        self.allow_library = allow_library
        self._info: Optional[PrimFuncInfo] = None

    @property
    def info(self) -> PrimFuncInfo:
        if self._info is None:
            self._info = analyze_prim_func(self.prim)
        return self._info

    # -- identity ---------------------------------------------------------------
    @functools.cached_property
    def name(self) -> str:
        # Cached: the profiler reads this on every kernel invocation —
        # the interpreter's hottest path — and the Let-chain walk plus
        # string join must not be repaid per dispatch.
        ops = "+".join(
            c.op.name for c in prim_calls(self.prim) if isinstance(c.op, Op)
        )
        return f"fused_{ops}"

    @property
    def code_size_bytes(self) -> int:
        """Modeled machine-code footprint; §4.5 notes the duplication from
        residue dispatch is small relative to model weights."""
        per_variant = 2048 + 256 * self.schedule.unroll * self.schedule.vectorize
        variants = self.num_dispatch_kernels if self.symbolic else 1
        return per_variant * variants

    # -- execution ------------------------------------------------------------------
    def run(
        self, inputs: Sequence[np.ndarray], outputs: Optional[Sequence[np.ndarray]] = None
    ) -> Optional[List[np.ndarray]]:
        """Launch: the results as a list, or — given *outputs*, the VM's
        calling convention — written into those buffers after their
        count and shapes are checked (`KernelProgram`). Compiled on first
        use and kept, like the pricing memo."""
        try:
            program = self._program
        except AttributeError:
            program = self._program = KernelProgram(self.prim)
        return program.run(inputs, outputs)

    def __getstate__(self) -> dict:
        # KernelSets are pickled into every executable and into the
        # kernel-cache blob; the pricing memo, the lowered program, the
        # cached name and the analysis a data-dependent kernel's pricing
        # makes are per-process working state and must not change a
        # byte of either: a kernel saves the same bytes whether or not
        # it has run. They are re-created lazily by invoke_cost / run /
        # the properties (no __setstate__: the default one keeps
        # pickle's interning of attribute names).
        state = self.__dict__.copy()
        state.pop("_cost_memo", None)
        state.pop("_program", None)
        state.pop("name", None)
        state["_info"] = None
        return state

    def invoke_cost(self, in_shapes: Sequence[Shape]) -> KernelInvocation:
        """Model the latency of one invocation at concrete shapes.

        The price is a pure function of (this kernel, input shapes), so
        it is computed once per distinct key and shared — through
        ``KernelCache`` — by every VM, worker and replica that holds
        this KernelSet. A tuple of shape tuples, what the VM passes, is
        its own key."""
        try:
            memo = self._cost_memo
        except AttributeError:
            memo = self._cost_memo = {}
        try:
            return memo[in_shapes]
        except (KeyError, TypeError):  # a new key, or shapes given as lists
            pass
        key = tuple(map(tuple, in_shapes))
        inv = memo.get(key)
        if inv is None:
            if len(memo) >= INVOKE_COST_MEMO_CAP:
                memo.clear()
            inv = memo[key] = self._price(key)
        return inv

    def _price(self, in_shapes: Tuple[Shape, ...]) -> KernelInvocation:
        try:
            workload = compute_workload(self.prim, in_shapes)
        except Exception:
            if not self.info.is_dynamic:
                raise  # a kernel whose shapes are known is priced exactly
            # Data-dependent kernels (arange/unique/...) cannot predict
            # their output from shapes alone; bound the workload by the
            # inputs (these ops are input-dominated anyway).
            in_bytes = float(sum(4 * prod(s) for s in in_shapes))
            out_shape = tuple(in_shapes[0]) if in_shapes else (1,)
            workload = Workload(
                flops=max(1.0, in_bytes),
                bytes_moved=2.0 * max(4.0, in_bytes),
                working_set=2.0 * max(4.0, in_bytes),
                is_gemm=False,
                out_shapes=(out_shape,),
            )
        mnk = canonical_mnk(self.prim, in_shapes, workload.out_shapes[0])
        if self.symbolic:
            tile = max(1, self.schedule.tile)
            rpk = max(1, tile // max(1, min(self.num_dispatch_kernels, tile)))
        else:
            rpk = 1
        best, impl = kernel_cost_us(
            self.spec,
            self.platform.name,
            workload,
            self.schedule,
            mnk,
            symbolic=self.symbolic,
            residues_per_kernel=rpk,
            allow_library=self.allow_library,
        )
        return KernelInvocation(
            duration_us=best, impl=impl, residues_per_kernel=rpk, flops=workload.flops
        )


class ShapeFuncKernel:
    """Compiled shape function of one primitive group (host-resident)."""

    def __init__(self, prim: Function, platform: Platform) -> None:
        self.prim = prim
        self.platform = platform
        self.info: PrimFuncInfo = analyze_prim_func(prim)

    def run(
        self,
        in_shapes: Sequence[Shape],
        in_values: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[np.ndarray]:
        shapes = run_fused_shape_func(self.info, in_shapes, in_values)
        return [np.asarray(s, dtype=np.int64) for s in shapes]

    def cost_us(self, in_values: Optional[Sequence[Optional[np.ndarray]]] = None) -> float:
        base = calibration.SHAPE_FUNC_US[self.platform.name]
        if self.info.mode.value == "data_dependent" and in_values:
            # Data-dependent shape functions scan their inputs.
            nbytes = sum(v.nbytes for v in in_values if v is not None)
            host = self.platform.host_spec
            base += nbytes / (host.dram_bw_gbps * 1e3)
        return base


# Version of the kernel-cache payload; the store stamps it on the
# envelope of ``kernels.kc``. Entries are pickled (like the executable's
# kernel section); bumping this invalidates every persisted cache file
# instead of risking a misread. 2: the two entry lists, without keys.
# 3: a batched GEMM is ``nn.dense`` with ``batch``; a format-2 file's
# batched kernels name an op this build does not register. 4: each
# kernel's schedule is the one its build searched (``build_schedule``);
# a format-3 file's kernels run the default schedule, which a rebuild
# no longer makes.
KERNEL_CACHE_FORMAT = 4


def prim_key(prim: Function, *rest) -> tuple:
    """The cache key of a primitive: structural hash + shape signature,
    then whatever else tells two compiles of it apart. A hash, so a hit
    is only a candidate until ``structural_equal`` confirms it."""
    return (structural_hash(prim), prim_signature(prim), *rest)


class KernelCache:
    """Structural-hash cache: identical fused groups compile once.

    The cache also persists: :meth:`export_entries` serializes every
    compiled kernel and shape function to one payload, and
    :meth:`import_entries` merges such a payload into a live cache — the
    artifact store uses the pair so a restarted server's *dynamic* build
    finds the previous process's kernels. Every entry is built by
    :meth:`kernel` or :meth:`shape_func`; a kernel's schedule is the one
    :func:`build_schedule` picks from its prim alone, so a loaded entry
    is exactly what a rebuild would make: the payload carries only work
    a restart would redo. One schedule search serves every kernel of
    this cache at the same (m, n, k, symbolic); the searches are not
    exported, so a new cache searches afresh."""

    def __init__(self) -> None:
        self._kernels: Dict[tuple, KernelSet] = {}
        self._shape_funcs: Dict[tuple, ShapeFuncKernel] = {}
        self._searches: Dict[tuple, Schedule] = {}

    # ------------------------------------------------------------ persistence
    def export_entries(self) -> bytes:
        """Serialize the cache for the artifact store: the two lists of
        entries, without keys — Python hashes, other under another
        ``PYTHONHASHSEED`` — since an entry's prim and platform are all
        its key is made of."""
        return codec.dumps((list(self._kernels.values()), list(self._shape_funcs.values())))

    def import_entries(self, payload: bytes) -> int:
        """Merge an :meth:`export_entries` payload into this cache;
        returns how many entries were added, each keyed from its prim.
        Existing entries always win — a live KernelSet may already be
        referenced by compiled executables, and replacing it under them
        would fork the profile accounting."""
        added = 0
        with codec.decoding("kernel-cache blob"):
            kernels, shape_funcs = codec.loads(payload)
            for table, entries in ((self._kernels, kernels), (self._shape_funcs, shape_funcs)):
                for entry in entries:
                    key = prim_key(entry.prim, entry.platform.name)
                    if key not in table:
                        table[key] = entry
                        added += 1
        return added

    def kernel(self, prim: Function, platform: Platform, spec: DeviceSpec) -> KernelSet:
        """The built kernel of *prim*: the key names everything that
        builds it (the schedule is a function of the prim), so a
        confirmed hit is always the kernel a miss would build. On a hash
        collision *prim* gets a kernel of its own, which is not cached.
        Ablation variants are constructed as KernelSets directly and
        never enter the cache."""
        key = prim_key(prim, platform.name)
        found = self._kernels.get(key)
        if found is not None and structural_equal(found.prim, prim):
            return found
        kernel = KernelSet(prim, platform, spec, schedule=build_schedule(prim, self._searches))
        if found is None:
            self._kernels[key] = kernel
        return kernel

    def shape_func(self, prim: Function, platform: Platform) -> ShapeFuncKernel:
        key = prim_key(prim, platform.name)
        found = self._shape_funcs.get(key)
        if found is None:
            found = self._shape_funcs[key] = ShapeFuncKernel(prim, platform)
        elif not structural_equal(found.prim, prim):
            return ShapeFuncKernel(prim, platform)
        return found

    def __len__(self) -> int:
        return len(self._kernels)
