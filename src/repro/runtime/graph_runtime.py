"""Static graph runtime — the "TVM" baseline of Table 4.

Executes *static* models the way a classic deep-learning-compiler runtime
does (§2.2): the dataflow graph is compiled ahead of time with fully
static shapes (kernels carry no symbolic-index overhead), all buffers are
planned and pre-allocated once (zero allocations on the inference path),
and execution is a straight walk over the nodes with minimal per-node
overhead. It cannot run dynamic models — that is the point of the paper —
and raises on control flow or ``Any`` shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.kernels import KernelCache, KernelSet
from repro.errors import CompilerError
from repro.hardware.platforms import Platform, intel_cpu
from repro.ir.expr import (
    Call,
    Constant,
    Expr,
    Function,
    If,
    Let,
    Match,
    TupleGetItem,
    Var,
)
from repro.ir.module import IRModule
from repro.ir.types import TensorType, has_any_dim
from repro.nimble import _run_prefix
from repro.passes import FuseOps, Sequential
from repro.runtime.context import ExecutionContext
from repro.tensor.dtype import dtype_bytes

# Per-node overhead of the static executor (cheaper than a VM dispatch —
# it is an array walk, not an instruction decode).
_GRAPH_NODE_US = {"intel": 0.05, "nvidia": 0.05, "arm": 0.25}


@dataclass
class _Node:
    kernel: KernelSet
    input_ids: List[int]  # indices into the value table
    output_id: int
    device: object


class GraphRuntime:
    """Ahead-of-time compiled executor for one static function."""

    def __init__(
        self,
        mod: IRModule,
        platform: Optional[Platform] = None,
        kernel_cache: Optional[KernelCache] = None,
    ) -> None:
        self.platform = platform or intel_cpu()
        # Explicit None check: an empty KernelCache is falsy (__len__), and
        # `or` would silently swap a shared cache for a private one.
        self.cache = KernelCache() if kernel_cache is None else kernel_cache
        # Nimble's compile prefix, then fusion: the static graph is
        # normalized exactly as the VM's input is.
        _, normalized, _ = _run_prefix(mod)
        lowered = Sequential([FuseOps()]).run(normalized)
        self.func = lowered.main
        self._validate_static(self.func)
        self._build(self.func)

    # ------------------------------------------------------------------ build
    @staticmethod
    def _validate_static(func: Function) -> None:
        for p in func.params:
            ty = p.checked_type or p.type_annotation
            if ty is None or has_any_dim(ty):
                raise CompilerError(
                    "GraphRuntime requires fully static input shapes "
                    "(dynamic models need the Nimble VM)"
                )

    def _build(self, func: Function) -> None:
        self.params = list(func.params)
        self.nodes: List[_Node] = []
        self.value_types: List[TensorType] = []
        self._value_of: Dict[Var, int] = {}
        self._constants: List[Tuple[int, np.ndarray]] = []
        self._moves: List[Tuple[int, int]] = []  # (src_id, dst_id)
        self._tgis: List[Tuple[int, int, int]] = []  # (tuple_src kernel node, field, dst)

        for i, p in enumerate(self.params):
            self._value_of[p] = self._new_value(p.checked_type)

        node: Expr = func.body
        bindings = []
        while isinstance(node, Let):
            bindings.append((node.var, node.value))
            node = node.body
        if not isinstance(node, Var):
            raise CompilerError("GraphRuntime expects strict-ANF output")
        for var, value in bindings:
            if isinstance(value, (If, Match)):
                raise CompilerError("GraphRuntime cannot execute control flow")
            if isinstance(value, Call) and isinstance(value.op, Function) and value.op.is_primitive:
                vid = self._new_value(var.checked_type)
                self._value_of[var] = vid
                input_ids = [self._input_id(a) for a in value.args]
                # Static inputs (_validate_static) make every fused group
                # static, so its default kernel has no symbolic-index
                # overhead.
                kernel = self.cache.kernel(
                    value.op, self.platform, self.platform.compute_spec
                )
                self.nodes.append(
                    _Node(kernel, input_ids, vid, self.platform.compute)
                )
            elif isinstance(value, Var):
                self._value_of[var] = self._value_of[value]
            elif isinstance(value, Constant):
                vid = self._new_value(var.checked_type)
                self._value_of[var] = vid
                self._constants.append((vid, value.data))
            elif isinstance(value, TupleGetItem):
                raise CompilerError("GraphRuntime: tuple outputs unsupported")
            else:
                raise CompilerError(
                    f"GraphRuntime: unsupported node {type(value).__name__}"
                )
        self.output_id = self._value_of[node]
        self._plan_memory()

    def _new_value(self, ty) -> int:
        if not isinstance(ty, TensorType):
            raise CompilerError(f"GraphRuntime values must be tensors, got {ty!r}")
        self.value_types.append(ty)
        return len(self.value_types) - 1

    def _input_id(self, arg: Expr) -> int:
        if isinstance(arg, Var):
            return self._value_of[arg]
        if isinstance(arg, Constant):
            vid = self._new_value(
                TensorType(arg.value.shape, arg.value.dtype)
            )
            self._constants.append((vid, arg.data))
            return vid
        raise CompilerError("GraphRuntime: non-atom kernel argument")

    # --------------------------------------------------------- static planning
    def _plan_memory(self) -> None:
        """Classic static memory planning: interval-based buffer reuse.
        Records the planned footprint for the §6.3 memory comparison."""
        last_use = [0] * len(self.value_types)
        for t, node in enumerate(self.nodes):
            for vid in node.input_ids:
                last_use[vid] = t
        param_ids = {self._value_of[p] for p in self.params}
        const_ids = {vid for vid, _ in self._constants}
        pinned = param_ids | const_ids | {self.output_id}

        sizes = []
        for ty in self.value_types:
            n = ty.num_elements()
            sizes.append((n or 1) * dtype_bytes(ty.dtype))

        pool: List[Tuple[int, int]] = []  # (size, slot_id)
        slot_of: Dict[int, int] = {}
        slot_sizes: List[int] = []
        releases: Dict[int, List[int]] = {}
        for t, node in enumerate(self.nodes):
            for slot in releases.pop(t, ()):  # buffers whose life ended
                pool.append((slot_sizes[slot], slot))
            vid = node.output_id
            need = sizes[vid]
            best = None
            if vid not in pinned:
                for k, (size, slot) in enumerate(pool):
                    if size >= need and (best is None or size < pool[best][0]):
                        best = k
            if best is not None:
                _, slot = pool.pop(best)
            else:
                slot = len(slot_sizes)
                slot_sizes.append(need)
            slot_of[vid] = slot
            if vid not in pinned:
                releases.setdefault(last_use[vid] + 1, []).append(slot)

        self.planned_bytes = sum(slot_sizes)
        self.num_buffers = len(slot_sizes)
        self.total_tensor_bytes = sum(
            sizes[n.output_id] for n in self.nodes
        )

    # ------------------------------------------------------------------ execute
    def run(self, *inputs: np.ndarray, ctx: Optional[ExecutionContext] = None):
        """Execute; returns (output ndarray, latency_us)."""
        ctx = ctx or ExecutionContext(self.platform)
        if len(inputs) != len(self.params):
            raise CompilerError(
                f"expected {len(self.params)} inputs, got {len(inputs)}"
            )
        values: List[Optional[np.ndarray]] = [None] * len(self.value_types)
        for p, arr in zip(self.params, inputs):
            values[self._value_of[p]] = np.asarray(arr)
        for vid, data in self._constants:
            values[vid] = data

        clock = ctx.clock
        start = clock.elapsed_us
        node_us = _GRAPH_NODE_US[self.platform.name]
        compute = self.platform.compute
        spec = self.platform.compute_spec
        lite = ctx.numerics == "lite"
        for node in self.nodes:
            clock.host_advance(node_us)
            ins = [values[i] for i in node.input_ids]
            invocation = node.kernel.invoke_cost([i.shape for i in ins])
            if compute.is_gpu:
                clock.launch_async(compute, invocation.duration_us, spec.host_launch_us)
            else:
                clock.run_sync(invocation.duration_us)
            if lite and invocation.flops > 1e4:
                out_ty = self.value_types[node.output_id]
                from repro.tensor.dtype import to_numpy_dtype

                values[node.output_id] = np.zeros(
                    out_ty.shape, dtype=to_numpy_dtype(out_ty.dtype)
                )
            else:
                values[node.output_id] = node.kernel.run(ins)[0]
        clock.sync_all()
        return values[self.output_id], clock.elapsed_us - start
