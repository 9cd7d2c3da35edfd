"""Kernel workload analysis and the NumPy executor for primitive functions.

A fused kernel's cost is determined by its *workload*: FLOPs, bytes moved
across the memory hierarchy, and the resident working set. Fusion is
modeled faithfully — intermediates inside a fused group stay in registers
or cache, so only external inputs and final outputs count toward bytes
moved (that is precisely why fusion wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.memory.prim_info import interpret_shapes
from repro.errors import CompilerError
from repro.ir.expr import Call, Constant, Expr, Function, Let, Tuple as IRTuple, TupleGetItem, Var
from repro.ir.op import Op
from repro.ir.types import TupleType
from repro.ops import get_op_def
from repro.ops.shape_funcs import prod
from repro.tensor.dtype import dtype_bytes

Shape = Tuple[int, ...]

# Ops whose cost profile is GEMM-like (compute-bound at scale). The one
# authoritative set — the kernel cost model and the profiler's GEMM
# launch counting both import it.
GEMM_OPS = frozenset(
    {"nn.dense", "nn.batch_dense", "nn.batch_matmul", "nn.conv2d"}
)


@dataclass(frozen=True)
class Workload:
    flops: float
    bytes_moved: float
    working_set: float
    is_gemm: bool
    out_shapes: Tuple[Shape, ...]


class _Tally:
    """What the workload reads off each operator call of the shape
    interpretation: its FLOPs, the bytes of the constants it reads, and
    whether any call is a GEMM."""

    def __init__(self) -> None:
        self.calls = 0
        self.flops = 0.0
        self.const_bytes = 0.0
        self.is_gemm = False

    def __call__(self, call: Call, op_def, arg_shapes, outs) -> None:
        self.calls += 1
        self.flops += op_def.flops(arg_shapes, outs, call.attrs)
        self.const_bytes += sum(a.value.nbytes for a in call.args if isinstance(a, Constant))
        self.is_gemm = self.is_gemm or call.op.name in GEMM_OPS


def _out_dtypes(func: Function, count: int) -> List[str]:
    ret = func.ret_type
    fields = ret.fields if isinstance(ret, TupleType) else [ret] * count
    return [getattr(f, "dtype", "float32") for f in fields]


def compute_workload(func: Function, in_shapes: Sequence[Shape]) -> Workload:
    """Analyze one fused kernel at concrete input shapes: the body's
    shape interpretation, tallying each call on the way."""
    tally = _Tally()
    out_shapes = tuple(interpret_shapes(func, in_shapes, tally))
    if not tally.calls:
        raise CompilerError("workload of a primitive without calls")

    # Bytes: external params in + every output out; constants embedded in
    # the body count toward both traffic and the working set.
    bytes_in = tally.const_bytes
    for p, shape in zip(func.params, in_shapes):
        ty = p.checked_type or p.type_annotation
        bytes_in += prod(shape) * dtype_bytes(getattr(ty, "dtype", "float32"))

    bytes_out = sum(
        prod(s) * dtype_bytes(dtype)
        for s, dtype in zip(out_shapes, _out_dtypes(func, len(out_shapes)))
    )

    return Workload(
        flops=tally.flops,
        bytes_moved=bytes_in + bytes_out,
        working_set=bytes_in + bytes_out,
        is_gemm=tally.is_gemm,
        out_shapes=out_shapes,
    )


def _pack(fields, _attrs):
    return tuple(fields)


def _project(operands, index):
    return operands[0][index]


class KernelProgram:
    """A primitive body lowered once to a straight-line program.

    Values live in a slot list: parameters take slots ``0..n-1``, every
    ``Constant`` sits in the slot *template* by reference (an in-place
    write to its array is seen by the next run), and each step ``(fn,
    attrs, argument slots, destination slot)`` computes one slot from
    earlier ones — ``fn`` is an operator's ``compute`` or the tuple pack
    / projection above. No recursion, ``Var`` hashing or registry lookup.
    """

    __slots__ = ("num_params", "template", "steps", "result")

    def __init__(self, func: Function) -> None:
        self.num_params = len(func.params)
        self.template: list = [None] * self.num_params
        self.steps: List[tuple] = []
        slots: Dict[Var, int] = {p: i for i, p in enumerate(func.params)}

        def lower(expr: Expr) -> int:
            """The slot holding *expr*. Operands are lowered first, so
            nested (hand-built, non-ANF) calls run in post-order."""
            if isinstance(expr, Var):
                if expr not in slots:
                    raise CompilerError(f"kernel lowering: unbound variable {expr.name_hint!r}")
                return slots[expr]
            if isinstance(expr, Constant):
                self.template.append(expr.data)
                return len(self.template) - 1
            if isinstance(expr, IRTuple):
                fn, attrs, operands = _pack, None, expr.fields
            elif isinstance(expr, TupleGetItem):
                fn, attrs, operands = _project, expr.index, (expr.tuple_value,)
            elif isinstance(expr, Call) and isinstance(expr.op, Op):
                fn, attrs, operands = get_op_def(expr.op.name).compute, expr.attrs, expr.args
            else:
                raise CompilerError(f"kernel lowering: cannot evaluate {type(expr).__name__}")
            arg_slots = tuple(lower(a) for a in operands)
            self.template.append(None)
            self.steps.append((fn, attrs, arg_slots, len(self.template) - 1))
            return len(self.template) - 1

        node: Expr = func.body
        while isinstance(node, Let):
            slots[node.var] = lower(node.value)
            node = node.body
        self.result = lower(node)

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(inputs) != self.num_params:
            raise CompilerError(
                f"kernel arity mismatch: {self.num_params} params, {len(inputs)} inputs"
            )
        env = self.template.copy()
        env[: self.num_params] = inputs
        read = env.__getitem__
        for fn, attrs, arg_slots, dst in self.steps:
            env[dst] = fn(list(map(read, arg_slots)), attrs)
        result = env[self.result]
        if isinstance(result, tuple):
            return [np.asarray(r) for r in result]
        return [np.asarray(result)]


def run_prim_func(func: Function, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Execute a primitive function body on NumPy arrays: lower, then run.

    This is the numerical ground truth for every kernel variant — symbolic,
    residue-specialized and library implementations all compute the same
    values; only their *cost* differs. ``KernelSet.run`` keeps the lowered
    program; this one-shot form lowers per call.
    """
    return KernelProgram(func).run(inputs)
