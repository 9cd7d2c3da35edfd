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

from repro.errors import CompilerError
from repro.ir.expr import Call, Constant, Expr, Function, Let, Tuple as IRTuple, TupleGetItem, Var
from repro.ir.op import Op
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


def _walk_calls(func: Function) -> List[Tuple[Var, Call]]:
    """(binder, call) pairs of the primitive body, in evaluation order.
    Nested calls (hand-built, non-ANF primitive bodies) are linearized
    with synthetic binders; the final expression gets one too."""
    out: List[Tuple[Var, Call]] = []

    def linearize(expr: Expr) -> Expr:
        """Bind nested call arguments to synthetic vars, post-order."""
        if not isinstance(expr, Call):
            return expr
        new_args = []
        for arg in expr.args:
            if isinstance(arg, Call):
                inner = linearize(arg)
                var = Var(f"_t{len(out)}")
                out.append((var, inner))
                new_args.append(var)
            else:
                new_args.append(arg)
        if all(n is o for n, o in zip(new_args, expr.args)):
            return expr
        return Call(expr.op, new_args, expr.attrs)

    node: Expr = func.body
    while isinstance(node, Let):
        if isinstance(node.value, Call):
            out.append((node.var, linearize(node.value)))
        node = node.body
    if isinstance(node, Call):
        out.append((Var("_ret"), linearize(node)))
    return out


class _ShapeEnv:
    """Abstract interpretation of a primitive body over shapes."""

    def __init__(self, func: Function, in_shapes: Sequence[Shape]) -> None:
        if len(func.params) != len(in_shapes):
            raise CompilerError(
                f"workload: arity mismatch ({len(func.params)} params, "
                f"{len(in_shapes)} shapes)"
            )
        self.env: Dict[Var, object] = {
            p: tuple(int(d) for d in s) for p, s in zip(func.params, in_shapes)
        }
        self.dtypes: Dict[Var, str] = {}
        for p in func.params:
            ty = p.checked_type or p.type_annotation
            self.dtypes[p] = getattr(ty, "dtype", "float32")

    def eval(self, expr: Expr):
        if isinstance(expr, Var):
            return self.env[expr]
        if isinstance(expr, Constant):
            return tuple(expr.value.shape)
        if isinstance(expr, IRTuple):
            return tuple(self.eval(f) for f in expr.fields)
        if isinstance(expr, TupleGetItem):
            return self.eval(expr.tuple_value)[expr.index]
        raise CompilerError(f"workload: non-atom argument {type(expr).__name__}")


def compute_workload(func: Function, in_shapes: Sequence[Shape]) -> Workload:
    """Analyze one fused kernel at concrete input shapes."""
    env = _ShapeEnv(func, in_shapes)
    calls = _walk_calls(func)
    if not calls:
        raise CompilerError("workload of a primitive without calls")

    flops = 0.0
    is_gemm = False
    for var, call in calls:
        if not isinstance(call.op, Op):
            raise CompilerError("primitive bodies contain only operator calls")
        op_def = get_op_def(call.op.name)
        arg_shapes = [env.eval(a) for a in call.args]
        outs = op_def.shape_func(arg_shapes, None, call.attrs)
        env.env[var] = outs[0] if len(outs) == 1 else tuple(outs)
        flops += op_def.flops(arg_shapes, outs, call.attrs)
        if call.op.name in GEMM_OPS:
            is_gemm = True

    # Bytes: external params in + final outputs out; constants embedded in
    # the body count toward both traffic and the working set.
    bytes_in = 0.0
    for p, shape in zip(func.params, in_shapes):
        bytes_in += prod(shape) * dtype_bytes(env.dtypes.get(p, "float32"))
    for _, call in calls:
        for arg in call.args:
            if isinstance(arg, Constant):
                bytes_in += arg.value.nbytes

    final = env.env[calls[-1][0]]
    if isinstance(final, tuple) and final and isinstance(final[0], tuple):
        out_shapes = tuple(tuple(s) for s in final)
    else:
        out_shapes = (tuple(final),)
    ret_ty = func.ret_type
    out_dtype = getattr(ret_ty, "dtype", "float32")
    bytes_out = sum(prod(s) * dtype_bytes(out_dtype) for s in out_shapes)

    return Workload(
        flops=flops,
        bytes_moved=bytes_in + bytes_out,
        working_set=bytes_in + bytes_out,
        is_gemm=is_gemm,
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
