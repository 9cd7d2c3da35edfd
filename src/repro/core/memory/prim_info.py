"""Analysis of primitive (fused) functions for shape-function purposes.

A fused group is either (a) a composition of data-independent ops — its
shape function is the members' type relations, run in body order on
concrete types — or (b) a singleton dynamic op (data-dependent /
upper-bound), guaranteed by the fusion policy of §4.2, whose own shape
function runs. This module classifies a primitive function and provides
its shape function through :func:`interpret_shapes`, the one interpreter
of a primitive body over concrete types — the kernel workload analysis
(``repro.codegen.workload``) runs the same one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompilerError
from repro.ir.expr import Call, Constant, Expr, Function, Let, Tuple as IRTuple, TupleGetItem, Var
from repro.ir.op import Op
from repro.ir.types import TensorType, TupleType
from repro.ops import get_op_def
from repro.ops.registry import OpDef, ShapeFuncMode, array_type, output_shapes, output_types

Shape = Tuple[int, ...]


@dataclass
class PrimFuncInfo:
    """Classification of one primitive function."""

    func: Function
    ops: List[str]
    mode: ShapeFuncMode
    anchor: Optional[OpDef]  # the dynamic op for DD/UB singletons
    out_ranks: List[int]
    num_outputs: int
    returns_shape: bool
    # The body's calls in evaluation order (see prim_calls). Derived from
    # ``func``, so it stays out of the pickled state — a stored kernel
    # keeps its bytes — and is re-derived on load.
    calls: List[Call] = field(default_factory=list, repr=False, compare=False)

    @property
    def is_dynamic(self) -> bool:
        return self.mode is not ShapeFuncMode.DATA_INDEPENDENT

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["calls"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, calls=prim_calls(state["func"]))


def prim_calls(func: Function) -> List[Call]:
    """The calls of a primitive body in evaluation order: every
    Let-bound call, then the tail if it is one."""
    calls: List[Call] = []
    node: Expr = func.body
    while isinstance(node, Let):
        if isinstance(node.value, Call):
            calls.append(node.value)
        node = node.body
    if isinstance(node, Call):
        calls.append(node)
    return calls


def _out_tensor_types(func: Function) -> List[TensorType]:
    ret = func.ret_type if func.ret_type is not None else func.body.checked_type
    if isinstance(ret, TensorType):
        return [ret]
    if isinstance(ret, TupleType):
        out = []
        for ty in ret.fields:
            if not isinstance(ty, TensorType):
                raise CompilerError(f"primitive function returns non-tensor field {ty!r}")
            out.append(ty)
        return out
    raise CompilerError(f"primitive function with unsupported return type {ret!r}")


def analyze_prim_func(func: Function) -> PrimFuncInfo:
    if not func.is_primitive:
        raise CompilerError("analyze_prim_func expects a primitive function")
    calls = prim_calls(func)
    ops = [call.op.name for call in calls if isinstance(call.op, Op)]
    if not ops:
        raise CompilerError("primitive function without operator calls")

    dynamic_defs = [get_op_def(name) for name in ops if get_op_def(name).is_dynamic_shape_func]
    out_types = _out_tensor_types(func)
    out_ranks = [t.ndim for t in out_types]
    if dynamic_defs:
        if len(ops) != 1:
            raise CompilerError(
                "fusion policy violation: dynamic-shape op fused with others: "
                + ", ".join(ops)
            )
        anchor = dynamic_defs[0]
        return PrimFuncInfo(
            func=func,
            ops=ops,
            mode=anchor.shape_func_mode,
            anchor=anchor,
            out_ranks=out_ranks,
            num_outputs=len(out_types),
            returns_shape=anchor.returns_shape,
            calls=calls,
        )
    return PrimFuncInfo(
        func=func,
        ops=ops,
        mode=ShapeFuncMode.DATA_INDEPENDENT,
        anchor=None,
        out_ranks=out_ranks,
        num_outputs=len(out_types),
        returns_shape=False,
        calls=calls,
    )


def _param_types(func: Function, in_shapes: Sequence[Shape]) -> List[TensorType]:
    """The concrete types of *func*'s parameters at *in_shapes*: each
    shape with its parameter's checked dtype."""
    if len(func.params) != len(in_shapes):
        raise CompilerError(
            f"shape interpretation: arity mismatch ({len(func.params)} params, "
            f"{len(in_shapes)} shapes)"
        )
    return [TensorType(tuple(map(int, s)), (p.checked_type or p.type_annotation).dtype)
            for p, s in zip(func.params, in_shapes)]


def interpret_shapes(
    func: Function, in_shapes: Sequence[Shape], on_call: Optional[Callable] = None
) -> List[Shape]:
    """Abstractly interpret a primitive body over concrete types: every
    binding (call, tuple, projection or alias) and the tail, in order,
    each call typed by :func:`repro.ops.registry.output_types` (its op's
    type relation, which makes the checks ``Any`` put off). This is the
    fused group's §4.2 shape function. Returns the output shapes.

    ``on_call(call, op_def, arg_shapes, out_shapes)``, if given, sees
    every operator call as it is interpreted: the kernel workload
    analysis tallies FLOPs there, the VM's shape functions pass none."""
    env: Dict[Var, object] = dict(zip(func.params, _param_types(func, in_shapes)))

    def eval_type(expr: Expr):
        if isinstance(expr, Var):
            try:
                return env[expr]
            except KeyError:
                raise CompilerError(
                    f"shape interpretation: unbound variable {expr.name_hint!r}") from None
        if isinstance(expr, Constant):
            return array_type(expr.data)
        if isinstance(expr, IRTuple):
            return tuple(eval_type(f) for f in expr.fields)
        if isinstance(expr, TupleGetItem):
            value = eval_type(expr.tuple_value)
            # A call with one output interprets as that output, even a
            # one-part split's tuple (`output_types` returns it bare).
            return value if isinstance(value, TensorType) else value[expr.index]
        if isinstance(expr, Call) and isinstance(expr.op, Op):
            op_def = get_op_def(expr.op.name)
            types = [eval_type(a) for a in expr.args]
            outs = output_types(op_def, types, None, expr.attrs)
            if on_call is not None:
                on_call(expr, op_def, [t.shape for t in types], [t.shape for t in outs])
            return outs[0] if len(outs) == 1 else tuple(outs)
        raise CompilerError(f"cannot interpret {type(expr).__name__} over shapes")

    node: Expr = func.body
    while isinstance(node, Let):
        env[node.var] = eval_type(node.value)
        node = node.body
    result = eval_type(node)
    return [t.shape for t in result] if isinstance(result, tuple) else [result.shape]


def run_fused_shape_func(
    info: PrimFuncInfo,
    in_shapes: Sequence[Shape],
    in_values: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[Shape]:
    """Execute the (composed) shape function of a primitive function.

    Data-independent groups are interpreted over concrete types
    (:func:`interpret_shapes`). Dynamic singletons run the anchor op's
    shape function (with values for the data-dependent mode).
    """
    if info.anchor is not None:
        return output_shapes(info.anchor, _param_types(info.func, in_shapes),
                             list(in_values or []), info.calls[0].attrs)
    return interpret_shapes(info.func, in_shapes)
