"""Constant folding.

Operator calls whose arguments are all constants are evaluated at compile
time with the registered NumPy computes. Dialect ops are never folded
(they have runtime effects); multi-output ops fold to a tuple of
constants. This also folds data-dependent dynamic ops like ``arange`` when
their inputs are constant — turning a dynamic shape back into a static
one, which is one of the cheapest ways to recover shape specialization.
"""

from __future__ import annotations

import numpy as np

from repro.ir.expr import Call, Constant, Expr, Tuple, TupleGetItem
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.visitor import ExprMutator
from repro.ops import DIALECT_OPS, get_op_def
from repro.passes.pass_manager import Pass
from repro.tensor.ndarray import array as make_array


class _Folder(ExprMutator):
    def visit_call(self, call: Call) -> Expr:
        new_call = super().visit_call(call)
        if not isinstance(new_call, Call) or not isinstance(new_call.op, Op):
            return new_call
        name = new_call.op.name
        if name in DIALECT_OPS:
            return new_call
        if not all(isinstance(a, Constant) for a in new_call.args):
            return new_call
        op_def = get_op_def(name)
        # `zeros`/`ones`/`full` have no args and fold unconditionally.
        inputs = [a.data for a in new_call.args]  # type: ignore[union-attr]
        try:
            result = op_def.compute(inputs, new_call.attrs)
        except Exception:
            return new_call  # leave anything non-evaluable for runtime
        if op_def.returns_shape:
            # Upper-bound ops: slice to the actual shape at fold time.
            data, actual = result
            index = tuple(slice(0, int(d)) for d in np.asarray(actual))
            return Constant(make_array(np.ascontiguousarray(data[index])))
        if isinstance(result, tuple):
            return Tuple([Constant(make_array(r)) for r in result])
        return Constant(make_array(result))

    def visit_tuplegetitem(self, tgi: TupleGetItem) -> Expr:
        new = super().visit_tuplegetitem(tgi)
        if isinstance(new, TupleGetItem) and isinstance(new.tuple_value, Tuple):
            return new.tuple_value.fields[new.index]
        return new


class FoldConstant(Pass):
    name = "FoldConstant"
    reads_types = False

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            out.functions[gv] = _Folder().visit(func)
        return out
