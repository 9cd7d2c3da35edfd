"""Algebraic simplification rewrites.

Cheap peephole rules that matter for dynamic models: identity reshapes /
transposes disappear (dynamic models insert many of these around shape
plumbing), additions of zero / multiplications by one fold away.
This is the "enhanced symbolic expression simplification" partner at the
graph level; the loop-level version lives in the kernel cost model.
"""

from __future__ import annotations

import numpy as np

from repro.ir.expr import Call, Constant, Expr, Function
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import TensorType, type_equal
from repro.ir.visitor import ExprMutator
from repro.passes.pass_manager import Pass


def _is_const_scalar(expr: Expr, value: float) -> bool:
    return (
        isinstance(expr, Constant)
        and expr.data.size == 1
        and float(expr.data.reshape(()).item()) == value
    )


class _Simplifier(ExprMutator):
    def __init__(self) -> None:
        super().__init__()
        self.rewrites = 0

    def visit_call(self, call: Call) -> Expr:
        new = super().visit_call(call)
        if not isinstance(new, Call) or not isinstance(new.op, Op):
            return new
        name = new.op.name

        # reshape/transpose that provably do nothing.
        if name == "reshape":
            src_ty = new.args[0].checked_type
            if isinstance(src_ty, TensorType) and src_ty.is_static:
                if tuple(new.attrs["newshape"]) == src_ty.shape:
                    self.rewrites += 1
                    return new.args[0]
        elif name == "transpose":
            src_ty = new.args[0].checked_type
            axes = new.attrs.get("axes")
            if (
                axes is not None
                and isinstance(src_ty, TensorType)
                and tuple(axes) == tuple(range(src_ty.ndim))
            ):
                self.rewrites += 1
                return new.args[0]

        # x + 0, x * 1 — when shapes provably match (the identity must
        # not change the broadcast result type).
        elif name in ("add", "multiply"):
            lhs, rhs = new.args
            neutral = 0.0 if name == "add" else 1.0
            if (
                _is_const_scalar(rhs, neutral)
                and lhs.checked_type is not None
                and new.checked_type is not None
                and type_equal(lhs.checked_type, new.checked_type)
            ):
                self.rewrites += 1
                return lhs
            if (
                name == "add"
                and _is_const_scalar(lhs, 0.0)
                and rhs.checked_type is not None
                and new.checked_type is not None
                and type_equal(rhs.checked_type, new.checked_type)
            ):
                self.rewrites += 1
                return rhs
        return new


class SimplifyExpressions(Pass):
    name = "SimplifyExpressions"

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            out.functions[gv] = _Simplifier().visit(func)
        return out
