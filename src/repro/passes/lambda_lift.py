"""Lambda lifting: nested function literals become global functions +
closure allocations.

The VM ISA has ``AllocClosure`` / ``InvokeClosure`` (Appendix A); this pass
produces the IR they lower from. Every non-primitive function literal is
hoisted to a module-level function whose parameter list is extended with
its captured free variables; the literal's occurrence is replaced by the
dialect call

    vm.alloc_closure(@lifted, %captured...)

which the VM compiler turns into ``AllocClosure`` (the interpreter appends
the captured registers after the call arguments, matching the lifted
signature).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import TypeInferenceError
from repro.ir.analysis import free_vars
from repro.ir.expr import Call, Expr, Function, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import FuncType, Type
from repro.ir.visitor import ExprMutator
from repro.ops.registry import OpDef, OpPattern, register_op
from repro.passes.pass_manager import Pass
from repro.utils.naming import NameSupply


def _alloc_closure_rel(arg_types, attrs) -> Type:
    """Result: the un-captured prefix of the lifted function's type; every
    argument after the function is a captured value."""
    fty = arg_types[0]
    if not isinstance(fty, FuncType):
        raise TypeInferenceError("alloc_closure expects a function first argument")
    num_params = len(fty.arg_types) - (len(arg_types) - 1)
    if num_params < 0:
        raise TypeInferenceError("alloc_closure captured more params than exist")
    return FuncType(fty.arg_types[:num_params], fty.ret_type)


register_op(
    OpDef(
        name="vm.alloc_closure",
        type_rel=_alloc_closure_rel,
        compute=lambda inputs, attrs: (_ for _ in ()).throw(
            RuntimeError("vm.alloc_closure is interpreted by the VM")
        ),
        pattern=OpPattern.OPAQUE,
    )
)


class _Lifter(ExprMutator):
    def __init__(self, mod: IRModule, names: NameSupply) -> None:
        super().__init__()
        self.mod = mod
        self.names = names

    def visit_function(self, func: Function) -> Expr:
        if func.is_primitive:
            return func
        new_body = self.visit(func.body)
        lifted_inner = (
            func if new_body is func.body else Function(func.params, new_body, func.ret_type, func.attrs)
        )
        captured = free_vars(lifted_inner)
        # Captured vars become trailing parameters of the lifted function;
        # fresh annotated binders keep the unique-binder convention and
        # give InferType the annotations it needs.
        fresh: List[Var] = []
        mapping: Dict[Var, Var] = {}
        for cap in captured:
            ty = cap.checked_type or cap.type_annotation
            if ty is None:
                raise TypeInferenceError(
                    f"LambdaLift needs a typed module (captured %{cap.name_hint})"
                )
            param = Var(cap.name_hint, ty)
            fresh.append(param)
            mapping[cap] = param
        body = _substitute_vars(lifted_inner.body, mapping)
        gv = self.mod.get_global_var(self.names.fresh("lifted"))
        self.mod[gv] = Function(
            list(lifted_inner.params) + fresh,
            body,
            lifted_inner.ret_type,
            lifted_inner.attrs,
        )
        return Call(Op.get("vm.alloc_closure"), [gv] + list(captured))


def _substitute_vars(expr: Expr, mapping: Dict[Var, Var]) -> Expr:
    if not mapping:
        return expr

    class _Subst(ExprMutator):
        def visit_var(self, var: Var) -> Expr:
            return mapping.get(var, var)

    return _Subst().visit(expr)


class LambdaLift(Pass):
    name = "LambdaLift"

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        names = NameSupply()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            lifter = _Lifter(out, names)
            # Lift literals *inside* the body only — the top-level function
            # itself stays where it is.
            new_body = lifter.visit(func.body)
            if new_body is not func.body:
                out.functions[gv] = Function(func.params, new_body, func.ret_type, func.attrs)
        return out
