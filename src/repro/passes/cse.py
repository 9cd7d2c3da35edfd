"""Common sub-expression elimination on ANF.

Within one let-scope, bindings whose values are structurally equal compute
the same thing (all non-dialect ops are pure), so later duplicates are
replaced by the first variable. Scopes are processed independently —
nothing is hoisted across ``if``/``match`` boundaries.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.analysis import structural_equal, structural_hash
from repro.ir.expr import Call, Expr, Function, If, Let, Match, Clause, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.visitor import ExprMutator
from repro.passes.pass_manager import Pass

_IMPURE = {
    "memory.alloc_storage",
    "memory.alloc_tensor",
    "memory.kill",
    "vm.invoke_mut",
}


def _cse_eligible(value: Expr) -> bool:
    if isinstance(value, (If, Match, Function)):
        return False
    if isinstance(value, Call):
        if not isinstance(value.op, Op):
            return False  # function calls may recurse / close over state
        return value.op.name not in _IMPURE
    return True


class _CSE(ExprMutator):
    def __init__(self) -> None:
        super().__init__()
        self.replaced = 0

    def visit_let(self, let: Let) -> Expr:
        # One scope = one maximal let-chain.
        seen: Dict[int, List] = {}
        bindings = []
        node: Expr = let
        while isinstance(node, Let) and id(node) not in self.memo:
            value = self.visit(node.value)
            replacement = None
            if _cse_eligible(value):
                key = structural_hash(value)
                for prior_value, prior_var in seen.get(key, ()):
                    if structural_equal(prior_value, value):
                        replacement = prior_var
                        break
                if replacement is None:
                    seen.setdefault(key, []).append((value, node.var))
            if replacement is not None:
                self.memo[id(node.var)] = replacement
                self.replaced += 1
                bindings.append((node, None, None))  # dropped
            else:
                bindings.append((node, node.var, value))
            node = node.body
        new_body = self.visit(node)
        for orig, var, value in reversed(bindings):
            if var is None:
                self.memo[id(orig)] = new_body
                continue
            if value is orig.value and new_body is orig.body:
                new_let = orig
            else:
                new_let = Let(var, value, new_body)
            self.memo[id(orig)] = new_let
            new_body = new_let
        return new_body


class CommonSubexprElimination(Pass):
    name = "CommonSubexprElimination"
    reads_types = False

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            out.functions[gv] = _CSE().visit(func)
        return out
