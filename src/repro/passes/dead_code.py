"""Dead code elimination for ANF programs.

Removes ``let`` bindings whose variable is never used, as long as the
bound value is pure (dialect memory/VM ops have effects and are kept).
Runs to a fixed point over each chain — removing one binding can make an
earlier one dead.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.analysis import iter_nodes
from repro.ir.expr import Call, Expr, Function, If, Let, Match, Clause, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.visitor import ExprMutator
from repro.passes.pass_manager import Pass

_EFFECTFUL = {"memory.kill", "vm.invoke_mut"}


def _is_pure(value: Expr) -> bool:
    if isinstance(value, Call) and isinstance(value.op, Op):
        return value.op.name not in _EFFECTFUL
    return True


def _count_uses(expr: Expr) -> Dict[Var, int]:
    # Var nodes reached through child traversal are uses only — binding
    # positions (let binders, params, pattern vars) are not children.
    # iter_nodes deduplicates by object id, which is fine: we only need
    # used-at-least-once vs. never-used.
    uses: Dict[Var, int] = {}
    for node in iter_nodes(expr):
        if isinstance(node, Var):
            uses[node] = uses.get(node, 0) + 1
    return uses


class _DCE(ExprMutator):
    def __init__(self, uses: Dict[Var, int]) -> None:
        super().__init__()
        self.uses = uses
        self.removed = 0

    def visit_let(self, let: Let) -> Expr:
        bindings = []
        node: Expr = let
        while isinstance(node, Let) and id(node) not in self.memo:
            bindings.append(node)
            node = node.body
        new_body = self.visit(node)
        for orig in reversed(bindings):
            if self.uses.get(orig.var, 0) == 0 and _is_pure(orig.value):
                self.removed += 1
                new_let = new_body  # drop the binding entirely
            else:
                new_value = self.visit(orig.value)
                if new_value is orig.value and new_body is orig.body:
                    new_let = orig
                else:
                    new_let = Let(orig.var, new_value, new_body)
            self.memo[id(orig)] = new_let
            new_body = new_let
        return new_body


def eliminate_dead_code(func: Function) -> Function:
    """Iterate DCE to a fixed point on one function."""
    current = func
    while True:
        uses = _count_uses(current.body)
        dce = _DCE(uses)
        new_body = dce.visit(current.body)
        if dce.removed == 0:
            return current if new_body is current.body else Function(
                current.params, new_body, current.ret_type, current.attrs
            )
        current = Function(current.params, new_body, current.ret_type, current.attrs)


class DeadCodeElimination(Pass):
    name = "DeadCodeElimination"
    reads_types = False

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            out.functions[gv] = eliminate_dead_code(func)
        return out
