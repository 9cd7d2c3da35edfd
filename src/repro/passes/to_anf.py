"""A-normal form conversion.

Every compound value (operator call, tuple, tuple projection, ``if``,
``match``) is bound to a fresh ``let`` variable; argument positions only
hold atoms (variables, constants, operator/constructor references, and
function literals). Downstream passes — manifest allocation, memory
planning, the VM compiler — all assume ANF, because explicit evaluation
order is what makes liveness and allocation analyses straightforward.

Shared sub-DAGs within one scope are bound once (graph-to-let conversion);
branches of ``if``/``match`` form child scopes so no computation is hoisted
across control flow (which would change what executes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as PyTuple

from repro.errors import CompilerError
from repro.ir.analysis import fold_lets
from repro.ir.expr import (
    Call,
    Clause,
    Constant,
    Constructor,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    Tuple,
    TupleGetItem,
    Var,
)
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.passes.pass_manager import Pass
from repro.utils.naming import NameSupply


def _is_atom(expr: Expr) -> bool:
    return isinstance(expr, (Var, Constant, GlobalVar, Op, Constructor))


class _Scope:
    """One let-scope being built."""

    def __init__(self) -> None:
        self.bindings: List[PyTuple[Var, Expr]] = []
        self.memo: Dict[int, Expr] = {}


class _ANF:
    def __init__(self, names: Optional[NameSupply] = None) -> None:
        self.names = names or NameSupply()

    def convert_function(self, func: Function) -> Function:
        if func.is_primitive:
            return func
        return Function(func.params, self.convert_scope(func.body), func.ret_type, func.attrs)

    def convert_scope(self, expr: Expr) -> Expr:
        # Strict ANF: even the scope result is an atom, so every scope is
        # ``let ...; let ...; %var`` — fusion, manifest allocation and the
        # VM compiler all key off this shape.
        scope = _Scope()
        result = self.visit(expr, scope, tail=False)
        return fold_lets(scope.bindings, result)

    def bind(self, value: Expr, scope: _Scope, key: Optional[int] = None, name: str = "t") -> Var:
        var = Var(self.names.fresh(name))
        scope.bindings.append((var, value))
        if key is not None:
            scope.memo[key] = var
        return var

    def visit(self, expr: Expr, scope: _Scope, tail: bool = False) -> Expr:
        """Return an atom for *expr* (or, in tail position, possibly a
        compound expression that is the scope's result)."""
        if _is_atom(expr):
            return expr
        key = id(expr)
        if key in scope.memo:
            return scope.memo[key]

        if isinstance(expr, Call):
            new_op = self.visit_callee(expr.op, scope)
            new_args = [self.visit(a, scope) for a in expr.args]
            call = Call(new_op, new_args, expr.attrs)
            if tail:
                return call
            return self.bind(call, scope, key)

        if isinstance(expr, Tuple):
            fields = [self.visit(f, scope) for f in expr.fields]
            tup = Tuple(fields)
            if tail:
                return tup
            return self.bind(tup, scope, key)

        if isinstance(expr, TupleGetItem):
            tup = self.visit(expr.tuple_value, scope)
            tgi = TupleGetItem(tup, expr.index)
            if tail:
                return tgi
            return self.bind(tgi, scope, key)

        if isinstance(expr, Let):
            # Respect user-written bindings: keep the same Var (unique
            # binders), normalize the bound value, continue with the body.
            node: Expr = expr
            while isinstance(node, Let):
                value = self.visit_value(node.value, scope)
                scope.bindings.append((node.var, value))
                scope.memo[id(node.var)] = node.var
                node = node.body
            return self.visit(node, scope, tail=tail)

        if isinstance(expr, If):
            cond = self.visit(expr.cond, scope)
            iff = If(
                cond,
                self.convert_scope(expr.true_branch),
                self.convert_scope(expr.false_branch),
            )
            if tail:
                return iff
            return self.bind(iff, scope, key, name="if")

        if isinstance(expr, Match):
            data = self.visit(expr.data, scope)
            clauses = [
                Clause(c.pattern, self.convert_scope(c.rhs)) for c in expr.clauses
            ]
            match = Match(data, clauses, expr.complete)
            if tail:
                return match
            return self.bind(match, scope, key, name="m")

        if isinstance(expr, Function):
            # Function literal: convert its body in a fresh scope; the
            # literal itself is a value (closure).
            return Function(
                expr.params, self.convert_scope(expr.body), expr.ret_type, expr.attrs
            )

        raise CompilerError(f"ToANF: unhandled node {type(expr).__name__}")

    def visit_callee(self, op: Expr, scope: _Scope) -> Expr:
        """Callee position: operators / globals / constructors stay; a
        primitive (fused) function literal stays inline; anything else is
        atomized like a normal value."""
        if isinstance(op, (Op, GlobalVar, Constructor, Var)):
            return op
        if isinstance(op, Function):
            if op.is_primitive:
                return op
            return self.visit(op, scope)
        return self.visit(op, scope)

    def visit_value(self, expr: Expr, scope: _Scope) -> Expr:
        """A value about to be bound by an existing let: keep it compound
        (one level) but atomize its children."""
        if _is_atom(expr):
            return expr
        if isinstance(expr, Call):
            new_op = self.visit_callee(expr.op, scope)
            return Call(new_op, [self.visit(a, scope) for a in expr.args], expr.attrs)
        if isinstance(expr, Tuple):
            return Tuple([self.visit(f, scope) for f in expr.fields])
        if isinstance(expr, TupleGetItem):
            return TupleGetItem(self.visit(expr.tuple_value, scope), expr.index)
        if isinstance(expr, If):
            return If(
                self.visit(expr.cond, scope),
                self.convert_scope(expr.true_branch),
                self.convert_scope(expr.false_branch),
            )
        if isinstance(expr, Match):
            return Match(
                self.visit(expr.data, scope),
                [Clause(c.pattern, self.convert_scope(c.rhs)) for c in expr.clauses],
                expr.complete,
            )
        if isinstance(expr, (Function, Let)):
            return self.visit(expr, scope)
        raise CompilerError(f"ToANF: unhandled value {type(expr).__name__}")


def to_anf(expr: Expr) -> Expr:
    """Convert a bare expression (testing convenience)."""
    conv = _ANF()
    if isinstance(expr, Function):
        return conv.convert_function(expr)
    return conv.convert_scope(expr)


class ToANF(Pass):
    name = "ToANF"
    reads_types = False

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        conv = _ANF()
        for gv, func in list(out.functions.items()):
            out.functions[gv] = conv.convert_function(func)
        return out
