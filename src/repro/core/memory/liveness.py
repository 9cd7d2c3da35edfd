"""Alias-aware liveness over one ANF scope.

Works at binding granularity: a use anywhere inside binding *i*'s value
(including nested branch scopes hanging off it) extends the used variable's
lifetime to *i*. Aliases (moves, tuples, projections, tensor views, and
tensors carved from storage) share one lifetime via union-find.

Escape rules are deliberately conservative — a variable captured by a
closure, an ADT constructor, a non-operator call, or used inside an
``if``/``match`` branch is treated as escaping (never killed, never
reused). Straight-line compute chains — where all the memory traffic of a
BERT/LSTM cell lives — are fully analyzable.

The per-group facts (members, interval, escapes) are folded into one table
when the analysis is built, so a query is a ``find`` plus a lookup and the
whole analysis is linear in the length of the scope.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple as PyTuple

from repro.ir.analysis import iter_nodes, let_chain
from repro.ir.expr import Call, Expr, Function, If, Match, Tuple, TupleGetItem, Var
from repro.ir.op import Op
from repro.utils.union_find import UnionFind

# Ops whose result aliases their first argument's buffer.
_VIEW_OPS = {"vm.slice_upper_bound", "vm.reshape_tensor"}


class _Group(NamedTuple):
    members: List[Var]  # in registration order
    start: int
    end: int
    escapes: bool


class AliasLiveness:
    """Liveness + alias + escape facts for one scope chain."""

    def __init__(self, scope: Expr) -> None:
        self.bindings, self.tail = let_chain(scope)
        self.index_of: Dict[Var, int] = {
            var: i for i, (var, _) in enumerate(self.bindings)
        }
        self.aliases: UnionFind[Var] = UnionFind()
        self.last_use: Dict[Var, int] = {}
        self.escaping: Set[Var] = set()
        self._analyze()
        self._index_groups()

    # -- construction ------------------------------------------------------------
    def _analyze(self) -> None:
        n = len(self.bindings)
        for i, (var, value) in enumerate(self.bindings):
            self.aliases.add(var)
            self._record_uses(i, value)
            self._record_aliases(var, value)
        # Tail use.
        if isinstance(self.tail, Var):
            self.last_use[self.tail] = n
            self.escaping.add(self.tail)

    def _record_uses(self, i: int, value: Expr) -> None:
        """One walk of binding *i*'s value: every variable in it is used
        at *i*, and those in an escaping position are marked."""
        if isinstance(value, Call):
            # Closure / global / constructor call: arguments escape
            # (captured in an ADT, a closure environment, or owned by
            # the callee's frame).
            captures = not isinstance(value.op, Op) or (
                value.op.name == "vm.alloc_closure"
            )
            parts = [(value.op, False)] + [(arg, captures) for arg in value.args]
        else:
            # Conservative: anything an alternate-control-flow value or a
            # closure body touches may alias its result.
            parts = [(value, isinstance(value, (If, Match, Function)))]
        for part, escapes in parts:
            for node in iter_nodes(part):
                if isinstance(node, Var):
                    self.last_use[node] = i
                    if escapes:
                        self.escaping.add(node)

    def _record_aliases(self, var: Var, value: Expr) -> None:
        if isinstance(value, Var):
            self.aliases.union(var, value)
        elif isinstance(value, Tuple):
            for field in value.fields:
                if isinstance(field, Var):
                    self.aliases.union(var, field)
        elif isinstance(value, TupleGetItem):
            if isinstance(value.tuple_value, Var):
                self.aliases.union(var, value.tuple_value)
        elif isinstance(value, Call) and isinstance(value.op, Op):
            name = value.op.name
            if name in _VIEW_OPS and isinstance(value.args[0], Var):
                self.aliases.union(var, value.args[0])
            elif name == "memory.alloc_tensor" and isinstance(value.args[0], Var):
                # A tensor aliases the storage it is carved from.
                self.aliases.union(var, value.args[0])

    def _index_groups(self) -> None:
        """Fold the facts of each alias group into one row per representative."""
        self._groups: Dict[Var, _Group] = {
            rep: _Group(
                members,
                min(self.index_of.get(m, 0) for m in members),
                max(
                    max(self.last_use.get(m, -1), self.index_of.get(m, -1))
                    for m in members
                ),
                # An escaping use, or a variable not bound in this scope
                # (a parameter or outer binding) — never reclaim.
                any(m in self.escaping or m not in self.index_of for m in members),
            )
            for rep, members in self.aliases.classes().items()
        }

    def rebind_as_moves(self, moves: Dict[int, Var]) -> None:
        """Turn binding *i* into ``let var = target`` for every ``i: target``.

        Coalescing replaces ``alloc_storage`` calls. A static one's only
        operand is a constant, and the facts are then exactly those a
        fresh analysis of the rewritten chain would hold. A dynamic one
        names its size variable: that use is *kept* — the size scalar
        merely lives to the rebound site, which can only delay its kill
        or the reuse of its storage, never free it early.
        """
        for i, target in moves.items():
            var = self.bindings[i][0]
            self.bindings[i] = (var, target)
            self.aliases.union(var, target)
            self.last_use[target] = max(self.last_use.get(target, -1), i)
        self._index_groups()

    # -- queries --------------------------------------------------------------------
    # None of them changes the analysis. A variable in no alias group (one
    # the scope never bound or aliased) escapes, has no members and lives
    # from 0 to its last use: (0, -1), the empty interval, if it has none.
    def _group(self, var: Var) -> _Group:
        if var not in self.aliases:  # `find` would register it
            return _Group([], 0, self.last_use.get(var, -1), True)
        return self._groups[self.aliases.find(var)]

    def group_interval(self, var: Var) -> PyTuple[int, int]:
        """[def, last_use] over the variable's alias group."""
        group = self._group(var)
        return group.start, group.end

    def group_escapes(self, var: Var) -> bool:
        return self._group(var).escapes

    def group_members(self, var: Var) -> List[Var]:
        """The alias group, in the order its variables were first seen."""
        return self._group(var).members
