"""Storage coalescing + kill insertion (§4.3).

Two rewrites over each manifested scope:

1. **Static storage reuse** — an ``alloc_storage`` with a compile-time
   size whose previous occupant's lifetime has ended is replaced by an
   alias to the dead storage (best-fit by size). This is what turns N
   allocations into a small number of regions that tensor allocations
   multiplex onto, and produces the §6.3 "47 % fewer buffer allocations".

2. **Kill insertion** — after the last use of a non-escaping alias group
   that owns storage, a ``memory.kill`` releases the buffer so the VM's
   pooling allocator can recycle it for *dynamic* allocations (the §6.3
   allocation-latency reduction).

The pass also records a :class:`MemoryPlanReport` used by the memory
benchmarks (allocation counts and peak footprint, before vs. after).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple as PyTuple

from repro.ir.expr import (
    Call,
    Clause,
    Constant,
    Expr,
    Function,
    If,
    Let,
    Match,
    Var,
)
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.core.memory.liveness import AliasLiveness
from repro.passes.pass_manager import Pass
from repro.utils.naming import NameSupply


@dataclass
class MemoryPlanReport:
    """Allocation statistics aggregated across all planned scopes."""

    allocs_before: int = 0
    allocs_after: int = 0
    static_bytes_before: int = 0
    static_bytes_after: int = 0
    kills_inserted: int = 0

    @property
    def alloc_reduction(self) -> float:
        if self.allocs_before == 0:
            return 0.0
        return 1.0 - self.allocs_after / self.allocs_before

    def merge(self, other: "MemoryPlanReport") -> None:
        self.allocs_before += other.allocs_before
        self.allocs_after += other.allocs_after
        self.static_bytes_before += other.static_bytes_before
        self.static_bytes_after += other.static_bytes_after
        self.kills_inserted += other.kills_inserted


def _static_alloc_size(value: Expr) -> Optional[int]:
    if (
        isinstance(value, Call)
        and isinstance(value.op, Op)
        and value.op.name == "memory.alloc_storage"
        and value.attrs.get("static")
        and isinstance(value.args[0], Constant)
    ):
        return int(value.args[0].data.reshape(()).item())
    return None


def _is_alloc_storage(value: Expr) -> bool:
    return (
        isinstance(value, Call)
        and isinstance(value.op, Op)
        and value.op.name == "memory.alloc_storage"
    )


class _Planner:
    def __init__(self, names: NameSupply, report: MemoryPlanReport) -> None:
        self.names = names
        self.report = report

    def plan_scope(self, scope: Expr) -> Expr:
        if not isinstance(scope, Let):
            return scope
        # First recurse into nested scopes, then plan this chain: one
        # liveness serves both phases.
        live = AliasLiveness(self._rewrite_nested(scope))
        self._coalesce(live)
        return self._insert_kills(live)

    # -- nested scopes ---------------------------------------------------------
    def _rewrite_nested(self, scope: Expr) -> Expr:
        bindings: List[PyTuple[Var, Expr]] = []
        node: Expr = scope
        while isinstance(node, Let):
            value = node.value
            if isinstance(value, If):
                value = If(
                    value.cond,
                    self.plan_scope(value.true_branch),
                    self.plan_scope(value.false_branch),
                )
            elif isinstance(value, Match):
                value = Match(
                    value.data,
                    [Clause(c.pattern, self.plan_scope(c.rhs)) for c in value.clauses],
                    value.complete,
                )
            elif isinstance(value, Function) and not value.is_primitive:
                value = Function(
                    value.params, self.plan_scope(value.body), value.ret_type, value.attrs
                )
            bindings.append((node.var, value))
            node = node.body
        out = node
        for var, value in reversed(bindings):
            out = Let(var, value, out)
        return out

    # -- storage coalescing ------------------------------------------------------
    def _coalesce(self, live: AliasLiveness) -> None:
        """Rebind each static ``alloc_storage`` that can reuse a dead
        storage as a move of it, in place on *live*."""
        # Storages whose life ended, keyed by the binding they free at.
        releases: Dict[int, List[PyTuple[Var, int, object]]] = {}
        # Dead storages per device (stamped by DevicePlace), each list
        # sorted by (size, pooling order): best fit is the first entry
        # that is large enough, the earliest-pooled among equal sizes.
        pools: Dict[object, List[PyTuple[int, int, Var]]] = {}
        pooled = 0
        moves: Dict[int, Var] = {}
        allocs = 0
        for i, (var, value) in enumerate(live.bindings):
            for dead, dead_size, dead_device in releases.pop(i, ()):
                pooled += 1
                insort(pools.setdefault(dead_device, []), (dead_size, pooled, dead))
            if _is_alloc_storage(value):
                allocs += 1
            size = _static_alloc_size(value)
            if size is None:
                continue
            self.report.static_bytes_before += size
            device = value.attrs.get("device")
            pool = pools.get(device, ())
            best = bisect_left(pool, (size,))
            if best < len(pool):
                size, _, storage = pool.pop(best)
                moves[i] = storage  # alias, not a fresh alloc
            else:
                storage = var
                self.report.static_bytes_after += size
            # Escaping groups may *take* a dead storage from the pool (the
            # donor is never used again) but are never released back into
            # it; any other region frees (again) when this tensor dies.
            if not live.group_escapes(var):
                end = live.group_interval(var)[1]
                releases.setdefault(end + 1, []).append((storage, size, device))
        self.report.allocs_before += allocs
        self.report.allocs_after += allocs - len(moves)
        live.rebind_as_moves(moves)

    # -- kill insertion ----------------------------------------------------------------
    def _insert_kills(self, live: AliasLiveness) -> Expr:
        # One kill per alias group that owns storage and does not escape,
        # placed after the group's last use.
        kills_at: Dict[int, List[Var]] = {}
        killed_groups: Set[Var] = set()
        storages: Set[Var] = set()  # bound to an alloc_storage, directly or by moves
        for var, value in live.bindings:
            if not _is_alloc_storage(value) and not (
                isinstance(value, Var) and value in storages
            ):
                continue
            storages.add(var)
            rep = live.aliases.find(var)
            if rep in killed_groups or live.group_escapes(var):
                continue
            killed_groups.add(rep)
            # Kill every in-scope member of the alias group: the VM's
            # registers are reference counted, so the storage is only
            # reclaimed when the last register referencing it is clobbered.
            members = [m for m in live.group_members(var) if m in live.index_of]
            kills_at.setdefault(live.group_interval(var)[1], []).extend(members)

        new_bindings: List[PyTuple[Var, Expr]] = []
        for i, (var, value) in enumerate(live.bindings):
            new_bindings.append((var, value))
            for victim in kills_at.get(i, ()):
                unit = Var(self.names.fresh("k"))
                new_bindings.append(
                    (unit, Call(Op.get("memory.kill"), [victim], {}))
                )
                self.report.kills_inserted += 1

        out: Expr = live.tail
        for var, value in reversed(new_bindings):
            out = Let(var, value, out)
        return out


class MemoryPlan(Pass):
    name = "MemoryPlan"

    def __init__(self) -> None:
        self.report = MemoryPlanReport()

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        names = NameSupply()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            planner = _Planner(names, self.report)
            out.functions[gv] = Function(
                func.params,
                planner.plan_scope(func.body),
                func.ret_type,
                func.attrs,
            )
        return out
