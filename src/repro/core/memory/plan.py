"""Storage coalescing + kill insertion (§4.3).

Two rewrites over each manifested scope:

1. **Storage reuse** — an ``alloc_storage`` whose previous occupant's
   lifetime has ended is replaced by an alias to the dead storage. A
   *static* site (compile-time size) takes the best fit by size. A
   *dynamic* site may only take a dead storage sized by the very same
   size variable (``ManifestAlloc`` keeps one per symbolic byte size)
   on the same device, and only when every kernel that touched the dead
   storage already happens-before the new storage's first writer in the
   scope's dataflow: reuse then adds no ordering the program did not
   have, and the stream scheduler keeps its overlap (unrestricted reuse
   serialises independent kernels through WAR/WAW hazards). This is
   what turns N allocations into a small number of regions that tensor
   allocations multiplex onto — the §6.3 "47 % fewer buffer allocations".

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

from repro.ir.analysis import fold_lets, let_chain, map_nested_scopes
from repro.ir.expr import Call, Constant, Expr, Function, Var
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
        # First plan the nested scopes, then this chain: one liveness
        # serves both phases.
        bindings, tail = let_chain(scope)
        live = AliasLiveness(fold_lets(
            [(var, map_nested_scopes(value, self.plan_scope)) for var, value in bindings], tail))
        self._coalesce(live)
        return self._insert_kills(live)

    # -- storage coalescing ------------------------------------------------------
    @staticmethod
    def _dataflow(live: AliasLiveness) -> PyTuple[Dict[Var, int], Dict[Var, int]]:
        """Happens-before among the scope's kernels, as bitsets over their
        program order: per alias group, the kernels its first writer
        depends on (an ``invoke_mut`` defines its outputs) and the kernels
        that read or wrote it. One linear walk."""
        wrote: Dict[Var, int] = {}  # group -> its writers and their ancestors
        before_first: Dict[Var, int] = {}
        touched: Dict[Var, int] = {}
        bit = 1
        for _, value in live.bindings:
            if not (isinstance(value, Call) and isinstance(value.op, Op)
                    and value.op.name == "vm.invoke_mut"):
                continue
            ins, outs = (
                [live.aliases.find(v) for v in group.fields
                 if isinstance(v, Var) and v in live.aliases]
                for group in value.args[1:]
            )
            ancestors = 0
            for g in ins:
                ancestors |= wrote.get(g, 0)
            for g in outs:
                before_first.setdefault(g, ancestors)
                wrote[g] = wrote.get(g, 0) | ancestors | bit
            for g in ins + outs:
                touched[g] = touched.get(g, 0) | bit
            bit <<= 1
        return before_first, touched

    def _coalesce(self, live: AliasLiveness) -> None:
        """Rebind each ``alloc_storage`` that can reuse a dead storage as
        a move of it, in place on *live*."""
        before_first, touched = self._dataflow(live)
        # Storages whose life ended, keyed by the binding they free at.
        releases: Dict[int, List[PyTuple[object, int, Var, int]]] = {}
        # Dead storages per pool key, each list sorted by (size, pooling
        # order). A static site's key is its device (stamped by
        # DevicePlace): best fit is the first entry that is large enough,
        # the earliest-pooled among equal sizes. A dynamic site's key is
        # (device, size variable), its entries all size 0 — pooling order —
        # and carry the kernels that touched the storage.
        pools: Dict[object, List[PyTuple[int, int, Var, int]]] = {}
        pooled = 0
        moves: Dict[int, Var] = {}
        allocs = 0
        for i, (var, value) in enumerate(live.bindings):
            for key, dead_size, dead, dead_touched in releases.pop(i, ()):
                pooled += 1
                insort(pools.setdefault(key, []), (dead_size, pooled, dead, dead_touched))
            if not _is_alloc_storage(value):
                continue
            allocs += 1
            size = _static_alloc_size(value)
            key = value.attrs.get("device")
            if size is not None:
                self.report.static_bytes_before += size
                ordered, after = 0, 0  # any dead storage will do
            elif isinstance(value.args[0], Var):
                key, size = (key, value.args[0]), 0
                group = live.aliases.find(var)
                ordered, after = before_first.get(group, 0), touched.get(group, 0)
            else:
                continue
            pool = pools.get(key, ())
            # The first entry, from the best fit on, whose kernels all
            # happen before this storage's first writer.
            best = next(
                (n for n in range(bisect_left(pool, (size,)), len(pool))
                 if not pool[n][3] & ~ordered),
                None,
            )
            if best is not None:
                size, _, storage, _ = pool.pop(best)
                moves[i] = storage  # alias, not a fresh alloc
            else:
                storage = var
                self.report.static_bytes_after += size  # 0 for a dynamic site
            # Escaping groups may *take* a dead storage from the pool (the
            # donor is never used again) but are never released back into
            # it; any other region frees (again) when this tensor dies.
            if not live.group_escapes(var):
                end = live.group_interval(var)[1]
                releases.setdefault(end + 1, []).append((key, size, storage, after))
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

        return fold_lets(new_bindings, live.tail)


class MemoryPlan(Pass):
    name = "MemoryPlan"
    reads_types = False

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
