"""Fleet-wide serving statistics: per-tenant and per-replica views.

A :class:`FleetReport` wraps the per-replica
:class:`~repro.serve.ServeReport` objects a simulation produced and the
simulation's record list (:mod:`repro.serve.events`), from which it
computes what the router did — admission decisions, routing outcomes,
cross-replica store-warm restores, and GC activity. Two views matter:

- **per tenant** — latency percentiles, SLO attainment against the
  tenant's deadline class, and admit/reject counts (the admission
  control surface);
- **per replica** — request counts, latency percentiles, specialized
  hit rates, and store counters (the routing/affinity surface).

:meth:`FleetReport.counters` flattens every discrete outcome — reject
rids, routed counts, affinity hits, fleet restores, GC decisions, and
every field of every replica's report — into one comparable dict. The
fleet determinism contract (docs/fleet.md) is stated in terms of it:
two simulations of the same trace produce equal ``counters()`` and
bitwise-equal response outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.fleet.chaos import CorruptBlob, ReplicaStall
from repro.utils.reporting import format_table, percentile
from repro.serve.events import (
    Chaos,
    Collection,
    Route,
    Shed,
    SpecializationEvent,
    records_of,
)
from repro.serve.report import ServeReport
from repro.serve.request import Response
from repro.store.gc import GCReport


@dataclass
class TenantStats:
    """One tenant's outcome: what got in, what it cost, what was shed."""

    name: str
    deadline_us: float = math.inf
    admitted: int = 0
    rejected: int = 0
    latencies_us: List[float] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return self.admitted + self.rejected

    @property
    def p50_us(self) -> float:
        return percentile(self.latencies_us, 50.0) if self.latencies_us else 0.0

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 99.0) if self.latencies_us else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of *served* responses inside the deadline class (an
        infinite deadline scores 1.0; rejected requests are not counted
        here — they are the admission-control column, not a latency
        outcome)."""
        if not self.latencies_us:
            return 1.0
        met = sum(1 for lat in self.latencies_us if lat <= self.deadline_us)
        return met / len(self.latencies_us)


@dataclass
class FleetReport:
    """Everything one fleet simulation produced."""

    replica_reports: List[ServeReport] = field(default_factory=list)
    # Which routing policy produced this report ("affinity" /
    # "least_loaded" / "random").
    routing: str = "affinity"
    # The simulation's record list, shared with every replica report.
    records: Sequence = ()
    # Each configured tenant's deadline class (a tenant the router has
    # no spec for has none: inf).
    deadlines_us: Dict[str, float] = field(default_factory=dict)

    def _of(self, kind) -> list:
        return records_of(self.records, kind)

    # ----------------------------------------------------------------- volume
    @property
    def num_replicas(self) -> int:
        return len(self.replica_reports)

    @property
    def responses(self) -> List[Response]:
        """Every served response, merged across replicas, by rid."""
        merged: List[Response] = []
        for report in self.replica_reports:
            merged.extend(report.responses)
        return sorted(merged, key=lambda r: r.rid)

    @property
    def tenants(self) -> Dict[str, TenantStats]:
        """Per-tenant outcome, in order of first arrival."""
        stats: Dict[str, TenantStats] = {}
        for r in self.records:
            if type(r) in (Route, Shed):
                deadline_us = self.deadlines_us.get(r.tenant, math.inf)
                tenant = stats.setdefault(r.tenant, TenantStats(r.tenant, deadline_us))
                if type(r) is Route:
                    tenant.admitted += 1
                else:
                    tenant.rejected += 1
        for response in self.responses:
            stats[response.tenant].latencies_us.append(response.latency_us)
        return stats

    @property
    def admitted(self) -> int:
        return len(self._of(Route))

    @property
    def rejected(self) -> int:
        return len(self._of(Shed))

    @property
    def rejected_rids(self) -> Tuple[int, ...]:
        """Rejected request ids, in arrival order."""
        return tuple(r.rid for r in self._of(Shed))

    # ---------------------------------------------------------------- routing
    @property
    def routed(self) -> List[int]:
        """Admitted requests placed on each replica, by replica id."""
        routes = self._of(Route)
        return [
            sum(1 for r in routes if r.replica == i) for i in range(self.num_replicas)
        ]

    @property
    def affinity_hits(self) -> int:
        """Admitted requests placed by shape affinity (the replica was
        already serving — or compiling — the exact shape), vs fallback."""
        return sum(1 for r in self._of(Route) if r.by_affinity)

    @property
    def affinity_rate(self) -> float:
        """Fraction of admitted requests the affinity rule placed (vs
        the least-loaded fallback). Only meaningful under the
        "affinity" policy; 0.0 under the others."""
        if self.admitted == 0:
            return 0.0
        return self.affinity_hits / self.admitted

    # ------------------------------------------------------------------ store
    @property
    def fleet_restores(self) -> List[int]:
        """Cross-replica store warmth, by replica id: variants it
        restored that a *sibling* compiled earlier in this simulation."""
        warmed = [e for e in self._of(SpecializationEvent) if e.from_sibling]
        return [
            sum(1 for e in warmed if e.replica == i) for i in range(self.num_replicas)
        ]

    @property
    def total_fleet_restores(self) -> int:
        return sum(self.fleet_restores)

    @property
    def specialized_hits(self) -> int:
        return sum(r.specialized_hits for r in self.replica_reports)

    @property
    def specialized_hit_rate(self) -> float:
        served = sum(r.num_requests for r in self.replica_reports)
        if served == 0:
            return 0.0
        return self.specialized_hits / served

    @property
    def store_rejects(self) -> int:
        return sum(r.store_rejects for r in self.replica_reports)

    @property
    def specialize_compile_us(self) -> float:
        """Total lane charge across the fleet, compiles plus store
        restores — the "equal compile charge" axis routing policies are
        compared on."""
        return sum((r.specialize_compile_us for r in self.replica_reports), 0.0)

    # --------------------------------------------------------------------- gc
    @property
    def gc_reports(self) -> List[GCReport]:
        """GC activity, one report per collection, in firing order."""
        return [r.report for r in self._of(Collection)]

    @property
    def gc_pruned(self) -> int:
        return sum(g.pruned_count for g in self.gc_reports)

    @property
    def gc_kept_referenced(self) -> int:
        return sum(g.kept_referenced for g in self.gc_reports)

    # ------------------------------------------------------------------ chaos
    def _applied(self, fault_kind) -> int:
        return sum(
            1 for r in self._of(Chaos) if r.applied and isinstance(r.fault, fault_kind)
        )

    @property
    def chaos_stalls(self) -> int:
        return self._applied(ReplicaStall)

    @property
    def chaos_corruptions(self) -> int:
        return self._applied(CorruptBlob)

    @property
    def chaos_noops(self) -> int:
        """Injected faults that found nothing to act on."""
        return sum(1 for r in self._of(Chaos) if not r.applied)

    # ----------------------------------------------------------- determinism
    def counters(self) -> dict:
        """Every discrete outcome of the simulation, flattened for
        replay-equality assertions. Excludes response *outputs* (compare
        those bitwise, per rid) and anything disk-dependent."""
        return {
            "routing": self.routing,
            "routed": tuple(self.routed),
            "affinity_hits": self.affinity_hits,
            "rejected_rids": self.rejected_rids,
            "fleet_restores": tuple(self.fleet_restores),
            "tenants": {
                name: (t.admitted, t.rejected, tuple(t.latencies_us))
                for name, t in sorted(self.tenants.items())
            },
            "replicas": tuple(r.counters() for r in self.replica_reports),
            "gc": tuple(g.counters() for g in self.gc_reports),
            "chaos": (
                self.chaos_stalls,
                self.chaos_corruptions,
                self.chaos_noops,
            ),
        }

    # -------------------------------------------------------------- rendering
    def format(self, title: str = "Fleet report") -> str:
        head = [
            ["replicas", float(self.num_replicas)],
            ["admitted", float(self.admitted)],
            ["rejected", float(self.rejected)],
            ["affinity rate %", 100.0 * self.affinity_rate],
            ["specialized hit rate %", 100.0 * self.specialized_hit_rate],
            ["fleet (sibling) restores", float(self.total_fleet_restores)],
            ["compile charge (µs)", self.specialize_compile_us],
            ["gc pruned", float(self.gc_pruned)],
            ["gc kept (referenced)", float(self.gc_kept_referenced)],
        ]
        sections = [
            format_table(f"{title} [{self.routing}]", head, ["metric", "value"])
        ]
        tenant_rows = [
            [
                t.name,
                float(t.admitted),
                float(t.rejected),
                t.p50_us,
                t.p99_us,
                100.0 * t.slo_attainment,
            ]
            for t in sorted(self.tenants.values(), key=lambda t: t.name)
        ]
        if tenant_rows:
            sections.append(
                format_table(
                    "Tenants",
                    tenant_rows,
                    ["tenant", "admitted", "rejected", "p50 µs", "p99 µs", "SLO %"],
                )
            )
        replica_rows = [
            [
                i,
                float(r.num_requests),
                r.p50_us,
                r.p99_us,
                100.0 * r.specialized_hit_rate,
                float(restores),
            ]
            for i, (r, restores) in enumerate(
                zip(self.replica_reports, self.fleet_restores)
            )
        ]
        sections.append(
            format_table(
                "Replicas",
                replica_rows,
                ["replica", "requests", "p50 µs", "p99 µs", "hit %", "warmed"],
            )
        )
        return "\n\n".join(sections)
