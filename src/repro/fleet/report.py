"""Fleet-wide serving statistics: per-tenant and per-replica views.

A :class:`FleetReport` wraps the per-replica
:class:`~repro.serve.ServeReport` objects a simulation produced and adds
the router's own bookkeeping — admission decisions, routing outcomes,
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
from typing import Dict, List, Tuple

from repro.utils.reporting import format_table, percentile
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
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    # Routing outcomes, indexed by replica id.
    routed: List[int] = field(default_factory=list)
    # Admitted requests routed by shape affinity (the target replica was
    # already serving — or compiling — the exact shape), vs fallback.
    affinity_hits: int = 0
    # Which routing policy produced this report ("affinity" /
    # "least_loaded" / "random").
    routing: str = "affinity"
    # Rejected request ids, in arrival order (replay-comparable; the
    # per-tenant split lives in `tenants`).
    rejected_rids: Tuple[int, ...] = ()
    # Cross-replica store warmth, indexed by replica id: variants this
    # replica restored that a *sibling* compiled and persisted during
    # this same simulation.
    fleet_restores: List[int] = field(default_factory=list)
    # GC activity, one report per collection, in firing order.
    gc_reports: List[GCReport] = field(default_factory=list)
    # Chaos accounting: stalls applied, blobs corrupted, and corruption
    # events that found no blob of their kind to target.
    chaos_stalls: int = 0
    chaos_corruptions: int = 0
    chaos_noops: int = 0

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
    def admitted(self) -> int:
        return sum(t.admitted for t in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(t.rejected for t in self.tenants.values())

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
        """Total fresh-compile lane charge across the fleet — the "equal
        compile charge" axis routing policies are compared on."""
        return sum(r.specialize_compile_us for r in self.replica_reports)

    # --------------------------------------------------------------------- gc
    @property
    def gc_pruned(self) -> int:
        return sum(g.pruned_count for g in self.gc_reports)

    @property
    def gc_kept_referenced(self) -> int:
        return sum(g.kept_referenced for g in self.gc_reports)

    @property
    def gc_malformed(self) -> int:
        """Malformed store names at the LAST collection (an inventory
        level, not a cumulative count)."""
        return self.gc_reports[-1].malformed if self.gc_reports else 0

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
