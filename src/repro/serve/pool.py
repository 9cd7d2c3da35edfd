"""The compile pool: pending jobs, lanes and ready times of one simulation.

Compile cost is charged on the virtual clock through
``specialize_compile_lanes`` lanes. A shape that crosses the threshold
enqueues a pending compile (or store restore) per variant; pending jobs
wait in a priority queue ordered by observed traffic — hit rate since
trigger, recomputed at each lane-free event on the virtual clock — and
are bound to the lowest-numbered earliest-free lane, so replays of one
trace are bit-identical under any lane count. Requests are never
stalled by compilation — they fall back to the dynamic tier until the
static one is ready (``ready_at``).

Every lane binding and every eviction is appended to the simulation's
record list (:mod:`repro.serve.events`); the report computes every count
and sum from there. The manager builds a fresh pool at every ``reset()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.serve.config import ServeConfig
from repro.serve.events import EvictionEvent, SpecializationEvent, records_of
from repro.serve.policy import PartialKey
from repro.serve.profile import key_order

# A compiled artifact is one (shape, batch) variant: batch 1 is the
# member-wise static build, batch > 1 stacks that many members per call.
# Partial keys are member-wise only (the batch rewrite needs every dim).
VariantKey = Tuple[PartialKey, int]
# The artifact planner's answer for one variant: (lane charge, restored,
# prefix component, restored from a sibling's compile).
Plan = Tuple[float, bool, float, bool]


@dataclass
class _PendingCompile:
    """A triggered compile waiting for a free lane. ``hit_times_us``
    records every observation of the key since the trigger, so priority
    at a lane-free event counts only hits already seen *by that event* —
    a later arrival can never rewrite an earlier binding decision."""

    key: PartialKey
    trigger_us: float
    compile_us: float
    hit_times_us: List[float]
    batch: int = 1
    restored: bool = False
    prefix_us: float = 0.0
    from_sibling: bool = False
    predictive: bool = False

    def hits_by(self, at_us: float) -> int:
        return sum(1 for t in self.hit_times_us if t <= at_us)


class CompilePool:
    """One simulation's compile lanes, appending to *records* as
    *replica_id*. It also carries the two per-simulation facts the
    artifact planner charges by: whether the once-per-module prefix has
    been charged, and how many fresh compiles ran (the verify cadence)."""

    def __init__(self, config: ServeConfig, records: list, replica_id: int) -> None:
        self.records = records
        self.replica_id = replica_id
        self._half_life_us = config.specialize_decay_half_life_us
        self._batch_cap = config.batch_cap
        self.pending: List[_PendingCompile] = []
        self.lane_free_us: List[float] = [0.0] * config.specialize_compile_lanes
        self.ready_at: Dict[VariantKey, float] = {}
        self.prefix_charged = False
        self.fresh_compiles = 0

    @property
    def events(self) -> List[SpecializationEvent]:
        """This simulation's lane bindings so far, in bind order (a
        read-only view of the record list)."""
        return records_of(self.records, SpecializationEvent, self.replica_id)

    @property
    def evictions(self) -> List[EvictionEvent]:
        """This simulation's evictions so far (a read-only view of the
        record list)."""
        return records_of(self.records, EvictionEvent, self.replica_id)

    def note_hit(self, key: PartialKey, now_us: float) -> None:
        """One hit on *key*: the hit times its pending jobs rank by."""
        for job in self.pending:
            if job.key == key:
                job.hit_times_us.append(now_us)

    def submit(
        self, key: PartialKey, now_us: float, batch: int,
        plan: Plan, predictive: bool,
    ) -> None:
        """Queue one variant's job as the artifact planner planned it."""
        cost, restored, prefix_us, from_sibling = plan
        self.pending.append(
            _PendingCompile(
                key, now_us, cost, [], batch, restored, prefix_us,
                from_sibling, predictive,
            )
        )

    def evict(
        self, key: PartialKey, now_us: float, score: float, by: PartialKey
    ) -> None:
        """*key* lost its cache slot to *by*: every variant it may ever
        have had loses its ready time (a re-trigger recompiles and
        recharges both), and the eviction is recorded."""
        for batch in (1, self._batch_cap):
            self.ready_at.pop((key, batch), None)
        self.records.append(EvictionEvent(key, now_us, score, by, self.replica_id))

    def _priority(self, job: _PendingCompile, at_us: float):
        """Queue order at virtual time *at_us*: highest hit rate since
        trigger first (the triggering hit counts, plus every hit observed
        by *at_us* — never later ones), then earliest trigger, then
        smallest key — a total order, so lane binding is deterministic
        and a binding at a lane-free event only depends on what the pool
        had seen by that event. The rate window is floored at the decay
        half-life: without the floor a compile triggered an instant ago
        would measure an enormous rate over its microsecond of existence
        and preempt genuinely hotter long-pending jobs (newest-first in
        disguise); with it, young jobs compete on hits over a common
        window until they age past the half-life."""
        elapsed = max(self._half_life_us, at_us - job.trigger_us)
        rate = (job.hits_by(at_us) + 1) / elapsed
        # Variants of one shape tie on rate and trigger; the member-wise
        # build (batch 1) compiles first — it serves ragged tails too, so
        # it is the more broadly useful artifact.
        return (-rate, job.trigger_us, key_order(job.key), job.batch)

    def pump(self, now_us: float) -> None:
        """Process every lane-free event up to *now_us*: bind the
        highest-priority pending compile to the earliest-free lane
        (lowest id on ties), priorities recomputed at each binding."""
        while self.pending:
            free_us, lane = min((t, i) for i, t in enumerate(self.lane_free_us))
            if free_us > now_us:
                break
            at = max(free_us, min(j.trigger_us for j in self.pending))
            job = min(self.pending, key=lambda j: self._priority(j, at))
            self.pending.remove(job)
            start = max(free_us, job.trigger_us)
            ready = start + job.compile_us
            self.lane_free_us[lane] = ready
            self.ready_at[(job.key, job.batch)] = ready
            self.records.append(
                SpecializationEvent(
                    job.key, job.trigger_us, start, ready, job.compile_us,
                    lane, job.batch, job.restored, job.prefix_us,
                    job.from_sibling, job.predictive, self.replica_id,
                )
            )
