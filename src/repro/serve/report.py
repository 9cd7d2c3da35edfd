"""Aggregated serving statistics: latency percentiles, throughput, batch
shapes, per-worker utilization, the summed charges of every VM call
(the Table 4 kernel-vs-others breakdown, fleet-wide), and — with tiered
specialization — the per-tier split: how many requests the static tier
served, at what latency, and what the dynamic tier kept paying in
shape-function time, plus the compile-pool view: per-lane busy time and
utilization, pending-queue wait percentiles, and executable-cache
eviction counts.

A report stores only what the simulation cannot be asked again —
responses, a few sizes and the record list (:mod:`repro.serve.events`).
Every count, sum, split and profile is computed from those when read."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.reporting import format_table, percentile
from repro.serve.events import (
    Dispatch,
    EvictionEvent,
    GuardDeopt,
    SpecializationEvent,
    StoreReject,
    VMRun,
    records_of,
)
from repro.serve.request import Response
from repro.vm.profiler import VMProfile


# The one Response field `ServeReport.counters` leaves out: an array,
# which replay checks compare bitwise per rid themselves.
_RESPONSE_NOT_COUNTED = ("output",)

# The tiers a batch can run on, in the order reports list them.
_TIERS = ("dynamic", "specialized", "batched", "partial")

# What `ServeReport.counters` compares, by report name: the stored
# fields and every fold of the record list (tests/test_serve.py checks
# that a public name missing from it is a statistic of these), and then
# each tier's profile as `profile_<tier>`.
_COUNTED = (
    "responses", "worker_busy_us", "worker_batches",
    "specialize_compile_us", "num_specialized_executables",
    "num_resident_executables", "specialize_lane_busy_us",
    "specialize_queue_waits_us", "specialize_evictions", "specialize_pool_span_us",
    "specialize_restored", "specialize_fresh_compiles", "specialize_restore_us",
    "store_rejects", "verify_rejects", "specialize_prefix_us", "specialize_suffix_us",
    "guard_deopts", "predictive_compiles", "predictive_hits", "device_streams",
)


@dataclass
class ServeReport:
    responses: List[Response] = field(default_factory=list)
    # The simulation's record list. A fleet's replicas share one, so
    # every fold below reads only the records of `replica`.
    records: Sequence = ()
    replica: int = 0
    num_workers: int = 0
    # 0 when tiered specialization is off: there is no compile pool.
    num_compile_lanes: int = 0
    # Device streams the executables were scheduled for (after platform
    # clamping). 1 means single-stream builds — the stream section of
    # the report collapses to a single row and no sync events exist.
    device_streams: int = 1

    def _of(self, kind) -> list:
        """This replica's records of one kind, in list order."""
        return records_of(self.records, kind, self.replica)

    # ------------------------------------------------------------ determinism
    def counters(self) -> dict:
        """Every `_COUNTED` name and each tier's profile, for
        replay-equality assertions: each is a fold of the simulation, so
        two simulations of one trace must agree on all of them (a
        `VMProfile` compares field by field). Response *outputs* are not
        in it — compare those bitwise, per rid."""
        counted = [
            f.name for f in fields(Response) if f.name not in _RESPONSE_NOT_COUNTED
        ]
        out = {name: getattr(self, name) for name in _COUNTED}
        out["responses"] = tuple(
            tuple(getattr(r, name) for name in counted) for r in self.responses
        )
        for tier in _TIERS:
            out[f"profile_{tier}"] = self.tier_profile(tier)
        return out

    # ---------------------------------------------------------------- workers
    @property
    def worker_busy_us(self) -> List[float]:
        dispatches = self._of(Dispatch)
        return [
            sum((d.finish_us - d.begin_us for d in dispatches if d.worker == w), 0.0)
            for w in range(self.num_workers)
        ]

    @property
    def worker_batches(self) -> List[int]:
        dispatches = self._of(Dispatch)
        return [
            sum(1 for d in dispatches if d.worker == w)
            for w in range(self.num_workers)
        ]

    # ----------------------------------------------------------------- counts
    @property
    def num_requests(self) -> int:
        return len(self.responses)

    @property
    def num_batches(self) -> int:
        return sum(self.worker_batches)

    @property
    def batch_histogram(self) -> Dict[int, int]:
        """{batch_size: number of batches of that size}."""
        sizes = Counter()
        for r in self.responses:
            sizes[r.batch_size] += 1
        # Each batch of size k contributes k responses.
        return {k: v // k for k, v in sorted(sizes.items())}

    @property
    def mean_batch_size(self) -> float:
        if self.num_batches == 0:
            return 0.0
        return self.num_requests / self.num_batches

    @property
    def bucket_keys(self) -> List[Tuple[int, ...]]:
        return sorted({r.bucket_key for r in self.responses})

    # ------------------------------------------------------------------ tiers
    @property
    def specialized_hits(self) -> int:
        """Requests served by a static executable (member-wise, batched,
        or guarded-partial — all pay zero shape functions and dispatch
        on their bound dims)."""
        return sum(
            1
            for r in self.responses
            if r.tier in ("specialized", "batched", "partial")
        )

    @property
    def specialized_hit_rate(self) -> float:
        """Fraction of requests the static tiers served."""
        if not self.responses:
            return 0.0
        return self.specialized_hits / len(self.responses)

    @property
    def batched_hits(self) -> int:
        """Requests served by the batch-specialized tier (a full bucket
        executed as one stacked VM call)."""
        return sum(1 for r in self.responses if r.tier == "batched")

    @property
    def batched_hit_rate(self) -> float:
        """Fraction of requests the batched tier served."""
        if not self.responses:
            return 0.0
        return self.batched_hits / len(self.responses)

    @property
    def partial_hits(self) -> int:
        """Requests served by a guarded partial variant (guard passed —
        deopted members count as dynamic, see ``guard_deopts``)."""
        return sum(1 for r in self.responses if r.tier == "partial")

    @property
    def partial_hit_rate(self) -> float:
        """Fraction of requests the guarded-partial tier served."""
        if not self.responses:
            return 0.0
        return self.partial_hits / len(self.responses)

    def tier_profile(self, tier: str) -> VMProfile:
        """What this replica's VM calls on *tier* charged."""
        return self._charges(tier)

    def tier_latencies_us(self, tier: str) -> List[float]:
        return [r.latency_us for r in self.responses if r.tier == tier]

    def tier_latency_percentile_us(self, tier: str, q: float) -> float:
        lats = self.tier_latencies_us(tier)
        return percentile(lats, q) if lats else 0.0

    @property
    def guard_deopts(self) -> int:
        """Batch members a partial variant's entry guard rejected, who
        re-ran on the dynamic VM (their response tier reads "dynamic")."""
        return len(self._of(GuardDeopt))

    @property
    def predictive_hits(self) -> int:
        """Static-tier requests served off a variant pre-armed at time 0
        (deopted members ran dynamic and do not count)."""
        prearmed = {rid for d in self._of(Dispatch) if d.prearmed for rid in d.rids}
        return sum(
            1 for r in self.responses if r.rid in prearmed and r.tier != "dynamic"
        )

    # ----------------------------------------------------------- compile pool
    @property
    def _events(self) -> List[SpecializationEvent]:
        """Every compile or store restore a lane executed, in bind order."""
        return self._of(SpecializationEvent)

    @property
    def specialize_compile_us(self) -> float:
        """Total lane time charged: compiles plus store restores."""
        return sum(e.compile_us for e in self._events)

    @property
    def num_specialized_executables(self) -> int:
        """Distinct shapes compiled or restored in this simulation."""
        return len({e.key for e in self._events})

    @property
    def num_resident_executables(self) -> int:
        """Shapes still holding a cache slot at the end (fewer than were
        compiled once eviction recycles slots): a shape takes its slot
        before its first lane binding and gives it up at its eviction."""
        resident = set()
        for r in self.records:
            if type(r) is SpecializationEvent and r.replica == self.replica:
                resident.add(r.key)
            elif type(r) is EvictionEvent and r.replica == self.replica:
                resident.discard(r.key)
        return len(resident)

    @property
    def specialize_lane_busy_us(self) -> List[float]:
        events = self._events
        return [
            sum((e.compile_us for e in events if e.lane == lane), 0.0)
            for lane in range(self.num_compile_lanes)
        ]

    @property
    def specialize_queue_waits_us(self) -> List[float]:
        return [e.queue_us for e in self._events]

    @property
    def specialize_evictions(self) -> int:
        return len(self._of(EvictionEvent))

    @property
    def specialize_pool_span_us(self) -> float:
        """First trigger to last compile-ready: the window the pool was active."""
        events = self._events
        if not events:
            return 0.0
        return max(e.ready_us for e in events) - min(e.trigger_us for e in events)

    # The artifact-store split: variants restored from disk vs compiled
    # fresh, the deserialize charge the restores cost, and the fresh
    # compiles' charge split into the once-per-simulation
    # shape-independent prefix and the per-variant suffixes.
    @property
    def specialize_restored(self) -> int:
        return sum(1 for e in self._events if e.restored)

    @property
    def specialize_fresh_compiles(self) -> int:
        return sum(1 for e in self._events if not e.restored)

    @property
    def specialize_restore_us(self) -> float:
        return sum(e.compile_us for e in self._events if e.restored)

    @property
    def specialize_prefix_us(self) -> float:
        return sum(e.prefix_us for e in self._events)

    @property
    def specialize_suffix_us(self) -> float:
        return sum(e.compile_us - e.prefix_us for e in self._events if not e.restored)

    @property
    def predictive_compiles(self) -> int:
        """Variants pre-armed (compiled or store-restored) at time 0
        from the persisted shape profile."""
        return sum(1 for e in self._events if e.predictive)

    @property
    def store_rejects(self) -> int:
        """Store blobs that failed validation and were skipped — the
        startup kernel-cache load included."""
        return len(self._of(StoreReject))

    @property
    def verify_rejects(self) -> int:
        """The store_rejects that deserialized fine but failed static
        verification: a writer bug or tampering, not volume corruption."""
        return sum(1 for r in self._of(StoreReject) if r.verify)

    @property
    def compile_lane_utilization(self) -> List[float]:
        """Busy fraction of the pool-active window (first trigger to last
        compile-ready), per lane. Lanes can keep compiling after the last
        response lands (the end-of-trace drain), so the serving span
        would be the wrong denominator — this one bounds every lane's
        utilization to [0, 1]."""
        span = self.specialize_pool_span_us
        if span <= 0:
            return [0.0 for _ in self.specialize_lane_busy_us]
        return [busy / span for busy in self.specialize_lane_busy_us]

    @property
    def mean_compile_queue_wait_us(self) -> float:
        """Mean time a triggered compile waited for a free lane."""
        waits = self.specialize_queue_waits_us
        return sum(waits) / len(waits) if waits else 0.0

    def compile_queue_wait_percentile_us(self, q: float) -> float:
        waits = self.specialize_queue_waits_us
        return percentile(waits, q) if waits else 0.0

    # ---------------------------------------------------------------- profile
    def _charges(self, tier: Optional[str] = None) -> VMProfile:
        """The charges of this replica's `VMRun`s — on *tier*, or on
        every tier — summed in list order."""
        total = VMProfile()
        for run in self._of(VMRun):
            if tier is None or run.tier == tier:
                total.merge(run.charges)
        return total

    @property
    def profile(self) -> VMProfile:
        """What every VM call of this replica charged, all tiers."""
        return self._charges()

    # ---------------------------------------------------------------- streams
    @property
    def stream_busy_us(self) -> Dict[int, float]:
        """Fleet-wide device-kernel time per stream, all tiers merged."""
        return _stream_busy_us(self.profile)

    @property
    def stream_utilization(self) -> Dict[int, float]:
        """Each stream's share of total device-kernel time (sums to 1
        when any kernel ran). A perfectly balanced N-stream schedule
        shows 1/N per stream."""
        return _shares(self.stream_busy_us)

    # ----------------------------------------------------------------- timing
    @property
    def latencies_us(self) -> List[float]:
        return [r.latency_us for r in self.responses]

    @property
    def span_us(self) -> float:
        """First arrival to last completion."""
        if not self.responses:
            return 0.0
        start = min(r.arrival_us for r in self.responses)
        end = max(r.finish_us for r in self.responses)
        return end - start

    @property
    def throughput_rps(self) -> float:
        """Requests per (virtual) second over the busy span."""
        if self.span_us <= 0:
            return 0.0
        return self.num_requests / self.span_us * 1e6

    def latency_percentile_us(self, q: float) -> float:
        lats = self.latencies_us
        return percentile(lats, q) if lats else 0.0

    @property
    def p50_us(self) -> float:
        return self.latency_percentile_us(50.0)

    @property
    def p99_us(self) -> float:
        return self.latency_percentile_us(99.0)

    @property
    def mean_latency_us(self) -> float:
        lats = self.latencies_us
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def max_latency_us(self) -> float:
        return max(self.latencies_us) if self.latencies_us else 0.0

    @property
    def worker_utilization(self) -> List[float]:
        """Busy fraction of the serving span, per worker."""
        span = self.span_us
        if span <= 0:
            return [0.0 for _ in self.worker_busy_us]
        return [busy / span for busy in self.worker_busy_us]

    # -------------------------------------------------------------- rendering
    def format(self, title: str = "Serving report") -> str:
        profile = self.profile
        rows = [
            ["requests", float(self.num_requests)],
            ["batches", float(self.num_batches)],
            ["mean batch size", self.mean_batch_size],
            ["shape buckets", float(len(self.bucket_keys))],
            ["throughput (req/s)", self.throughput_rps],
            ["latency p50 (µs)", self.p50_us],
            ["latency p99 (µs)", self.p99_us],
            ["latency max (µs)", self.max_latency_us],
            ["kernel time (µs)", profile.kernel_time_us],
        ]
        main = format_table(title, rows, ["metric", "value"])
        sections = [main]
        if self.specialized_hits or self.num_specialized_executables:
            tiers = ["dynamic", "specialized"]
            if self.batched_hits:
                tiers.append("batched")
            if self.partial_hits:
                tiers.append("partial")
            tier_rows = []
            for tier in tiers:
                prof = self.tier_profile(tier)
                tier_rows.append(
                    [
                        tier,
                        float(len(self.tier_latencies_us(tier))),
                        self.tier_latency_percentile_us(tier, 50.0),
                        self.tier_latency_percentile_us(tier, 99.0),
                        prof.shape_func_time_us,
                    ]
                )
            staged_note = ""
            if self.specialize_prefix_us:
                staged_note = (
                    f" (prefix {self.specialize_prefix_us:.0f} µs + "
                    f"suffix {self.specialize_suffix_us:.0f} µs)"
                )
            store_note = ""
            if self.specialize_restored or self.store_rejects:
                store_note = (
                    f", {self.specialize_restored} restored from store "
                    f"({self.specialize_restore_us:.0f} µs deserialize, "
                    f"{self.store_rejects} reject(s), "
                    f"{self.verify_rejects} failed verification)"
                )
            predictive_note = ""
            if self.predictive_compiles:
                predictive_note = (
                    f", {self.predictive_compiles} predictive pre-arm(s) "
                    f"serving {self.predictive_hits} hit(s)"
                )
            partial_note = ""
            if self.partial_hits or self.guard_deopts:
                partial_note = (
                    f", partial {100.0 * self.partial_hit_rate:.1f}% "
                    f"with {self.guard_deopts} guard deopt(s)"
                )
            sections.append(
                format_table(
                    f"Tiers — specialized hit rate "
                    f"{100.0 * self.specialized_hit_rate:.1f}% "
                    f"(batched {100.0 * self.batched_hit_rate:.1f}%), "
                    f"{self.num_specialized_executables} compiled / "
                    f"{self.num_resident_executables} resident static exe(s), "
                    f"compile {self.specialize_compile_us:.0f} µs"
                    f"{staged_note}, "
                    f"{self.specialize_evictions} eviction(s)"
                    f"{store_note}{predictive_note}{partial_note}",
                    tier_rows,
                    ["tier", "requests", "p50 µs", "p99 µs", "shape-func µs"],
                )
            )
            if self.specialize_lane_busy_us:
                lane_rows = [
                    [i, busy, 100.0 * util]
                    for i, (busy, util) in enumerate(
                        zip(
                            self.specialize_lane_busy_us,
                            self.compile_lane_utilization,
                        )
                    )
                ]
                sections.append(
                    format_table(
                        f"Compile pool — queue wait mean "
                        f"{self.mean_compile_queue_wait_us:.0f} µs, "
                        f"p50 {self.compile_queue_wait_percentile_us(50.0):.0f} µs, "
                        f"p99 {self.compile_queue_wait_percentile_us(99.0):.0f} µs",
                        lane_rows,
                        ["lane", "busy µs", "util %"],
                    )
                )
        if self.device_streams > 1:
            busy_us = _stream_busy_us(profile)
            shares = _shares(busy_us)
            stream_rows = [
                [
                    s,
                    busy,
                    float(profile.stream_kernel_invocations[s]),
                    100.0 * shares[s],
                ]
                for s, busy in busy_us.items()
            ]
            sections.append(
                format_table(
                    f"Streams ({self.device_streams}) — "
                    f"{profile.sync_events} event(s), "
                    f"{profile.sync_waits} wait(s), "
                    f"stall {profile.sync_stall_us:.0f} µs",
                    stream_rows,
                    ["stream", "busy µs", "kernels", "share %"],
                )
            )
        hist_rows = [
            [size, count] for size, count in self.batch_histogram.items()
        ]
        sections.append(
            format_table(
                "Batch-size histogram", hist_rows, ["batch size", "batches"]
            )
        )
        util_rows = [
            [i, busy, 100.0 * util]
            for i, (busy, util) in enumerate(
                zip(self.worker_busy_us, self.worker_utilization)
            )
        ]
        sections.append(
            format_table("Workers", util_rows, ["worker", "busy µs", "util %"])
        )
        return "\n\n".join(sections)


def _stream_busy_us(profile: VMProfile) -> Dict[int, float]:
    return {s: profile.stream_kernel_us[s] for s in sorted(profile.stream_kernel_us)}


def _shares(busy: Dict[int, float]) -> Dict[int, float]:
    total = sum(busy.values())
    if total <= 0:
        return {s: 0.0 for s in busy}
    return {s: b / total for s, b in busy.items()}
