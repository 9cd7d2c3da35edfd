"""The inference server: an event-driven simulation over virtual time.

``simulate`` replays a request trace against the batcher and worker pool.
:func:`run_timeline` advances virtual time from event to event — the next
arrival or the next bucket deadline, whichever comes first — so the
trace, the batching decisions, and every latency number are a pure
function of the inputs. Two identical simulations are bit-identical.

Workers never block batch formation: a flushed batch is assigned to the
earliest-free worker (ties broken by worker id) and starts at
``max(flush time, worker free time)``.

With ``specialize=True`` the server runs tiered compilation: request
arrivals are counted per exact dynamic-dim shape, hot shapes get a
statically recompiled executable (sharing the dynamic build's kernel
cache), and a batch whose members all match a specialized shape exactly
is routed to the static tier — everything else falls back to the dynamic
executable, including the hot shape itself while its compile sits in the
compile-worker pool. Once a shape is hot it also gets its own exact
bucket, so its batches form shape-uniform. The server decides none of
this itself: the manager's ``bucket_key`` is the batcher's hook, and
``SpecializationManager.tier_for`` picks the tier of every batch; :mod:`repro.serve.policy` describes the
lifecycle.

With ``artifact_dir`` set the server is additionally backed by a
persistent artifact store: the kernel cache warm-loads before the
dynamic build, every specialized compile persists its executable, and
hot triggers restore stored artifacts at the modeled deserialize cost
instead of recompiling — so a restarted server reaches its specialized
steady state for a fraction of the cold compile charge. What the store
holds is read from a :class:`~repro.store.FleetStoreView`: the server's
own, or — as one replica of a fleet — the one it shares with its
siblings.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import VMError
from repro.hardware.platforms import Platform, intel_cpu
from repro.ir.module import IRModule
from repro.serve.batcher import Batch, Batcher, ShapeBucketer
from repro.serve.config import ServeConfig
from repro.serve.events import Dispatch, StoreReject
from repro.serve.report import ServeReport
from repro.serve.request import Request, Response
from repro.serve.specialization import DYNAMIC_TIER, SpecializationManager
from repro.serve.worker import Worker
from repro.store import ArtifactStore, FleetStoreView


class EventSource(NamedTuple):
    """A stream of timed events :func:`run_timeline` merges with the
    arrivals and the replicas' bucket deadlines."""

    # Ascending event times; `fire(now)` is called once per time.
    times: Iterator[float]
    fire: Callable[[float], None]
    # Same-instant order: before the bucket deadlines, or after them.
    after_deadlines: bool
    # Must every event fire before the run may end? (A periodic source
    # never runs dry, so it must not keep the run alive.)
    finite: bool


def run_timeline(
    trace: Sequence[Request],
    replicas: Sequence["InferenceServer"],
    on_arrival: Callable[[Request, float], None],
    sources: Sequence[EventSource] = (),
) -> float:
    """The one event loop: fire, in virtual-time order, every arrival of
    *trace* (through *on_arrival*), every bucket deadline of *replicas*
    (``flush_due``) and every event of *sources*, until arrivals, queued
    requests and finite sources are exhausted; returns the time of the
    last event. At one instant arrivals go first, then sources placed
    before the deadlines, then deadlines by replica position, then the
    remaining sources."""
    trace = sorted(trace, key=lambda r: (r.arrival_us, r.rid))
    upcoming = [next(s.times, math.inf) for s in sources]
    now = 0.0
    i, n = 0, len(trace)
    while (
        i < n
        or any(r.pending for r in replicas)
        or any(s.finite and t < math.inf for s, t in zip(sources, upcoming))
    ):
        # (time, tie rank, position); the lowest fires.
        best = (trace[i].arrival_us, 0, 0) if i < n else (math.inf, 0, 0)
        for k, source in enumerate(sources):
            best = min(best, (upcoming[k], 3 if source.after_deadlines else 1, k))
        for k, replica in enumerate(replicas):
            deadline = replica.next_deadline()
            if deadline is not None:
                best = min(best, (deadline, 2, k))
        if best[0] == math.inf:
            # Arrivals exhausted and no finite deadline will ever fire
            # (max_delay_us=inf means flush-on-size-only): the leftover
            # partial buckets drain in drain(), at the last event.
            break
        now, rank, k = best
        if rank == 0:
            on_arrival(trace[i], now)
            i += 1
        elif rank == 2:
            replicas[k].flush_due(now)
        else:
            sources[k].fire(now)
            upcoming[k] = next(sources[k].times, math.inf)
    return now


class InferenceServer:
    """Compile once, serve a stream of dynamically-shaped requests."""

    def __init__(
        self,
        mod: IRModule,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        kernel_cache: Optional[KernelCache] = None,
        replica_id: int = 0,
        store_view: Optional[FleetStoreView] = None,
    ) -> None:
        # Fleet mode (repro.fleet): `replica_id` names this server inside
        # a FleetRouter's replica set and `store_view` is the fleet's
        # shared FleetStoreView over one artifact directory — it lets a
        # sibling's fresh compile restore here mid-simulation and lets
        # the fleet GC see which blobs this replica still references. A
        # standalone server over a store models it with a view of its
        # own, taken before anything below writes to the directory.
        self.replica_id = replica_id
        self.platform = platform or intel_cpu()
        self.config = config or ServeConfig()
        self.kernel_cache = (
            KernelCache() if kernel_cache is None else kernel_cache
        )
        self.store = None
        # What startup did that every simulation of this server is
        # built on: begin() opens each record list with these.
        self._startup_records: List[StoreReject] = []
        self.store_view = store_view
        self._owns_view = False
        if self.config.artifact_dir is not None:
            self.store = ArtifactStore(self.config.artifact_dir)
            if store_view is None:
                self.store_view = FleetStoreView(self.store)
                self._owns_view = True
            # Warm the kernel cache before the dynamic build below, so
            # a restarted server reuses the previous process's compiled
            # kernels. They are default-schedule builds, the same
            # kernels a rebuild would make: kernels.kc saves that
            # rebuild, it carries no tuning. A rejected kernels.kc is in
            # every report's store_rejects — it must be as visible as a
            # rejected executable blob.
            rejects = self.store.rejects
            self.store.load_kernel_cache(self.kernel_cache)
            if self.store.rejects > rejects:
                self._startup_records.append(
                    StoreReject(
                        0.0, replica_id, "kernels",
                        self.store.kernel_cache_path.name, False,
                    )
                )
        self.mod = mod
        self.exe, self.build_report = nimble.build(
            mod,
            self.platform,
            options=nimble.CompilerOptions(
                device_streams=self.config.device_streams
            ),
            kernel_cache=self.kernel_cache,
        )
        typed = self.build_report.typed_module
        if "main" not in typed:
            raise VMError("module has no entry function 'main'")
        self.bucketer = ShapeBucketer(
            typed["main"], granularity=self.config.bucket_granularity
        )
        self.specializer: Optional[SpecializationManager] = None
        if self.config.specialize:
            self.specializer = SpecializationManager(
                mod,
                self.platform,
                self.bucketer,
                self.kernel_cache,
                self.config,
                store=self.store,
                store_view=self.store_view,
                replica_id=replica_id,
            )
        self.workers = [
            Worker(
                i, self.exe, self.platform,
                numerics=self.config.numerics, replica_id=replica_id,
            )
            for i in range(self.config.num_workers)
        ]

    # ------------------------------------------------------------- simulation
    #
    # `begin`, `ingest`, `flush_due`, `next_deadline` and `drain` are
    # the steps `run_timeline` drives one event at a time. `simulate`
    # runs it over this one server; repro.fleet.FleetRouter runs the
    # same loop over N replicas interleaved on one merged timeline.

    def begin(self, records: Optional[list] = None) -> None:
        """Start an independent replay: workers to cold start, hit
        counters restarted (compiled static executables are kept —
        compilation is deterministic, so replays stay bit-identical
        either way), and a fresh batcher. The store model forgets what
        the last replay wrote, and a new record list starts (a fleet's
        router resets its shared view once and hands every replica its
        one list as *records*)."""
        if self._owns_view:
            self.store_view.reset()
        self.records: list = [] if records is None else records
        self.records.extend(self._startup_records)
        for worker in self.workers:
            worker.reset(self.records)
        if self.specializer is not None:
            self.specializer.reset(self.records)
        self._batcher = Batcher(
            self.bucketer,
            max_batch_size=self.config.max_batch_size,
            max_delay_us=self.config.max_delay_us,
            key_fn=None if self.specializer is None else self.specializer.bucket_key,
        )
        self._responses: List[Response] = []

    def ingest(self, request: Request, now_us: float) -> None:
        """One arrival at *now_us*: observe its shape (specialization
        heat) and enqueue it; a bucket filled to its cap dispatches
        immediately."""
        if self.specializer is not None:
            self.specializer.observe(
                self.bucketer.exact_key(request.payload), now_us
            )
        batch = self._batcher.add(request, now_us)
        if batch is not None:
            self._dispatch(batch, "size")

    def next_deadline(self) -> Optional[float]:
        """The earliest bucket-delay deadline, or None with nothing queued."""
        return self._batcher.next_deadline()

    def flush_due(self, now_us: float) -> None:
        """Dispatch every bucket whose delay deadline has passed."""
        for batch in self._batcher.flush_due(now_us):
            self._dispatch(batch, "deadline")

    @property
    def pending(self) -> int:
        """Requests currently queued in buckets (not yet dispatched)."""
        return self._batcher.pending

    def drain(self, now_us: float) -> ServeReport:
        """Shutdown drain at *now_us*: flush the leftover partial
        buckets, run the compile pool to completion, and build the
        report. Persists nothing — see :meth:`finish`."""
        for batch in self._batcher.flush_all(now_us):
            self._dispatch(batch, "drain")
        if self.specializer is not None:
            # Arrivals are over but the compile pool keeps working: bind
            # every still-pending compile to a lane so queue-wait and
            # lane-utilization stats cover the whole triggered set.
            self.specializer.drain()
        return ServeReport(
            responses=sorted(self._responses, key=lambda r: r.rid),
            records=self.records,
            replica=self.replica_id,
            num_workers=len(self.workers),
            num_compile_lanes=(
                self.config.specialize_compile_lanes if self.config.specialize else 0
            ),
            device_streams=max(1, self.exe.device_streams),
        )

    def finish(self, now_us: float) -> ServeReport:
        """A lone server's end of simulation: :meth:`drain`, then
        persist the kernel cache (executables persist at compile time,
        inside the manager) so the next process's dynamic build starts
        warm too, and the shape profile (.nmblprof) — never read back by
        this manager (frozen at construction), so replays stay
        bit-identical. A fleet's router drains its replicas and writes
        both once, the profile merged (repro.fleet)."""
        report = self.drain(now_us)
        if self.store is not None:
            self.store.save_kernel_cache(self.kernel_cache)
            if self.specializer is not None:
                self.specializer.persist_profile(now_us)
        return report

    def simulate(self, requests: Sequence[Request]) -> ServeReport:
        """Serve the trace to completion; returns the aggregate report.
        Each call is an independent replay (see :meth:`begin`)."""
        self.begin()
        return self.finish(run_timeline(requests, [self], self.ingest))

    # ------------------------------------------------------------ fleet hooks
    def exact_key(self, payload):
        """The payload's exact dynamic-dim key (affinity-routing input)."""
        return self.bucketer.exact_key(payload)

    def backlog_us(self, now_us: float) -> float:
        """Outstanding worker busy-time beyond *now_us*: the router's
        least-loaded signal. Zero when every worker is idle."""
        return sum(max(0.0, w.free_at_us - now_us) for w in self.workers)

    def specialization_state(self, exact, now_us: float) -> Optional[str]:
        """Delegate to the manager (None when specialization is off)."""
        if self.specializer is None:
            return None
        return self.specializer.specialization_state(exact, now_us)

    def referenced_store_keys(self):
        """Store entries a live snapshot of this replica still needs —
        the fleet GC's refcount guard (empty without a store)."""
        if self.specializer is None:
            return set()
        return self.specializer.referenced_store_keys()

    def restoring_store_keys(self, now_us: float):
        """Store entries with a restore in flight at *now_us* (see the
        manager — subset of :meth:`referenced_store_keys`)."""
        if self.specializer is None:
            return set()
        return self.specializer.restoring_store_keys(now_us)

    def _dispatch(self, batch: Batch, cause: str) -> None:
        """Run *batch* on the earliest-free worker, on the tier the
        manager picks for it; *cause* is why its bucket flushed."""
        worker = min(self.workers, key=lambda w: (w.free_at_us, w.worker_id))
        start = max(batch.formed_us, worker.free_at_us)
        tier, executable, prearmed = (
            DYNAMIC_TIER
            if self.specializer is None
            else self.specializer.tier_for(batch, start)
        )
        responses = worker.run_batch(
            batch, start, executable=executable, tier=tier
        )
        self._responses.extend(responses)
        self.records.append(
            Dispatch(
                replica=self.replica_id,
                worker=worker.worker_id,
                begin_us=responses[0].dispatch_us,
                finish_us=responses[0].finish_us,
                tier=tier,
                rids=tuple(r.rid for r in responses),
                bucket_key=batch.key,
                cause=cause,
                prearmed=prearmed,
            )
        )
