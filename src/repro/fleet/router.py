"""The fleet router: N replica servers, one timeline, one store.

A :class:`FleetRouter` fronts ``num_replicas`` independent
:class:`~repro.serve.InferenceServer` instances. Each replica has its
own workers, batcher, and specialization manager — the unit of failure
and of cache locality — but all of them share one virtual timeline, one
kernel cache, one artifact directory, and one
:class:`~repro.store.FleetStoreView` model of it. The router owns
everything between the trace and the replicas:

- **admission** (``repro.fleet.tenancy``): each arrival spends a token
  from its tenant's bucket; over-budget arrivals are rejected-and-counted
  at the door, never queued.
- **routing**: ``"affinity"`` sends a request to a replica that already
  has its exact shape ready (or compiling), so specialized executables
  concentrate instead of every replica re-deriving every shape;
  ``"least_loaded"`` and ``"random"`` are the comparison baselines.
- **chaos** (``repro.fleet.chaos``): declarative faults merged into the
  event loop at their timestamps.
- **store GC** (``repro.store.StoreGC``): periodic collections guarded
  by the union of every replica's referenced and in-flight store keys.
- **the record list** (``repro.serve.events``): one per simulation,
  handed to every replica; the router appends what it decides
  (``Route``, ``Shed``, ``Chaos``, ``Collection``) and the
  :class:`FleetReport` computes its numbers from the whole list.

The event loop is the single server's
(:func:`repro.serve.server.run_timeline`) with two more event sources:
at each step the earliest of (next arrival, next chaos event, each
replica's next bucket deadline, next GC tick) fires, with ties broken in
exactly that order (and by replica id among deadlines). A one-replica
fleet with no admission limits therefore replays the *identical* event
sequence as ``InferenceServer.simulate``, and every decision the router
makes is a pure function of (trace, chaos, config), which is the fleet
determinism contract (docs/fleet.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.kernels import KernelCache
from repro.fleet.chaos import CorruptBlob, ReplicaStall
from repro.fleet.report import FleetReport
from repro.fleet.tenancy import TenantSpec, TokenBucket
from repro.hardware.platforms import Platform
from repro.ir.module import IRModule
from repro.serve.events import Chaos, Collection, Route, Shed
from repro.serve.request import Request
from repro.serve.server import (
    EventSource,
    InferenceServer,
    ServeConfig,
    run_timeline,
)
from repro.serve.specialization import merged_profile
from repro.store import ArtifactStore, FleetStoreView, StoreGC

ROUTING_POLICIES = ("affinity", "least_loaded", "random")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-replica behavior lives in ServeConfig)."""

    num_replicas: int = 2
    routing: str = "affinity"
    # Seed for the "random" routing baseline (a per-simulation
    # RandomState, so replays draw the same placement sequence).
    random_seed: int = 0
    # Store GC: fire a collection every gc_interval_us of virtual time
    # (None = only the end-of-simulation collection), pruning blobs
    # older than gc_max_age_us. GC runs only when the serve config has
    # an artifact_dir and gc_max_age_us is set.
    gc_interval_us: Optional[float] = None
    gc_max_age_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"routing must be one of {ROUTING_POLICIES}, "
                f"got {self.routing!r}"
            )
        if self.gc_interval_us is not None and self.gc_interval_us <= 0:
            raise ValueError("gc_interval_us must be > 0")


class FleetRouter:
    """Route a multi-tenant trace across a fleet of replica servers."""

    def __init__(
        self,
        mod: IRModule,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        fleet: Optional[FleetConfig] = None,
        tenants: Sequence[TenantSpec] = (),
        kernel_cache: Optional[KernelCache] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.fleet = fleet or FleetConfig()
        self.tenant_specs: Dict[str, TenantSpec] = {}
        for spec in tenants:
            if spec.name in self.tenant_specs:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self.tenant_specs[spec.name] = spec
        # One kernel cache fleet-wide: replica 0's dynamic build fills
        # it, siblings reuse the compiled kernels (deterministic — the
        # cache changes compile *work*, never modeled charges/outputs).
        self.kernel_cache = KernelCache() if kernel_cache is None else kernel_cache
        # The shared store model. The probe ArtifactStore snapshots the
        # directory BEFORE any replica opens it, giving the view its
        # frozen initial inventory; the same instance later mirrors GC
        # prunes and chaos corruption to disk.
        self.store: Optional[ArtifactStore] = None
        self.view: Optional[FleetStoreView] = None
        self._gc: Optional[StoreGC] = None
        if self.config.artifact_dir is not None:
            self.store = ArtifactStore(self.config.artifact_dir)
            self.view = FleetStoreView(self.store)
            if self.fleet.gc_max_age_us is not None:
                self._gc = StoreGC(self.store, self.view, self.fleet.gc_max_age_us)
        self.replicas = [
            InferenceServer(
                mod,
                platform,
                self.config,
                kernel_cache=self.kernel_cache,
                replica_id=i,
                store_view=self.view,
            )
            for i in range(self.fleet.num_replicas)
        ]
        self._buckets = {
            name: TokenBucket(spec) for name, spec in self.tenant_specs.items()
        }

    # ------------------------------------------------------------- simulation
    def simulate(
        self,
        requests: Sequence[Request],
        chaos: Sequence[object] = (),
    ) -> FleetReport:
        """Serve the trace to completion across the fleet.

        Each call is an independent replay: replicas begin cold, token
        buckets refill, the store view's per-simulation state clears, a
        new record list starts, and the random-routing stream reseeds.
        *chaos* events fire at their virtual timestamps (see
        ``repro.fleet.chaos``)."""
        if self.view is not None:
            self.view.reset()
        self.records: list = []
        for replica in self.replicas:
            replica.begin(self.records)
        for bucket in self._buckets.values():
            bucket.reset()
        # Reseeded per simulation so the "random" baseline replays the
        # same placement draws.
        self._rs = np.random.RandomState(self.fleet.random_seed)
        faults = sorted(chaos, key=lambda e: e.at_us)
        due = iter(faults)
        sources = [
            EventSource(
                times=(fault.at_us for fault in faults),
                fire=lambda now: self._apply_chaos(next(due), now),
                after_deadlines=False,
                finite=True,
            )
        ]
        if self._gc is not None and self.fleet.gc_interval_us is not None:
            sources.append(
                EventSource(
                    # Ticks accumulate (t += interval), they are not k × interval.
                    times=itertools.accumulate(
                        itertools.repeat(self.fleet.gc_interval_us)
                    ),
                    fire=self._run_gc,
                    after_deadlines=True,
                    finite=False,
                )
            )
        now = run_timeline(requests, self.replicas, self._on_arrival, sources)
        replica_reports = [r.drain(now) for r in self.replicas]
        if self.store is not None:
            self._persist(now)
        if self._gc is not None:
            # End-of-simulation collection: the fleet's steady-state
            # inventory after every drain and profile snapshot.
            self._run_gc(now)
        return FleetReport(
            replica_reports=replica_reports,
            routing=self.fleet.routing,
            records=self.records,
            deadlines_us={
                name: spec.deadline_us for name, spec in self.tenant_specs.items()
            },
        )

    # ---------------------------------------------------------------- arrivals
    def _on_arrival(self, request: Request, now: float) -> None:
        bucket = self._buckets.get(request.tenant)
        if bucket is not None and not bucket.admit(now):
            # Over budget: shed at the door. The request never reaches a
            # batcher, so one tenant's burst cannot inflate another
            # tenant's queues.
            self.records.append(Shed(now, request.rid, request.tenant))
            return
        replica, via_affinity = self._route(request, now)
        self.records.append(
            Route(now, replica.replica_id, request.rid, request.tenant, via_affinity)
        )
        replica.ingest(request, now)

    def _route(
        self, request: Request, now: float
    ) -> Tuple[InferenceServer, bool]:
        """Pick the serving replica. Returns (replica, placed-by-affinity)."""
        if self.fleet.routing == "random":
            k = int(self._rs.randint(len(self.replicas)))
            return self.replicas[k], False

        def load(replica: InferenceServer):
            return (
                replica.backlog_us(now),
                replica.pending,
                replica.replica_id,
            )

        if self.fleet.routing == "affinity":
            exact = self.replicas[0].exact_key(request.payload)
            states = {
                r.replica_id: r.specialization_state(exact, now)
                for r in self.replicas
            }
            for wanted in ("ready", "compiling"):
                candidates = [
                    r for r in self.replicas if states[r.replica_id] == wanted
                ]
                if candidates:
                    return min(candidates, key=load), True
        return min(self.replicas, key=load), False

    # ------------------------------------------------------------------- chaos
    def _apply_chaos(self, event, now: float) -> None:
        self.records.append(Chaos(now, event, self._inject(event)))

    def _inject(self, event) -> bool:
        """Act on one fault; False when it found nothing to act on."""
        if isinstance(event, ReplicaStall):
            replica = self.replicas[event.replica_id]
            for worker in replica.workers:
                # Freeze: the worker's clock (its availability frontier)
                # jumps past the stall window. In-flight batches finish
                # first — the stall extends from whichever is later.
                worker.ctx.clock.advance_to(
                    max(worker.free_at_us, event.at_us) + event.duration_us
                )
            return True
        if isinstance(event, CorruptBlob):
            if self.store is None or self.view is None:
                return False
            # A chunk is no entry of the model: the blob that names it is.
            holder = "exe" if event.kind == "const" else event.kind
            entries = [e for e in self.view.inventory() if e[0] == holder]
            if not entries:
                return False
            kind, key = entries[event.index % len(entries)]
            if event.kind == "const":
                names = self.store.chunk_refs(kind, key)
                if not names:
                    return False
                kind, key = "const", names[0]
            # Overwrite on disk only: the model still says the blob is
            # present, so readers go to disk, fail validation, and
            # reject-and-count — the failure mode under test.
            self.store._atomic_write(
                self.store.blob_path(kind, key), event.garbage(key)
            )
            return True
        raise TypeError(f"unknown chaos event {type(event).__name__}")

    # ----------------------------------------------------------------- persist
    def _persist(self, now: float) -> None:
        """Write what the replicas share, once per simulation: the one
        kernel cache, and one shape profile of the whole fleet's traffic
        (a profile per replica would overwrite the last, and the
        restart would pre-arm one replica's local traffic)."""
        self.store.save_kernel_cache(self.kernel_cache)
        managers = [r.specializer for r in self.replicas if r.specializer is not None]
        if managers:
            managers[0].persist_profile(now, merged_profile(managers))

    # ---------------------------------------------------------------------- gc
    def _run_gc(self, now: float) -> None:
        referenced = set()
        in_flight = set()
        for replica in self.replicas:
            referenced |= replica.referenced_store_keys()
            in_flight |= replica.restoring_store_keys(now)
        self.records.append(
            Collection(
                now, self._gc.collect(now, referenced=referenced, in_flight=in_flight)
            )
        )
