"""Tiered shape specialization for the serving layer.

The batcher already groups traffic by ``Any``-dim values, so a hot bucket
is, in effect, a static workload that keeps paying the dynamic tax —
shape functions, runtime-sized allocation, symbolic-kernel dispatch. The
:class:`SpecializationManager` closes that gap: it counts per-shape hits,
and once a shape crosses the hot threshold it compiles a static-shape
:class:`Executable` for it (sharing the dynamic build's
:class:`KernelCache`). Batches whose members all match the specialized
shape exactly are routed to the static tier; everything else — including
the hot shape itself while its compile is in flight — falls back to the
dynamic executable, so correctness never depends on the tier: outputs
are bit-identical either way.

Its state is split by lifetime: a per-simulation
:class:`~repro.serve.policy.ShapePolicy` (heat, residency, eviction,
partial families — and the per-shape lifecycle), a per-simulation
:class:`~repro.serve.pool.CompilePool` (pending jobs, lanes, ready
times), and an :class:`~repro.serve.planner.ArtifactPlanner` kept across
simulations (executables, the prefix, the store, the shape profile).
``reset()`` builds a fresh policy and pool, so repeated simulations of
one trace are bit-identical while artifacts stay memoised.

**Routing.** The manager is the one place that picks a tier:
:meth:`SpecializationManager.tier_for` answers, for each formed batch,
batched / specialized / partial / dynamic (fastest ready first), and
:meth:`~SpecializationManager.bucket_key` — the batcher's hook — gives a
hot shape its own exact bucket, which fills at ``max_batch_size``: the
batch the batched variant is compiled for. The server only asks; the
worker runs the tier it is handed; it guard-checks each member of a
batch on a partial variant and deopts mismatches to the dynamic tier.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.codegen.kernels import KernelCache
from repro.hardware.platforms import Platform
from repro.ir.module import IRModule
from repro.serve.batcher import Batch, ShapeBucketer
from repro.serve.config import ServeConfig
from repro.serve.planner import ArtifactPlanner
from repro.serve.policy import ExactKey, PartialKey, ShapePolicy, matches
from repro.serve.pool import CompilePool
from repro.serve.profile import ShapeProfile, key_order
from repro.store import ArtifactStore, FleetStoreView
from repro.vm.executable import Executable

# The first component of an exact bucket's key (see bucket_key). Rounded
# key components are never negative, so the two kinds never collide.
EXACT_BUCKET = -1
# tier_for's answer when no static variant is ready — and a server's
# for every batch when it runs no manager at all.
DYNAMIC_TIER = ("dynamic", None, False)


class SpecializationManager:
    """Decides when a shape is hot and routes batches to its variants.

    Policy comes from the server's :class:`ServeConfig`
    (``specialize_*``, ``batch_cap``, ``device_streams``), which has
    already range-checked it. The variants specialize the module's
    ``main``. ``store``, ``store_view`` and ``replica_id`` go to the
    :class:`~repro.serve.planner.ArtifactPlanner`, which says how they
    are used.
    """

    def __init__(
        self,
        mod: IRModule,
        platform: Platform,
        bucketer: ShapeBucketer,
        kernel_cache: KernelCache,
        config: ServeConfig,
        store: Optional[ArtifactStore] = None,
        store_view: Optional[FleetStoreView] = None,
        replica_id: int = 0,
    ) -> None:
        self.bucketer = bucketer
        self.config = config
        self.batch_cap = config.batch_cap
        self.replica_id = replica_id
        self.planner = ArtifactPlanner(
            mod, platform, bucketer.tokens, kernel_cache, config,
            store, store_view, replica_id,
        )
        self.reset()

    def reset(
        self,
        records: Optional[list] = None,
        on_evict: Callable[[List[Executable]], None] = lambda executables: None,
    ) -> None:
        """Start a simulation: a fresh policy and compile pool. *records*
        is the simulation's record list (the server's, or its fleet's); a
        manager on its own starts a new one. *on_evict* is called with
        the executables of every evicted shape (the server frees its
        workers' launch tapes of them).

        With a shape profile, its frozen hot set (cut to the cache size,
        so every key gets a slot) is triggered at virtual time 0, before
        the first request. The pool is pumped after every trigger: all
        pre-arm jobs tie on observed rate, so binding them as they
        enqueue makes lane order follow the profile's hottest-first rank."""
        self.policy = ShapePolicy(self.config)
        self.pool = CompilePool(
            self.config, [] if records is None else records, self.replica_id
        )
        self._on_evict = on_evict
        self.planner.replay_profile_reject(self.pool.records)
        for key, score in self.planner.prearm:
            self.policy.prearm(key, score)
            self._try_trigger(key, 0.0, predictive=True)
            self.pool.pump(0.0)

    # ------------------------------------------------------------------- flow
    def observe(self, key: ExactKey, now_us: float) -> None:
        """Record one request arrival with exact dynamic-dim values *key*.

        The policy says which keys the arrival hit and what to trigger:
        an armed *key* (hot, no slot yet) and a newly worthwhile partial
        family. Lane-free events up to *now_us* are processed before and
        after, so a newly enqueued compile can start immediately on an
        idle lane."""
        if not key:
            return  # fully static model: there is nothing to specialize
        hit, pkey = self.policy.observe(key, now_us)
        for k in hit:
            self.pool.note_hit(k, now_us)
        if pkey is not None:
            self._try_trigger(pkey, now_us)
        self.pool.pump(now_us)
        if self.policy.armed(key):
            self._try_trigger(key, now_us)
            self.pool.pump(now_us)

    def drain(self) -> None:
        """Run the pool to completion: bind every still-pending compile to
        a lane as lanes free up. The server calls this when a trace ends
        so queue-wait and lane-utilization stats cover every triggered
        compile (the lanes keep working after the last arrival)."""
        self.pool.pump(math.inf)

    def _try_trigger(
        self, key: PartialKey, now_us: float, predictive: bool = False
    ) -> None:
        """Ask the policy for a cache slot; when granted, queue a job per
        variant as the planner plans it. One slot covers every variant of
        the shape — the member-wise and batched builds live and die
        together."""
        admitted, victim = self.policy.admit(
            key, now_us, lambda k: self._in_flight(k, now_us)
        )
        if victim is not None:
            self.pool.evict(victim, now_us, self.policy.score(victim, now_us), key)
            executables = self.planner.executables
            self._on_evict([
                executables[(victim, b)]
                for b in self.planner.variant_batches(victim)
                if (victim, b) in executables
            ])
        if not admitted:
            return
        for batch in self.planner.variant_batches(key):
            plan = self.planner.plan(key, batch, now_us, self.pool)
            if plan is not None:  # None: shape not batchable
                self.pool.submit(key, now_us, batch, plan, predictive)

    # ---------------------------------------------------------------- routing
    def _ready(self, key: PartialKey, batch: int, at_us: float) -> bool:
        """Is the (key, batch) variant routable at *at_us*: resident, and
        its lane finished? A ready variant always has its executable — a
        job is queued only once its artifact exists."""
        if key not in self.policy.resident:
            return False
        ready = self.pool.ready_at.get((key, batch))
        return ready is not None and ready <= at_us

    def _in_flight(self, key: PartialKey, at_us: float) -> bool:
        """Is some variant of *key* still pending or compiling at *at_us*?"""
        return not all(
            self._ready(key, b, at_us) for b in self.planner.variant_batches(key)
        )

    def tier_for(
        self, batch: Batch, at_us: float
    ) -> Tuple[str, Optional[Executable], bool]:
        """The one tier decision: what runs *batch* starting at *at_us*,
        as ``(tier, executable, prearmed)`` — the fastest tier ready.

        A batch whose members share one exact shape (every exact bucket,
        and a rounded one that happens to be uniform: requests queued
        before the shape went hot) takes the batched variant when it
        fills the compiled batch size exactly — one VM call for the
        whole bucket — else the member-wise variant. Otherwise (mixed
        shapes, or compiles still in flight) the ready partial variant
        covering the most members wins, ties broken on the None-safe key
        order; the worker guard-checks every member and deopts the
        misses to the dynamic VM (counted, never wrong). Otherwise
        :data:`DYNAMIC_TIER`. *prearmed* says the variant came from the
        shape profile's time-0 pre-arm."""
        members = [self.bucketer.exact_key(r.payload) for r in batch.requests]
        variant = None
        if len(set(members)) == 1:
            exact = members[0]
            if len(batch) == self.batch_cap > 1 and self._ready(
                exact, self.batch_cap, at_us
            ):
                tier, variant = "batched", (exact, self.batch_cap)
            elif self._ready(exact, 1, at_us):
                tier, variant = "specialized", (exact, 1)
        if variant is None:
            best_cover = 0
            for pkey in sorted(self.policy.partials, key=key_order):
                if not self._ready(pkey, 1, at_us):
                    continue
                cover = sum(1 for k in members if matches(k, pkey))
                if cover > best_cover:
                    tier, variant, best_cover = "partial", (pkey, 1), cover
        if variant is None:
            return DYNAMIC_TIER
        prearmed = variant[0] in self.policy.prearmed
        return tier, self.planner.executables[variant], prearmed

    def bucket_key(self, payload, now_us: float) -> Tuple[int, ...]:
        """The batcher's ``key_fn``: a shape with some variant ready at
        *now_us* (the batcher's virtual time) gets its own exact bucket,
        ``(EXACT_BUCKET, *exact)``, so its batches form shape-uniform and
        can take the static tiers; everything else keeps the bucketer's
        rounded key."""
        exact = self.bucketer.exact_key(payload)
        if any(self._ready(exact, b, now_us) for b in self.planner.variant_batches(exact)):
            return (EXACT_BUCKET,) + exact
        return self.bucketer.round_key(exact)

    # ------------------------------------------------------------- fleet hooks
    def specialization_state(self, key: ExactKey, now_us: float) -> Optional[str]:
        """Affinity-routing signal for :class:`repro.fleet.FleetRouter`:
        ``"ready"`` when some variant of *key* is hot right now,
        ``"compiling"`` when the shape has triggered but nothing is ready
        yet, ``None`` when this replica has no stake in the shape."""
        if any(self._ready(key, b, now_us) for b in self.planner.variant_batches(key)):
            return "ready"
        if key in self.policy.resident:
            return "compiling"
        return None

    def referenced_store_keys(self) -> Set[Tuple[str, str]]:
        """Every store entry a live snapshot of this replica still needs:
        the fleet GC's refcount guard. Covers every variant with a ready
        time (resident *or* still compiling toward one), every pending
        job, the prefix, and the profile key — pruning any of
        these out from under a live replica would turn a modeled restore
        into a disk miss."""
        planner = self.planner
        if planner.store is None:
            return set()
        variants = [*self.pool.ready_at, *((j.key, j.batch) for j in self.pool.pending)]
        return {("exe", planner.store_key(*v)) for v in variants} | {
            ("prefix", planner.prefix_key), ("profile", planner.profile_key)
        }

    def restoring_store_keys(self, now_us: float) -> Set[Tuple[str, str]]:
        """Store entries with a restore *in flight* at *now_us*: a lane
        is deserializing the blob but the variant is not ready yet.
        Strictly a subset of :meth:`referenced_store_keys` (the refcount
        guard already protects them); surfaced separately so tests and
        docs can assert the "GC never prunes an in-flight restore"
        clause directly rather than by implication."""
        if self.planner.store is None:
            return set()
        variants = [(j.key, j.batch) for j in self.pool.pending if j.restored]
        variants += [
            (e.key, e.batch) for e in self.pool.events if e.restored and e.ready_us > now_us
        ]
        return {("exe", self.planner.store_key(*v)) for v in variants}

    # ---------------------------------------------------------------- profiles
    def profile_snapshot(self, anchor_us: Optional[float] = None) -> ShapeProfile:
        """This simulation's shape traffic as a persistable
        :class:`ShapeProfile`: raw hit counts plus every decayed score
        brought forward to one common anchor (*anchor_us*, by default the
        latest bump time), so relative hotness survives without absolute
        clock times. The server snapshots at simulation end; a predictive
        manager in the *next* process pre-arms from it (never this one —
        the planner froze its profile at construction)."""
        anchor = self.policy.last_bump_us() if anchor_us is None else anchor_us
        return ShapeProfile(
            source_signature=self.planner.fingerprint,
            platform_name=self.planner.platform.name,
            hits={k: int(n) for k, n in self.policy.hits.items() if n > 0},
            scores=self.policy.scores(anchor),
        )

    def persist_profile(self, now_us: float, profile: Optional[ShapeProfile] = None) -> None:
        """Write *profile* (by default :meth:`profile_snapshot`) to the
        store at simulation end, for the *next* process's predictive
        manager. Written whether or not this one is predictive —
        recording is cheap and consuming it is opt-in."""
        planner = self.planner
        planner.store.put_profile(self.profile_snapshot() if profile is None else profile)
        planner.store_view.record_put(
            "profile", planner.profile_key, now_us, self.replica_id
        )


def merged_profile(managers: Sequence[SpecializationManager]) -> ShapeProfile:
    """One profile for managers that served one trace between them (a
    fleet's replicas): each snapshot taken at the latest bump of any of
    them, then hits and scores summed. Decay is linear in the hits, so the
    scores are those one manager seeing every hit would have recorded."""
    anchor = max(m.policy.last_bump_us() for m in managers)
    return ShapeProfile.merge([m.profile_snapshot(anchor) for m in managers])
