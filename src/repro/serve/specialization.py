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

**Routing.** The manager is the one place that picks a tier:
:meth:`SpecializationManager.tier_for` answers, for each formed batch,
batched / specialized / partial / dynamic (fastest ready first), and
:meth:`~SpecializationManager.bucket_key` — the batcher's hook — gives a
hot shape its own exact bucket, which fills at ``max_batch_size``: the
batch the batched variant is compiled for. The server only asks; the
worker runs the tier it is handed.

**Compiling.** Every variant is built through the staged pipeline: a
shape-independent *prefix* (normalization, CSE/DCE, lambda lifting,
dynamic type inference — ``nimble.compile_prefix``) shared by all of a
module's variants, and a per-variant *suffix* (shape binding, residual
inference, fusion, allocation, codegen —
``nimble.specialize(prefix=...)``). The modeled charge splits the same
way: each variant pays the suffix (``SPECIALIZE_SUFFIX_*_US``, or
``specialize_compile_us × (1 − SPECIALIZE_PREFIX_FRACTION)`` under the
override), and the first fresh compile of a simulation additionally
carries the prefix (``SpecializationEvent.prefix_us``), once.
Simulations that never compile fresh never charge a prefix at all.
The compiler's own verify gate is off on this path; instead every
``VERIFY_SAMPLE``-th actual compile, starting with the first, runs the
``repro.analysis`` checkers, and a failure raises — it is a compiler bug.

With ``batch_cap > 1`` each hot trigger compiles **two variants** of the
shape: the member-wise static build and a batch-specialized build
(``nimble.specialize(batch=batch_cap)``) that executes a full bucket as
one stacked VM call — one batched GEMM per member-wise GEMM site instead
of ``batch_cap`` pipelined launches. Artifacts are keyed by
(exact shape, batch), so batch-cap changes never alias; the two variants
share one cache slot and are evicted, re-armed, and recompiled together.
Shapes the batch rewrite cannot express (ADT entries, member-dependent
control flow, shape-dependent broadcasts) are detected on their first
batched compile and served member-wise only — per shape, so one exotic
shape never disables the tier for the rest.

**The compile pool.** Compile cost is charged on the virtual clock
through ``specialize_compile_lanes`` lanes. A shape that crosses the
threshold enqueues a pending compile; pending compiles wait in a
priority queue ordered by observed traffic — hit rate since trigger,
recomputed at each lane-free event on the virtual clock — and are bound
to the lowest-numbered earliest-free lane, so replays of one trace are
bit-identical under any lane count. Requests are never stalled by
compilation — they fall back to the dynamic tier until the static one is
ready (``ready_at``).

**The cache.** At most ``specialize_max_executables`` shapes are
*resident*. Per-shape hit scores decay on a virtual-clock half-life
(``specialize_decay_half_life_us``), and when a new shape goes hot past
the cap the coldest resident entry — colder than the challenger by the
``EVICTION_MARGIN`` thrash-protection factor, and never one with an
in-flight compile — loses its slot. An evicted shape re-arms: its hit
count already sits past the threshold, so its next observation retries
the trigger and can recompile into a freed slot (the artifact is
memoised, but the modeled cost is charged again — the model dropped the
binary). A shape whose trigger is blocked (cache full, nothing colder)
stays armed the same way and retries on every subsequent hit, so no hot
shape is ever starved by a momentarily full cache.

**The store.** With an :class:`~repro.store.ArtifactStore` attached
(``ServeConfig(artifact_dir=...)``), compiled variants and the prefix
persist to disk, and a trigger checks the store's *model*
(:class:`~repro.store.FleetStoreView`) **before** queuing a compile: a
blob a previous process left, one this manager persisted earlier in the
simulation and then evicted, or one a sibling replica persisted is
installed at a small modeled deserialize cost (``RESTORE_*_US``, ~2
orders of magnitude under the compile charge) instead of compiled. The
view's initial inventory is frozen at construction and everything
written since is per-simulation state, so every replay sees the same
store no matter what earlier replays wrote; a blob that fails
validation is skipped, recorded (a ``StoreReject``) and compiled fresh.

**Predictive pre-arming.** With ``specialize_predictive`` and a store,
the previous process's **shape profile** — the ``.nmblprof`` blob the
server snapshots at every simulation end (exact-key hit histogram +
decayed scores, see :mod:`repro.serve.profile`) — is loaded once at
construction, and every ``reset()`` *pre-arms* its hottest
``specialize_max_executables`` shapes at virtual time 0: the hot set
compiles (or, warmer still, store-restores) before the first request
lands. The snapshot is frozen at construction — the profile this
manager writes never feeds back into its own replays.

**Guarded partial variants.** With ``specialize_partial``, when this
simulation's traffic agrees on some dims (e.g. hidden size) but spreads
a long tail of values over the others (e.g. sequence length), one
variant compiled with only the stable dims bound (the rest stay ``Any``)
covers the whole family — ``PARTIAL_MIN_SHAPES`` distinct
exact shapes minimum, so families that exact specialization already
covers are left alone. The compiled executable carries an entry **shape
guard** over its bound dims: the server checks it per batch member and
transparently *deopts* mismatches to the dynamic tier (counted, never
wrong), and the VM re-checks it at ``run()`` as a hard safety net
(:class:`repro.errors.ShapeGuardError`). Partial variants are
member-wise only — the batch rewrite needs every dim static — and flow
through the same scoring, eviction, store, and replay machinery as exact
ones (their keys mark unbound positions with ``None``).

Compiled artifacts are memoised across simulations, but hit counts,
scores, lane state, pending queues, and ready times reset per replay, so
repeated simulations of one trace are bit-identical.

**The per-shape lifecycle** (state machine; states are per simulation,
see also :meth:`observe`):

- *cold* — hits accumulate, decayed score tracks heat.
- *armed* — hits reached the threshold but no cache slot yet (cache
  full, nothing evictable). Stays armed; every later hit retries, so a
  freed slot is always picked up and no hot shape starves.
- *triggered* — slot acquired; one pending compile (or store restore)
  per variant enqueued on the pool. Requests keep routing dynamic.
- *resident+ready* — a variant's lane finished (``ready_at``): batches
  of exactly this shape route to it (:meth:`tier_for`).
- *evicted* — lost the slot to a hotter challenger: ready times drop
  and the shape **re-arms** (its hit count still sits past the
  threshold), so its next observation retries the trigger;
  re-acquiring a slot recharges the compile (or, with a store, the
  cheaper restore — the binary survived on disk).

What the pool and the cache did — lane bindings, evictions, store
rejects — is appended to the simulation's record list
(:mod:`repro.serve.events`); the report computes every count and sum
from there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import NimbleError
from repro.hardware import calibration
from repro.hardware.platforms import Platform
from repro.ir.module import IRModule
from repro.ir.printer import module_fingerprint
from repro.passes import bound_entry_shapes
from repro.serve.batcher import Batch, ShapeBucketer
from repro.serve.config import ServeConfig
from repro.serve.events import EvictionEvent, SpecializationEvent, StoreReject
from repro.serve.events import records_of
from repro.serve.profile import ShapeProfile, key_order, profile_store_key
from repro.store import ArtifactStore, FleetStoreView
from repro.vm.executable import Executable, artifact_key

# A challenger takes a resident shape's cache slot only when its decayed
# score is more than this many times the victim's: comparable heat keeps
# the incumbent, so a mix of continuously-hot shapes does not thrash the
# cache and throw away compile investment.
EVICTION_MARGIN = 2.0
# Every Nth actual serving compile, starting with the first, is
# statically verified (repro.analysis) in place of the compiler's
# per-compile gate, which the hot compile lane should not pay on every
# variant. Store loads and the startup dynamic build always verify.
VERIFY_SAMPLE = 4
# Distinct exact shapes a family must span before a guarded partial
# variant pays: below this, exact specialization already covers it.
PARTIAL_MIN_SHAPES = 3
# The store's read entry point for each blob kind, by name.
_STORE_GETTERS = {"exe": "get", "prefix": "get_prefix", "profile": "get_profile"}
# The first component of an exact bucket's key (see bucket_key). Rounded
# key components are never negative, so the two kinds never collide.
EXACT_BUCKET = -1
# tier_for's answer when no static variant is ready — and a server's
# for every batch when it runs no manager at all.
DYNAMIC_TIER = ("dynamic", None, False)

ExactKey = Tuple[int, ...]
# A *partial* key binds only the stable dims: None marks positions left
# dynamic. One partial variant covers every exact key that agrees on the
# bound positions (the entry guard checks them at call time). Partial
# keys flow through the same hit/score/eviction machinery as exact ones.
PartialKey = Tuple[Optional[int], ...]
# A compiled artifact is one (exact shape, batch) variant: batch 1 is the
# member-wise static build, batch > 1 stacks that many members per call.
# Partial keys are member-wise only (the batch rewrite needs every dim).
VariantKey = Tuple[ExactKey, int]


@dataclass
class _PendingCompile:
    """A triggered compile waiting for a free lane. ``hit_times_us``
    records every observation of the key since the trigger, so priority
    at a lane-free event counts only hits already seen *by that event* —
    a later arrival can never rewrite an earlier binding decision."""

    key: ExactKey
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


class SpecializationManager:
    """Decides when a shape is hot and owns the specialized executables.

    Policy comes from the server's :class:`ServeConfig`
    (``specialize_*``, ``batch_cap``, ``device_streams``), which has
    already range-checked it; the module docstring describes what each
    knob steers. The variants specialize the module's ``main``.

    ``store`` attaches a persistent :class:`~repro.store.ArtifactStore`
    and ``store_view`` the model of its contents that every restore
    decision goes through — the server's private one, or the fleet's
    shared one, in which case ``replica_id`` tells this manager's writes
    from its siblings'. Compiled variants are filed under their content
    hash, and a trigger whose artifact the view says exists is *restored*
    on a lane at the deserialize charge instead of paying the compile
    charge. Store blobs that fail validation are skipped and recorded
    (a ``StoreReject``) — the shape falls back to a fresh compile,
    exactly as if the store had missed.
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
        self.mod = mod
        self.platform = platform
        self.bucketer = bucketer
        self.kernel_cache = kernel_cache
        self.config = config
        # Batch granularity: with batch_cap > 1 every hot trigger
        # compiles *two* variants — the member-wise static build and a
        # batch-specialized build that runs batch_cap same-shape members
        # as one call (when the shape admits the rewrite). Full buckets
        # route to the batched variant; ragged tails fall back to the
        # member variant (or dynamic).
        self.batch_cap = config.batch_cap
        self.store = store
        self._store_view = store_view
        self.replica_id = replica_id
        # Multi-stream scheduling: every specialized variant compiles
        # with this stream count, and it is a store-key component, so
        # single- and multi-stream builds of one shape never alias in
        # the artifact store. Clamped to the hardware once, here — the
        # clamped value is what the compiler would stamp anyway, and
        # using it for keys too keeps key and artifact in agreement.
        self.device_streams = platform.effective_streams(config.device_streams)
        # Actual-work counter (cumulative, like ``_executables``):
        # replays reuse memoised executables, so only real compiles
        # advance it.
        self.verified_compiles = 0
        # The module component of every store key. Computed once — it
        # fingerprints the *dynamic* source module, which all of this
        # manager's shape variants share.
        self._fingerprint = module_fingerprint(mod)
        # Store blobs that failed validation once (see _from_store), by
        # the (kind, key) pair the store view and the GC use. The value
        # says whether the blob deserialized fine but failed *static
        # verification* — a writer bug, not volume rot — so replays
        # record the reject with the same flag at the same trigger.
        self._rejected: Dict[Tuple[str, str], bool] = {}
        self._store_key_memo: Dict[VariantKey, str] = {}
        # The shape-independent prefix (cross-simulation, like
        # _executables): a pure function of (module, platform), so it is
        # materialized once and reused by every replay.
        self._prefix: Optional[nimble.SpecializationPrefix] = None
        self._prefix_key = nimble.prefix_store_key(self._fingerprint, platform.name)
        self._prefix_restored = False
        # Profile-guided predictive specialization: the previous
        # process's shape profile (``.nmblprof``) is loaded ONCE here
        # and frozen — the snapshot this manager writes at each
        # simulation end never feeds back into its own replays, so every
        # reset() pre-arms the same shapes and replays stay
        # bit-identical. A blob that fails validation is memoised as
        # rejected and recorded again at every reset.
        self._profile_key = profile_store_key(self._fingerprint, platform.name)
        self._profile_at_init: Optional[ShapeProfile] = None
        if (
            config.specialize_predictive
            and store is not None
            and store_view.at_init("profile", self._profile_key)
        ):
            self._profile_at_init = self._from_store("profile", self._profile_key)
        # The historical shapes to pre-arm, hottest first — as many as
        # the cache holds. Partial keys recorded by a partial-enabled
        # predecessor are skipped unless this manager can compile them.
        self._profile_top_keys: Tuple[PartialKey, ...] = ()
        if self._profile_at_init is not None:
            self._profile_top_keys = tuple(
                key
                for key in self._profile_at_init.top_keys()
                if key and (config.specialize_partial or None not in key)
            )[: config.specialize_max_executables]
        # Compiled artifacts are memoised across simulations (compilation
        # is a pure function of module + shape + batch + platform, so
        # reusing them keeps replays bit-identical while skipping
        # redundant work). The *modeled* compile cost is still charged
        # every time a shape (re-)triggers — in the model, eviction
        # dropped the binary (unless a store holds it: then re-triggers
        # pay the restore charge instead).
        self._executables: Dict[VariantKey, Executable] = {}
        self._compile_cost: Dict[VariantKey, float] = {}
        # Shapes whose batched compile failed — a pure property of
        # (module, shape), probed at the shape's first trigger and
        # memoised. Batchability is SHAPE-dependent (a broadcast that is
        # member-legal at one shape can have no stacked equivalent at
        # another), so one shape's failure must not disable the tier for
        # shapes that batch fine.
        self._unbatchable: Set[ExactKey] = set()
        self.reset()

    # ----------------------------------------------------------------- replay
    def reset(self, records: Optional[list] = None) -> None:
        """Per-simulation state: hit counts, decayed scores, the pending
        queue, lane occupancy, residency, and ready times all restart so
        each replay is independent. *records* is the simulation's record
        list (the server's, or its fleet's); a manager on its own starts
        a new one."""
        self.records: list = [] if records is None else records
        self._hits: Counter = Counter()
        self._score: Dict[ExactKey, float] = {}
        self._score_at: Dict[ExactKey, float] = {}
        self._last_hit_us: Dict[ExactKey, float] = {}
        self._ready_at: Dict[VariantKey, float] = {}
        # The shapes holding a cache slot: in from the trigger (compile
        # pending, in flight or ready), out at eviction.
        self._resident: Set[ExactKey] = set()
        self._pending: List[_PendingCompile] = []
        lanes = self.config.specialize_compile_lanes
        self._lane_free_us: List[float] = [0.0] * lanes
        # Fresh compiles this simulation, for the deterministic
        # VERIFY_SAMPLE cadence (memo hits do not advance it).
        self._compile_seq: int = 0
        # Has this simulation paid the once-per-module prefix charge
        # yet? Reset per replay — the model assumes a restart re-stages
        # the pipeline, exactly like it assumes eviction dropped a
        # binary.
        self._prefix_charged = False
        # Partial specialization: per-position value sets and the exact
        # keys seen this simulation (family detection), plus the partial
        # keys synthesized/triggered so far. Per-simulation so replays
        # re-derive the same families from the same traffic.
        self._seen_values: List[Set[int]] = []
        self._exact_seen: Set[ExactKey] = set()
        self._partials: Set[PartialKey] = set()
        # Predictive pre-arm: before the first request of every
        # simulation, trigger the frozen historical hot set at virtual
        # time 0 — a restarted server compiles (or store-restores) its
        # hot set while the trace is still cold. Scores are seeded from
        # the profile (decaying from t=0) so pre-armed entries carry
        # their historical heat into eviction decisions instead of
        # starting infinitely cold. Hit counts are NOT seeded: observe()
        # thresholds stay honest, and pre-armed keys are already
        # resident so they never double-trigger.
        self.predictive_keys: Set[PartialKey] = set()
        if ("profile", self._profile_key) in self._rejected:
            # Recorded at every reset: replays must see the same rejects
            # without re-reading the file.
            self._record_reject("profile", self._profile_key, 0.0)
        for key in self._profile_top_keys:
            if len(self._resident) >= self.config.specialize_max_executables:
                break
            self._score[key] = float(self._profile_at_init.scores.get(key, 0.0))
            self._score_at[key] = 0.0
            self._try_trigger(key, 0.0, predictive=True)
            if key in self._resident:
                self.predictive_keys.add(key)
                if None in key:
                    self._partials.add(key)
            # Pump after every trigger, not once at the end: all pre-arm
            # jobs tie on observed rate (zero hits, trigger 0), so
            # binding them as they enqueue makes lane order follow the
            # profile's hottest-first rank — the historical #1 is the
            # first executable ready, not the lexicographically least.
            self._pump(0.0)

    # ------------------------------------------------------------------ stats
    @property
    def num_executables(self) -> int:
        """Distinct shapes ever compiled (the cross-simulation memo)."""
        return len({key for key, _ in self._executables})

    @property
    def num_variants(self) -> int:
        """Distinct (shape, batch) artifacts ever compiled."""
        return len(self._executables)

    @property
    def num_resident(self) -> int:
        """Shapes currently holding an executable-cache slot."""
        return len(self._resident)

    def _of(self, kind) -> list:
        return records_of(self.records, kind, self.replica_id)

    @property
    def events(self) -> List[SpecializationEvent]:
        """This simulation's lane bindings so far, in bind order (a
        read-only view of the record list)."""
        return self._of(SpecializationEvent)

    @property
    def evictions(self) -> List[EvictionEvent]:
        """This simulation's evictions so far (a read-only view of the
        record list)."""
        return self._of(EvictionEvent)

    def hits(self, key: ExactKey) -> int:
        return self._hits[key]

    def score(self, key: ExactKey, now_us: float) -> float:
        """The decayed hit score driving eviction, as of *now_us*.

        Decay is anchored at ``_score_at`` — the time of the last
        *bump*, not the last hit — so an observe/score/re-observe
        sequence within one microsecond compounds exactly +1 per hit:
        each bump folds the decayed-to-now value and re-anchors, never
        re-adding the raw count. The age is clamped at 0 so a reading
        taken at a timestamp at-or-before the anchor (same-microsecond
        queries, or the t=0 eviction scan against predictively seeded
        scores) can never *inflate* the score via a negative exponent."""
        raw = self._score.get(key)
        if raw is None:
            return 0.0
        age = max(0.0, now_us - self._score_at[key])
        return raw * 0.5 ** (age / self.config.specialize_decay_half_life_us)

    def _ready(self, key: PartialKey, batch: int, at_us: float) -> bool:
        """Is the (key, batch) variant routable at *at_us*: resident, and
        its lane finished? A ready variant always has its executable — a
        job is queued only once its artifact exists."""
        if key not in self._resident:
            return False
        ready = self._ready_at.get((key, batch))
        return ready is not None and ready <= at_us

    # ------------------------------------------------------------------- flow
    def observe(self, key: ExactKey, now_us: float) -> None:
        """Record one request arrival with exact dynamic-dim values *key*.

        Crossing the threshold enqueues a compile on the worker pool. The
        check is ``>= threshold``, not an exact hit: a shape whose trigger
        was blocked by a full cache (or that lost its slot to eviction)
        stays armed and retries on every later observation, so a freed
        slot is always picked up. Lane-free events up to *now_us* are
        processed before and after, so a newly enqueued compile can start
        immediately on an idle lane."""
        if not key:
            return  # fully static model: there is nothing to specialize
        self._hit(key, now_us)
        if self.config.specialize_partial and None not in key:
            self._note_partial(key, now_us)
        self._pump(now_us)
        if (
            key not in self._resident
            and self._hits[key] >= self.config.specialize_threshold
        ):
            self._try_trigger(key, now_us)
            self._pump(now_us)

    def _hit(self, key: PartialKey, now_us: float) -> None:
        """One hit on *key* at *now_us*: the count the threshold reads,
        the decayed score eviction reads (folded to now, then +1, and
        re-anchored), the recency tiebreak, and the hit times a pending
        compile of *key* ranks by."""
        self._hits[key] += 1
        self._score[key] = self.score(key, now_us) + 1.0
        self._score_at[key] = now_us
        self._last_hit_us[key] = now_us
        for job in self._pending:
            if job.key == key:
                job.hit_times_us.append(now_us)

    @staticmethod
    def _matches(key: ExactKey, pkey: PartialKey) -> bool:
        """Does exact key *key* fall in partial key *pkey*'s family —
        same rank, agreeing on every bound (non-None) position?"""
        return len(key) == len(pkey) and all(
            p is None or p == v for p, v in zip(pkey, key)
        )

    def _note_partial(self, key: ExactKey, now_us: float) -> None:
        """Partial-shape bookkeeping for one exact observation: keep
        live partial families warm, and synthesize a new partial variant
        when the traffic's stable dims + long tail justify one.

        A position is *stable* when every exact key this simulation has
        seen agrees on its value (e.g. hidden size), and the family is
        worth a variant when it spans at least ``PARTIAL_MIN_SHAPES``
        distinct exact shapes (otherwise exact specialization already
        covers it) with
        ``specialize_threshold`` total hits. The synthesized key
        binds the stable positions and leaves the rest None; it then
        competes for a cache slot through the ordinary trigger/eviction
        machinery, seeded with its family's pooled decayed score."""
        self._exact_seen.add(key)
        if not self._seen_values:
            self._seen_values = [set() for _ in key]
        for i, v in enumerate(key):
            self._seen_values[i].add(v)
        # Heat bookkeeping: a hit on any family member is a hit on the
        # partial variant too — it is what would serve the request.
        for pkey in self._partials:
            if self._matches(key, pkey):
                self._hit(pkey, now_us)
        stable = [i for i, vals in enumerate(self._seen_values) if len(vals) == 1]
        if not stable or len(stable) == len(key):
            # Nothing stable to bind, or no tail to cover: exact
            # specialization already serves this traffic.
            return
        pkey: PartialKey = tuple(
            v if i in stable else None for i, v in enumerate(key)
        )
        if pkey in self._resident:
            return
        family = [k for k in self._exact_seen if self._matches(k, pkey)]
        if len(family) < PARTIAL_MIN_SHAPES:
            return
        if sum(self._hits[k] for k in family) < self.config.specialize_threshold:
            return
        # Seed the variant's eviction heat from its family: it arrives
        # exactly as hot as the traffic it will absorb, so it neither
        # insta-evicts a genuinely hot exact entry nor starts cold.
        self._score[pkey] = sum(self.score(k, now_us) for k in sorted(family))
        self._score_at[pkey] = now_us
        self._try_trigger(pkey, now_us)
        if pkey in self._resident:
            self._partials.add(pkey)
            self._pump(now_us)

    # ---------------------------------------------------------------- routing
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
            for pkey in sorted(self._partials, key=key_order):
                if not self._ready(pkey, 1, at_us):
                    continue
                cover = sum(1 for k in members if self._matches(k, pkey))
                if cover > best_cover:
                    tier, variant, best_cover = "partial", (pkey, 1), cover
        if variant is None:
            return DYNAMIC_TIER
        return tier, self._executables[variant], variant[0] in self.predictive_keys

    def bucket_key(self, payload, now_us: float) -> Tuple[int, ...]:
        """The batcher's ``key_fn``: a shape with some variant ready at
        *now_us* (the batcher's virtual time) gets its own exact bucket,
        ``(EXACT_BUCKET, *exact)``, so its batches form shape-uniform and
        can take the static tiers; everything else keeps the bucketer's
        rounded key."""
        exact = self.bucketer.exact_key(payload)
        if any(self._ready(exact, b, now_us) for b in self._variant_batches(exact)):
            return (EXACT_BUCKET,) + exact
        return self.bucketer.round_key(exact)

    # ------------------------------------------------------------- fleet hooks
    def specialization_state(self, key: ExactKey, now_us: float) -> Optional[str]:
        """Affinity-routing signal for :class:`repro.fleet.FleetRouter`:
        ``"ready"`` when some variant of *key* is hot right now,
        ``"compiling"`` when the shape has triggered but nothing is ready
        yet, ``None`` when this replica has no stake in the shape."""
        if any(self._ready(key, b, now_us) for b in self._variant_batches(key)):
            return "ready"
        if key in self._resident:
            return "compiling"
        return None

    def referenced_store_keys(self) -> Set[Tuple[str, str]]:
        """Every store entry a live snapshot of this replica still needs:
        the fleet GC's refcount guard. Covers every variant with a ready
        time (resident *or* still compiling toward one), every pending
        job, the prefix, and the profile key — pruning any of
        these out from under a live replica would turn a modeled restore
        into a disk miss."""
        if self.store is None:
            return set()
        refs: Set[Tuple[str, str]] = set()
        for (key, batch) in self._ready_at:
            refs.add(("exe", self._store_key_for(key, batch)))
        for job in self._pending:
            refs.add(("exe", self._store_key_for(job.key, job.batch)))
        refs.add(("prefix", self._prefix_key))
        refs.add(("profile", self._profile_key))
        return refs

    def restoring_store_keys(self, now_us: float) -> Set[Tuple[str, str]]:
        """Store entries with a restore *in flight* at *now_us*: a lane
        is deserializing the blob but the variant is not ready yet.
        Strictly a subset of :meth:`referenced_store_keys` (the refcount
        guard already protects them); surfaced separately so tests and
        docs can assert the "GC never prunes an in-flight restore"
        clause directly rather than by implication."""
        if self.store is None:
            return set()
        keys: Set[Tuple[str, str]] = set()
        for job in self._pending:
            if job.restored:
                keys.add(("exe", self._store_key_for(job.key, job.batch)))
        for e in self.events:
            if e.restored and e.ready_us > now_us:
                keys.add(("exe", self._store_key_for(e.key, e.batch)))
        return keys

    # ---------------------------------------------------------------- profiles
    def profile_snapshot(self, anchor_us: Optional[float] = None) -> ShapeProfile:
        """This simulation's shape traffic as a persistable
        :class:`ShapeProfile`: raw hit counts plus every decayed score
        brought forward to one common anchor (*anchor_us*, by default the
        latest bump time), so relative hotness survives without absolute
        clock times. The server snapshots at simulation end; a predictive
        manager in the *next* process pre-arms from it (never this one —
        the construction-time freeze, see ``_profile_at_init``)."""
        anchor = self._last_bump_us() if anchor_us is None else anchor_us
        return ShapeProfile(
            source_signature=self._fingerprint,
            platform_name=self.platform.name,
            hits={k: int(n) for k, n in self._hits.items() if n > 0},
            scores={k: self.score(k, anchor) for k in self._score},
        )

    def _last_bump_us(self) -> float:
        return max(self._score_at.values(), default=0.0)

    def persist_profile(self, now_us: float, profile: Optional[ShapeProfile] = None) -> None:
        """Write *profile* (by default :meth:`profile_snapshot`) to the
        store at simulation end, for the *next* process's predictive
        manager. Written whether or not this one is predictive —
        recording is cheap and consuming it is opt-in."""
        self.store.put_profile(self.profile_snapshot() if profile is None else profile)
        self._store_view.record_put(
            "profile", self._profile_key, now_us, self.replica_id
        )

    def drain(self) -> None:
        """Run the pool to completion: bind every still-pending compile to
        a lane as lanes free up. The server calls this when a trace ends
        so queue-wait and lane-utilization stats cover every triggered
        compile (the lanes keep working after the last arrival)."""
        self._pump(math.inf)

    # ------------------------------------------------------------ scheduling
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
        elapsed = max(
            self.config.specialize_decay_half_life_us, at_us - job.trigger_us
        )
        rate = (job.hits_by(at_us) + 1) / elapsed
        # Variants of one shape tie on rate and trigger; the member-wise
        # build (batch 1) compiles first — it serves ragged tails too, so
        # it is the more broadly useful artifact.
        return (-rate, job.trigger_us, key_order(job.key), job.batch)

    def _pump(self, now_us: float) -> None:
        """Process every lane-free event up to *now_us*: bind the
        highest-priority pending compile to the earliest-free lane
        (lowest id on ties), priorities recomputed at each binding."""
        while self._pending:
            free_us, lane = min(
                (t, i) for i, t in enumerate(self._lane_free_us)
            )
            if free_us > now_us:
                break
            at = max(free_us, min(j.trigger_us for j in self._pending))
            job = min(self._pending, key=lambda j: self._priority(j, at))
            self._pending.remove(job)
            start = max(free_us, job.trigger_us)
            ready = start + job.compile_us
            self._lane_free_us[lane] = ready
            self._ready_at[(job.key, job.batch)] = ready
            self.records.append(
                SpecializationEvent(
                    job.key, job.trigger_us, start, ready, job.compile_us,
                    lane, job.batch, job.restored, job.prefix_us,
                    job.from_sibling, job.predictive, self.replica_id,
                )
            )

    def _batchable(self, key: PartialKey) -> bool:
        """Is the batched tier configured and not known-unbatchable for
        this shape? Partial keys are member-wise by construction: the
        batch rewrite needs every dim static."""
        return (
            self.batch_cap > 1
            and None not in key
            and key not in self._unbatchable
        )

    def _variant_batches(self, key: PartialKey) -> Tuple[int, ...]:
        """Batch sizes compiled for this hot shape: the member-wise
        build, plus the batch-cap build when the shape admits the batch
        rewrite. Stable from the shape's first trigger onward (the
        unbatchable probe settles atomically with the trigger)."""
        if not self._batchable(key):
            return (1,)
        return (1, self.batch_cap)

    def _try_trigger(
        self, key: ExactKey, now_us: float, predictive: bool = False
    ) -> None:
        """Acquire a cache slot and enqueue the compile(s)/restore(s);
        on a full cache, evict the coldest resident (if strictly colder
        than the challenger and not in flight) or leave the shape armed
        to retry. One slot covers every variant of the shape — the
        member-wise and batched builds live and die together."""
        if len(self._resident) >= self.config.specialize_max_executables:
            victim = self._coldest_evictable(key, now_us)
            if victim is None:
                return
            self._evict(victim, now_us, by=key)
        self._resident.add(key)
        # Seed the recency tiebreak at trigger time: a predictively
        # pre-armed entry (or a synthesized partial) may acquire its
        # slot without ever having been observed, and the eviction
        # comparator's -inf fallback would sort it infinitely cold —
        # always the first victim regardless of its actual heat.
        self._last_hit_us.setdefault(key, now_us)
        for batch in self._variant_batches(key):
            plan = self._plan_artifact(key, batch, now_us)
            if plan is None:
                continue  # shape not batchable: member-wise only
            cost, restored, prefix_us, from_sibling = plan
            self._pending.append(
                _PendingCompile(
                    key, now_us, cost, [], batch, restored, prefix_us,
                    from_sibling, predictive,
                )
            )

    def _coldest_evictable(
        self, challenger: ExactKey, now_us: float
    ) -> Optional[ExactKey]:
        """The resident shape losing its slot: minimal decayed score, ties
        broken by least-recently-hit then key. A shape whose compile is
        still in flight (pending, or bound but not ready) is never
        evicted, and the challenger must be strictly hotter than
        ``EVICTION_MARGIN`` times the victim's decayed score."""
        candidates = [
            k
            for k in self._resident
            if all(self._ready(k, b, now_us) for b in self._variant_batches(k))
        ]
        if not candidates:
            return None
        # Every resident key has _last_hit_us seeded at trigger time, so
        # the fallback is unreachable for candidates; it stays 0.0 (not
        # -inf) so an unexpectedly missing entry would sort as "old",
        # never as an infinitely-cold automatic victim.
        victim = min(
            candidates,
            key=lambda k: (
                self.score(k, now_us),
                self._last_hit_us.get(k, 0.0),
                key_order(k),
            ),
        )
        if self.score(challenger, now_us) <= EVICTION_MARGIN * self.score(
            victim, now_us
        ):
            return None
        return victim

    def _evict(self, key: ExactKey, now_us: float, by: ExactKey) -> None:
        self._resident.discard(key)
        # Every variant the shape may ever have had loses routability
        # with the slot — a re-trigger recompiles (and recharges) both.
        # Popped unconditionally (not via _variant_batches) so no stale
        # ready-time can survive under any probe ordering.
        for batch in (1, self.batch_cap):
            self._ready_at.pop((key, batch), None)
        # The shape re-arms by itself: its hit count still sits past
        # the threshold, so its next observation retries the trigger.
        self.records.append(
            EvictionEvent(key, now_us, self.score(key, now_us), by, self.replica_id)
        )

    # ---------------------------------------------------------------- compile
    def _store_key_for(self, key: ExactKey, batch: int) -> str:
        """The artifact-store key of one (shape, batch) variant, derived
        *without* compiling: ``bound_entry_shapes`` computes the exact
        ``specialized_shapes`` marker the compiled executable would
        carry, so the key matches ``Executable.content_hash`` of the
        artifact a previous process filed."""
        variant: VariantKey = (key, batch)
        skey = self._store_key_memo.get(variant)
        if skey is None:
            # bound_entry_shapes emits the same None dim for an unbound
            # position that the compiled executable will carry, so
            # partial variants content-address exactly like exact ones.
            shapes = bound_entry_shapes(self.mod["main"], self._binding(key))
            skey = artifact_key(
                self._fingerprint,
                self.platform.name,
                shapes,
                batch if batch > 1 else None,
                device_streams=self.device_streams,
            )
            self._store_key_memo[variant] = skey
        return skey

    def _binding(self, key: ExactKey) -> Dict[object, int]:
        """``Any`` token -> bound extent. Partial keys bind only their
        non-None positions; the unbound dims stay Any and the compiled
        variant carries an entry guard."""
        return {t: v for t, v in zip(self.bucketer.tokens, key) if v is not None}

    def _restore_cost(self, kernels: int) -> float:
        """The modeled charge of deserializing a blob with *kernels*
        kernels to re-materialize."""
        return (
            calibration.RESTORE_BASE_US[self.platform.name]
            + calibration.RESTORE_PER_KERNEL_US[self.platform.name] * kernels
        )

    def _obtain_prefix(self) -> None:
        """Materialize the shape-independent prefix. Like
        ``_executables`` this memo is cross-simulation — the prefix is a
        pure function of (module, platform). The store is consulted only
        when the prefix blob was in the view's initial inventory (a
        prefix persisted mid-run must not turn later replays warm); a
        blob that fails validation is memoised as rejected (never
        re-read) and the prefix is rebuilt from source — and re-persisted,
        healing the bad blob for the next process."""
        if self._prefix is not None:
            return
        if self.store is not None and self._store_view.at_init(
            "prefix", self._prefix_key
        ):
            self._prefix = self._from_store("prefix", self._prefix_key)
            if self._prefix is not None:
                self._prefix_restored = True
                return
        prefix, _ = nimble.compile_prefix(
            self.mod, self.platform, source_signature=self._fingerprint
        )
        self._prefix = prefix
        if self.store is not None:
            self.store.put_prefix(prefix)

    def _prefix_lane_charge(self, kernels: int) -> float:
        """The once-per-simulation lane charge for staging the prefix.

        A store-restored prefix pays only the base deserialize charge
        (``RESTORE_BASE_US`` — an IR blob has no kernels to
        re-materialize). A fresh build pays
        the prefix-side split of the compile model:
        ``specialize_compile_us × SPECIALIZE_PREFIX_FRACTION`` under an
        override, else the ``SPECIALIZE_PREFIX_*_US`` calibration sized
        by *kernels* (the first-compiled variant's kernel count — the
        prefix walks the whole module, and any variant's count is a
        proxy for its size)."""
        if self._prefix_restored:
            return self._restore_cost(0)
        if self.config.specialize_compile_us is not None:
            return (
                float(self.config.specialize_compile_us)
                * calibration.SPECIALIZE_PREFIX_FRACTION
            )
        return (
            calibration.SPECIALIZE_PREFIX_BASE_US[self.platform.name]
            + calibration.SPECIALIZE_PREFIX_PER_KERNEL_US[self.platform.name]
            * kernels
        )

    def _from_store(self, kind: str, key: str):
        """Read one blob the store view lists, under the replay-stable
        reject discipline: a ``(kind, key)`` that failed validation once
        is memoised and never read again — this process may since have
        overwritten the file with a good blob, and a replay that loaded
        it would differ from the first simulation. ``None`` means
        rejected, now or earlier; the caller records it, because each
        kind is recorded at its own point in a simulation (profile:
        every reset; prefix and executables: see _plan_artifact)."""
        entry = (kind, key)
        if entry in self._rejected:
            return None
        verify_rejects = self.store.verify_rejects
        get = getattr(self.store, _STORE_GETTERS[kind])
        found = get(key, expected_signature=self._fingerprint)
        if found is None:
            self._rejected[entry] = self.store.verify_rejects > verify_rejects
        return found

    def _record_reject(self, kind: str, key: str, now_us: float) -> None:
        """One refused blob into the record list, flagged with whether
        it was static verification that refused it."""
        self.records.append(
            StoreReject(
                now_us, self.replica_id, kind, key, self._rejected[(kind, key)]
            )
        )

    def _attempt_store_restore(
        self, skey: str, variant: VariantKey, now_us: float
    ) -> Optional[Executable]:
        """Restore a variant the view lists: a previously memoised
        executable comes back without touching the disk at all, anything
        else through :meth:`_from_store`. A reject — fresh or memoised —
        is recorded at every consultation (and so by every replay)."""
        entry = ("exe", skey)
        exe = None if entry in self._rejected else self._executables.get(variant)
        if exe is None:
            exe = self._from_store("exe", skey)
        if exe is None:
            self._record_reject("exe", skey, now_us)
            return None
        self._executables[variant] = exe
        return exe

    def _plan_artifact(
        self, key: ExactKey, batch: int, now_us: float
    ) -> Optional[Tuple[float, bool, float, bool]]:
        """Decide how a triggered variant gets its executable: returns
        ``(lane charge, restored, prefix component, restored from a
        sibling's compile)``, or ``None`` when
        the variant does not exist (the batched rewrite refused this
        shape). The first fresh compile of a simulation additionally
        carries the once-per-module prefix charge (the prefix component;
        included in the lane charge).

        With a store, the view says where the blob came from; restore
        sources, in order:

        1. *Persisted by this manager, this simulation* — the variant
           compiled here earlier, was written to the store, and then
           lost its cache slot: the binary survived eviction, so the
           re-trigger pays the deserialize charge, not a recompile. It
           comes back from the memo: nothing is read, so no reject can
           apply. (A GC prune in between clears the view's record and
           sends the shape back to a fresh compile.)
        2. *Sibling compile* — another replica of this fleet persisted
           the variant earlier in this simulation: restore at the
           deserialize charge, flagged ``from_sibling`` (the fleet
           report's store-warm count). One replica's compile warms the
           whole fleet.
        3. *Warm start* — the blob was in the store when the view was
           taken (a previous process compiled it) and has not been
           pruned: load, validate, install. Validation failures are
           recorded (``StoreReject``) and fall through to a fresh
           compile; the rejection is memoised so replays record it at
           the same trigger instead of re-reading a file this process
           may since have overwritten.
        4. *Fresh compile* — the compile charge; with a store attached
           the artifact is persisted immediately, arming sources 1/2.
        """
        variant: VariantKey = (key, batch)
        view = self._store_view  # set exactly when there is a store
        if self.store is not None:
            skey = self._store_key_for(key, batch)
            writer = view.origin("exe", skey)
            if writer == self.replica_id:
                view.record_use("exe", skey, now_us)
                restored = self._executables[variant]
                return self._restore_cost(len(restored.kernels)), True, 0.0, False
            if view.present("exe", skey):
                exe = self._attempt_store_restore(skey, variant, now_us)
                if exe is not None:
                    view.record_use("exe", skey, now_us)
                    return (
                        self._restore_cost(len(exe.kernels)), True, 0.0,
                        writer is not None,
                    )
        if not self._ensure_compiled(key, batch):
            return None
        if self.store is not None:
            skey = self.store.put(self._executables[variant])
            view.record_put("exe", skey, now_us, self.replica_id)
            # _ensure_compiled materialized (and persisted) the shared
            # prefix on the way — mirror it into the view so the GC
            # inventory knows the .nmblp blob exists.
            view.record_put("prefix", self._prefix_key, now_us, self.replica_id)
        prefix_us = 0.0
        if not self._prefix_charged:
            # First fresh compile of this simulation: fold the
            # once-per-module prefix charge into its lane time. (A
            # rejected prefix blob is recorded here each replay, at the
            # same trigger, without re-reading the file — same
            # determinism rule as for executables above.)
            self._prefix_charged = True
            if ("prefix", self._prefix_key) in self._rejected:
                self._record_reject("prefix", self._prefix_key, now_us)
            prefix_us = self._prefix_lane_charge(
                len(self._executables[variant].kernels)
            )
        return self._compile_cost[variant] + prefix_us, False, prefix_us, False

    def _ensure_compiled(self, key: ExactKey, batch: int = 1) -> bool:
        """Materialize the (shape, batch) artifact; returns False when
        the batched rewrite is unsupported for this shape (member-wise
        builds always succeed). The probe result is memoised per shape —
        batchability depends on the bound dims, not just the module."""
        variant: VariantKey = (key, batch)
        if variant in self._executables:
            return True
        if batch > 1 and key in self._unbatchable:
            return False
        self._obtain_prefix()
        try:
            exe, _ = nimble.specialize(
                self.mod,
                self.platform,
                binding=self._binding(key),
                options=nimble.CompilerOptions(
                    device_streams=self.device_streams,
                    # The compiler's per-compile verify gate is replaced
                    # by the sampled verification below.
                    verify=False,
                ),
                kernel_cache=self.kernel_cache,
                batch=batch,
                source_signature=self._fingerprint,
                prefix=self._prefix,
            )
        except NimbleError:
            # Member-wise compiles must succeed — those errors propagate.
            # A *batched* compile failing for any reason (unsupported
            # structure, a rewrite gap surfacing as a type error) means
            # this shape is served member-wise only; one exotic shape
            # must never take down the whole simulation.
            if batch <= 1:
                raise
            self._unbatchable.add(key)
            return False
        self._compile_seq += 1
        if (self._compile_seq - 1) % VERIFY_SAMPLE == 0:
            # Deterministic cadence: the first fresh compile of every
            # simulation and every VERIFY_SAMPLE-th after it. A failure
            # here is a compiler bug — raise, never serve the variant.
            from repro.analysis import assert_verified

            assert_verified(
                exe, context=f"(serving compile, shape {key}, batch {batch})"
            )
            self.verified_compiles += 1
        self._executables[variant] = exe
        if self.config.specialize_compile_us is not None:
            # The override names the cost of one variant compiled from
            # scratch; each variant pays only the suffix share of it.
            cost = float(self.config.specialize_compile_us) * (
                1.0 - calibration.SPECIALIZE_PREFIX_FRACTION
            )
        else:
            cost = (
                calibration.SPECIALIZE_SUFFIX_BASE_US[self.platform.name]
                + calibration.SPECIALIZE_SUFFIX_PER_KERNEL_US[self.platform.name]
                * len(exe.kernels)
            )
        self._compile_cost[variant] = cost
        return True


def merged_profile(managers: Sequence[SpecializationManager]) -> ShapeProfile:
    """One profile for managers that served one trace between them (a
    fleet's replicas): each snapshot taken at the latest bump of any of
    them, then hits and scores summed. Decay is linear in the hits, so the
    scores are those one manager seeing every hit would have recorded."""
    anchor = max(m._last_bump_us() for m in managers)
    return ShapeProfile.merge([m.profile_snapshot(anchor) for m in managers])
