"""The artifact planner: how a triggered variant gets its executable.

One :class:`ArtifactPlanner` lives as long as its
:class:`~repro.serve.specialization.SpecializationManager` and holds
every memo that outlives a simulation: compiled executables, the staged
prefix, store keys, store rejects and the frozen shape profile.
Compilation is a pure function of module + shape + batch + platform, so
reusing artifacts keeps replays bit-identical while skipping redundant
work; the *modeled* charge is still paid at every (re-)trigger — in the
model, eviction dropped the binary.

**Compiling.** Every variant is built through the staged pipeline: a
shape-independent *prefix* (normalization, CSE, lambda lifting,
dynamic type inference — ``nimble.compile_prefix``) shared by all of a
module's variants, and a per-variant *suffix* (shape binding, residual
inference, fusion, allocation, codegen —
``nimble.specialize(prefix=...)``). The modeled charge splits the same
way: each variant pays the suffix (``SPECIALIZE_SUFFIX_*_US``, or
``specialize_compile_us × (1 − SPECIALIZE_PREFIX_FRACTION)`` under the
override), and the first fresh compile of a simulation additionally
carries the prefix (``SpecializationEvent.prefix_us``), once. Every
compile passes the compiler's own verify gate (``repro.analysis``), and
a failure raises — it is a compiler bug, never a shape to serve
member-wise.

With ``batch_cap > 1`` each shape has **two variants**: the member-wise
build and a batch-specialized build (``nimble.specialize(batch=...)``)
that runs a full bucket as one stacked VM call. Shapes the batch rewrite
cannot express are detected on their first batched compile and served
member-wise only — per shape, so one exotic shape never disables the
tier for the rest.

**The store.** With an :class:`~repro.store.ArtifactStore` attached,
compiled variants and the prefix persist to disk, and a trigger checks
the store's *model* (:class:`~repro.store.FleetStoreView`) **before**
compiling: a blob a previous process left, one this manager persisted
earlier in the simulation and then evicted, or one a sibling replica
persisted is installed at a small modeled deserialize cost
(``RESTORE_*_US``) instead of compiled. A blob that fails validation is
skipped, recorded (a ``StoreReject``) and compiled fresh.

**The shape profile.** With ``specialize_predictive``, the previous
process's ``.nmblprof`` profile (:mod:`repro.serve.profile`) is loaded
once, at construction, and frozen: :attr:`ArtifactPlanner.prearm` lists
its hottest shapes, which every ``reset()`` pre-arms at virtual time 0.
The profile this manager writes never feeds back into its own replays.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import NimbleError, VerificationError
from repro.hardware import calibration
from repro.hardware.platforms import Platform
from repro.ir.module import IRModule
from repro.ir.printer import module_fingerprint
from repro.passes import bound_entry_shapes
from repro.serve.config import ServeConfig
from repro.serve.events import StoreReject
from repro.serve.policy import PartialKey
from repro.serve.pool import CompilePool, Plan, VariantKey
from repro.serve.profile import profile_store_key
from repro.store import ArtifactStore, FleetStoreView
from repro.vm.executable import Executable, artifact_key


class ArtifactPlanner:
    """Executables, the prefix, store keys and rejects of one module's
    shape variants on *platform*. ``tokens`` are the entry's ``Any``
    tokens in key order. ``store`` attaches a persistent store and
    ``store_view`` the model of its contents every restore decision goes
    through — the server's private one, or the fleet's shared one, in
    which case ``replica_id`` tells this manager's writes from its
    siblings'."""

    def __init__(
        self,
        mod: IRModule,
        platform: Platform,
        tokens: Sequence[object],
        kernel_cache: KernelCache,
        config: ServeConfig,
        store: Optional[ArtifactStore] = None,
        store_view: Optional[FleetStoreView] = None,
        replica_id: int = 0,
    ) -> None:
        self.mod = mod
        self.platform = platform
        self.tokens = tokens
        self.kernel_cache = kernel_cache
        self.compile_us = config.specialize_compile_us
        self.batch_cap = config.batch_cap
        self.store = store
        self.store_view = store_view
        self.replica_id = replica_id
        # A store-key component too, so single- and multi-stream builds
        # never alias; clamped once, as the compiler would stamp it.
        self.device_streams = platform.effective_streams(config.device_streams)
        # The module component of every store key.
        self.fingerprint = module_fingerprint(mod)
        # Store blobs that failed validation once (see _from_store), by
        # the (kind, key) pair the store view and the GC use. The value
        # says whether the blob deserialized fine but failed *static
        # verification* — a writer bug, not volume rot — so replays
        # record the reject with the same flag at the same trigger.
        self._rejected: Dict[Tuple[str, str], bool] = {}
        self._store_key_memo: Dict[VariantKey, str] = {}
        self._prefix: Optional[nimble.SpecializationPrefix] = None
        self.prefix_key = nimble.prefix_store_key(self.fingerprint, platform.name)
        self._prefix_restored = False
        self.executables: Dict[VariantKey, Executable] = {}
        self._compile_cost: Dict[VariantKey, float] = {}
        # Shapes whose batched compile failed (batchability is
        # shape-dependent, so one failure never disables the tier).
        self._unbatchable: Set[PartialKey] = set()
        # The historical shapes to pre-arm, hottest first, with their
        # scores — as many as the cache holds. Partial keys recorded by
        # a partial-enabled predecessor are skipped unless this manager
        # can compile them. A profile blob that fails validation is
        # memoised as rejected and recorded again at every reset.
        self.profile_key = profile_store_key(self.fingerprint, platform.name)
        self.prearm: Tuple[Tuple[PartialKey, float], ...] = ()
        if (
            config.specialize_predictive
            and store is not None
            and store_view.at_init("profile", self.profile_key)
        ):
            profile = self._from_store("profile", self.profile_key, store.get_profile)
            if profile is not None:
                self.prearm = tuple(
                    (key, float(profile.scores.get(key, 0.0)))
                    for key in profile.top_keys()
                    if key and (config.specialize_partial or None not in key)
                )[: config.specialize_max_executables]

    @property
    def num_executables(self) -> int:
        """Distinct shapes ever compiled."""
        return len({key for key, _ in self.executables})

    @property
    def num_variants(self) -> int:
        """Distinct (shape, batch) artifacts ever compiled."""
        return len(self.executables)

    def variant_batches(self, key: PartialKey) -> Tuple[int, ...]:
        """Batch sizes compiled for this hot shape: the member-wise
        build, plus the batch-cap build when the batched tier is on and
        the shape admits the rewrite (partial keys never do: it needs
        every dim static). Stable from the shape's first trigger onward
        (the unbatchable probe settles atomically with the trigger)."""
        if self.batch_cap > 1 and None not in key and key not in self._unbatchable:
            return (1, self.batch_cap)
        return (1,)

    def store_key(self, key: PartialKey, batch: int) -> str:
        """The artifact-store key of one (shape, batch) variant, derived
        *without* compiling: :meth:`_shapes` is the exact
        ``specialized_shapes`` marker the compiled executable carries, so
        the key matches ``Executable.content_hash`` of the artifact a
        previous process filed."""
        variant: VariantKey = (key, batch)
        skey = self._store_key_memo.get(variant)
        if skey is None:
            skey = artifact_key(
                self.fingerprint, self.platform.name, self._shapes(key),
                batch if batch > 1 else None, device_streams=self.device_streams,
            )
            self._store_key_memo[variant] = skey
        return skey

    def replay_profile_reject(self, records: list) -> None:
        """Record a rejected profile blob at a simulation's start:
        replays must see the same rejects without re-reading the file."""
        if ("profile", self.profile_key) in self._rejected:
            self._record_reject(records, "profile", self.profile_key, 0.0)

    # ------------------------------------------------------------------ plan
    def plan(
        self, key: PartialKey, batch: int, now_us: float, pool: CompilePool
    ) -> Optional[Plan]:
        """Decide how a triggered variant gets its executable, or
        ``None`` when the variant does not exist (the batched rewrite
        refused this shape). The first fresh compile of *pool*'s
        simulation additionally carries the once-per-module prefix
        charge (the prefix component; included in the lane charge).

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
           deserialize charge, flagged ``from_sibling``. One replica's
           compile warms the whole fleet.
        3. *Warm start* — the blob was in the store when the view was
           taken and has not been pruned: load, validate, install.
           Validation failures are recorded (``StoreReject``) and fall
           through to a fresh compile; the rejection is memoised so
           replays record it at the same trigger instead of re-reading
           a file this process may since have overwritten.
        4. *Fresh compile* — the compile charge; with a store attached
           the artifact is persisted immediately, arming sources 1/2.
        """
        variant: VariantKey = (key, batch)
        view = self.store_view  # set exactly when there is a store
        if self.store is not None:
            skey = self.store_key(key, batch)
            writer = view.origin("exe", skey)
            if writer == self.replica_id:
                view.record_use("exe", skey, now_us)
                restored = self.executables[variant]
                return self._restore_cost(len(restored.kernels)), True, 0.0, False
            if view.present("exe", skey):
                exe = self._restore(skey, variant, now_us, pool.records)
                if exe is not None:
                    view.record_use("exe", skey, now_us)
                    return (
                        self._restore_cost(len(exe.kernels)), True, 0.0,
                        writer is not None,
                    )
        if not self._ensure_compiled(key, batch, pool):
            return None
        if self.store is not None:
            skey = self.store.put(self.executables[variant])
            view.record_put("exe", skey, now_us, self.replica_id)
            # _ensure_compiled materialized (and persisted) the shared
            # prefix on the way — mirror it into the view so the GC
            # inventory knows the .nmblp blob exists.
            view.record_put("prefix", self.prefix_key, now_us, self.replica_id)
        prefix_us = 0.0
        if not pool.prefix_charged:
            # First fresh compile of this simulation: fold the
            # once-per-module prefix charge into its lane time. (A
            # rejected prefix blob is recorded here each replay, at the
            # same trigger, without re-reading the file.)
            pool.prefix_charged = True
            if ("prefix", self.prefix_key) in self._rejected:
                self._record_reject(pool.records, "prefix", self.prefix_key, now_us)
            prefix_us = self._prefix_lane_charge(len(self.executables[variant].kernels))
        return self._compile_cost[variant] + prefix_us, False, prefix_us, False

    def _ensure_compiled(self, key: PartialKey, batch: int, pool: CompilePool) -> bool:
        """Materialize the (shape, batch) artifact; returns False when
        the batched rewrite is unsupported for this shape (member-wise
        builds always succeed). The probe result is memoised per shape."""
        variant: VariantKey = (key, batch)
        if variant in self.executables:
            return True
        if batch > 1 and key in self._unbatchable:
            return False
        self._obtain_prefix()
        try:
            exe, _ = nimble.specialize(
                self.mod,
                self.platform,
                shapes=self._shapes(key),
                options=nimble.CompilerOptions(device_streams=self.device_streams),
                kernel_cache=self.kernel_cache,
                batch=batch,
                source_signature=self.fingerprint,
                prefix=self._prefix,
            )
        except VerificationError:
            raise  # a compiler bug, never an unbatchable shape
        except NimbleError:
            # Member-wise compiles must succeed; a *batched* compile
            # failing for any reason serves this shape member-wise only.
            if batch <= 1:
                raise
            self._unbatchable.add(key)
            return False
        pool.fresh_compiles += 1
        self.executables[variant] = exe
        if self.compile_us is not None:
            # The override names the cost of one variant compiled from
            # scratch; each variant pays only the suffix share of it.
            cost = float(self.compile_us) * (1.0 - calibration.SPECIALIZE_PREFIX_FRACTION)
        else:
            cost = (
                calibration.SPECIALIZE_SUFFIX_BASE_US[self.platform.name]
                + calibration.SPECIALIZE_SUFFIX_PER_KERNEL_US[self.platform.name]
                * len(exe.kernels)
            )
        self._compile_cost[variant] = cost
        return True

    # ---------------------------------------------------------------- helpers
    def _shapes(self, key: PartialKey) -> tuple:
        """The entry's shapes under *key*: per param, its dims with each
        keyed token's extent, None where a dim stays dynamic. Partial
        keys bind only their non-None positions; the unbound dims stay
        Any and the compiled variant carries an entry guard. These are
        the ``shapes`` a variant compiles from and the marker it
        carries: positions, not tokens, so they hold against a prefix
        restored from another process."""
        binding = {t: v for t, v in zip(self.tokens, key) if v is not None}
        return bound_entry_shapes(self.mod["main"], binding)

    def _restore_cost(self, kernels: int) -> float:
        """The modeled charge of deserializing a blob with *kernels*
        kernels to re-materialize."""
        return (
            calibration.RESTORE_BASE_US[self.platform.name]
            + calibration.RESTORE_PER_KERNEL_US[self.platform.name] * kernels
        )

    def _obtain_prefix(self) -> None:
        """Materialize the shape-independent prefix, a pure function of
        (module, platform). The store is consulted only when the prefix
        blob was in the view's initial inventory (a prefix persisted
        mid-run must not turn later replays warm); a blob that fails
        validation is memoised as rejected and the prefix is rebuilt
        from source — and re-persisted, healing the bad blob for the
        next process."""
        if self._prefix is not None:
            return
        if self.store is not None and self.store_view.at_init("prefix", self.prefix_key):
            self._prefix = self._from_store("prefix", self.prefix_key, self.store.get_prefix)
            if self._prefix is not None:
                self._prefix_restored = True
                return
        prefix, _ = nimble.compile_prefix(
            self.mod, self.platform, source_signature=self.fingerprint
        )
        self._prefix = prefix
        if self.store is not None:
            self.store.put_prefix(prefix)

    def _prefix_lane_charge(self, kernels: int) -> float:
        """The once-per-simulation lane charge for staging the prefix: the
        base deserialize charge when it was store-restored (an IR blob has
        no kernels), else the prefix-side split of the compile model —
        sized by *kernels*, the first-compiled variant's kernel count."""
        if self._prefix_restored:
            return self._restore_cost(0)
        if self.compile_us is not None:
            return float(self.compile_us) * calibration.SPECIALIZE_PREFIX_FRACTION
        return (
            calibration.SPECIALIZE_PREFIX_BASE_US[self.platform.name]
            + calibration.SPECIALIZE_PREFIX_PER_KERNEL_US[self.platform.name]
            * kernels
        )

    def _from_store(self, kind: str, key: str, get):
        """Read one blob the store view lists through *get* (the store's
        reader for *kind*), under the replay-stable reject discipline: a
        ``(kind, key)`` that failed validation once is memoised and never
        read again — this process may since have overwritten the file
        with a good blob, and a replay that loaded it would differ from
        the first simulation. ``None`` means rejected, now or earlier;
        the caller records it, because each kind is recorded at its own
        point in a simulation."""
        entry = (kind, key)
        if entry in self._rejected:
            return None
        verify_rejects = self.store.verify_rejects
        found = get(key, expected_signature=self.fingerprint)
        if found is None:
            self._rejected[entry] = self.store.verify_rejects > verify_rejects
        return found

    def _record_reject(self, records: list, kind: str, key: str, now_us: float) -> None:
        """One refused blob into *records*, flagged with whether it was
        static verification that refused it."""
        records.append(
            StoreReject(now_us, self.replica_id, kind, key, self._rejected[(kind, key)])
        )

    def _restore(
        self, skey: str, variant: VariantKey, now_us: float, records: list
    ) -> Optional[Executable]:
        """Restore a variant the view lists: a previously memoised
        executable comes back without touching the disk at all, anything
        else through :meth:`_from_store`. A reject — fresh or memoised —
        is recorded at every consultation (and so by every replay)."""
        entry = ("exe", skey)
        exe = None if entry in self._rejected else self.executables.get(variant)
        if exe is None:
            exe = self._from_store("exe", skey, self.store.get)
        if exe is None:
            self._record_reject(records, "exe", skey, now_us)
            return None
        self.executables[variant] = exe
        return exe
