"""Store compaction: age/LRU pruning of unreferenced blobs.

A long-lived artifact store accretes: every hot shape ever compiled
leaves a ``.nmbl``, every staged module a ``.nmblp``, every simulation
end a ``.nmblprof``. :class:`StoreGC` reclaims the cold tail under two
policies — **age** (a blob untouched for ``max_age_us`` of virtual time)
and **LRU budget** (keep at most ``max_blobs``, evicting
least-recently-used first) — with two absolute guards:

- **refcount**: a blob any live replica snapshot still references
  (resident or in-flight variants, the staged prefix, the shape
  profile — :meth:`repro.serve.SpecializationManager.referenced_store_keys`)
  is never pruned, no matter how old;
- **in-flight restores**: a blob some replica is deserializing *right
  now* is never pruned (this is implied by the refcount guard — an
  in-flight restore is a pending job — but callers pass the set
  explicitly so the invariant is enforced even if the reference
  bookkeeping ever narrows).

Determinism is the design constraint that shapes everything else: GC
decisions feed replay-identity assertions (``docs/fleet.md``), but the
*disk* contents at a given virtual time differ between replays — a
second ``simulate()`` starts with whatever the first one wrote. So the
collector decides from the :class:`repro.store.FleetStoreView` **model**
(frozen initial inventory + this simulation's recorded puts/uses/prunes)
and only then mirrors each prune to disk with a best-effort unlink. The
examined/pruned/kept counts in a :class:`GCReport` are therefore pure
functions of the trace.

Malformed file names in the store directory are inventoried
(skip-and-count, see :meth:`ArtifactStore.malformed_names`) but never
deleted: an unrecognized file is evidence, not garbage.

Large constants are no blobs of the model but chunk files under
``constants/`` that blobs name. After its prunes a collection **sweeps**
them *from the disk*: it unlinks every chunk no blob file still there
names, so a chunk outlives every blob that needs it whatever the model
believes. Like ``missing_on_disk`` the count depends on what earlier
replays left behind, and stays out of the replay surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.store.artifacts import ArtifactStore
from repro.store.view import FleetStoreView, StoreEntry


@dataclass
class GCReport:
    """One collection's decisions (all derived from the model, so two
    replays of the same trace produce equal reports)."""

    at_us: float = 0.0
    examined: int = 0
    pruned: List[StoreEntry] = field(default_factory=list)
    kept_referenced: int = 0
    kept_in_flight: int = 0
    kept_fresh: int = 0
    # Unrecognized file names found on disk — counted, never touched.
    malformed: int = 0
    # Model-pruned entries whose disk file did not exist (the disk was
    # behind the model; the model prune still happened). The one field
    # that depends on the disk, so equality leaves it out.
    missing_on_disk: int = field(default=0, compare=False)
    # Chunk files unlinked because no blob on disk named them — as
    # disk-dependent as the field above.
    chunks_swept: int = field(default=0, compare=False)

    @property
    def pruned_count(self) -> int:
        return len(self.pruned)

    def counters(self) -> dict:
        """The replay-comparable summary (used by FleetReport equality)."""
        return {
            "at_us": self.at_us,
            "examined": self.examined,
            "pruned": tuple(self.pruned),
            "kept_referenced": self.kept_referenced,
            "kept_in_flight": self.kept_in_flight,
            "kept_fresh": self.kept_fresh,
            "malformed": self.malformed,
        }


class StoreGC:
    """Age/LRU collector over one :class:`ArtifactStore`, deciding from
    a fleet store view (model) and mirroring prunes to disk.

    ``max_age_us`` prunes entries whose last modeled use is more than
    that far behind ``now_us`` — including never-used initial inventory,
    which has no use anchor and counts as infinitely old. ``max_blobs``
    then prunes least-recently-used survivors until the model holds at
    most that many entries. Either policy may be ``None`` (disabled);
    with both ``None`` the collector only inventories malformed names.
    """

    def __init__(
        self,
        store: ArtifactStore,
        view: FleetStoreView,
        max_age_us: Optional[float] = None,
        max_blobs: Optional[int] = None,
    ) -> None:
        if max_age_us is not None and max_age_us < 0:
            raise ValueError(f"max_age_us must be >= 0, got {max_age_us}")
        if max_blobs is not None and max_blobs < 0:
            raise ValueError(f"max_blobs must be >= 0, got {max_blobs}")
        self.store = store
        self.view = view
        self.max_age_us = max_age_us
        self.max_blobs = max_blobs

    def collect(
        self,
        now_us: float,
        referenced: Set[StoreEntry] = frozenset(),
        in_flight: Set[StoreEntry] = frozenset(),
    ) -> GCReport:
        """Run one collection at virtual time *now_us*.

        *referenced* is the union of every live replica's
        ``referenced_store_keys()`` — the refcount guard. *in_flight* is
        the union of their ``restoring_store_keys(now_us)`` — restores a
        lane is deserializing right now (a subset of *referenced*;
        accepted separately so the in-flight invariant never depends on
        the reference set staying a superset).
        """
        report = GCReport(
            at_us=now_us, malformed=len(self.store.malformed_names())
        )
        inventory = self.view.inventory()
        report.examined = len(inventory)
        protected = set(referenced) | set(in_flight)

        def guard(entry: StoreEntry) -> bool:
            """True when *entry* must be kept; counts the reason."""
            if entry in in_flight:
                report.kept_in_flight += 1
                return True
            if entry in referenced:
                report.kept_referenced += 1
                return True
            return False

        def age_of(entry: StoreEntry) -> float:
            last = self.view.last_use_us(entry[0], entry[1])
            return float("inf") if last is None else now_us - last

        live: List[StoreEntry] = []
        for entry in inventory:
            if self.max_age_us is not None and age_of(entry) > self.max_age_us:
                if not guard(entry):
                    self._prune(entry, now_us, report)
                    continue
            else:
                report.kept_fresh += 1
            live.append(entry)
        if self.max_blobs is not None and len(live) > self.max_blobs:
            # LRU order: never-used (ageless) entries first, then oldest
            # last use; key ties broken by the entry itself so the order
            # is total and replay-stable.
            by_lru = sorted(
                live, key=lambda e: (-age_of(e), e)
            )
            for entry in by_lru:
                if len(live) <= self.max_blobs:
                    break
                if entry in protected:
                    # guard() already counted referenced/in-flight keeps
                    # during the age pass only when the age policy fired;
                    # here the budget policy is the one firing.
                    guard(entry)
                    continue
                self._prune(entry, now_us, report)
                live.remove(entry)
        report.chunks_swept = self.store.sweep_chunks()
        return report

    def _prune(self, entry: StoreEntry, now_us: float, report: GCReport) -> None:
        """Model prune + best-effort disk unlink (the model is truth)."""
        kind, key = entry
        self.view.record_prune(kind, key, now_us)
        if not self.store.remove(kind, key):
            report.missing_on_disk += 1
        report.pruned.append(entry)
