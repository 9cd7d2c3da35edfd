"""Store compaction: age pruning of unreferenced blobs.

A long-lived artifact store accretes: every hot shape ever compiled
leaves a ``.nmbl``, every staged module a ``.nmblp``, every simulation
end a ``.nmblprof``. :class:`StoreGC` reclaims the cold tail — every
blob untouched for more than ``max_age_us`` of virtual time — with two
absolute guards:

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
from typing import List, Set

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
    """Age collector over one :class:`ArtifactStore`, deciding from a
    fleet store view (model) and mirroring prunes to disk.

    ``max_age_us`` prunes entries whose last modeled use is more than
    that far behind ``now_us`` — including never-used initial inventory,
    which has no use anchor and counts as infinitely old. With
    ``max_age_us=inf`` nothing is pruned: the collector only inventories
    malformed names and sweeps chunks.
    """

    def __init__(
        self, store: ArtifactStore, view: FleetStoreView, max_age_us: float
    ) -> None:
        if max_age_us < 0:
            raise ValueError(f"max_age_us must be >= 0, got {max_age_us}")
        self.store = store
        self.view = view
        self.max_age_us = max_age_us

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
        for entry in inventory:
            last = self.view.last_use_us(*entry)
            age = float("inf") if last is None else now_us - last
            if age <= self.max_age_us:
                report.kept_fresh += 1
            elif entry in in_flight:
                report.kept_in_flight += 1
            elif entry in referenced:
                report.kept_referenced += 1
            else:
                self._prune(entry, now_us, report)
        report.chunks_swept = self.store.sweep_chunks()
        return report

    def _prune(self, entry: StoreEntry, now_us: float, report: GCReport) -> None:
        """Model prune + best-effort disk unlink (the model is truth)."""
        kind, key = entry
        self.view.record_prune(kind, key, now_us)
        if not self.store.remove(kind, key):
            report.missing_on_disk += 1
        report.pruned.append(entry)
