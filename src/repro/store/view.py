"""The replay-resettable model of one artifact store's contents.

Every server — a standalone one privately, the replicas of a fleet
through one shared instance — decides what it can *restore* from this
model, never from the directory: the disk at a given virtual time
differs between replays (a second ``simulate()`` starts with whatever
the first one wrote), the model does not. Three consumers agree on
what the store holds *as of a virtual timestamp*:

- a specialization manager deciding whether a triggered shape can be
  **restored** — because a previous process left it behind, because it
  persisted the variant itself earlier this simulation and then evicted
  it, or because a sibling replica did — instead of compiled fresh;
- the **garbage collector**, whose age decisions must replay
  bit-identically — so they are made against this model's inventory and
  usage times, never against raw ``mtime``s;
- the managers' re-trigger paths, which must notice when GC pruned a
  blob they persisted (the binary is gone: recompile and re-persist, do
  not "restore" from a memory the model says was reclaimed).

The initial inventory is snapshotted **once, at construction**, and
everything else — writes, restores, prunes — is per-simulation state
that :meth:`reset` clears. Replaying a trace therefore rebuilds the
identical sequence of store decisions no matter what earlier replays
wrote to or deleted from the directory.

Entries are ``(kind, key)`` pairs, ``kind`` one of ``"exe"`` /
``"prefix"`` / ``"profile"`` — the three blob families of the store
layout (``.nmbl`` / ``.nmblp`` / ``.nmblprof``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.store.artifacts import ArtifactStore

# One store entry: ("exe", key) -> artifacts/<key>.nmbl, and so on.
StoreEntry = Tuple[str, str]


class FleetStoreView:
    """Virtual-time bookkeeping of one artifact store.

    All mutation happens through ``record_*`` calls made by the servers
    (on put/restore) and the router (on GC prune); queries are pure
    reads. Nothing here touches the disk — the view is the *model*, the
    :class:`~repro.store.ArtifactStore` is the mechanism.
    """

    def __init__(self, store: ArtifactStore) -> None:
        # The frozen initial inventory: what a previous process (or
        # fleet) left behind. Snapshotted once so every simulation
        # starts from the same baseline.
        self._init_entries = frozenset(store.inventory())
        self.reset()

    # ----------------------------------------------------------------- replay
    def reset(self) -> None:
        """Per-simulation state: writes, prunes, and usage times."""
        # entry -> (write time, writer replica id); only writes made
        # during the current simulation.
        self._written: Dict[StoreEntry, Tuple[float, int]] = {}
        # entry -> prune time of the LAST prune (a later re-put revives
        # the entry; `present` compares the two timestamps' order via
        # state updates, not arithmetic, so re-put after prune wins).
        self._pruned: Dict[StoreEntry, float] = {}
        # entry -> last time any replica read or wrote it (GC age input).
        self._last_use: Dict[StoreEntry, float] = {}

    # -------------------------------------------------------------- mutation
    def record_put(self, kind: str, key: str, now_us: float, replica_id: int) -> None:
        """A replica persisted a blob at *now_us*: it is present from now
        on (reviving it if GC had pruned it) and owned by *replica_id*
        for cross-replica restore attribution."""
        entry = (kind, key)
        self._written[entry] = (now_us, replica_id)
        self._pruned.pop(entry, None)
        self._last_use[entry] = now_us

    def record_use(self, kind: str, key: str, now_us: float) -> None:
        """A replica restored/read a blob at *now_us* (GC freshness)."""
        entry = (kind, key)
        prev = self._last_use.get(entry)
        if prev is None or now_us > prev:
            self._last_use[entry] = now_us

    def record_prune(self, kind: str, key: str, now_us: float) -> None:
        """The GC reclaimed a blob at *now_us*: absent until re-written."""
        entry = (kind, key)
        self._pruned[entry] = now_us
        self._written.pop(entry, None)

    # --------------------------------------------------------------- queries
    def present(self, kind: str, key: str) -> bool:
        """Does the model say this blob is on disk right now? Initial
        blobs count until pruned; written blobs count from their write
        (re-put after prune revives, prune after put reclaims — the
        record_* calls keep only the latest state)."""
        entry = (kind, key)
        if entry in self._written:
            return True
        return entry in self._init_entries and entry not in self._pruned

    def at_init(self, kind: str, key: str) -> bool:
        """Was this blob part of the frozen initial inventory? For what
        a manager decides once, at construction — restore the staged
        prefix or rebuild it, pre-arm from a shape profile or serve
        cold — which may not depend on what siblings wrote since."""
        return (kind, key) in self._init_entries

    def origin(self, kind: str, key: str) -> Optional[int]:
        """The replica that wrote this blob *during this simulation*, or
        None (initial inventory, pruned, or never written). This is what
        makes a sibling's fresh compile restorable fleet-wide: a
        non-None origin different from the asking replica is a
        cross-replica warm hit."""
        found = self._written.get((kind, key))
        return found[1] if found is not None else None

    def last_use_us(self, kind: str, key: str) -> Optional[float]:
        """Latest modeled read/write of the blob this simulation, or
        None — initial blobs nobody touched have no age anchor and count
        as infinitely old."""
        return self._last_use.get((kind, key))

    def inventory(self) -> List[StoreEntry]:
        """The modeled store contents, sorted for deterministic
        iteration: initial entries not yet pruned plus everything
        written this simulation."""
        live = {
            e
            for e in self._init_entries
            if e not in self._pruned and e not in self._written
        }
        live.update(self._written)
        return sorted(live)
