"""Deterministic fault injection for fleet simulations.

Chaos events are *inputs*: timestamped, declarative faults the router
merges into its event loop exactly like arrivals, so an injected fault
is as replayable as the trace itself. Two families cover the fleet's
failure surface:

- :class:`ReplicaStall` — one replica's workers freeze for a window of
  virtual time (a GC pause, a noisy neighbor, a hiccuping device). The
  stall advances the replica's worker clocks; everything downstream —
  batches queueing longer, the router's least-loaded signal steering
  traffic elsewhere — falls out of the existing timing model.
- :class:`CorruptBlob` — a blob in the shared store is overwritten with
  garbage (bit rot, a torn device, a hostile writer). The *n*-th entry
  of the store model's inventory for a kind is targeted, so the choice
  is a pure function of the trace (the model's inventory is
  replay-identical; the raw directory listing is not). Readers hit the
  store's paranoid validation and reject-and-count — one replica's
  corrupted write must never crash a sibling. Kind ``"const"`` damages
  not the *n*-th modeled executable but the first constant chunk it
  names: every variant of the model that is read afterwards rejects.

Corruption writes a deterministic garbage payload derived from the key,
so replaying the event byte-identically re-corrupts the blob even if an
earlier replay's re-put healed it in between.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicaStall:
    """Freeze every worker of *replica_id* from *at_us* for
    *duration_us*: each worker's clock advances to at least
    ``max(free_at, at_us) + duration_us`` before taking new work."""

    at_us: float
    replica_id: int
    duration_us: float

    def __post_init__(self) -> None:
        if self.at_us < 0 or self.duration_us < 0:
            raise ValueError("stall times must be >= 0")


@dataclass(frozen=True)
class CorruptBlob:
    """Overwrite the *index*-th (mod population) modeled blob of *kind*
    with garbage at *at_us*. Fires as a no-op when the model holds no
    blob of that kind (counted in the fleet report — an injected fault
    that found nothing to corrupt should be visible, not silent)."""

    at_us: float
    kind: str = "exe"
    index: int = 0

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("corruption time must be >= 0")
        if self.kind not in ("exe", "prefix", "profile", "const"):
            raise ValueError(f"unknown blob kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("index must be >= 0")

    def garbage(self, key: str) -> bytes:
        """The deterministic payload written over the blob: keyed junk
        that fails every layer of store validation (wrong magic, wrong
        hash) but is stable across replays, so re-corruption after a
        healing re-put produces byte-identical disk state."""
        seed = hashlib.sha256(f"chaos:{self.kind}:{key}".encode()).digest()
        return b"NIMBLE-CHAOS" + seed * 4
