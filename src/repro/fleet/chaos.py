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
  garbage (bit rot, a torn device, a hostile writer). The victim is
  named by what it is — the executable of one specialized variant, by
  its shapes — or, unnamed, is the first entry of the store
  model's inventory for a kind, so the choice is a pure function of the
  trace (the model's inventory is replay-identical; the raw directory
  listing is not) and survives a format bump that renames every key.
  Readers hit the store's paranoid validation and reject-and-count — one
  replica's corrupted write must never crash a sibling. Kind ``"const"``
  damages not the executable but the first constant chunk it names:
  every variant of the model that is read afterwards rejects.

Corruption writes a deterministic garbage payload derived from the key,
so replaying the event byte-identically re-corrupts the blob even if an
earlier replay's re-put healed it in between.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional


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
    """Overwrite a modeled blob of *kind* with garbage at *at_us*: the
    executable of the member-wise variant specialized for *shapes* (its
    ``specialized_shapes``, one shape per entry parameter), or — with no
    *shapes* — the first blob of *kind* in key order. Fires as a no-op
    when the model holds no such blob (counted in the fleet report — an
    injected fault that found nothing to corrupt should be visible, not
    silent)."""

    at_us: float
    kind: str = "exe"
    shapes: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("corruption time must be >= 0")
        if self.kind not in ("exe", "prefix", "profile", "const"):
            raise ValueError(f"unknown blob kind {self.kind!r}")
        if self.shapes is not None and self.kind not in ("exe", "const"):
            raise ValueError(f"a {self.kind} blob is not one variant's: it has no shapes")

    def garbage(self, key: str) -> bytes:
        """The deterministic payload written over the blob: keyed junk
        that fails every layer of store validation (wrong magic, wrong
        hash) but is stable across replays, so re-corruption after a
        healing re-put produces byte-identical disk state."""
        seed = hashlib.sha256(f"chaos:{self.kind}:{key}".encode()).digest()
        return b"NIMBLE-CHAOS" + seed * 4
