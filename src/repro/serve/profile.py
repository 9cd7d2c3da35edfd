"""Persisted shape profiles for profile-guided predictive specialization.

A :class:`ShapeProfile` is the end-of-simulation snapshot of one
module's shape traffic: the exact-key hit histogram and the decayed
specialization scores the :class:`~repro.serve.specialization.SpecializationManager`
accumulated, all anchored to one common timestamp. Saved into the
artifact store as a versioned ``.nmblprof`` blob (``save``/``load`` are
the pickled payload; the store seals it in the same envelope, and reads
it under the same reject-and-count discipline, as ``.nmbl`` executables
and ``.nmblp`` prefixes), it lets a *restarted* server pre-arm its
historical top-K shapes before the first request lands — the Cinder
``profile_data`` JIT flow applied to shape specialization.

Shape keys are the bucketer's exact keys (tuples of ints), plus partial
keys (tuples mixing ints and ``None``) when partial specialization is
on. The profile is keyed in the store by (module fingerprint, platform,
format version) only — one profile per served module, overwritten at
each simulation end (a fleet writes one :meth:`ShapeProfile.merge` of
its replicas') — so a schema bump orphans old blobs instead of
misreading them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import SerializationError
from repro.ir import codec

# Serialization version of profile payloads (the store stamps it on
# their envelope). A component of the store key, so bumping it makes
# stale blobs unreachable rather than misread.
PROFILE_VERSION = 1

# An exact key is all ints; a partial key has None at unbound positions.
ProfileKey = Tuple[Optional[int], ...]


def profile_store_key(source_signature: str, platform_name: str) -> str:
    """The artifact-store key of one module's shape profile:
    content-addressed over (module fingerprint, platform, blob format),
    mirroring :func:`repro.nimble.prefix_store_key` for prefixes."""
    identity = repr(
        ("nimble-profile", source_signature, platform_name, PROFILE_VERSION)
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


@dataclass
class ShapeProfile:
    """One simulation's shape-traffic summary for a (module, platform).

    ``hits`` maps each observed shape key to its raw hit count;
    ``scores`` maps keys to their exponentially decayed specialization
    scores, all decayed to the single common anchor the manager chose at
    snapshot time (so relative hotness is preserved without persisting
    absolute virtual-clock times, which would differ between traces)."""

    source_signature: str
    platform_name: str
    hits: Dict[ProfileKey, int] = field(default_factory=dict)
    scores: Dict[ProfileKey, float] = field(default_factory=dict)

    def store_key(self) -> str:
        return profile_store_key(self.source_signature, self.platform_name)

    def top_keys(self, k: Optional[int] = None) -> Tuple[ProfileKey, ...]:
        """The profile's keys, hottest first: by decayed score, then raw
        hits, then a None-safe lexicographic tiebreak — a total,
        deterministic order even with partial keys in the mix."""
        ordered = sorted(
            self.scores,
            key=lambda key: (
                -self.scores[key],
                -self.hits.get(key, 0),
                key_order(key),
            ),
        )
        return tuple(ordered if k is None else ordered[:k])

    @staticmethod
    def merge(profiles: Sequence["ShapeProfile"]) -> "ShapeProfile":
        """The key-wise sum of snapshots of one (module, platform) taken
        at one anchor, in order — a fleet's one profile."""
        merged = ShapeProfile(profiles[0].source_signature, profiles[0].platform_name)
        for profile in profiles:
            for key, n in profile.hits.items():
                merged.hits[key] = merged.hits.get(key, 0) + n
            for key, score in profile.scores.items():
                merged.scores[key] = merged.scores.get(key, 0.0) + score
        return merged

    def save(self) -> bytes:
        return codec.dumps(
            (self.source_signature, self.platform_name, dict(self.hits), dict(self.scores))
        )

    @staticmethod
    def load(
        payload: bytes, expected_signature: Optional[str] = None
    ) -> "ShapeProfile":
        with codec.decoding("profile blob"):
            signature, platform_name, hits, scores = codec.loads(payload)
        if not isinstance(hits, dict) or not isinstance(scores, dict):
            raise SerializationError("profile blob payload has the wrong shape")
        for key in list(hits) + list(scores):
            if not isinstance(key, tuple) or not all(
                d is None or isinstance(d, int) for d in key
            ):
                raise SerializationError(
                    f"profile blob holds a malformed shape key {key!r}"
                )
        if expected_signature is not None and signature != expected_signature:
            raise SerializationError(
                f"profile was recorded for module {signature[:12]}…, "
                f"expected {expected_signature[:12]}…"
            )
        return ShapeProfile(
            source_signature=signature,
            platform_name=platform_name,
            hits={tuple(k): int(v) for k, v in hits.items()},
            scores={tuple(k): float(v) for k, v in scores.items()},
        )


def key_order(key: ProfileKey) -> Tuple[Tuple[bool, int], ...]:
    """A total-order proxy over exact and partial shape keys: mixed
    None/int tuples are not directly comparable in Python, so map each
    dim to (is-None, value) — bound dims sort before unbound ones,
    numerically. Every deterministic tiebreak over shape keys, here and
    in the specialization manager, goes through this."""
    return tuple((d is None, -1 if d is None else d) for d in key)
