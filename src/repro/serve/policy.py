"""The shape policy: which shapes are hot, and which hold a cache slot.

One :class:`ShapePolicy` lives for one simulation. It takes a shape key
and a virtual time and returns decisions; it compiles nothing and knows
no module, store or VM, so it can be driven with bare keys. The
:class:`~repro.serve.specialization.SpecializationManager` builds a
fresh one at every ``reset()`` and acts on what it decides.

**Heat.** Every arrival counts one *hit* on its exact key; the count is
what ``specialize_threshold`` reads. Every hit also bumps a *decayed
score* — halved every ``specialize_decay_half_life_us`` of virtual time —
which eviction reads.

**The cache.** At most ``specialize_max_executables`` shapes are
*resident*. When a shape goes hot past the cap, the coldest resident
entry — colder than the challenger by the ``EVICTION_MARGIN``
thrash-protection factor, and never one with a compile in flight —
loses its slot.

**Partial families.** With ``specialize_partial``, when the traffic
agrees on some dims (e.g. hidden size) but spreads a long tail of values
over the others (e.g. sequence length), one key that binds only the
stable dims (``None`` marks the rest) covers the whole family, once it
spans ``PARTIAL_MIN_SHAPES`` distinct exact shapes. Partial keys flow
through the same heat and residency machinery as exact ones.

**The per-shape lifecycle** (states are per simulation):

- *cold* — hits accumulate, decayed score tracks heat.
- *armed* — hits reached the threshold but no cache slot yet (cache
  full, nothing evictable). Stays armed; every later hit retries, so a
  freed slot is always picked up and no hot shape starves.
- *triggered* — slot acquired; the manager queues one compile (or store
  restore) per variant on the compile pool. Requests keep routing
  dynamic.
- *resident+ready* — a variant's lane finished (``ready_at``): batches
  of exactly this shape route to it.
- *evicted* — lost the slot to a hotter challenger: ready times drop
  and the shape **re-arms** (its hit count still sits past the
  threshold), so its next observation retries the trigger;
  re-acquiring a slot recharges the compile (or, with a store, the
  cheaper restore — the binary survived on disk).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.serve.config import ServeConfig
from repro.serve.profile import key_order

# A challenger takes a resident shape's cache slot only when its decayed
# score is more than this many times the victim's: comparable heat keeps
# the incumbent, so a mix of continuously-hot shapes does not thrash the
# cache and throw away compile investment.
EVICTION_MARGIN = 2.0
# Distinct exact shapes a family must span before a guarded partial
# variant pays: below this, exact specialization already covers it.
PARTIAL_MIN_SHAPES = 3

ExactKey = Tuple[int, ...]
# A *partial* key binds only the stable dims: None marks positions left
# dynamic. One partial variant covers every exact key that agrees on the
# bound positions (the entry guard checks them at call time).
PartialKey = Tuple[Optional[int], ...]


def matches(key: ExactKey, pkey: PartialKey) -> bool:
    """Does exact key *key* fall in partial key *pkey*'s family — same
    rank, agreeing on every bound (non-None) position?"""
    return len(key) == len(pkey) and all(
        p is None or p == v for p, v in zip(pkey, key)
    )


class ShapePolicy:
    """Hit counts, decayed scores, residency, eviction choice and
    partial-family synthesis for one simulation, steered by the
    ``specialize_*`` knobs of *config*."""

    def __init__(self, config: ServeConfig) -> None:
        self.threshold = config.specialize_threshold
        self.capacity = config.specialize_max_executables
        self.half_life_us = config.specialize_decay_half_life_us
        self.partial = config.specialize_partial
        self.hits: Counter = Counter()
        self._score: Dict[PartialKey, float] = {}
        self._score_at: Dict[PartialKey, float] = {}
        self.last_hit_us: Dict[PartialKey, float] = {}
        # The shapes holding a cache slot: in from the trigger (compile
        # pending, in flight or ready), out at eviction.
        self.resident: Set[PartialKey] = set()
        # Partial keys that have held a slot, and the keys pre-armed
        # from the shape profile at time 0.
        self.partials: Set[PartialKey] = set()
        self.prearmed: Set[PartialKey] = set()
        # Family detection: per-position value sets and the exact keys
        # seen so far.
        self._seen_values: List[Set[int]] = []
        self._exact_seen: Set[ExactKey] = set()

    # ------------------------------------------------------------------ heat
    def score(self, key: PartialKey, now_us: float) -> float:
        """The decayed hit score driving eviction, as of *now_us*.

        Decay is anchored at the time of the last *bump*, not the last
        hit, so an observe/score/re-observe sequence within one
        microsecond compounds exactly +1 per hit: each bump folds the
        decayed-to-now value and re-anchors, never re-adding the raw
        count. The age is clamped at 0 so a reading taken at a timestamp
        at-or-before the anchor (same-microsecond queries, or the t=0
        eviction scan against predictively seeded scores) can never
        *inflate* the score via a negative exponent."""
        raw = self._score.get(key)
        if raw is None:
            return 0.0
        age = max(0.0, now_us - self._score_at[key])
        return raw * 0.5 ** (age / self.half_life_us)

    def scores(self, anchor_us: float) -> Dict[PartialKey, float]:
        """Every scored key's decayed score, brought to *anchor_us*."""
        return {k: self.score(k, anchor_us) for k in self._score}

    def last_bump_us(self) -> float:
        return max(self._score_at.values(), default=0.0)

    def _seed(self, key: PartialKey, score: float, now_us: float) -> None:
        self._score[key] = score
        self._score_at[key] = now_us

    def _hit(self, key: PartialKey, now_us: float) -> None:
        """One hit: the count, the score (folded to now, then +1, and
        re-anchored), and the recency tiebreak."""
        self.hits[key] += 1
        self._seed(key, self.score(key, now_us) + 1.0, now_us)
        self.last_hit_us[key] = now_us

    def armed(self, key: PartialKey) -> bool:
        """Should an arrival of *key* try the trigger? The check is
        ``>= threshold``, not an exact hit: a shape whose trigger was
        blocked by a full cache (or that lost its slot to eviction)
        retries on every later hit."""
        return key not in self.resident and self.hits[key] >= self.threshold

    # ------------------------------------------------------------------ flow
    def observe(
        self, key: ExactKey, now_us: float
    ) -> Tuple[List[PartialKey], Optional[PartialKey]]:
        """One arrival of exact key *key* at *now_us*. Returns the keys
        it hit — *key* and every partial family it falls in (a hit on a
        member is a hit on the variant that would serve it) — and a
        partial key newly worth a trigger, or None.

        A position is *stable* when every exact key seen so far agrees
        on its value, and the family is worth a variant when it spans at
        least ``PARTIAL_MIN_SHAPES`` distinct exact shapes with
        ``specialize_threshold`` total hits. The candidate's score is
        seeded with its family's pooled decayed score: it arrives
        exactly as hot as the traffic it will absorb, so it neither
        insta-evicts a genuinely hot exact entry nor starts cold."""
        self._hit(key, now_us)
        hit: List[PartialKey] = [key]
        if not self.partial or None in key:
            return hit, None
        self._exact_seen.add(key)
        if not self._seen_values:
            self._seen_values = [set() for _ in key]
        for i, v in enumerate(key):
            self._seen_values[i].add(v)
        for pkey in self.partials:
            if matches(key, pkey):
                self._hit(pkey, now_us)
                hit.append(pkey)
        stable = [i for i, vals in enumerate(self._seen_values) if len(vals) == 1]
        if not stable or len(stable) == len(key):
            # Nothing stable to bind, or no tail to cover: exact
            # specialization already serves this traffic.
            return hit, None
        pkey: PartialKey = tuple(
            v if i in stable else None for i, v in enumerate(key)
        )
        if pkey in self.resident:
            return hit, None
        family = [k for k in self._exact_seen if matches(k, pkey)]
        if len(family) < PARTIAL_MIN_SHAPES:
            return hit, None
        if sum(self.hits[k] for k in family) < self.threshold:
            return hit, None
        self._seed(pkey, sum(self.score(k, now_us) for k in sorted(family)), now_us)
        return hit, pkey

    def prearm(self, key: PartialKey, score: float) -> None:
        """Seed a profile key's historical heat at time 0, before its
        trigger, so it carries into eviction decisions. Hit counts are
        not seeded: the threshold stays honest."""
        self._seed(key, score, 0.0)
        self.prearmed.add(key)

    # ------------------------------------------------------------- residency
    def admit(
        self, key: PartialKey, now_us: float, in_flight: Callable[[PartialKey], bool]
    ) -> Tuple[bool, Optional[PartialKey]]:
        """Give *key* a cache slot at *now_us*: ``(admitted, victim)``.
        Under the cap the slot is free; at the cap the coldest resident
        not *in_flight* is evicted if *key* is hotter than
        ``EVICTION_MARGIN`` times its score, else *key* stays armed."""
        victim = None
        if len(self.resident) >= self.capacity:
            victim = self._victim(key, now_us, in_flight)
            if victim is None:
                return False, None
            self.resident.discard(victim)
        self.resident.add(key)
        if None in key:
            self.partials.add(key)
        # Seed the recency tiebreak at trigger time: a pre-armed entry
        # (or a synthesized partial) may acquire its slot without ever
        # having been observed.
        self.last_hit_us.setdefault(key, now_us)
        return True, victim

    def _victim(
        self, challenger: PartialKey, now_us: float,
        in_flight: Callable[[PartialKey], bool],
    ) -> Optional[PartialKey]:
        """The resident shape that would lose its slot to *challenger*:
        minimal decayed score, ties broken by least-recently-hit then
        key order, never one *in_flight*; None when nothing is evictable
        or the challenger is not past the margin."""
        candidates = [k for k in self.resident if not in_flight(k)]
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda k: (self.score(k, now_us), self.last_hit_us[k], key_order(k)),
        )
        if self.score(challenger, now_us) <= EVICTION_MARGIN * self.score(
            victim, now_us
        ):
            return None
        return victim
