"""Kernel schedules and the template search space (§4.5).

A :class:`Schedule` is the tunable loop structure of a generated kernel:
the tiling factor of the (possibly symbolic) row dimension, vector width,
unroll factor and parallelization. The *quality model* scores how well a
schedule fits a concrete shape — divisibility of the tiled/vectorized
dimensions is what makes configurations transfer (or not) across shapes,
which is the structure :func:`best_schedule` exploits for a symbolic kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.hardware import calibration
from repro.hardware.specs import DeviceSpec


@dataclass(frozen=True, order=True)
class Schedule:
    tile: int = 8        # tiling of the dynamic (rows) dimension
    vectorize: int = 4   # SIMD width on the columns dimension
    unroll: int = 2      # inner-loop unroll factor
    parallel: bool = True

    def __str__(self) -> str:
        return f"S(tile={self.tile},vec={self.vectorize},unroll={self.unroll},par={int(self.parallel)})"

    # -- quality model ---------------------------------------------------------
    def quality(self, m: int, n: int, k: int) -> float:
        """Relative efficiency (0, 1] of this schedule on a (m×k)·(k×n)
        shaped workload. Deterministic, no randomness: the search space has
        real structure for the search to find."""
        q = 1.0
        # Vector width must divide the columns; penalty scales with waste.
        if n % self.vectorize != 0:
            q *= 0.78
        elif self.vectorize >= 8:
            q *= 1.0  # wide vectors are free when they fit
        else:
            q *= 0.9 + 0.025 * self.vectorize

        # Row-tile remainder executes scalar epilogue code.
        if m >= 1:
            remainder = m % self.tile
            frac = remainder / max(m, self.tile)
            q *= 1.0 - 0.35 * frac
            if self.tile > m:
                q *= 0.8  # tile larger than the extent wastes lanes

        # Vector-width × unroll footprint has a sweet spot that scales with
        # the row length: long rows (n ≥ 2048, e.g. BERT's 768→3072 FFN)
        # amortize wide unrolled bodies; moderate rows leave them starved.
        # This is why differently-shaped dense layers tune to different
        # schedules — and hence degrade differently without residue
        # dispatch (Figure 3).
        footprint = max(1, self.vectorize * self.unroll)
        ideal = 16.0 if n >= 2048 else 8.0
        q *= 1.0 - 0.05 * abs(math.log2(footprint) - math.log2(ideal))

        # Register blocking vs. reduction depth: very deep K with huge
        # tiles thrashes registers.
        if k > 0 and self.tile * self.vectorize > 0:
            pressure = self.tile * self.vectorize / 64.0
            if pressure > 4.0:
                q *= 0.85

        if not self.parallel:
            q *= 0.55 if m * n >= 1 << 14 else 0.95
        return max(0.05, min(q, 1.0))

    def boundary_penalty_coeff(self, spec_platform_name: str) -> float:
        """The §4.5 boundary-check slowdown coefficient of this schedule.

        Wider vector/unroll footprints lose more when the loop bounds are
        not provably divisible — the generated epilogue is scalar. This is
        what makes the three BERT dense layers in Figure 3 degrade by
        different amounts (their tuned schedules differ).
        """
        base = calibration.BOUNDARY_CHECK_PENALTY[spec_platform_name]
        return base * (self.vectorize * self.unroll) / 8.0


# The rows a symbolic kernel is tuned at: a "large enough" static
# stand-in for its symbolic dimension (§4.5).
TUNE_AT = 64


def default_schedule() -> Schedule:
    return Schedule()


# The template's full configuration space (240 configs, matching the
# scale of a small AutoTVM template).
_SPACE: Tuple[Schedule, ...] = tuple(
    Schedule(tile, vec, unroll, par)
    for tile in (1, 2, 4, 8, 16, 32)
    for vec in (1, 2, 4, 8, 16)
    for unroll in (1, 2, 4, 8)
    for par in (True, False)
)


def search_space() -> List[Schedule]:
    """The template's full configuration space, a fresh list."""
    return list(_SPACE)


# The candidates of :func:`best_schedule`, in its tie-break order: the
# largest tile first, then the narrowest vector and the smallest unroll.
# Serial configs are left out: ``quality`` scores one as its parallel
# twin times 0.55 or 0.95, so none ever ranks first.
_BY_PREFERENCE: Tuple[Schedule, ...] = tuple(
    sorted((s for s in _SPACE if s.parallel), key=lambda s: (-s.tile, s.vectorize, s.unroll))
)
_AT_DISPATCH_TILE: Tuple[Schedule, ...] = tuple(
    s for s in _BY_PREFERENCE if s.tile == default_schedule().tile
)


def best_schedule(m: int, n: int, k: int, symbolic: bool) -> Schedule:
    """The configuration ``quality`` ranks highest on a (m×k)·(k×n) kernel.

    A static kernel searches the whole space at its shape. Ties go to the
    largest row tile, because the model does not score register reuse;
    then to the narrowest vector and the smallest unroll, which divide
    the most column counts and make the least code.

    A symbolic kernel (*m* its rows at ``TUNE_AT``) keeps the dispatch
    tile of :func:`default_schedule` and its full residue table, and picks
    only vector width and unroll. Neither factor of ``quality`` depends on
    *m*, so the pick is no worse than the default at any row count.
    """
    if symbolic:
        candidates = _AT_DISPATCH_TILE
    elif m >= 1:
        # A tile longer than the rows never ranks first: tile 1 with the
        # same vector and unroll leaves no remainder and wastes no lanes.
        candidates = [s for s in _BY_PREFERENCE if s.tile <= m]
    else:
        candidates = _BY_PREFERENCE
    # ``max`` keeps the first of equals: the preferred one.
    return max(candidates, key=lambda s: s.quality(m, n, k))
