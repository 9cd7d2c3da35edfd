"""Template-based auto-tuning, extended to symbolic shapes (§4.5).

:class:`AutoTuner` searches the schedule template space for one kernel at
one static shape (random sampling + greedy mutation, seeded — standing in
for AutoTVM's XGBoost search; the measurement is the analytical cost
model, so tuning is deterministic and fast).

:class:`SymbolicTuner` is the paper's three-step workflow for kernels with
a symbolic dimension:

1. replace the symbolic dimension with a large value (64) and tune there;
2. take the top-k (k=100) configurations and evaluate each on a selection
   of other shapes (powers of two up to 256);
3. pick the configuration with the best *average* performance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.cost_model import tuned_cost_us
from repro.codegen.kernels import canonical_mnk, instantiate_shapes
from repro.codegen.schedule import TUNE_AT, Schedule, search_space
from repro.codegen.workload import compute_workload
from repro.errors import TuningError
from repro.hardware.platforms import Platform
from repro.hardware.specs import DeviceSpec
from repro.ir.expr import Function

Shape = Tuple[int, ...]

TOP_K = 100  # the paper found k=100 covers most best-configs across shapes
CROSS_SHAPES = tuple(2**i for i in range(0, 9))  # 1..256, powers of two


@dataclass(order=True)
class TuningRecord:
    cost_us: float
    schedule: Schedule = field(compare=False)


class AutoTuner:
    """Search the template space for one kernel at one static shape."""

    def __init__(
        self,
        prim: Function,
        platform: Platform,
        spec: DeviceSpec,
        seed: int = 0,
        symbolic: bool = True,
    ) -> None:
        self.prim = prim
        self.platform = platform
        self.spec = spec
        self.rng = random.Random(seed)
        self.symbolic = symbolic
        self.trials = 0

    def measure(self, schedule: Schedule, m: int) -> float:
        """One simulated measurement: full-dispatch cost at shape *m*."""
        self.trials += 1
        in_shapes = instantiate_shapes(self.prim, m)
        workload = compute_workload(self.prim, in_shapes)
        mnk = canonical_mnk(self.prim, in_shapes, workload.out_shapes[0])
        return tuned_cost_us(
            self.spec,
            self.platform.name,
            workload,
            schedule,
            mnk,
            symbolic=self.symbolic,
            residues_per_kernel=1,
        )

    def tune(self, m: int, n_trials: int = 128) -> List[TuningRecord]:
        """Random sampling + greedy neighborhood mutation; returns records
        sorted best-first, one record per distinct schedule.

        Mutation can rediscover an already-recorded schedule; without
        deduplication those duplicates occupy slots of the top-k that
        :class:`SymbolicTuner` cross-evaluates on every shape, wasting its
        evaluation budget on repeats.
        """
        space = search_space()
        if not space:
            raise TuningError("empty schedule search space")
        n_trials = min(n_trials, len(space))
        sampled = self.rng.sample(space, n_trials)
        records = [TuningRecord(self.measure(s, m), s) for s in sampled]
        records.sort()
        # Greedy mutation around the incumbent (simulated annealing lite).
        incumbent = records[0]
        for _ in range(16):
            neighbor = self._mutate(incumbent.schedule)
            cost = self.measure(neighbor, m)
            if cost < incumbent.cost_us:
                incumbent = TuningRecord(cost, neighbor)
                records.insert(0, incumbent)
        records.sort()
        # The measurement is deterministic, so a duplicate schedule always
        # carries the same cost: keeping the first (best-sorted) suffices.
        seen = set()
        unique: List[TuningRecord] = []
        for record in records:
            if record.schedule in seen:
                continue
            seen.add(record.schedule)
            unique.append(record)
        return unique

    def _mutate(self, s: Schedule) -> Schedule:
        choice = self.rng.randrange(4)
        bump = self.rng.choice((0.5, 2))
        clamp = lambda v, lo, hi: max(lo, min(hi, int(v)))
        if choice == 0:
            return Schedule(clamp(s.tile * bump, 1, 32), s.vectorize, s.unroll, s.parallel)
        if choice == 1:
            return Schedule(s.tile, clamp(s.vectorize * bump, 1, 16), s.unroll, s.parallel)
        if choice == 2:
            return Schedule(s.tile, s.vectorize, clamp(s.unroll * bump, 1, 8), s.parallel)
        return Schedule(s.tile, s.vectorize, s.unroll, not s.parallel)


class SymbolicTuner:
    """The §4.5 workflow for symbolic-shape kernels."""

    def __init__(
        self,
        prim: Function,
        platform: Platform,
        spec: DeviceSpec,
        seed: int = 0,
        top_k: int = TOP_K,
        cross_shapes: Sequence[int] = CROSS_SHAPES,
        tune_at: int = TUNE_AT,
    ) -> None:
        self.tuner = AutoTuner(prim, platform, spec, seed=seed, symbolic=True)
        self.top_k = top_k
        self.cross_shapes = tuple(cross_shapes)
        self.tune_at = tune_at
        self.history: Dict[Schedule, float] = {}

    def tune(self, n_trials: int = 128) -> Schedule:
        # Step 1: tune at the large static stand-in shape.
        records = self.tuner.tune(self.tune_at, n_trials=n_trials)
        candidates = records[: self.top_k]
        # Step 2: cross-evaluate the top-k on representative shapes.
        best_schedule: Optional[Schedule] = None
        best_avg = float("inf")
        for record in candidates:
            total = 0.0
            for m in self.cross_shapes:
                total += self.tuner.measure(record.schedule, m)
            avg = total / len(self.cross_shapes)
            self.history[record.schedule] = avg
            # Step 3: best average across shapes wins.
            if avg < best_avg:
                best_avg = avg
                best_schedule = record.schedule
        assert best_schedule is not None
        return best_schedule
