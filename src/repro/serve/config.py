"""Serving knobs, validated once at construction.

One :class:`ServeConfig` is handed, as is, to the server, its workers and
its specialization manager; docs/serving.md has the knob tables.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional


@dataclass(frozen=True)
class ServeConfig:
    max_batch_size: int = 8
    max_delay_us: float = 2000.0
    num_workers: int = 2
    bucket_granularity: int = 8
    numerics: str = "lite"
    # Tiered specialization: compile a static executable for a shape once
    # `specialize_threshold` requests with exactly that shape have been
    # observed. Compiles run on a pool of `specialize_compile_lanes`
    # virtual-clock lanes (pending compiles queue by observed traffic);
    # at most `specialize_max_executables` static builds stay resident,
    # the coldest (hit score decayed on the
    # `specialize_decay_half_life_us` half-life) yielding its slot to a
    # clearly hotter challenger. `specialize_compile_us` overrides the
    # modeled cost of compiling one variant from scratch: every variant
    # is charged the shape-binding suffix share of it, and the first
    # fresh compile of a simulation the shared prefix share on top.
    specialize: bool = False
    specialize_threshold: int = 8
    specialize_max_executables: int = 4
    specialize_compile_us: Optional[float] = None
    specialize_compile_lanes: int = 1
    specialize_decay_half_life_us: float = 100_000.0
    # Batch-granularity specialization: every hot shape additionally gets
    # an executable compiled at (max_batch_size × exact shape), and a
    # *full* exact bucket runs as one VM call on it (one batched GEMM per
    # member-wise GEMM site). Ragged tails fall back member-wise. No
    # bucket outgrows max_batch_size, so none outgrows that kernel.
    specialize_batch: bool = False
    # Persistent artifact store: a directory where specialized
    # executables, the staged prefix, the shape profile and the kernel
    # cache survive the process. At startup the kernel cache warm-loads
    # from it and every hot trigger checks it before compiling — a hit
    # installs the stored artifact at the modeled deserialize cost (the
    # RESTORE_*_US calibration). None keeps everything in memory.
    artifact_dir: Optional[str] = None
    # Multi-stream scheduling: compile every executable (dynamic and
    # specialized) with this many device streams (repro.vm.schedule).
    # Clamped to the platform at compile time — CPU platforms always run
    # single-stream — and workers rotate the static schedule across
    # batch members so independent members overlap on different streams.
    device_streams: int = 1
    # Profile-guided predictive specialization: pre-arm the previous
    # process's hottest `specialize_max_executables` shapes (from the
    # .nmblprof profile every simulation end writes to the store) at
    # virtual time 0, so a restarted server compiles/store-restores its
    # hot set before the first request lands. Requires artifact_dir; a
    # missing/rejected profile serves cold, counted.
    specialize_predictive: bool = False
    # Guarded partial specialization: when traffic agrees on some dims
    # but spreads a long tail over the others, synthesize one variant
    # binding only the stable dims (the rest stay Any) once it would
    # cover at least PARTIAL_MIN_SHAPES (3) distinct exact shapes. The
    # variant's entry guard checks the bound dims per batch member;
    # mismatches transparently deopt to the dynamic tier
    # (ServeReport.guard_deopts — counted, never wrong).
    specialize_partial: bool = False
    # Not a knob — staged charging is the only compile model. The name is
    # still accepted, True only, because the repo benchmark passes it and
    # asserts that no option it passed was dropped (bench/test_smoke.py).
    specialize_staged: InitVar[bool] = True

    def __post_init__(self, specialize_staged: bool) -> None:
        if not specialize_staged:
            raise ValueError(
                "specialize_staged=False: the monolithic charge model is "
                "gone, every variant compiles prefix + suffix"
            )
        for name, least in (
            ("num_workers", 1),
            ("specialize_threshold", 1),
            ("specialize_compile_lanes", 1),
        ):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be >= {least}, got {getattr(self, name)}"
                )
        if self.specialize_decay_half_life_us <= 0:
            raise ValueError(
                "specialize_decay_half_life_us must be > 0, "
                f"got {self.specialize_decay_half_life_us}"
            )

    @property
    def batch_cap(self) -> int:
        """The compiled batch size of the batched tier (1 = tier off)."""
        if not (self.specialize and self.specialize_batch):
            return 1
        return self.max_batch_size

    @staticmethod
    def serial(**overrides) -> "ServeConfig":
        """One-request-at-a-time dispatch: the unbatched baseline. Other
        knobs (numerics, specialization, ...) pass through so a serial baseline runs
        under the same conditions as the batched server it is compared to.
        Overrides win — including for the serial defaults themselves."""
        params = dict(max_batch_size=1, max_delay_us=0.0, num_workers=1)
        params.update(overrides)
        return ServeConfig(**params)
