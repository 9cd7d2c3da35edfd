"""Execution context: platform + clock + allocator bundle.

Every executor in this reproduction — the Nimble VM, the launch tape it
replays for Table 4's static baseline, and all baseline frameworks — runs
against an ExecutionContext so that latency accounting and allocation
behavior are directly comparable.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.platforms import Platform, intel_cpu
from repro.runtime.allocator import PoolingAllocator
from repro.runtime.clock import VirtualClock

# Under lite numerics, a compute kernel (or a baseline's operator) above
# this many FLOPs skips its NumPy work.
LITE_SKIP_FLOPS = 1e4


class ExecutionContext:
    """``numerics`` selects execution fidelity:

    * ``"full"`` — every kernel computes real values (tests assert numerical
      equality across executors);
    * ``"lite"`` — data-independent kernels above ``LITE_SKIP_FLOPS`` skip
      their NumPy compute (buffers keep their contents); shapes, control
      flow, scalar kernels, shape functions, allocation and all latency
      modeling stay exact. Benchmarks use this to run paper-sized models
      (BERT-base) quickly — virtual latency is identical in both modes.
    """

    def __init__(
        self,
        platform: Optional[Platform] = None,
        numerics: str = "full",
    ) -> None:
        if numerics not in ("full", "lite"):
            raise ValueError(f"numerics must be 'full' or 'lite', got {numerics!r}")
        self.platform = platform or intel_cpu()
        self.numerics = numerics
        self.clock = VirtualClock()
        self.allocator = PoolingAllocator(self.platform, self.clock)

    def reset_clock(self) -> None:
        self.clock.reset()

    @property
    def elapsed_us(self) -> float:
        return self.clock.elapsed_us
