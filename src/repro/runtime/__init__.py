"""Runtime substrate: virtual clock, tracking allocator, execution context."""

from repro.runtime.clock import VirtualClock
from repro.runtime.allocator import AllocStats, PoolingAllocator
from repro.runtime.context import ExecutionContext

__all__ = ["VirtualClock", "AllocStats", "PoolingAllocator", "ExecutionContext"]
