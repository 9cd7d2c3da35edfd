"""Pooling allocator with allocation accounting.

Dynamic models allocate at runtime (shapes are inputs-dependent), so
allocation cost shows up on the latency path — §6.3 measures 2.0 ms of it
for BERT on Intel, reduced to 0.5 ms by planning. The VM frees buffers at
``memory.kill`` and this allocator recycles them: a size-class pool hit is
an order of magnitude cheaper than a fresh allocation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware import calibration
from repro.hardware.platforms import Platform
from repro.runtime.clock import VirtualClock
from repro.tensor.device import Device
from repro.tensor.storage import Storage


@dataclass
class AllocStats:
    fresh_allocs: int = 0
    pooled_allocs: int = 0
    frees: int = 0
    bytes_allocated: int = 0
    peak_bytes: int = 0
    alloc_time_us: float = 0.0

    @property
    def total_allocs(self) -> int:
        return self.fresh_allocs + self.pooled_allocs

    def reset(self) -> None:
        self.fresh_allocs = 0
        self.pooled_allocs = 0
        self.frees = 0
        self.bytes_allocated = 0
        self.peak_bytes = 0
        self.alloc_time_us = 0.0


def _size_class(nbytes: int) -> int:
    """Round up to the next power of two (min 64 B) for pool bucketing."""
    return max(64, 1 << (nbytes - 1).bit_length())


class FreeList(list):
    """The freed storage of one size class on one device, last freed last."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size


class _SizeClasses(dict):
    """Size class -> its `FreeList`, made on first use."""

    def __missing__(self, size: int) -> FreeList:
        found = self[size] = FreeList(size)
        return found


class PoolingAllocator:
    def __init__(self, platform: Platform, clock: Optional[VirtualClock] = None) -> None:
        self.platform = platform
        self.clock = clock
        self.stats = AllocStats()
        self._live_bytes = 0
        self._pooled_us = calibration.ALLOC_POOLED_US[platform.name]
        self._fresh_us = calibration.ALLOC_FRESH_US[platform.name]
        # Device -> size class -> free list. A list, once made, lives as
        # long as the allocator: callers may hold on to one (`free_list`).
        self._pools: Dict[Device, Dict[int, FreeList]] = defaultdict(_SizeClasses)

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not yet freed. Zero between
        inferences means every buffer drained back to the pool — the VM
        leak-regression tests assert exactly this."""
        return self._live_bytes

    # -- allocation -----------------------------------------------------------
    def free_list(self, nbytes: int, device: Device) -> FreeList:
        """The free list an allocation of *nbytes* on *device* draws
        from. It is never replaced (`release_all` empties it in place),
        so a caller that allocates one size again and again looks it up
        once and passes it to `alloc`."""
        return self._pools[device][_size_class(max(1, int(nbytes)))]

    def alloc(self, nbytes: int, alignment: int, device: Device,
              pool: Optional[FreeList] = None) -> Storage:
        """A storage of *nbytes*' size class on *device*: a freed one of
        that class if there is one, else a fresh one. *pool* is
        ``free_list(nbytes, device)``, if the caller holds it."""
        if pool is None:
            pool = self.free_list(nbytes, device)
        size = pool.size
        stats = self.stats
        if pool:
            storage = pool.pop()
            storage.freed = False
            stats.pooled_allocs += 1
            us = self._pooled_us
        else:
            storage = Storage(size, alignment, device)
            stats.fresh_allocs += 1
            stats.bytes_allocated += size
            us = self._fresh_us
        stats.alloc_time_us += us
        if self.clock is not None:
            self.clock.host_us += us  # clock.host_advance, without the call
        live = self._live_bytes = self._live_bytes + size
        if live > stats.peak_bytes:
            stats.peak_bytes = live
        return storage

    def free(self, storage: Storage) -> None:
        if storage.freed:
            return
        storage.freed = True  # Storage.free, without the call
        self.stats.frees += 1
        self._live_bytes -= storage.size
        self._pools[storage.device][storage.size].append(storage)

    def release_all(self) -> None:
        """End-of-inference: drop *pooled* (already freed) storage.

        Live bytes are deliberately left untouched — zeroing them here
        would forgive leaked buffers and defeat the leak-regression
        invariant that ``live_bytes == 0`` between inferences (which
        ``Worker.reset`` and the VM leak tests rely on). A leak must stay
        visible; callers that expect a drained allocator should check
        :attr:`live_bytes` (or call :meth:`assert_drained`).

        Each free list is emptied in place, so one a caller holds
        (`free_list`) keeps serving it.
        """
        for size_classes in self._pools.values():
            for pool in size_classes.values():
                pool.clear()

    def assert_drained(self) -> None:
        """Raise if any buffer is still live (a leak escaped the VM's
        refcounting); used at worker reset so leaks surface at the
        serving layer instead of silently skewing the next replay."""
        if self._live_bytes != 0:
            raise MemoryError(
                f"allocator still holds {self._live_bytes} live bytes at "
                f"release; a buffer leaked past the VM's refcounting"
            )
