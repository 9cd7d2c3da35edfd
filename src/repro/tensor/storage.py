"""Storage blocks.

``AllocStorage`` in the VM (and ``memory.alloc_storage`` in the IR dialect)
allocates an untyped, aligned region of bytes on a device; tensors are then
carved out of storage at an offset by ``AllocTensor``. Making storage a
first-class runtime object is what lets the memory planner multiplex many
tensors onto one allocation (§4.3).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import VMError
from repro.tensor.device import Device

_storage_ids = itertools.count()

# Views a storage keeps. A pooled storage serves every request of its
# size class, so it is cleared when full: a server that keeps meeting new
# shapes stays bounded and simply slices again.
VIEW_CACHE_CAP = 8


class Storage:
    """A contiguous byte buffer on a device.

    Backed by a NumPy ``uint8`` array; tensor views alias into it so that
    coalesced allocations genuinely share memory (tests rely on aliasing to
    verify the planner's non-overlap invariant). The view made for each
    layout is kept (at most ``VIEW_CACHE_CAP`` of them), so a pooled
    storage that serves one layout again hands back the same array.
    """

    __slots__ = ("id", "size", "alignment", "device", "buffer", "freed", "views")

    def __init__(self, size: int, alignment: int, device: Device) -> None:
        if size < 0:
            raise VMError(f"storage size must be non-negative, got {size}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise VMError(f"alignment must be a positive power of two, got {alignment}")
        self.id = next(_storage_ids)
        self.size = int(size)
        self.alignment = int(alignment)
        self.device = device
        self.buffer = np.zeros(self.size, dtype=np.uint8)
        self.freed = False
        self.views: dict = {}

    def view(self, offset: int, nbytes: int, np_dtype: np.dtype, shape: tuple) -> np.ndarray:
        """Return an ndarray view of ``[offset, offset + nbytes)`` with *shape*."""
        if self.freed:
            raise VMError(f"use-after-free of storage #{self.id}")
        key = (offset, nbytes, np_dtype, shape)
        view = self.views.get(key)
        if view is None:
            if nbytes < 0 or min(shape, default=0) < 0:
                raise VMError(f"tensor of shape {shape} ({nbytes} bytes) has a negative extent")
            if offset < 0 or offset + nbytes > self.size:
                raise VMError(
                    f"tensor [{offset}, {offset + nbytes}) does not fit in "
                    f"storage #{self.id} of {self.size} bytes"
                )
            if len(self.views) >= VIEW_CACHE_CAP:
                self.views.clear()
            flat = self.buffer[offset : offset + nbytes].view(np_dtype)
            view = self.views[key] = flat.reshape(shape)
        return view

    def free(self) -> None:
        self.freed = True

    def __repr__(self) -> str:
        return f"Storage(#{self.id}, {self.size}B, align={self.alignment}, {self.device})"
