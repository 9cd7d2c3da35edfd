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


class Storage:
    """A contiguous byte buffer on a device.

    Backed by a NumPy ``uint8`` array; tensor views alias into it so that
    coalesced allocations genuinely share memory (tests rely on aliasing to
    verify the planner's non-overlap invariant).
    """

    __slots__ = ("id", "size", "alignment", "device", "buffer", "freed")

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

    def view(self, offset: int, nbytes: int, np_dtype: np.dtype, shape: tuple) -> np.ndarray:
        """Return an ndarray view of ``[offset, offset + nbytes)`` with *shape*."""
        if self.freed:
            raise VMError(f"use-after-free of storage #{self.id}")
        if offset < 0 or offset + nbytes > self.size:
            raise VMError(
                f"tensor [{offset}, {offset + nbytes}) does not fit in "
                f"storage #{self.id} of {self.size} bytes"
            )
        flat = self.buffer[offset : offset + nbytes].view(np_dtype)
        return flat.reshape(shape)

    def free(self) -> None:
        self.freed = True

    def __repr__(self) -> str:
        return f"Storage(#{self.id}, {self.size}B, align={self.alignment}, {self.device})"
