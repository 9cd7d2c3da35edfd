"""Devices.

A :class:`Device` identifies where a tensor lives and where a kernel runs.
Because this reproduction models hardware with a virtual clock (no real
GPU), devices are logical: the hardware model (``repro.hardware``) attaches
performance characteristics to each device kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DeviceKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Device:
    """A (kind, index) pair, e.g. ``cpu(0)`` or ``gpu(0)``."""

    kind: DeviceKind
    index: int = 0

    def __hash__(self) -> int:
        # Devices key the clock's frontiers and the allocator's pools on
        # every launch and allocation. The generated hash builds a tuple
        # and calls the Python-level ``Enum.__hash__``; this is one call,
        # and with two kinds no two distinct devices collide.
        return 2 * self.index + (self.kind is DeviceKind.GPU)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.index})"

    @property
    def is_cpu(self) -> bool:
        return self.kind is DeviceKind.CPU

    @property
    def is_gpu(self) -> bool:
        return self.kind is DeviceKind.GPU


def cpu(index: int = 0) -> Device:
    """The host CPU device (shape functions always run here, §4.4)."""
    return Device(DeviceKind.CPU, index)


def gpu(index: int = 0) -> Device:
    """An accelerator device with a host-interaction execution model."""
    return Device(DeviceKind.GPU, index)
