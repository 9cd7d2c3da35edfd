"""The virtual clock.

All latency numbers in this reproduction are *virtual microseconds*
advanced by an analytical cost model — real NumPy compute still runs for
numerical correctness, but wall-clock time never enters a measurement, so
results are deterministic and GPU-free.

The clock models the host-interaction execution of GPU-class devices: the
host enqueues kernels asynchronously (cheap) while each device retires
them in order; reading a device value from the host synchronizes. This is
what makes Table 4's "others" overhead almost disappear on the GPU — the
bytecode latency overlaps with device execution (§6.3).

A device is modeled as N independent in-order *streams* (CUDA-stream
style, following Kwon et al.'s *Nimble: Lightweight and Parallel GPU Task
Scheduling*): each ``(device, stream)`` pair keeps its own ready frontier,
kernels launched onto different streams overlap, and cross-stream ordering
is expressed with recorded events (``record_event`` — the modeled
``cudaEventRecord``) that another stream waits on (``wait_event`` —
``cudaStreamWaitEvent``). Everything launched on stream 0 with no events
reproduces the single-lane model exactly, number for number.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.tensor.device import Device


class VirtualClock:
    def __init__(self) -> None:
        self.host_us: float = 0.0
        # Per-(device, stream) retire frontier: when the work enqueued so
        # far on that stream will have drained.
        self.stream_ready_us: Dict[Tuple[Device, int], float] = {}

    # -- host-side time -------------------------------------------------------
    def host_advance(self, us: float) -> None:
        self.host_us += us

    def advance_to(self, us: float) -> None:
        """Fast-forward host time to a global timestamp (no-op if already
        past it). Serving workers use this to align their local clock with
        the server's event timeline before dispatching a batch: the idle gap
        between a worker's last finish and the next batch's start is wall
        time, not work."""
        if us > self.host_us:
            self.host_us = us

    # -- kernels -----------------------------------------------------------------
    def run_sync(self, us: float) -> None:
        """A kernel on the host device: fully synchronous."""
        self.host_us += us

    def launch_async(
        self,
        device: Device,
        duration_us: float,
        enqueue_us: float,
        stream: int = 0,
    ) -> None:
        """Enqueue a kernel on one stream of an accelerator: the host pays
        only the enqueue cost; the stream retires it after its own queue
        drains (a kernel can never start before the host enqueued it)."""
        self.host_us += enqueue_us
        key = (device, stream)
        ready = self.stream_ready_us.get(key, 0.0)
        start = max(ready, self.host_us)
        self.stream_ready_us[key] = start + duration_us

    # -- cross-stream events ------------------------------------------------------
    def record_event(
        self, device: Device, stream: int, host_cost_us: float = 0.0
    ) -> float:
        """Record an event on a stream (modeled ``cudaEventRecord``): the
        host pays the record cost; the returned timestamp is when every
        kernel enqueued on the stream so far will have retired (an event
        on an idle stream completes at record time)."""
        self.host_us += host_cost_us
        return max(self.stream_ready_us.get((device, stream), 0.0), self.host_us)

    def wait_event(
        self,
        device: Device,
        stream: int,
        event_us: float,
        host_cost_us: float = 0.0,
        sync_us: float = 0.0,
    ) -> float:
        """Make a stream wait for a recorded event (modeled
        ``cudaStreamWaitEvent``): the host pays the enqueue cost; the
        stream's frontier is pushed past the event. ``sync_us`` is the
        device-side propagation charge, paid only when the event actually
        stalls the stream — waiting on an already-complete event is free
        on the device, like the real API. Returns the modeled stall
        (frontier delta) so profilers can account per-stream idle time."""
        self.host_us += host_cost_us
        key = (device, stream)
        ready = self.stream_ready_us.get(key, 0.0)
        if event_us <= ready:
            return 0.0
        self.stream_ready_us[key] = event_us + sync_us
        return event_us + sync_us - ready

    # -- synchronisation ----------------------------------------------------------
    def device_ready(self, device: Device) -> float:
        """The device-wide frontier: when ALL its streams will be idle."""
        frontier = 0.0
        for (dev, _stream), ready in self.stream_ready_us.items():
            # Identity first: a dataclass's == is a Python-level call.
            if (dev is device or dev == device) and ready > frontier:
                frontier = ready
        return frontier

    def sync(self, device: Device) -> None:
        """Host waits for every stream of the device to drain (e.g. before
        reading a device-resident value)."""
        self.host_us = max(self.host_us, self.device_ready(device))

    def sync_all(self) -> None:
        pending = max(self.stream_ready_us.values(), default=0.0)
        self.host_us = max(self.host_us, pending)

    # -- reading ------------------------------------------------------------------
    @property
    def elapsed_us(self) -> float:
        """Total elapsed latency (host joined with all device streams)."""
        pending = max(self.stream_ready_us.values(), default=0.0)
        return max(self.host_us, pending)

    def reset(self) -> None:
        self.host_us = 0.0
        self.stream_ready_us.clear()
