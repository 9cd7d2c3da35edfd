"""VM profiling: the kernel-vs-others breakdown of Table 4.

``kernel_time_us`` accumulates modeled kernel durations (device busy
time); everything else — instruction dispatch, shape functions, memory
allocation, data movement — is "other instructions". On a GPU platform
the host-side "others" overlap with asynchronous kernel execution, so the
end-to-end overhead they contribute is ``elapsed - kernel_busy``, which
§6.3 observes to be negligible there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter

_invocation, _kernel, _stream = itemgetter(0), itemgetter(1), itemgetter(2)
_impl = attrgetter("impl")


@dataclass
class VMProfile:
    runs: int = 0
    # Opcode name -> executions, and the dispatch charge they add up to:
    # both are folded in by the VM's trampoline once per run
    # (`VirtualMachine._count`), from the generated blocks' hit counts
    # and their per-instruction charges, so a run that raises has still
    # counted the instruction it raised in.
    instruction_counts: Counter = field(default_factory=Counter)
    kernel_time_us: float = 0.0
    kernel_invocations: int = 0
    shape_func_time_us: float = 0.0
    shape_func_invocations: int = 0
    host_scalar_time_us: float = 0.0
    alloc_time_us: float = 0.0
    copy_time_us: float = 0.0
    dispatch_time_us: float = 0.0
    impl_counts: Counter = field(default_factory=Counter)
    # Invocations per fused-kernel name ("fused_nn.dense+nn.bias_add+..."):
    # lets callers count GEMM launches per tier — the batched tier's
    # acceptance check is one batched GEMM per member-wise GEMM site.
    kernel_counts: Counter = field(default_factory=Counter)
    # Multi-stream accounting (repro.vm.schedule): device busy time and
    # launches per stream id, plus the sync-primitive traffic. On an
    # unscheduled build everything lands on stream 0 and the sync
    # counters stay 0.
    stream_kernel_us: Counter = field(default_factory=Counter)
    stream_kernel_invocations: Counter = field(default_factory=Counter)
    sync_events: int = 0
    sync_waits: int = 0
    # Modeled stream-stall time actually incurred by waits (an event
    # that already fired stalls nothing, like the real API).
    sync_stall_us: float = 0.0
    # Host time spent waiting for a GPU to drain before reading from it
    # (a device->host DeviceCopy, a scalar read of a device value).
    host_sync_wait_us: float = 0.0

    def record_run(self) -> None:
        self.runs += 1

    def record_launches(self, launches) -> None:
        """Fold a run's launch log — ``(invocation, kernel, stream)`` per
        kernel launch, in launch order — into the kernel fields.

        Each duration is added to its two totals one launch at a time,
        in that order, so every float is bit-equal to charging each
        launch as it happened; counts are tallied in C, and a key new to
        a counter still enters it at its first launch."""
        total = self.kernel_time_us
        stream_us = dict(self.stream_kernel_us)
        running = stream_us.get
        for invocation, _, stream in launches:
            duration = invocation.duration_us
            total += duration
            stream_us[stream] = running(stream, 0) + duration
        self.kernel_time_us = total
        dict.update(self.stream_kernel_us, stream_us)
        self.kernel_invocations += len(launches)
        self.impl_counts.update(map(_impl, map(_invocation, launches)))
        self.stream_kernel_invocations.update(map(_stream, launches))
        names = self.kernel_counts
        for kernel, launched in Counter(map(_kernel, launches)).items():
            names[getattr(kernel, "name", "?")] += launched

    def record_sync_event(self) -> None:
        self.sync_events += 1

    def record_sync_wait(self, stall_us: float) -> None:
        self.sync_waits += 1
        self.sync_stall_us += stall_us

    def gemm_invocations(self) -> int:
        """Kernel launches whose fused group contains a GEMM-class op
        (the cost model's authoritative GEMM_OPS set)."""
        from repro.codegen.workload import GEMM_OPS

        return sum(
            count
            for name, count in self.kernel_counts.items()
            if any(op in name for op in GEMM_OPS)
        )

    def record_shape_func(self, duration_us: float) -> None:
        self.shape_func_time_us += duration_us
        self.shape_func_invocations += 1

    def others_us(self, elapsed_us: float) -> float:
        """Latency not attributable to compute kernels (Table 4 'others')."""
        return max(0.0, elapsed_us - self.kernel_time_us)

    # merge/reset walk the dataclass fields so a new counter can never be
    # forgotten by one of them — adding a field keeps both correct (and
    # the reset/merge symmetry test covers every field generically).
    def merge(self, other: "VMProfile") -> None:
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, Counter):
                mine.update(theirs)
            else:
                setattr(self, f.name, mine + theirs)

    def reset(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                value.clear()
            else:
                setattr(self, f.name, type(value)())
