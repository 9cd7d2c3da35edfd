"""VM profiling: the kernel-vs-others breakdown of Table 4.

``kernel_time_us`` accumulates modeled kernel durations (device busy
time); everything else — instruction dispatch, shape functions, memory
allocation, data movement — is "other instructions". On a GPU platform
the host-side "others" overlap with asynchronous kernel execution, so the
end-to-end overhead they contribute is ``elapsed - kernel_busy``, which
§6.3 observes to be negligible there.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class VMProfile:
    runs: int = 0
    # Opcode name -> executions, and the dispatch charge they add up to:
    # both are written directly by the interpreter's inner loop
    # (`VirtualMachine._run_frames`), once per instruction, so a run
    # that raises has still counted the instruction it raised in.
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
    # Invocations per fused-kernel name ("fused_nn.batch_dense+..."):
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

    def record_kernel(
        self, duration_us: float, impl: str, name: str = "?", stream: int = 0
    ) -> None:
        self.kernel_time_us += duration_us
        self.kernel_invocations += 1
        self.impl_counts[impl] += 1
        self.kernel_counts[name] += 1
        self.stream_kernel_us[stream] += duration_us
        self.stream_kernel_invocations[stream] += 1

    def record_sync_event(self) -> None:
        self.sync_events += 1

    def record_sync_wait(self, stall_us: float) -> None:
        self.sync_waits += 1
        self.sync_stall_us += stall_us

    def gemm_invocations(self, ops=None) -> int:
        """Kernel launches whose fused group contains a GEMM-class op
        (defaults to the cost model's authoritative GEMM_OPS set)."""
        if ops is None:
            from repro.codegen.workload import GEMM_OPS as ops
        return sum(
            count
            for name, count in self.kernel_counts.items()
            if any(op in name for op in ops)
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
