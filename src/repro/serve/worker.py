"""A serving worker: VMs + execution context on the shared executables.

Each worker models an independent replica (its own device queue, clock,
and pooling allocator) while sharing the compiled :class:`Executable` —
bytecode, constants, and kernels compile once and fan out. A worker's
clock *is* its availability: after a batch the clock sits at the batch's
finish time, and ``VirtualClock.advance_to`` fast-forwards over idle gaps
to the next dispatch.

With tiered specialization enabled a worker additionally keeps one VM per
specialized executable *variant* — keyed by (specialized shapes, batch
granularity), so a member-wise build and a batch-specialized build of the
same shape, or two batch caps of the same shape, never share a stale VM —
all sharing this worker's context, so a batch routed to a static tier
runs on the same clock/allocator and its latency lands in the same
report. The worker does not choose tiers: it runs a batch on the tier
the server hands it (``SpecializationManager.tier_for`` decided). Every
VM call gets a fresh :class:`VMProfile` to tally into, and the worker
appends it to the record list as a :class:`~repro.serve.events.VMRun`
with the call's tier and rids; the report's per-tier kernel/shape-func
split is a fold over those. The VM cache is dropped on :meth:`reset`,
so an executable evicted from the specialization manager's cache is not
pinned alive by a stale VM across replays.

A hit on the *specialized* or *batched* tier has every input dim bound,
so after the variant's first hit on this worker it runs without the VM
around its kernels: that first call runs on the VM and records the
variant's :class:`~repro.vm.tape.LaunchTape`, and each later call copies
its payload into the tape and replays it. A variant whose linked entry
is not one static launch sequence (a ``DeviceCopy``, a stream event, a
shape function) stays on the VM, and so does a payload the tape cannot
take (`LaunchTape.mismatch`: a dtype a copy would cast). A tape's
storages are held live on this worker's allocator until its variant is
evicted, the simulation ends, or the worker resets
(:meth:`release_tapes`).

Batch members run back-to-back with ``sync=False`` and one device
synchronization at the end, so on GPU-class platforms the host-side
bytecode/shape-function/allocation work of request *i+1* overlaps the
device queue of request *i* — the §6.3 overlap, amortized across a batch.
A batch routed to the *batched* tier collapses further: the members'
inputs stack along axis 0 into **one** VM call on the batch-specialized
executable (one batched GEMM per member-wise GEMM site), and the outputs
split back per member.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional

import numpy as np

from repro.errors import VMError
from repro.hardware.platforms import Platform
from repro.runtime.context import ExecutionContext
from repro.serve.batcher import Batch
from repro.serve.events import GuardDeopt, VMRun
from repro.serve.request import Response
from repro.tensor.ndarray import NDArray
from repro.vm.executable import Executable, entry_mismatch
from repro.vm.interpreter import VirtualMachine
from repro.vm.profiler import VMProfile
from repro.vm.tape import LaunchTape, refusal

# The tiers whose calls bind every input dim: a launch tape may serve them.
_TAPED_TIERS = ("specialized", "batched")


def _variant(executable: Executable) -> tuple:
    """What names one specialized variant on a worker (see
    `Worker._specialized_vm`)."""
    return (executable.specialized_shapes, executable.specialized_batch)


class Worker:
    def __init__(
        self,
        worker_id: int,
        executable: Executable,
        platform: Platform,
        numerics: str = "lite",
        replica_id: int = 0,
    ) -> None:
        self.worker_id = worker_id
        self.replica_id = replica_id
        self.ctx = ExecutionContext(platform, numerics=numerics)
        self.vm = VirtualMachine(executable, self.ctx)
        self._specialized_vms: Dict[tuple, VirtualMachine] = {}
        # Per variant hit on a taped tier: its launch tape, or None where
        # the VM serves it (its linked entry is refused).
        self._tapes: Dict[tuple, Optional[LaunchTape]] = {}
        # The simulation's record list (see reset); this worker appends
        # every VM call it makes and its guard deopts, so "never wrong"
        # is also "never silent".
        self.records: list = []

    @property
    def free_at_us(self) -> float:
        """When this worker can next start a batch (its clock's frontier)."""
        return self.ctx.clock.elapsed_us

    def reset(self, records: Optional[list] = None) -> None:
        """Return to the cold-start state so each simulation is an
        independent, reproducible replay: clock to zero, pools drained,
        and *records* (the server's list; a worker on its own starts a
        new one) to append to. A leak (live bytes at reset) is an error,
        not something to silently forgive (the tapes' storages are
        released first: they are held, not leaked)."""
        self.release_tapes()
        self.ctx.allocator.assert_drained()
        self.ctx.reset_clock()
        self.ctx.allocator.release_all()
        self.ctx.allocator.stats.reset()
        self._specialized_vms.clear()
        self.records = [] if records is None else records

    def _specialized_vm(self, executable: Executable) -> VirtualMachine:
        """One VM per specialized executable variant, sharing this
        worker's context. Keyed by the (specialization marker, batch
        granularity) pair — stable across executable-cache eviction,
        unlike id(), and never aliasing across batch-cap changes: a
        member shape (4, I) batched 8× and a member shape (8, I) batched
        4× stack to the same entry signature, so the marker alone would
        hand one of them a stale VM."""
        key = _variant(executable)
        vm = self._specialized_vms.get(key)
        if vm is None or vm.exe is not executable:
            vm = VirtualMachine(executable, self.ctx)
            self._specialized_vms[key] = vm
            self._release_tape(key)
        return vm

    def release_tapes(self, executables: Optional[Collection[Executable]] = None) -> None:
        """Free the launch tapes of *executables* (every tape, if None)
        on this worker's allocator: their next hit is a first hit again."""
        keys = list(self._tapes) if executables is None else [_variant(e) for e in executables]
        for key in keys:
            self._release_tape(key)

    def _release_tape(self, key: tuple) -> None:
        tape = self._tapes.pop(key, None)
        if tape is not None:
            tape.release()

    def _record(
        self, executable: Executable, args: tuple, charges: VMProfile
    ) -> Optional[LaunchTape]:
        """The variant's launch tape, recorded over its first hit's
        *args*: its storages held on this worker's allocator, and their
        allocation added to that hit's *charges*. None where the tape
        refuses the variant (`refusal`): the VM keeps serving it."""
        if refusal(executable, args) is not None:
            return None
        stats = self.ctx.allocator.stats
        before = stats.alloc_time_us
        tape = LaunchTape(executable, *args, ctx=self.ctx, allocator=self.ctx.allocator)
        charges.alloc_time_us += stats.alloc_time_us - before
        return tape

    def _call(
        self, vm: VirtualMachine, tier: str, rids: tuple, args: tuple, stream_offset=0
    ):
        """Run *vm* once — or, on a taped tier after the variant's first
        hit here, the variant's launch tape if it takes *args* — tallying
        into a fresh profile, and record the call with what it charged.
        A first hit records the tape once *vm* has served it."""
        at_us = self.ctx.clock.elapsed_us
        charges = VMProfile()
        key = _variant(vm.exe)
        taped = tier in _TAPED_TIERS
        tape = self._tapes.get(key) if taped else None
        runner = vm if tape is None or tape.mismatch(args) is not None else tape
        runner.profile = charges
        output = runner.run(*args, sync=False, stream_offset=stream_offset)
        if taped and key not in self._tapes:
            self._tapes[key] = self._record(vm.exe, args, charges)
        self.records.append(
            VMRun(at_us, self.replica_id, self.worker_id, tier, rids, charges)
        )
        return output

    @staticmethod
    def _payload_arrays(payload) -> tuple:
        return payload if isinstance(payload, tuple) else (payload,)

    @staticmethod
    def _as_numpy(value) -> np.ndarray:
        return value.numpy() if isinstance(value, NDArray) else np.asarray(value)

    def _run_stacked(
        self, vm: VirtualMachine, executable: Executable, batch: Batch
    ) -> List:
        """Execute a full bucket as ONE call on the batch-specialized
        executable: stack every member's inputs along axis 0, run, split
        the outputs back into per-member results (axis-0 chunks — the
        exact inverse of the stacking, so member i's output is bit-equal
        to what the member-wise tiers return)."""
        cap = executable.specialized_batch or 1
        if len(batch) != cap:
            raise VMError(
                f"batched tier: bucket of {len(batch)} routed to an "
                f"executable compiled for batch {cap}"
            )
        members = [self._payload_arrays(r.payload) for r in batch.requests]
        arity = len(members[0])
        stacked = tuple(
            np.concatenate([self._as_numpy(m[i]) for m in members], axis=0)
            for i in range(arity)
        )
        rids = tuple(r.rid for r in batch.requests)
        out = self._call(vm, "batched", rids, stacked)
        return self._split_output(out, cap)

    def _split_output(self, output, cap: int) -> List:
        """Invert the axis-0 stacking, recursively through tuple results."""
        if isinstance(output, tuple):
            per_field = [self._split_output(f, cap) for f in output]
            return [tuple(field[i] for field in per_field) for i in range(cap)]
        if not isinstance(output, NDArray):
            raise VMError(
                f"batched tier: cannot split a {type(output).__name__} output"
            )
        parts = np.split(output.numpy(), cap, axis=0)
        return [NDArray(p.copy(), output.device) for p in parts]

    def run_batch(
        self,
        batch: Batch,
        start_us: float,
        executable: Optional[Executable] = None,
        tier: str = "dynamic",
    ) -> List[Response]:
        """Execute every request of *batch*, completing them together.

        ``executable`` and ``tier`` are what the manager's ``tier_for``
        picked; a static executable runs on this worker's own
        context/clock, with member-wise pipelining for
        ``tier="specialized"``, one stacked call for ``tier="batched"``,
        and guarded member-wise pipelining for ``tier="partial"`` — each
        member's inputs are checked against the variant's entry contract
        first, and a member the guard rejects transparently *deopts*:
        it runs on the dynamic VM instead (recorded as a ``GuardDeopt``,
        its response tier reads ``"dynamic"``), never on static code
        compiled for someone else's dims."""
        clock = self.ctx.clock
        clock.advance_to(start_us)
        vm = self.vm if executable is None else self._specialized_vm(executable)
        begin = clock.elapsed_us
        tiers = [tier] * len(batch)
        if tier == "batched":
            outputs = self._run_stacked(vm, executable, batch)
        else:
            # Member pipeline: successive members rotate the executable's
            # static stream assignment, so member i+1's device kernels
            # land on different streams than member i's and their device
            # time overlaps (the host still dispatches sequentially). On
            # single-stream builds the offset is identically 0.
            outputs = []
            for i, req in enumerate(batch.requests):
                args = self._payload_arrays(req.payload)
                member_vm = vm
                mismatch = (
                    entry_mismatch(executable.entry_contract, args)
                    if tier == "partial" else None
                )
                if mismatch is not None:
                    member_vm = self.vm
                    tiers[i] = "dynamic"
                    self.records.append(
                        GuardDeopt(
                            clock.elapsed_us, self.replica_id, self.worker_id,
                            req.rid, mismatch,
                        )
                    )
                outputs.append(
                    self._call(
                        member_vm, tiers[i], (req.rid,), args,
                        stream_offset=i % max(1, member_vm.exe.device_streams),
                    )
                )
        clock.sync_all()
        finish = clock.elapsed_us
        return [
            Response(
                rid=req.rid,
                output=out,
                arrival_us=req.arrival_us,
                dispatch_us=begin,
                finish_us=finish,
                bucket_key=batch.key,
                batch_size=len(batch),
                worker_id=self.worker_id,
                tenant=req.tenant,
                tier=member_tier,
            )
            for req, out, member_tier in zip(batch.requests, outputs, tiers)
        ]
