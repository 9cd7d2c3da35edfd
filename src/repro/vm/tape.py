"""A launch tape: one straight-line, fully specialized function recorded
once and replayed as a list of kernel launches.

This is ahead-of-time scheduling of a static graph (Kwon et al.): every
storage is allocated once, when the tape is recorded, and a replay walks
the launches with a fixed per-node charge — no instruction decode, no
shape function, no allocation. Each launch is priced when it is
recorded, because its shapes are fixed. It is the "tvm" column of
Table 4 (`LaunchTape.replay`), and what serves a static-tier hit after
the variant's first on a worker (`LaunchTape.run`, from
`repro.serve.worker`): the payload copied into the tape's bound inputs,
the launches replayed, the outputs copied out. The recording is an
ordinary run of the VM on the linked entry (`repro.vm.link`), over
kernels that keep their operands instead of running, so no opcode's
meaning is written twice here. Its storages come from an allocator
through an `Arena` (a worker's, when it serves; else one of its own) and
stay live there until `LaunchTape.release`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.errors import ShapeGuardError, VMError
from repro.hardware import calibration
from repro.hardware.platforms import platform_by_name
from repro.runtime.allocator import Arena, PoolingAllocator
from repro.runtime.context import LITE_SKIP_FLOPS, ExecutionContext
from repro.tensor.ndarray import NDArray
from repro.vm.executable import Executable, entry_mismatch
from repro.vm.instruction import Opcode
from repro.vm.interpreter import VirtualMachine
from repro.vm.link import linked
from repro.vm.profiler import VMProfile

# What a straight-line function with its shapes bound executes. Anything
# else — control flow, calls, ShapeOf, AllocTensorReg, DeviceCopy, stream
# events — means the function is not one static launch sequence.
_RECORDABLE = frozenset({
    Opcode.MOVE, Opcode.LOAD_CONST, Opcode.LOAD_CONSTI, Opcode.ALLOC_STORAGE,
    Opcode.ALLOC_TENSOR, Opcode.ALLOC_ADT, Opcode.GET_FIELD,
    Opcode.RESHAPE_TENSOR, Opcode.INVOKE_PACKED, Opcode.RET,
})


def refusal(exe: Executable, inputs: tuple = ()) -> Optional[str]:
    """Why a tape cannot record *exe* over *inputs*, or None if it can:
    the linked entry must be one static launch sequence, and every input
    a tensor."""
    code = linked(exe)
    func = code.functions[code.func_index[code.entry]]
    refused = {}  # an ordered set: every kind of refused instruction, once
    for instr in func.instructions:
        if instr.opcode == Opcode.INVOKE_PACKED and instr.kind != "compute":
            refused[f"InvokePacked of a {instr.kind} kernel"] = None
        elif instr.opcode not in _RECORDABLE:
            refused[type(instr).__name__] = None
    if refused:
        return f"a launch tape cannot record {', '.join(refused)} in {func.name}"
    for i, value in enumerate(inputs):
        if not isinstance(value, (np.ndarray, NDArray)):
            return f"a launch tape binds tensors, not {type(value).__name__} (param {i})"
    return None


def _array(value) -> np.ndarray:
    return value.numpy() if isinstance(value, NDArray) else value


def _nbytes(output) -> int:
    """The bytes of an unwrapped output: a tensor, or nested tuples."""
    if isinstance(output, tuple):
        return sum(map(_nbytes, output))
    return output.numpy().nbytes


def _copy_us(platform, nbytes: int) -> float:
    """Streaming *nbytes* through host memory, as a kernel's bytes are."""
    return nbytes / (platform.host_spec.effective_bandwidth_gbps(nbytes) * 1e3)


class _Recorded:
    """A kernel whose launches are kept, not run: every attribute is the
    real kernel's, and `run` appends the operand arrays to *launches*."""

    def __init__(self, kernel, launches: list) -> None:
        self._kernel = kernel
        self._launches = launches

    def __getattr__(self, name: str):
        return getattr(self._kernel, name)

    def run(self, inputs: list, outputs: list) -> None:
        self._launches.append((self._kernel, inputs, outputs))


class LaunchTape:
    """The linked entry function of *exe*, recorded over copies of
    *inputs* (its bound inputs) and replayed on *ctx*'s clock and
    numerics, each replay's charges tallied into ``profile``. Its
    storages are held on *allocator*, which charges them on its own
    clock, if it has one; by default they are the tape's own."""

    def __init__(self, exe: Executable, *inputs, ctx: Optional[ExecutionContext] = None,
                 allocator: Optional[PoolingAllocator] = None) -> None:
        reason = refusal(exe, inputs)
        if reason is not None:
            raise VMError(reason)
        self.ctx = ctx or ExecutionContext(platform_by_name(exe.platform_name))
        platform = self.ctx.platform
        if platform.name != exe.platform_name:
            raise VMError(
                f"executable built for {exe.platform_name!r} cannot replay on "
                f"{platform.name!r}"
            )
        self._contract = exe.entry_contract
        self.inputs = tuple(np.array(_array(value)) for value in inputs)
        # A private VM runs the function once, on a clock of its own (so
        # nothing of the recording reaches the replay clock) and with
        # every storage it allocates held on *allocator*: the arena, what
        # the launches read and write.
        code = linked(exe)
        recorded = []
        kernels = [_Recorded(kernel, recorded) for kernel in code.kernels]
        recorder = ExecutionContext(platform)
        recorder.allocator = self.arena = Arena(allocator or PoolingAllocator(platform))
        vm = VirtualMachine(dataclasses.replace(code, kernels=kernels), recorder)
        self._result = vm._run(self.inputs)
        self._unwrap = vm._unwrap
        # The function is straight-line, so its i-th launch is its i-th
        # InvokePacked, which says where the launch goes. A launch on a
        # synchronous device runs on the host, on stream 0.
        func = code.functions[code.func_index[code.entry]]
        packed = [i for i in func.instructions if i.opcode == Opcode.INVOKE_PACKED]
        self.launches = []
        for (kernel, xs, ys), i in zip(recorded, packed):
            invocation = kernel.invoke_cost(tuple([data.shape for data in xs]))
            launch_us = platform.spec_of(i.device).host_launch_us if i.device.is_gpu else None
            stream = 0 if launch_us is None else i.stream
            self.launches.append((invocation, kernel, xs, ys, i.device, launch_us, stream))
        self._streams = max(1, exe.device_streams)
        self._node_us = calibration.TAPE_NODE_US[platform.name]
        self._copy_in_us = _copy_us(platform, sum(x.nbytes for x in self.inputs))
        self._copy_out_us = _copy_us(platform, _nbytes(self._unwrap(self._result)))
        self.profile = VMProfile()

    def mismatch(self, inputs) -> Optional[str]:
        """Why a run cannot take *inputs*, or None: the entry contract
        first (`entry_mismatch`), then each bound input's shape and
        dtype, since a copy into it would cast."""
        reason = entry_mismatch(self._contract, inputs)
        if reason is not None:
            return reason
        if len(inputs) != len(self.inputs):
            return f"tape: {len(inputs)} inputs but the tape binds {len(self.inputs)}"
        for i, (bound, value) in enumerate(zip(self.inputs, inputs)):
            data = _array(value)
            if not isinstance(data, np.ndarray):
                return f"tape: param {i} is not a tensor ({type(value).__name__})"
            if data.shape != bound.shape or data.dtype != bound.dtype:
                return (f"tape: param {i} is {data.dtype}{list(data.shape)}, "
                        f"bound as {bound.dtype}{list(bound.shape)}")
        return None

    def run(self, *inputs, sync: bool = True, stream_offset: int = 0):
        """*inputs* copied into the bound inputs, every launch replayed,
        the outputs copied out; both copies are charged on the host.
        ``sync`` and ``stream_offset`` are `VirtualMachine.run`'s.
        Inputs the tape cannot take are refused, never cast."""
        reason = self.mismatch(inputs)
        if reason is not None:
            raise ShapeGuardError(reason)
        clock = self.ctx.clock
        clock.host_advance(self._copy_in_us)
        for bound, value in zip(self.inputs, inputs):
            np.copyto(bound, _array(value))
        self._launch(stream_offset)
        clock.host_advance(self._copy_out_us)
        self.profile.copy_time_us += self._copy_in_us + self._copy_out_us
        self.profile.record_run()
        if sync:
            clock.sync_all()
        return self._unwrap(self._result)

    def replay(self):
        """Every launch in order on the bound inputs, then a device
        synchronization: the static runtime alone. Returns (outputs,
        latency_us)."""
        clock = self.ctx.clock
        start = clock.elapsed_us
        self._launch(0)
        self.profile.record_run()
        clock.sync_all()
        return self._unwrap(self._result), clock.elapsed_us - start

    def _launch(self, stream_offset: int) -> None:
        """Each launch: the node charge, its recorded kernel charge, then
        the kernel under the VM's lite-numerics rule; the charges folded
        into the profile as the VM folds a run's launch log."""
        if self.launches is None:
            raise VMError("a released launch tape does not run")
        clock = self.ctx.clock
        node_us = self._node_us
        lite = self.ctx.numerics == "lite"
        offset = stream_offset % self._streams
        log = []
        for invocation, kernel, inputs, outputs, device, launch_us, stream in self.launches:
            clock.host_advance(node_us)
            if launch_us is None:
                clock.run_sync(invocation.duration_us)
            else:
                stream = (stream + offset) % self._streams
                clock.launch_async(device, invocation.duration_us, launch_us, stream)
            log.append((invocation, kernel, stream))
            if lite and invocation.flops > LITE_SKIP_FLOPS and not kernel.info.is_dynamic:
                continue
            kernel.run(inputs, outputs)
        self.profile.dispatch_time_us += node_us * len(log)
        self.profile.record_launches(log)

    def release(self) -> None:
        """Free the tape's storages on the allocator holding them. The
        tape does not run again."""
        self.arena.release()
        self.launches = None
