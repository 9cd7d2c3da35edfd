"""A launch tape: one straight-line, fully specialized function recorded
once and replayed as a list of kernel launches.

This is ahead-of-time scheduling of a static graph (Kwon et al.): every
storage is allocated once, when the tape is recorded, and a replay walks
the launches with a fixed per-node charge — no instruction decode, no
shape function, no allocation. It is the "tvm" column of Table 4: the
same kernels the VM runs for a specialized executable, without the VM
around them. The recording is an ordinary run of the VM, over kernels
that keep their operands instead of running, so no opcode's meaning is
written twice here.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import VMError
from repro.hardware import calibration
from repro.runtime.context import LITE_SKIP_FLOPS, ExecutionContext
from repro.vm.executable import Executable
from repro.vm.instruction import Opcode
from repro.vm.interpreter import VirtualMachine

# What a straight-line function with its shapes bound executes. Anything
# else — control flow, calls, ShapeOf, AllocTensorReg, DeviceCopy, stream
# events — means the function is not one static launch sequence.
_RECORDABLE = frozenset({
    Opcode.MOVE, Opcode.LOAD_CONST, Opcode.LOAD_CONSTI, Opcode.ALLOC_STORAGE,
    Opcode.ALLOC_TENSOR, Opcode.ALLOC_ADT, Opcode.GET_FIELD,
    Opcode.RESHAPE_TENSOR, Opcode.INVOKE_PACKED, Opcode.RET,
})


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
    """The entry function of *exe*, recorded over *inputs* (bound by
    reference) and replayed on *ctx*'s clock and numerics."""

    def __init__(self, exe: Executable, *inputs, ctx: Optional[ExecutionContext] = None) -> None:
        func = exe.functions[exe.func_index[exe.entry]]
        refused = {}  # an ordered set: every kind of refused instruction, once
        for instr in func.instructions:
            if instr.opcode == Opcode.INVOKE_PACKED and instr.kind != "compute":
                refused[f"InvokePacked of a {instr.kind} kernel"] = None
            elif instr.opcode not in _RECORDABLE:
                refused[type(instr).__name__] = None
        if refused:
            raise VMError(f"a launch tape cannot record {', '.join(refused)} in {func.name}")
        # A private VM, with a full-numerics context of its own, runs the
        # function once: its context owns every storage the tape uses,
        # and nothing of the recording reaches the replay clock.
        recorded = []
        kernels = [_Recorded(kernel, recorded) for kernel in exe.kernels]
        vm = VirtualMachine(dataclasses.replace(exe, kernels=kernels))
        platform = vm.ctx.platform
        self.ctx = ctx or ExecutionContext(platform)
        if self.ctx.platform.name != exe.platform_name:
            raise VMError(
                f"executable built for {exe.platform_name!r} cannot replay on "
                f"{self.ctx.platform.name!r}"
            )
        self._result = vm._run(inputs)
        self._unwrap = vm._unwrap
        # The function is straight-line, so its i-th launch is its i-th
        # InvokePacked, which says where the launch goes.
        packed = [i for i in func.instructions if i.opcode == Opcode.INVOKE_PACKED]
        self.launches = [
            (kernel, xs, ys, i.device,
             platform.spec_of(i.device).host_launch_us if i.device.is_gpu else None, i.stream)
            for (kernel, xs, ys), i in zip(recorded, packed)
        ]
        # Σ invoke_cost over every replay: the interpreter's kernel_time_us.
        self.kernel_time_us = 0.0

    def replay(self):
        """Every launch in order: the node charge, the kernel's charge,
        then the kernel under the VM's lite-numerics rule. Returns
        (outputs, latency_us)."""
        clock = self.ctx.clock
        start = clock.elapsed_us
        node_us = calibration.TAPE_NODE_US[self.ctx.platform.name]
        lite = self.ctx.numerics == "lite"
        for kernel, inputs, outputs, device, launch_us, stream in self.launches:
            clock.host_advance(node_us)
            invocation = kernel.invoke_cost(tuple([data.shape for data in inputs]))
            if launch_us is None:
                clock.run_sync(invocation.duration_us)
            else:
                clock.launch_async(device, invocation.duration_us, launch_us, stream)
            self.kernel_time_us += invocation.duration_us
            if lite and invocation.flops > LITE_SKIP_FLOPS and not kernel.info.is_dynamic:
                continue
            kernel.run(inputs, outputs)
        clock.sync_all()
        return self._unwrap(self._result), clock.elapsed_us - start
