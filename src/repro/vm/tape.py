"""A launch tape: one straight-line, fully specialized function recorded
once and replayed as a list of kernel launches.

This is ahead-of-time scheduling of a static graph (Kwon et al.): every
storage is allocated once, when the tape is recorded, and a replay walks
the launches with a fixed per-node charge — no instruction decode, no
shape function, no allocation. It is the "tvm" column of Table 4: the
same kernels the VM runs for a specialized executable, without the VM
around them. The recording walk fills registers with the interpreter's
own opcode handlers, so no opcode's meaning is written twice here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import VMError
from repro.hardware import calibration
from repro.runtime.context import LITE_SKIP_FLOPS, ExecutionContext
from repro.vm.executable import Executable
from repro.vm.instruction import Opcode
from repro.vm.interpreter import VirtualMachine
from repro.vm.objects import as_tensor

# What a straight-line function with its shapes bound executes. Anything
# else — control flow, calls, ShapeOf, AllocTensorReg, DeviceCopy, stream
# events — means the function is not one static launch sequence.
_RECORDABLE = frozenset({
    Opcode.MOVE, Opcode.LOAD_CONST, Opcode.LOAD_CONSTI, Opcode.ALLOC_STORAGE,
    Opcode.ALLOC_TENSOR, Opcode.ALLOC_ADT, Opcode.GET_FIELD,
    Opcode.RESHAPE_TENSOR, Opcode.INVOKE_PACKED, Opcode.RET,
})


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
        if len(inputs) != func.num_params:
            raise VMError(f"{func.name} expects {func.num_params} inputs, got {len(inputs)}")
        # The recording VM's own context owns every storage the tape uses;
        # nothing of the recording reaches the replay clock.
        vm = VirtualMachine(exe)
        self.ctx = ctx or ExecutionContext(vm.ctx.platform)
        if self.ctx.platform.name != exe.platform_name:
            raise VMError(
                f"executable built for {exe.platform_name!r} cannot replay on "
                f"{self.ctx.platform.name!r}"
            )
        frame = vm._activate(exe.func_index[exe.entry], caller_dst=None)
        regs = frame.registers
        for i, value in enumerate(inputs):
            regs[i] = vm._wrap_input(value)
        self.launches = []
        handlers = VirtualMachine._HANDLERS
        for opcode, operand in zip(frame.opcodes, frame.operands):
            if opcode == Opcode.RET:
                self._result = regs[operand.result]
                break
            if opcode == Opcode.INVOKE_PACKED:
                packed_index, in_regs, out_regs, _, _, _, device, launch_us, stream = operand
                self.launches.append((
                    exe.kernels[packed_index],
                    [as_tensor(regs[r], "kernel input").array.data for r in in_regs],
                    [as_tensor(regs[r], "kernel output").array.data for r in out_regs],
                    device, launch_us, stream,
                ))
            else:
                handlers[opcode](vm, operand, regs)
        self._unwrap = vm._unwrap
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
            invocation = kernel.invoke_cost([data.shape for data in inputs])
            if launch_us is None:
                clock.run_sync(invocation.duration_us)
            else:
                clock.launch_async(device, invocation.duration_us, launch_us, stream)
            self.kernel_time_us += invocation.duration_us
            if lite and invocation.flops > LITE_SKIP_FLOPS and not kernel.info.is_dynamic:
                continue
            for out, result in zip(outputs, kernel.run(inputs)):
                np.copyto(out, result)
        clock.sync_all()
        return self._unwrap(self._result), clock.elapsed_us - start
