"""The VM (§5.2): coarse-grained instructions run as generated Python, an
explicit frame stack (recursion depth is bounded by the model, not
Python), reference-counted registers, and virtual-clock timing.

Each function's bytecode is compiled once to Python functions, one per
basic block or piece of one (`repro.vm.generator`); `VirtualMachine._execute` is the
trampoline that runs them, calls and returns between frames, and counts
what ran. An executable whose entry shapes are all static runs linked
(`repro.vm.link`): its bounded recursion unrolled into one straight-line
entry. Each run of a specialized executable is checked against its
entry contract first (`repro.vm.executable.entry_mismatch`).

Execution is *numerically real* (kernels run NumPy) and *temporally
modeled* (the clock advances by the cost model): every run returns correct
tensors plus deterministic latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ShapeGuardError, VMError
from repro.hardware import calibration
from repro.hardware.platforms import platform_by_name
from repro.runtime.context import ExecutionContext
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction, entry_mismatch
from repro.vm.generator import FunctionCode, function_code
from repro.vm.link import linked
from repro.vm.objects import ADTObj, RegisterValue, TensorObj, VMObject
from repro.vm.profiler import VMProfile

# Opcode value -> name, built once: ``VMProfile.instruction_counts`` is
# keyed by name.
_OPCODE_NAMES = [op.name for op in sorted(ins.Opcode)]


class _RunState:
    """What generated blocks read per run (``S``): the profile charged,
    the numerics, the stream rotation, the dispatch total and the run's
    launch log."""

    __slots__ = ("profile", "lite", "offset", "d", "launches")

    def __init__(self) -> None:
        self.profile: Optional[VMProfile] = None
        self.lite = False
        self.offset = 0
        self.d = 0.0
        # (invocation, kernel, stream) per kernel launch, in order;
        # blocks bind this one list, so it is only ever emptied.
        self.launches: list = []


class _Program:
    """One function bound to one VM: its blocks and their hit counts."""

    __slots__ = ("func", "code", "blocks", "hits", "register_count")

    def __init__(self, func: VMFunction, code: FunctionCode, vm: "VirtualMachine") -> None:
        self.func = func
        self.code = code
        self.hits = [0] * len(code.makes)
        self.blocks = tuple(make(vm, self.hits) for make in code.makes)
        self.register_count = func.register_count


def _release_frame(registers: List[RegisterValue]) -> None:
    for value in registers:
        if isinstance(value, VMObject):
            value.release()


class VirtualMachine:
    def __init__(self, executable: Executable, ctx: Optional[ExecutionContext] = None) -> None:
        self.exe = executable
        self.ctx = ctx or ExecutionContext(platform_by_name(executable.platform_name))
        if self.ctx.platform.name != executable.platform_name:
            raise VMError(
                f"executable built for {executable.platform_name!r} cannot run on "
                f"{self.ctx.platform.name!r}"
            )
        self.profile = VMProfile()
        self._instr_us = self.ctx.platform.vm_instruction_us
        self._running = False
        # Static multi-stream schedule support (repro.vm.schedule): the
        # stream count the bytecode was scheduled for, the per-run sync
        # event table (event_index -> recorded timestamp), and the
        # calibrated host/device costs of the sync primitives.
        self._num_streams = max(1, executable.device_streams)
        self._events: Dict[int, float] = {}
        name = self.ctx.platform.name
        self._event_record_us = calibration.STREAM_EVENT_RECORD_US[name]
        self._wait_event_us = calibration.STREAM_WAIT_EVENT_US[name]
        self._event_sync_us = calibration.STREAM_EVENT_SYNC_US[name]
        # What runs: the executable, or its linked form (`repro.vm.link`);
        # and the entry contract each run is checked against.
        self._code = linked(executable)
        self._contract = executable.entry_contract
        # Per function index, its generated blocks bound to this VM, made
        # on first use (and again, should the function have been
        # swapped); and one TensorObj per constant, shared by every load
        # (no storage_obj: nothing to retain).
        self._programs: List[Optional[_Program]] = [None] * len(self._code.functions)
        self._constants = [TensorObj(c) for c in self._code.constants]
        self._state = _RunState()

    # ------------------------------------------------------------------ public
    def run(self, *inputs, sync: bool = True, stream_offset: int = 0):
        """Invoke the entry function; returns NDArray / nested tuples.

        ``sync=False`` skips the final device synchronization: the host
        returns as soon as the last kernel is enqueued, so a subsequent
        ``run`` on the same VM overlaps its host-side dispatch with the
        device queue of this one. The serving layer uses this to pipeline
        the members of a batch and synchronize once per batch.

        ``stream_offset`` rotates the executable's static stream
        assignment (kernels *and* events move together, so the schedule
        stays internally consistent): pipelined callers offset successive
        members so independent runs land on different streams and their
        device work overlaps. A no-op on single-stream builds.
        """
        result = self._run(inputs, sync, stream_offset)
        unwrapped = self._unwrap(result)
        # The unwrap copied the data out; drop the VM's last reference so
        # the result buffer returns to the allocator pool.
        if isinstance(result, VMObject):
            result.release()
        return unwrapped

    def run_with_latency(self, *inputs):
        """(result, latency_us) for one inference.

        The clock is *not* reset: the latency is the elapsed-µs delta on
        the context's running clock across this call, so the method is
        safe to interleave with other work on the same context (earlier
        time is never re-counted, and device queues keep their state).
        """
        start = self.ctx.clock.elapsed_us
        result = self.run(*inputs)
        return result, self.ctx.clock.elapsed_us - start

    # ------------------------------------------------------------ trampoline
    def _run(self, inputs: tuple, sync: bool = True, stream_offset: int = 0) -> RegisterValue:
        """The run proper: the register the entry function returns, still
        held (the launch tape keeps it, `run` unwraps and releases it)."""
        if self._running:
            raise VMError(
                "VirtualMachine.run is not re-entrant; use one VM per worker"
            )
        name = self._code.entry
        try:
            index = self._code.func_index[name]
        except KeyError:
            raise VMError(f"executable has no function {name!r}") from None
        num_params = self._code.functions[index].num_params
        if len(inputs) != num_params:
            raise VMError(f"{name} expects {num_params} inputs, got {len(inputs)}")
        mismatch = entry_mismatch(self._contract, inputs)
        if mismatch is not None:
            raise ShapeGuardError(
                f"{name}: {mismatch}; the serving layer should have "
                f"deopted this call to the dynamic tier"
            )
        program = self._program(index)
        registers: List[RegisterValue] = [None] * program.register_count
        for i, value in enumerate(inputs):
            registers[i] = self._wrap_input(value)
        state, profile = self._state, self.profile
        state.profile = profile
        state.lite = self.ctx.numerics == "lite"
        state.offset = stream_offset % self._num_streams
        state.d = profile.dispatch_time_us
        self._events.clear()
        self._running = True
        try:
            result = self._execute(program, registers)
        finally:
            self._running = False
        profile.record_run()
        if sync:
            self.ctx.clock.sync_all()
        return result

    def _program(self, index: int) -> _Program:
        """Function *index* bound to this VM, generated (or found in the
        cache) on first use, and again should the function be swapped."""
        func = self._code.functions[index]
        program = self._programs[index]
        if program is None or program.func is not func:
            code = function_code(func, self._code.constants)
            program = self._programs[index] = _Program(func, code, self)
        return program

    def _execute(self, program: _Program, registers: List[RegisterValue]) -> RegisterValue:
        """Run *program* from its first block: one call per block, and
        a frame pushed or popped where a block calls or returns. A tail
        call pushes nothing: the callee's frame replaces the caller's.

        An error anywhere drains every live frame, so refcounts drain and
        pooled storage returns, and a run that raises has still counted
        the instruction it raised in: the block that raised is found by
        its code object on the traceback, the instruction by the line.
        Counts and the dispatch charge reach the profile in the
        ``finally``, once per run.
        """
        stack: list = []  # suspended callers: (program, registers, resume block, dst)
        programs, functions = self._programs, self._code.functions
        blocks = program.blocks
        b = 0
        partial: List[int] = []
        try:
            while True:
                step = blocks[b](registers)
                if step.__class__ is int:
                    b = step
                elif len(step) == 1:
                    if not stack:
                        return step[0]
                    program, registers, b, dst = stack.pop()
                    blocks = program.blocks
                    old = registers[dst]
                    if isinstance(old, VMObject):
                        old.release()
                    registers[dst] = step[0]
                else:
                    # *args* is a fresh list, which becomes the callee's
                    # frame. A tail call (no *dst*) retained it and
                    # released the caller's frame, whose place it takes.
                    index, args, dst, resume = step
                    if dst is not None:
                        stack.append((program, registers, resume, dst))
                        for value in args:
                            if isinstance(value, VMObject):
                                value.retain()
                    registers = args
                    callee = programs[index]
                    if callee is None or callee.func is not functions[index]:
                        callee = self._program(index)
                    registers += [None] * (callee.register_count - len(args))
                    program, blocks, b = callee, callee.blocks, 0
        except BaseException as err:
            raised = err.__traceback__.tb_next
            if raised is not None and raised.tb_frame.f_code is program.code.codes[b]:
                partial = program.code.executed(b, raised.tb_lineno)
            _release_frame(registers)
            while stack:
                _release_frame(stack.pop()[1])
            raise
        finally:
            self._count(partial)

    def _count(self, partial: List[int]) -> None:
        """Fold the run's block hits, and the instructions of a block that
        raised, into the profile, and its launch log (every launch priced
        before the run ended, a raising one too) into the kernel fields.
        The dispatch charge was added one instruction at a time (float
        addition does not reassociate); a partial block's instructions
        are added here, in the same way."""
        state = self._state
        launches = state.launches
        if launches:
            state.profile.record_launches(launches)
            launches.clear()
        tally = [0] * len(_OPCODE_NAMES)
        for opcode in partial:
            tally[opcode] += 1
            state.d += self._instr_us
        for program in self._programs:
            if program is None:
                continue
            hits = program.hits
            for b, block_tally in enumerate(program.code.tallies):
                if hits[b]:
                    for opcode, executed in block_tally:
                        tally[opcode] += hits[b] * executed
                    hits[b] = 0
        profile = state.profile
        profile.dispatch_time_us = state.d
        counts = profile.instruction_counts
        for opcode, executed in enumerate(tally):
            if executed:
                counts[_OPCODE_NAMES[opcode]] += executed

    # --------------------------------------------------------------- helpers
    def _wrap_input(self, value) -> RegisterValue:
        if isinstance(value, (TensorObj, ADTObj)):
            return value
        if isinstance(value, NDArray):
            return TensorObj(value)
        if isinstance(value, np.ndarray):
            return TensorObj(NDArray(value, self.ctx.platform.compute))
        if isinstance(value, (int, float, bool, np.generic)):
            return TensorObj(NDArray(np.asarray(value)))
        raise VMError(f"cannot pass {type(value).__name__} to the VM")

    def _unwrap(self, value: RegisterValue):
        if isinstance(value, TensorObj):
            return NDArray(value.data.copy(), value.device)
        if isinstance(value, ADTObj):
            return tuple(self._unwrap(f) for f in value.fields)
        return value
