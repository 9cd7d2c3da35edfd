"""The VM interpreter: a dispatch loop over coarse-grained instructions
(§5.2), with an explicit frame stack (recursion depth is bounded by the
model, not Python), reference-counted registers, and virtual-clock timing.

Execution is *numerically real* (kernels run NumPy) and *temporally
modeled* (the clock advances by the cost model): every run returns correct
tensors plus deterministic latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ShapeGuardError, VMError
from repro.hardware import calibration
from repro.hardware.platforms import Platform, platform_by_name
from repro.runtime.context import ExecutionContext
from repro.tensor.device import Device
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction
from repro.vm.objects import (
    ADTObj,
    ClosureObj,
    RegisterValue,
    StorageObj,
    TensorObj,
    VMObject,
    as_tensor,
    release_value,
    retain_value,
    scalar_of,
)
from repro.vm.profiler import VMProfile


_Op = ins.Opcode


def _by_opcode(table: dict) -> list:
    """*table* as a list indexed by opcode value (``None`` where it has
    no entry): the dispatch loop pays one list index per lookup."""
    dense = [None] * (max(_Op) + 1)
    for opcode, value in table.items():
        dense[opcode] = value
    return dense


# Opcode value -> name, built once: ``VMProfile.instruction_counts`` is
# keyed by name, and the enum's ``.name`` is a Python-level descriptor
# call per instruction.
_OPCODE_NAMES = _by_opcode({op: op.name for op in _Op})


def _set(regs: List[RegisterValue], dst: Optional[int], value: RegisterValue) -> None:
    if dst is None:
        release_value(value)
        return
    release_value(regs[dst])
    regs[dst] = value


class _Frame:
    __slots__ = ("func", "registers", "pc", "caller_dst")

    def __init__(self, func: VMFunction, caller_dst: Optional[int]) -> None:
        self.func = func
        self.registers: List[RegisterValue] = [None] * func.register_count
        self.pc = 0
        self.caller_dst = caller_dst


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
        self._stream_offset = 0
        name = self.ctx.platform.name
        self._event_record_us = calibration.STREAM_EVENT_RECORD_US[name]
        self._wait_event_us = calibration.STREAM_WAIT_EVENT_US[name]
        self._event_sync_us = calibration.STREAM_EVENT_SYNC_US[name]

    # ------------------------------------------------------------------ public
    def run(
        self,
        *inputs,
        entry: Optional[str] = None,
        sync: bool = True,
        stream_offset: int = 0,
    ):
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
        if self._running:
            raise VMError(
                "VirtualMachine.run is not re-entrant; use one VM per worker"
            )
        name = entry or self.exe.entry
        try:
            index = self.exe.func_index[name]
        except KeyError:
            raise VMError(f"executable has no function {name!r}") from None
        func = self.exe.functions[index]
        if len(inputs) != func.num_params:
            raise VMError(
                f"{name} expects {func.num_params} inputs, got {len(inputs)}"
            )
        if name == self.exe.entry:
            mismatch = self.exe.guard_mismatch(inputs)
            if mismatch is not None:
                raise ShapeGuardError(
                    f"{name}: {mismatch}; the serving layer should have "
                    f"deopted this call to the dynamic tier"
                )
        frame = _Frame(func, caller_dst=None)
        for i, value in enumerate(inputs):
            frame.registers[i] = self._wrap_input(value)
        self._stream_offset = stream_offset % self._num_streams
        self._events.clear()
        self._running = True
        try:
            result = self._dispatch_loop(frame)
        finally:
            self._running = False
        self.profile.record_run()
        if sync:
            self.ctx.clock.sync_all()
        unwrapped = self._unwrap(result)
        # The unwrap copied the data out; drop the VM's last reference so
        # the result buffer returns to the allocator pool.
        release_value(result)
        return unwrapped

    def run_with_latency(self, *inputs, entry: Optional[str] = None):
        """(result, latency_us) for one inference.

        The clock is *not* reset: the latency is the elapsed-µs delta on
        the context's running clock across this call, so the method is
        safe to interleave with other work on the same context (earlier
        time is never re-counted, and device queues keep their state).
        """
        start = self.ctx.clock.elapsed_us
        result = self.run(*inputs, entry=entry)
        return result, self.ctx.clock.elapsed_us - start

    # ------------------------------------------------------------ dispatch loop
    def _dispatch_loop(self, root: _Frame) -> RegisterValue:
        stack: List[_Frame] = [root]
        try:
            return self._run_frames(stack)
        except BaseException:
            # An error mid-dispatch must not leak buffers: drop every live
            # frame so their registers' refcounts drain and pooled storage
            # returns to the allocator.
            while stack:
                self._release_frame(stack.pop())
            raise

    def _run_frames(self, stack: List[_Frame]) -> RegisterValue:
        """The hot loop: one pass of the outer loop per frame activation,
        one pass of the inner loop per instruction.

        Everything an instruction needs is a local; a straight-line
        opcode costs one lookup in ``_HANDLERS`` and one call, and only
        the six opcodes that change ``pc`` or the frame stack are decided
        here. The per-instruction charge is applied one instruction at a
        time, in order: float addition does not reassociate, and the
        virtual clock is the oracle that nothing but speed changed.
        """
        final: RegisterValue = None
        functions = self.exe.functions
        instr_us = self._instr_us
        host_advance = self.ctx.clock.host_advance
        profile = self.profile
        counts = profile.instruction_counts
        names = _OPCODE_NAMES
        handlers = self._HANDLERS
        RET, INVOKE, INVOKE_CLOSURE = _Op.RET, _Op.INVOKE, _Op.INVOKE_CLOSURE
        IF, GOTO, FATAL = _Op.IF, _Op.GOTO, _Op.FATAL
        while stack:
            frame = stack[-1]
            instructions = frame.func.instructions
            end = len(instructions)
            regs = frame.registers
            pc = frame.pc
            while True:
                if pc >= end:
                    raise VMError(f"fell off the end of {frame.func.name}")
                instr = instructions[pc]
                opcode = instr.opcode
                counts[names[opcode]] += 1
                profile.dispatch_time_us += instr_us
                host_advance(instr_us)
                handler = handlers[opcode]
                if handler is not None:
                    handler(self, instr, regs)
                    pc += 1
                elif opcode is IF:
                    test = self._read_scalar(regs[instr.test])
                    target = self._read_scalar(regs[instr.target])
                    pc += instr.true_offset if test == target else instr.false_offset
                elif opcode is GOTO:
                    pc += instr.pc_offset
                elif opcode is RET:
                    result = regs[instr.result]
                    if isinstance(result, VMObject):
                        result.retain()
                    self._release_frame(frame)
                    stack.pop()
                    if stack:
                        _set(stack[-1].registers, frame.caller_dst, result)
                    else:
                        final = result
                    break
                elif opcode is INVOKE:
                    new_frame = _Frame(functions[instr.func_index], caller_dst=instr.dst)
                    callee_regs = new_frame.registers
                    for i, arg in enumerate(instr.args):
                        callee_regs[i] = retain_value(regs[arg])
                    frame.pc = pc + 1
                    stack.append(new_frame)
                    break
                elif opcode is INVOKE_CLOSURE:
                    closure = regs[instr.closure]
                    if not isinstance(closure, ClosureObj):
                        raise VMError("InvokeClosure on a non-closure object")
                    new_frame = _Frame(functions[closure.func_index], caller_dst=instr.dst)
                    callee_regs = new_frame.registers
                    pos = 0
                    for arg in instr.args:
                        callee_regs[pos] = retain_value(regs[arg])
                        pos += 1
                    for captured in closure.captured:
                        callee_regs[pos] = retain_value(captured)
                        pos += 1
                    frame.pc = pc + 1
                    stack.append(new_frame)
                    break
                elif opcode is FATAL:
                    raise VMError(f"VM fatal: {instr.message}")
                else:  # pragma: no cover - _HANDLERS + these six are exhaustive
                    raise VMError(f"unknown opcode {opcode}")
        return final

    # --------------------------------------------------------------- helpers
    def _release_frame(self, frame: _Frame) -> None:
        for value in frame.registers:
            release_value(value)

    def _wrap_input(self, value) -> RegisterValue:
        if isinstance(value, TensorObj):
            return value
        if isinstance(value, ADTObj):
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
        if isinstance(value, int):
            return value
        return value

    def _read_scalar(self, value: RegisterValue) -> int:
        if isinstance(value, TensorObj) and value.device.is_gpu:
            # Host reads of device values synchronize the queue.
            self.ctx.clock.sync(value.device)
        return scalar_of(value)

    # ------------------------------------------- straight-line opcode handlers
    # Plain functions called as ``handler(vm, instr, regs)`` through the
    # class-level ``_HANDLERS`` table below. They are looked up on the
    # class, never bound per VM: a Worker builds a VM per specialized
    # variant, and a table of bound methods would tie each VM (and its
    # executable) into a reference cycle only the cyclic GC can free.
    def _op_move(self, instr: ins.Move, regs) -> None:
        _set(regs, instr.dst, retain_value(regs[instr.src]))

    def _op_alloc_storage(self, instr: ins.AllocStorage, regs) -> None:
        nbytes = self._read_scalar(regs[instr.allocation_size])
        # Looked up per call, like kernel.invoke_cost/run below: tracers
        # patch these class attributes after the VM exists.
        allocator = self.ctx.allocator
        stats = allocator.stats
        before = stats.alloc_time_us
        storage = allocator.alloc(nbytes, instr.alignment, instr.device)
        # This alloc's own charge: contexts (and so allocators) are shared
        # by the VMs of a Worker's tiers, each with a profile of its own.
        self.profile.alloc_time_us += stats.alloc_time_us - before
        _set(regs, instr.dst, StorageObj(storage, on_free=allocator.free))

    def _op_alloc_tensor(self, instr: ins.AllocTensor, regs) -> None:
        self._alloc_tensor(instr, regs, instr.shape)

    def _op_alloc_tensor_reg(self, instr: ins.AllocTensorReg, regs) -> None:
        shape_obj = as_tensor(regs[instr.shape_register], "AllocTensorReg shape")
        self._alloc_tensor(instr, regs, tuple(int(d) for d in shape_obj.data))

    def _op_alloc_adt(self, instr: ins.AllocADT, regs) -> None:
        _set(regs, instr.dst, ADTObj(instr.tag, [regs[r] for r in instr.fields]))

    def _op_alloc_closure(self, instr: ins.AllocClosure, regs) -> None:
        captured = [regs[r] for r in instr.captured]
        _set(regs, instr.dst, ClosureObj(instr.func_index, captured))

    def _op_get_field(self, instr: ins.GetField, regs) -> None:
        obj = regs[instr.obj]
        if not isinstance(obj, ADTObj):
            raise VMError("GetField on a non-ADT object")
        if not 0 <= instr.field_index < len(obj.fields):
            raise VMError(
                f"GetField index {instr.field_index} out of range "
                f"({len(obj.fields)} fields)"
            )
        _set(regs, instr.dst, retain_value(obj.fields[instr.field_index]))

    def _op_get_tag(self, instr: ins.GetTag, regs) -> None:
        obj = regs[instr.obj]
        if not isinstance(obj, ADTObj):
            raise VMError("GetTag on a non-ADT object")
        _set(regs, instr.dst, obj.tag)

    def _op_load_const(self, instr: ins.LoadConst, regs) -> None:
        _set(regs, instr.dst, TensorObj(self.exe.constants[instr.const_index]))

    def _op_load_consti(self, instr: ins.LoadConsti, regs) -> None:
        _set(regs, instr.dst, instr.value)

    def _op_shape_of(self, instr: ins.ShapeOf, regs) -> None:
        tensor = as_tensor(regs[instr.tensor], "ShapeOf")
        shape = np.asarray(tensor.shape, dtype=np.int64)
        _set(regs, instr.dst, TensorObj(NDArray(shape, self.ctx.platform.host)))

    def _op_reshape_tensor(self, instr: ins.ReshapeTensor, regs) -> None:
        tensor = as_tensor(regs[instr.tensor], "ReshapeTensor data")
        shape_obj = as_tensor(regs[instr.newshape], "ReshapeTensor shape")
        newshape = tuple(int(d) for d in shape_obj.data)
        _set(regs, instr.dst, TensorObj(tensor.array.reshape(newshape), tensor.storage_obj))

    def _op_stream_event(self, instr: ins.StreamEvent, regs) -> None:
        stream = (instr.stream + self._stream_offset) % self._num_streams
        self._events[instr.event_index] = self.ctx.clock.record_event(
            instr.device, stream, self._event_record_us
        )
        self.profile.record_sync_event()

    def _op_stream_wait(self, instr: ins.StreamWait, regs) -> None:
        ts = self._events.get(instr.event_index)
        if ts is not None:
            stream = (instr.stream + self._stream_offset) % self._num_streams
            stall = self.ctx.clock.wait_event(
                instr.device, stream, ts, self._wait_event_us, self._event_sync_us
            )
            self.profile.record_sync_wait(stall)

    def _alloc_tensor(self, instr, regs, shape) -> None:
        """AllocTensor / AllocTensorReg: a view of *shape* into a storage."""
        storage_obj = regs[instr.storage]
        if not isinstance(storage_obj, StorageObj):
            raise VMError("AllocTensor on a non-storage object")
        offset = self._read_scalar(regs[instr.offset])
        array = NDArray.from_storage(storage_obj.storage, offset, shape, instr.dtype)
        _set(regs, instr.dst, TensorObj(array, storage_obj))

    def _device_copy(self, instr: ins.DeviceCopy, regs) -> None:
        tensor = as_tensor(regs[instr.src], "DeviceCopy")
        clock = self.ctx.clock
        spec = None
        if instr.src_device.is_gpu or instr.dst_device.is_gpu:
            gpu_dev = instr.src_device if instr.src_device.is_gpu else instr.dst_device
            spec = self.ctx.platform.spec_of(gpu_dev)
        if instr.src_device.is_gpu:
            clock.sync(instr.src_device)
        if spec is not None:
            cost = spec.copy_latency_us + tensor.array.nbytes / (spec.copy_bw_gbps * 1e3)
        else:
            host = self.ctx.platform.host_spec
            cost = tensor.array.nbytes / (host.dram_bw_gbps * 1e3)
        clock.host_advance(cost)
        self.profile.copy_time_us += cost
        copied = TensorObj(tensor.array.to_device(instr.dst_device))
        _set(regs, instr.dst, copied)

    def _invoke_packed(self, instr: ins.InvokePacked, regs) -> None:
        kernel = self.exe.kernels[instr.packed_index]
        num_inputs = instr.arity - instr.output_size
        in_objs = [as_tensor(regs[r], "kernel input") for r in instr.args[:num_inputs]]
        out_objs = [as_tensor(regs[r], "kernel output") for r in instr.args[num_inputs:]]
        clock = self.ctx.clock

        if instr.kind == "shape_func":
            info = kernel.info
            if info.mode.value == "data_dependent":
                in_shapes = [t.shape for t in in_objs]
                in_values = [t.data for t in in_objs]
            else:
                # Inputs are shape vectors produced by ShapeOf.
                in_shapes = [tuple(int(d) for d in t.data) for t in in_objs]
                in_values = None
            cost = kernel.cost_us(in_values)
            clock.host_advance(cost)
            self.profile.record_shape_func(cost)
            results = kernel.run(in_shapes, in_values)
            for out, result in zip(out_objs, results):
                np.copyto(out.data, result)
            return

        in_shapes = [t.shape for t in in_objs]
        invocation = kernel.invoke_cost(in_shapes)
        device = instr.device
        spec = self.ctx.platform.spec_of(device)
        stream = 0
        if device.is_gpu:
            stream = (instr.stream + self._stream_offset) % self._num_streams
            clock.launch_async(
                device, invocation.duration_us, spec.host_launch_us, stream
            )
        else:
            clock.run_sync(invocation.duration_us)
        if instr.kind == "host_scalar":
            self.profile.host_scalar_time_us += invocation.duration_us
        else:
            self.profile.record_kernel(
                invocation.duration_us, invocation.impl,
                getattr(kernel, "name", "?"), stream,
            )

        # Lite numerics: large, data-independent compute kernels skip the
        # NumPy execution — output buffers already have the right shapes
        # (allocated through shape functions) and latency was modeled above.
        if (
            self.ctx.numerics == "lite"
            and instr.kind == "compute"
            and invocation.flops > 1e4
            and not kernel.info.is_dynamic
        ):
            return

        results = kernel.run([t.data for t in in_objs])
        if len(results) != len(out_objs):
            raise VMError(
                f"kernel {getattr(kernel, 'name', '?')} produced {len(results)} "
                f"outputs for {len(out_objs)} buffers"
            )
        for out, result in zip(out_objs, results):
            if out.data.shape != result.shape:
                raise VMError(
                    f"kernel output shape {result.shape} does not fit buffer "
                    f"{out.data.shape}"
                )
            np.copyto(out.data, result)

    # Every opcode has an entry here or is one of the six control-flow
    # opcodes `_run_frames` decides inline (tests/test_vm.py checks the
    # partition, so a new opcode cannot be silently unknown).
    _HANDLERS = _by_opcode({
        _Op.MOVE: _op_move,
        _Op.INVOKE_PACKED: _invoke_packed,
        _Op.ALLOC_STORAGE: _op_alloc_storage,
        _Op.ALLOC_TENSOR: _op_alloc_tensor,
        _Op.ALLOC_TENSOR_REG: _op_alloc_tensor_reg,
        _Op.ALLOC_ADT: _op_alloc_adt,
        _Op.ALLOC_CLOSURE: _op_alloc_closure,
        _Op.GET_FIELD: _op_get_field,
        _Op.GET_TAG: _op_get_tag,
        _Op.LOAD_CONST: _op_load_const,
        _Op.LOAD_CONSTI: _op_load_consti,
        _Op.DEVICE_COPY: _device_copy,
        _Op.SHAPE_OF: _op_shape_of,
        _Op.RESHAPE_TENSOR: _op_reshape_tensor,
        _Op.STREAM_EVENT: _op_stream_event,
        _Op.STREAM_WAIT: _op_stream_wait,
    })
