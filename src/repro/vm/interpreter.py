"""The VM interpreter: a dispatch loop over coarse-grained instructions
(§5.2), with an explicit frame stack (recursion depth is bounded by the
model, not Python), reference-counted registers, and virtual-clock timing.

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
from repro.runtime.context import LITE_SKIP_FLOPS, ExecutionContext
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction
from repro.vm.objects import (
    ADTObj,
    ClosureObj,
    IntConstObj,
    RegisterValue,
    StorageObj,
    TensorObj,
    VMObject,
    as_tensor,
    constant_obj,
    retain_value,
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


def _set(regs: List[RegisterValue], dst: int, value: RegisterValue) -> None:
    """Write a register, releasing what it held. The handlers that
    dominate a run write this out instead of calling (and test the old
    value for ``None``, what it almost always is, before its type)."""
    old = regs[dst]
    if isinstance(old, VMObject):
        old.release()
    regs[dst] = value


class _Frame:
    __slots__ = ("func", "opcodes", "operands", "registers", "pc", "caller_dst")

    def __init__(self, func: VMFunction, opcodes: List[int], operands: list,
                 caller_dst: Optional[int]) -> None:
        self.func = func
        self.opcodes = opcodes
        self.operands = operands
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
        # Decode-once state, found by position and never referring back to
        # this VM: per function index, (the function decoded, its opcodes,
        # its operands), filled in `_activate`; and one TensorObj per
        # constant, shared by every load (no storage_obj: nothing to retain).
        # A host integer scalar is read here, once per VM (`constant_obj`).
        self._decoded: List[Optional[tuple]] = [None] * len(executable.functions)
        self._constants = [constant_obj(c) for c in executable.constants]

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
        num_params = self.exe.functions[index].num_params
        if len(inputs) != num_params:
            raise VMError(f"{name} expects {num_params} inputs, got {len(inputs)}")
        if name == self.exe.entry:
            mismatch = self.exe.guard_mismatch(inputs)
            if mismatch is not None:
                raise ShapeGuardError(
                    f"{name}: {mismatch}; the serving layer should have "
                    f"deopted this call to the dynamic tier"
                )
        frame = self._activate(index, caller_dst=None)
        for i, value in enumerate(inputs):
            frame.registers[i] = self._wrap_input(value)
        self._stream_offset = stream_offset % self._num_streams
        self._events.clear()
        self._running = True
        try:
            result = self._run_frames([frame])
        finally:
            self._running = False
        self.profile.record_run()
        if sync:
            self.ctx.clock.sync_all()
        unwrapped = self._unwrap(result)
        # The unwrap copied the data out; drop the VM's last reference so
        # the result buffer returns to the allocator pool.
        if isinstance(result, VMObject):
            result.release()
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
    def _activate(self, index: int, caller_dst: Optional[int]) -> _Frame:
        """A fresh frame of function *index*, decoded on first use (and
        again, should the executable's function have been swapped)."""
        func = self.exe.functions[index]
        decoded = self._decoded[index]
        if decoded is None or decoded[0] is not func:
            opcodes, operands = [], []
            for instr in func.instructions:
                decoder = self._DECODERS[instr.opcode]
                opcodes.append(int(instr.opcode))
                operands.append(instr if decoder is None else decoder(self, instr))
            decoded = self._decoded[index] = (func, opcodes, operands)
        return _Frame(func, decoded[1], decoded[2], caller_dst)

    def _run_frames(self, stack: List[_Frame]) -> RegisterValue:
        """The hot loop: one pass of the outer loop per frame activation,
        one pass of the inner loop per instruction.

        Everything an instruction needs is a local or was decoded in
        `_activate`; a straight-line opcode costs one lookup in
        ``_HANDLERS`` and one call, and only the six opcodes that change
        ``pc`` or the frame stack are decided here. The per-instruction
        charge is applied one at a time, in order: float addition does
        not reassociate, and the virtual clock is the oracle that nothing
        but speed changed. Counts and the dispatch charge reach the
        profile in the ``finally``: a run that raises has still counted
        the instruction it raised in.
        """
        final: RegisterValue = None
        instr_us = self._instr_us
        clock = self.ctx.clock
        profile = self.profile
        dispatch_us = profile.dispatch_time_us
        tally = [0] * len(_OPCODE_NAMES)
        handlers = self._HANDLERS
        RET, INVOKE, INVOKE_CLOSURE = int(_Op.RET), int(_Op.INVOKE), int(_Op.INVOKE_CLOSURE)
        IF, GOTO, FATAL = int(_Op.IF), int(_Op.GOTO), int(_Op.FATAL)
        try:
            while stack:
                frame = stack[-1]
                opcodes = frame.opcodes
                operands = frame.operands
                end = len(opcodes)
                regs = frame.registers
                pc = frame.pc
                while True:
                    if pc >= end:
                        raise VMError(f"fell off the end of {frame.func.name}")
                    opcode = opcodes[pc]
                    tally[opcode] += 1
                    dispatch_us += instr_us
                    clock.host_us += instr_us  # clock.host_advance, without the call
                    handler = handlers[opcode]
                    if handler is not None:
                        handler(self, operands[pc], regs)
                        pc += 1
                    elif opcode == IF:
                        instr = operands[pc]
                        test = self._read_scalar(regs[instr.test])
                        target = self._read_scalar(regs[instr.target])
                        pc += instr.true_offset if test == target else instr.false_offset
                    elif opcode == GOTO:
                        pc += operands[pc].pc_offset
                    elif opcode == RET:
                        result = regs[operands[pc].result]
                        if isinstance(result, VMObject):
                            result.retain()
                        self._release_frame(frame)
                        stack.pop()
                        if stack:
                            _set(stack[-1].registers, frame.caller_dst, result)
                        else:
                            final = result
                        break
                    elif opcode == INVOKE:
                        instr = operands[pc]
                        new_frame = self._activate(instr.func_index, instr.dst)
                        callee_regs = new_frame.registers
                        for i, arg in enumerate(instr.args):
                            callee_regs[i] = retain_value(regs[arg])
                        frame.pc = pc + 1
                        stack.append(new_frame)
                        break
                    elif opcode == INVOKE_CLOSURE:
                        instr = operands[pc]
                        closure = regs[instr.closure]
                        if not isinstance(closure, ClosureObj):
                            raise VMError("InvokeClosure on a non-closure object")
                        new_frame = self._activate(closure.func_index, instr.dst)
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
                    elif opcode == FATAL:
                        raise VMError(f"VM fatal: {operands[pc].message}")
                    else:  # pragma: no cover - _HANDLERS + these six are exhaustive
                        raise VMError(f"unknown opcode {opcode}")
        except BaseException:
            # An error mid-dispatch must not leak buffers: drop every live
            # frame so refcounts drain and pooled storage returns.
            while stack:
                self._release_frame(stack.pop())
            raise
        finally:
            profile.dispatch_time_us = dispatch_us
            counts = profile.instruction_counts
            for opcode, executed in enumerate(tally):
                if executed:
                    counts[_OPCODE_NAMES[opcode]] += executed
        return final

    # --------------------------------------------------------------- helpers
    def _release_frame(self, frame: _Frame) -> None:
        for value in frame.registers:
            if isinstance(value, VMObject):
                value.release()

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

    def _read_scalar(self, value: RegisterValue) -> int:
        """A register as a Python scalar: an alloc size, an offset, an
        ``If`` operand. Planned sizes and offsets are `IntConstObj`s or
        immediates; only a kernel-produced scalar reads its array."""
        kind = type(value)
        if kind is IntConstObj:
            return value.value
        if kind is int:
            return value
        if isinstance(value, TensorObj):
            array = value.array
            if array.device.is_gpu:
                # Host reads of device values synchronize the queue.
                self._host_sync(array.device)
            return int(array.item())
        if isinstance(value, (int, np.integer)):
            return int(value)
        raise VMError(f"cannot read a scalar from {type(value).__name__}")

    def _host_sync(self, device) -> None:
        """The host waits for *device* to drain; the profile keeps the wait."""
        clock = self.ctx.clock
        before = clock.host_us
        clock.sync(device)
        self.profile.host_sync_wait_us += clock.host_us - before

    # ------------------------------------------- straight-line opcode handlers
    # Plain functions called as ``handler(vm, operand, regs)`` through the
    # class-level ``_HANDLERS`` table below. They are looked up on the
    # class, never bound per VM: a Worker builds a VM per specialized
    # variant, and a table of bound methods would tie each VM (and its
    # executable) into a reference cycle only the cyclic GC can free.
    #
    # *operand* is the instruction, or what the ``_decode_*`` above the
    # handler made of its immutable fields in `_activate`. NOT decoded,
    # because they change under a live VM: ``self.exe.kernels[i]`` (a
    # kernel can be swapped between runs), ``self.profile`` (a Worker
    # reassigns it), ``self.ctx.numerics``, and the class attributes
    # tracers patch (kernel ``invoke_cost`` / ``run``, allocator ``alloc``).
    def _op_move(self, instr: ins.Move, regs) -> None:
        value = regs[instr.src]
        if isinstance(value, VMObject):
            value.retain()
        old = regs[instr.dst]
        if old is not None and isinstance(old, VMObject):
            old.release()
        regs[instr.dst] = value

    def _op_alloc_storage(self, instr: ins.AllocStorage, regs) -> None:
        nbytes = regs[instr.allocation_size]
        if type(nbytes) is IntConstObj:  # a planned size: read when the VM was built
            nbytes = nbytes.value
        elif type(nbytes) is not int:
            nbytes = self._read_scalar(nbytes)
        allocator = self.ctx.allocator
        stats = allocator.stats
        before = stats.alloc_time_us
        storage = allocator.alloc(nbytes, instr.alignment, instr.device)
        # This alloc's own charge: contexts (and so allocators) are shared
        # by the VMs of a Worker's tiers, each with a profile of its own.
        self.profile.alloc_time_us += stats.alloc_time_us - before
        old = regs[instr.dst]
        if old is not None and isinstance(old, VMObject):
            old.release()
        regs[instr.dst] = StorageObj(storage, allocator.free)

    def _decode_alloc_tensor(self, instr: ins.AllocTensor) -> tuple:
        return (instr.storage, instr.offset, instr.dst) + NDArray.layout(instr.shape, instr.dtype)

    def _op_alloc_tensor(self, op: tuple, regs) -> None:
        """AllocTensor / AllocTensorReg: a view with a layout into a storage."""
        storage_reg, offset_reg, dst, np_dtype, shape, nbytes = op
        storage_obj = regs[storage_reg]
        if not isinstance(storage_obj, StorageObj):
            raise VMError("AllocTensor on a non-storage object")
        offset = regs[offset_reg]
        if type(offset) is IntConstObj:
            offset = offset.value
        elif type(offset) is not int:
            offset = self._read_scalar(offset)
        storage = storage_obj.storage
        view = storage.view(offset, nbytes, np_dtype, shape)
        tensor = TensorObj(NDArray(view, storage.device, storage, offset), storage_obj)
        old = regs[dst]
        if old is not None and isinstance(old, VMObject):
            old.release()
        regs[dst] = tensor

    def _op_alloc_tensor_reg(self, instr: ins.AllocTensorReg, regs) -> None:
        shape_obj = as_tensor(regs[instr.shape_register], "AllocTensorReg shape")
        layout = NDArray.layout(shape_obj.data, instr.dtype)
        self._op_alloc_tensor((instr.storage, instr.offset, instr.dst) + layout, regs)

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
        value = obj.fields[instr.field_index]
        if isinstance(value, VMObject):
            value.retain()
        old = regs[instr.dst]
        if old is not None and isinstance(old, VMObject):
            old.release()
        regs[instr.dst] = value

    def _op_get_tag(self, instr: ins.GetTag, regs) -> None:
        obj = regs[instr.obj]
        if not isinstance(obj, ADTObj):
            raise VMError("GetTag on a non-ADT object")
        _set(regs, instr.dst, obj.tag)

    def _decode_load_const(self, instr: ins.LoadConst) -> tuple:
        return self._constants[instr.const_index], instr.dst

    def _decode_load_consti(self, instr: ins.LoadConsti) -> tuple:
        return instr.value, instr.dst

    def _op_load(self, op: tuple, regs) -> None:
        """LoadConst / LoadConsti: the decoded value into its register."""
        value, dst = op
        old = regs[dst]
        if old is not None and isinstance(old, VMObject):
            old.release()
        regs[dst] = value

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

    def _decode_device_copy(self, instr: ins.DeviceCopy) -> tuple:
        """A copy costs ``latency_us + nbytes / bytes_per_us``: over the
        link of whichever end is a GPU, else through host DRAM (where
        adding a latency of 0.0 leaves the quotient bit-equal)."""
        src_device, platform = instr.src_device, self.ctx.platform
        if src_device.is_gpu or instr.dst_device.is_gpu:
            spec = platform.spec_of(src_device if src_device.is_gpu else instr.dst_device)
            latency_us, bytes_per_us = spec.copy_latency_us, spec.copy_bw_gbps * 1e3
        else:
            latency_us, bytes_per_us = 0.0, platform.host_spec.dram_bw_gbps * 1e3
        sync_device = src_device if src_device.is_gpu else None
        return instr.src, instr.dst, instr.dst_device, sync_device, latency_us, bytes_per_us

    def _device_copy(self, op: tuple, regs) -> None:
        src, dst, dst_device, sync_device, latency_us, bytes_per_us = op
        tensor = as_tensor(regs[src], "DeviceCopy")
        clock = self.ctx.clock
        if sync_device is not None:
            self._host_sync(sync_device)
        cost = latency_us + tensor.array.nbytes / bytes_per_us
        clock.host_advance(cost)
        self.profile.copy_time_us += cost
        _set(regs, dst, TensorObj(tensor.array.to_device(dst_device)))

    def _decode_invoke_packed(self, instr: ins.InvokePacked) -> tuple:
        num_inputs = instr.arity - instr.output_size
        device, kind = instr.device, instr.kind
        # launch_us None: a synchronous device, the kernel runs on the host.
        launch_us = self.ctx.platform.spec_of(device).host_launch_us if device.is_gpu else None
        return (
            instr.packed_index, instr.args[:num_inputs], instr.args[num_inputs:],
            kind == "shape_func", kind == "host_scalar", kind == "compute",
            device, launch_us, instr.stream,
        )

    def _invoke_packed(self, op: tuple, regs) -> None:
        (packed_index, in_regs, out_regs, is_shape_func, is_host_scalar, is_compute,
         device, launch_us, stream) = op
        kernel = self.exe.kernels[packed_index]
        inputs, shapes = [], []
        for r in in_regs:
            obj = regs[r]
            if not isinstance(obj, TensorObj):
                as_tensor(obj, "kernel input")
            data = obj.array.data
            inputs.append(data)
            shapes.append(data.shape)
        outputs = []
        for r in out_regs:
            obj = regs[r]
            if not isinstance(obj, TensorObj):
                as_tensor(obj, "kernel output")
            outputs.append(obj.array.data)
        clock = self.ctx.clock

        if is_shape_func:
            if kernel.info.mode.value == "data_dependent":
                in_shapes = shapes
                in_values = inputs
            else:
                # Inputs are shape vectors produced by ShapeOf.
                in_shapes = [tuple(map(int, data)) for data in inputs]
                in_values = None
            cost = kernel.cost_us(in_values)
            clock.host_advance(cost)
            self.profile.record_shape_func(cost)
            results = kernel.run(in_shapes, in_values)
            for out, result in zip(outputs, results):
                np.copyto(out, result)
            return

        invocation = kernel.invoke_cost(tuple(shapes))
        if launch_us is None:
            stream = 0
            clock.run_sync(invocation.duration_us)
        else:
            stream = (stream + self._stream_offset) % self._num_streams
            clock.launch_async(device, invocation.duration_us, launch_us, stream)
        if is_host_scalar:
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
            is_compute
            and self.ctx.numerics == "lite"
            and invocation.flops > LITE_SKIP_FLOPS
            and not kernel.info.is_dynamic
        ):
            return

        results = kernel.run(inputs)
        if len(results) != len(outputs):
            raise VMError(
                f"kernel {getattr(kernel, 'name', '?')} produced {len(results)} "
                f"outputs for {len(outputs)} buffers"
            )
        for out, result in zip(outputs, results):
            if out.shape != result.shape:
                raise VMError(
                    f"kernel output shape {result.shape} does not fit buffer "
                    f"{out.shape}"
                )
            np.copyto(out, result)

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
        _Op.LOAD_CONST: _op_load,
        _Op.LOAD_CONSTI: _op_load,
        _Op.DEVICE_COPY: _device_copy,
        _Op.SHAPE_OF: _op_shape_of,
        _Op.RESHAPE_TENSOR: _op_reshape_tensor,
        _Op.STREAM_EVENT: _op_stream_event,
        _Op.STREAM_WAIT: _op_stream_wait,
    })

    # Opcode -> ``decode(vm, instr)``; every other opcode's operand is
    # the instruction itself.
    _DECODERS = _by_opcode({
        _Op.INVOKE_PACKED: _decode_invoke_packed,
        _Op.ALLOC_TENSOR: _decode_alloc_tensor,
        _Op.LOAD_CONST: _decode_load_const,
        _Op.LOAD_CONSTI: _decode_load_consti,
        _Op.DEVICE_COPY: _decode_device_copy,
    })
