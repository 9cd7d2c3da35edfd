"""The VM's executor, generated: each `VMFunction` compiles once to Python.

A function is cut into basic blocks — at every jump target and after
every instruction that leaves the block (``If``, ``Goto``, ``Ret``,
``Invoke``, ``InvokeClosure``, ``Fatal``) — and each block becomes one
Python function ``block(R)`` over the frame's register list ``R``, or,
past `PIECE` instructions, several that fall through to one another. Its
return value tells the trampoline (`VirtualMachine._execute`) what to
do next: an ``int`` is the next block of the same frame; ``(value,)``
returns *value* (retained, the frame's registers released);
``(func_index, args, dst, resume)`` calls a function on *args* (not yet
retained); and ``(func_index, args, None, None)`` is a tail call, an
``Invoke`` whose result the frame returns as it is: the args are
retained and the frame's registers released, and the callee takes the
frame's place.
The blocks, their successors and the worklist of the dataflow below
come from `repro.vm.cfg`.

Generation decides once what an interpreter decides per instruction:
every jump target, each kernel call's launch path, and each register's
kind. A forward dataflow over the blocks says what each register may
hold at each instruction (nothing yet, an int, a tensor whose count is
moot, a tensor carved from a storage, a storage, an ADT, anything), so
a write over a register holding nothing counted releases nothing, a
``Move`` adjusts a tensor's, storage's or ADT's count in place and a
returning frame a tensor's or storage's, and a kernel operand known to
be a tensor is not tested. A planned size or offset is a literal: the
compiler loads it with ``LoadConst`` / ``LoadConsti`` in each basic
block that reads it, and what the dataflow knows carries from one piece
of a basic block into the next.

Each instruction charges the clock once, first, in program order
(``C.host_us += I``), so every virtual number is bit-equal to an
interpreter's by construction. A block that completes bumps its hit
counter and adds its instructions' charges to the run's dispatch total
one by one; one that raises does neither, and the trampoline counts the
prefix it ran (`FunctionCode.executed`). Nothing that changes under a
live VM is baked in: a kernel is ``KN[i]`` at the call, the profile and
numerics are the run's (``S``), and the methods tracers patch are looked
up per call. Code is cached by content in a bounded LRU and binds only
what the VM holds, never the VM. The launch tape (`repro.vm.tape`)
records through this same code: it runs a VM whose kernels keep their
operands instead of running.
"""

from __future__ import annotations

import linecache
import zlib
from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import VMError
from repro.runtime.context import LITE_SKIP_FLOPS
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.cfg import CFG, TERMINATORS, forward, is_tail_call, successors
from repro.vm.executable import VMFunction
from repro.vm.objects import (
    ADTObj,
    ClosureObj,
    StorageObj,
    TensorObj,
    VMObject,
    as_tensor,
)

_Op = ins.Opcode

# Generated functions kept by content, least recently used dropped first.
# The bound comes from the working sets measured on the benchmark's
# workloads, linked entries (`repro.vm.link`) included: 7 distinct
# functions on vm_single, generated in its set-up; serve_tiered rebuilds
# its VMs every pass over 5 (10 lookups a pass, all hits after the
# first), fleet_restart over 4 (32 lookups a pass; 6 with its set-up's).
# 32 also holds one served model with its dynamic executable and four
# specialized variants (at most 10 for the LSTM); a launch tape records
# through the entries a run uses. An entry holds about 0.25 MB for the
# bench-size BERT's main, 0.58 MB for a 648-instruction linked LSTM
# entry and 0.87 MB for one of 977, near `LINK_BUDGET`.
CACHE_SIZE = 32

# A basic block longer than this many instructions is generated as
# pieces, each a block of the trampoline falling through to the next.
# Python's compiler holds memory in proportion to the function it
# compiles, and peak RSS keeps it: compiling a linked 670-instruction
# block (`repro.vm.link`) whole raised RSS by 16.9 MB, in 500-line pieces
# by 1.6 MB; fleet_restart, which links four, peaks at 64.2 MiB with
# 32-instruction pieces, 66.2 with 128 and 61.2 linking none. What a
# register holds and which sizes are literals carry across the cut.
PIECE = 32

# What a register may hold, as bits, at one point of the function:
# nothing yet (None), a Python int, a tensor whose retain / release do
# nothing (a constant, a shape vector, a copy), a tensor carved from a
# storage, a tensor that may or may not be (a reshape), a storage, an
# ADT, a closure, or anything (a parameter, a field, a call's result).
_NONE, _INT, _CONST, _TENSOR, _VIEW, _STORAGE, _ADT, _CLOSURE, _ANY = (
    1, 2, 4, 8, 16, 32, 64, 128, 256)
_COUNTED = _TENSOR | _VIEW | _STORAGE | _ADT | _CLOSURE | _ANY
_TENSORS = _CONST | _TENSOR | _VIEW
_WRITES = {
    _Op.LOAD_CONST: _CONST, _Op.LOAD_CONSTI: _INT, _Op.GET_TAG: _INT,
    _Op.SHAPE_OF: _CONST, _Op.DEVICE_COPY: _CONST,
    _Op.ALLOC_STORAGE: _STORAGE, _Op.ALLOC_TENSOR: _TENSOR, _Op.ALLOC_TENSOR_REG: _TENSOR,
    _Op.ALLOC_ADT: _ADT, _Op.ALLOC_CLOSURE: _CLOSURE, _Op.RESHAPE_TENSOR: _VIEW,
}  # Move copies its source's; GetField, Invoke and InvokeClosure write anything


def _write_kind(instr, kinds: List[int]) -> int:
    if instr.opcode == _Op.MOVE:
        return kinds[instr.src]
    return _WRITES.get(instr.opcode, _ANY)


# ------------------------------------------------------ run-time helpers
def read_scalar(value, C, S) -> int:
    """A register as a Python scalar: an alloc size, an offset, an ``If``
    operand. Planned sizes and offsets are literals in the code; this
    reads a kernel-produced scalar, an immediate, or a constant the
    block did not load."""
    if value.__class__ is int:
        return value
    if isinstance(value, TensorObj):
        array = value.array
        if array.device.is_gpu:
            # Host reads of device values synchronize the queue.
            host_sync(C, S.profile, array.device)
        return int(array.item())
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise VMError(f"cannot read a scalar from {type(value).__name__}")


def host_sync(C, P, device) -> None:
    """The host waits for *device* to drain; the profile keeps the wait."""
    before = C.host_us
    C.sync(device)
    P.host_sync_wait_us += C.host_us - before


def shape_func(kernel, inputs, outputs, C, P) -> None:
    """One shape function: priced on the host, run, written in place."""
    if kernel.info.mode.value == "data_dependent":
        in_shapes = [data.shape for data in inputs]
        in_values = inputs
    else:
        # Inputs are shape vectors produced by ShapeOf.
        in_shapes = [tuple(map(int, data)) for data in inputs]
        in_values = None
    cost = kernel.cost_us(in_values)
    C.host_advance(cost)
    P.record_shape_func(cost)
    for out, result in zip(outputs, kernel.run(in_shapes, in_values)):
        np.copyto(out, result)


def copy_terms(platform, src_device, dst_device) -> Tuple[float, float]:
    """A copy costs ``latency_us + nbytes / bytes_per_us``: over the link
    of whichever end is a GPU, else through host DRAM (where adding a
    latency of 0.0 leaves the quotient bit-equal)."""
    if src_device.is_gpu or dst_device.is_gpu:
        spec = platform.spec_of(src_device if src_device.is_gpu else dst_device)
        return spec.copy_latency_us, spec.copy_bw_gbps * 1e3
    return 0.0, platform.host_spec.dram_bw_gbps * 1e3


def reshaped(tensor, shape_obj) -> TensorObj:
    newshape = tuple(int(d) for d in shape_obj.data)
    return TensorObj(tensor.array.reshape(newshape), tensor.storage_obj)


# What generated code reads by name, besides its own constants.
_GLOBALS = {
    "VMError": VMError, "VMObject": VMObject, "TensorObj": TensorObj,
    "StorageObj": StorageObj, "ADTObj": ADTObj,
    "ClosureObj": ClosureObj, "NDArray": NDArray, "as_tensor": as_tensor,
    "asarray": np.asarray, "int64": np.int64,
    "LITE_SKIP_FLOPS": LITE_SKIP_FLOPS, "read_scalar": read_scalar,
    "host_sync": host_sync, "shape_func": shape_func, "reshaped": reshaped,
    "copy_terms": copy_terms,
}

# How a block's ``make(vm, H)`` reads each per-VM name it binds.
_BINDINGS = {
    "C": "vm.ctx.clock", "A": "vm.ctx.allocator", "KN": "vm.exe.kernels",
    "K": "vm._constants", "S": "vm._state", "I": "vm._instr_us", "LG": "vm._state.launches",
    "EV": "vm._events", "NS": "vm._num_streams", "PF": "vm.ctx.platform",
    "HOST": "vm.ctx.platform.host", "ERU": "vm._event_record_us",
    "WEU": "vm._wait_event_us", "ESU": "vm._event_sync_us",
}


# -------------------------------------------------------------- analysis
class _Shape(CFG):
    """The basic blocks of one function, and what may be in each register
    on entry to each block: the union over the paths reaching it
    (nothing, in a block none reaches)."""

    def __init__(self, func: VMFunction) -> None:
        code = func.instructions
        super().__init__(code)
        registers = func.register_count

        def transfer(b: int, kinds: List[int]) -> List[int]:
            kinds = list(kinds)
            start, end = self.blocks[b]
            for instr in code[start:end]:
                for dst in ins.operands(instr)[1]:
                    kinds[dst] = _write_kind(instr, kinds)
            return kinds

        entry = [_ANY if r < func.num_params else _NONE for r in range(registers)]
        found = forward(self, entry, transfer, lambda a, b: [x | y for x, y in zip(a, b)])
        self.kinds_in: List[List[int]] = [k if k is not None else [0] * registers for k in found]


# ------------------------------------------------------------ generation
class _Block:
    """Writes one piece's source: pcs *start* to *end* of basic block
    *block*, the trampoline's block *b*. Each opcode's meaning is the one
    method named after it. ``kinds`` is what each register may hold at
    the instruction being written, and ``values`` the int a register is
    known to hold: on entry to a basic block, its ``kinds_in`` and
    nothing; on entry to a later piece of one, what the piece before
    left (*carried*). ``first[block]`` is the piece a jump to a basic
    block lands on."""

    def __init__(self, func: VMFunction, shape: _Shape, b: int, block: int, start: int,
                 end: int, const_values: dict, first: List[int],
                 carried: Optional["_Block"] = None) -> None:
        self.func = func
        self.shape = shape
        self.b = b
        self.block, self.start, self.end = block, start, end
        self.first = first
        self.const_values = const_values
        self.lines: List[str] = []
        self.indent = "        "
        self.binds: Dict[str, str] = {}  # name -> what `make` reads it from
        self.consts: Dict[str, object] = {}  # module-level name -> object
        self._const_names: Dict[tuple, str] = {}
        self.starts: List[int] = []  # index in `lines` of each instruction's first
        self.count = 0  # instructions written so far
        self.profile = False
        if carried is not None:
            self.kinds, self.values = list(carried.kinds), dict(carried.values)
        else:
            self.kinds = list(shape.kinds_in[block]) if block < len(shape.blocks) else []
            self.values: Dict[int, int] = {}

    # ------------------------------------------------------ small pieces
    def out(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def use(self, name: str) -> str:
        if name not in self.binds:
            self.binds[name] = _BINDINGS[name]
        return name

    def const(self, prefix: str, obj) -> str:
        """A module-level name for *obj* (a device, a dtype)."""
        key = (prefix, obj)
        if key not in self._const_names:
            name = self._const_names[key] = f"{prefix}{len(self._const_names)}"
            self.consts[name] = obj
        return self._const_names[key]

    def bind(self, prefix: str, expr: str) -> str:
        """A per-VM value computed once, when the block is bound."""
        for name, bound in self.binds.items():
            if bound == expr:
                return name
        name = f"{prefix}{len(self.binds)}"
        self.binds[name] = expr
        return name

    def P(self) -> str:
        self.use("S")
        self.profile = True
        return "P"

    def scalar(self, r: int) -> str:
        if r in self.values:
            return repr(self.values[r])
        return f"read_scalar(R[{r}], {self.use('C')}, {self.use('S')})"

    def size(self, r: int, name: str) -> str:
        """A planned size or offset: a literal, or read into *name*."""
        if r in self.values:
            return repr(self.values[r])
        self.out(f"{name} = {self.scalar(r)}")
        return name

    def tensor(self, r: int, name: str, what: str, data: bool = False) -> str:
        """Register *r* into *name*, tested to be a tensor unless it is one;
        with *data*, its array's NumPy data."""
        read = ".array.data" if data else ""
        if self.kinds[r] & ~_TENSORS:
            self.out(f"{name} = R[{r}]")
            self.out(f"if not isinstance({name}, TensorObj): as_tensor({name}, {what!r})")
            if data:
                self.out(f"{name} = {name}{read}")
        else:
            self.out(f"{name} = R[{r}]{read}")
        return name

    def retain(self, name: str, kind: int) -> None:
        """Retain the value in *name*, which may hold what *kind* says."""
        test = f"if {name} is not None: " if kind & _NONE else ""
        kind &= ~_NONE
        if not kind & _COUNTED:
            return
        if kind & (_INT | _ANY):
            self.out(f"if isinstance({name}, VMObject): {name}.retain()")
        elif kind == _TENSOR:
            self.out(f"{test}{name}.storage_obj.rc += 1")  # TensorObj.retain
        elif kind in (_STORAGE, _ADT):
            self.out(f"{test}{name}.rc += 1")  # StorageObj.retain, ADTObj.retain
        else:
            self.out(f"{test}{name}.retain()")

    def release(self, r: int, inline: bool = False) -> None:
        """Release what register *r* holds, if it may hold a counted
        object. *inline*: a tensor's or a storage's count is dropped in
        place, the storage freed where it reaches zero
        (`StorageObj.release`), where a frame's registers go at once."""
        kind = self.kinds[r]
        if not kind & _COUNTED:
            return
        if kind & (_INT | _ANY):
            self.out(f"o = R[{r}]")
            self.out("if isinstance(o, VMObject): o.release()")
            return
        test = f"if R[{r}] is not None:" if kind & _NONE else ""
        kind &= ~_NONE
        if not inline or kind not in (_TENSOR, _STORAGE):
            self.out(f"{test} R[{r}].release()" if test else f"R[{r}].release()")
            return
        lines = [f"o = R[{r}]" + (".storage_obj" if kind == _TENSOR else ""), "o.rc -= 1",
                 "if o.rc == 0 and o.on_free is not None: o.on_free(o.storage)"]
        if test:
            self.out(test)
            lines = ["    " + line for line in lines]
        for line in lines:
            self.out(line)

    def release_frame(self) -> None:
        """Release every register, in order: what is freed, and when, is
        what an interpreter releasing the whole frame frees."""
        for r in range(self.func.register_count):
            self.release(r, inline=True)

    def write(self, dst: int, expr: str, kind: int, value: Optional[int] = None,
              load: bool = False) -> None:
        """``R[dst] = expr``, the old value released after *expr* is made
        (a *load* makes nothing)."""
        if self.kinds[dst] & _COUNTED and expr != "v" and not load:
            self.out(f"v = {expr}")
            expr = "v"
        self.release(dst)
        self.out(f"R[{dst}] = {expr}")
        self.kinds[dst] = kind
        self.values.pop(dst, None)
        if value is not None:
            self.values[dst] = value

    def leave(self, statement: str) -> None:
        """Leave the block: count it, then *statement* (a return)."""
        self.out(f"H[{self.b}] += 1")
        S, I = self.use("S"), self.use("I")
        self.out(f"{S}.d = {S}.d" + f" + {I}" * self.count)
        self.out(statement)

    def piece(self, pc: int) -> Optional[int]:
        """The piece a jump to *pc* lands on; None outside the function."""
        block = self.shape.target(pc)
        return None if block is None else self.first[block]

    def jump(self, pc: int, to: int) -> None:
        """Leave for pc *to*; a target outside the function raises."""
        piece = self.piece(to)
        if piece is None:
            message = f"{self.func.name}: jump from pc {pc} to {to}, outside [0, {self.shape.n})"
            self.out(f"raise VMError({message!r})")
        else:
            self.leave(f"return {piece}")

    # ----------------------------------------------------------- opcodes
    def move(self, pc: int, i: ins.Move) -> None:
        kind = self.kinds[i.src]
        self.out(f"v = R[{i.src}]")
        self.retain("v", kind)
        self.write(i.dst, "v", kind, self.values.get(i.src))

    def load_const(self, pc: int, i: ins.LoadConst) -> None:
        self.write(i.dst, f"{self.use('K')}[{i.const_index}]", _CONST,
                   self.const_values[i.const_index], load=True)

    def load_consti(self, pc: int, i: ins.LoadConsti) -> None:
        self.write(i.dst, repr(i.value), _INT, i.value, load=True)

    def alloc_storage(self, pc: int, i: ins.AllocStorage) -> None:
        nbytes = self.size(i.allocation_size, "n")
        A, P = self.use("A"), self.P()
        device = self.const("D", i.device)
        # A planned size draws from one free list, looked up when bound.
        pool = (", " + self.bind("F", f"{A}.free_list({nbytes}, {device})")
                if i.allocation_size in self.values else "")
        # This alloc's own charge: contexts (and so allocators) are shared
        # by the VMs of a Worker's tiers, each with a profile of its own.
        self.out(f"w = {A}.stats")
        self.out("u = w.alloc_time_us")
        self.out(f"s = {A}.alloc({nbytes}, {i.alignment!r}, {device}{pool})")
        self.out(f"{P}.alloc_time_us += w.alloc_time_us - u")
        self.write(i.dst, f"StorageObj(s, {A}.free)", _STORAGE)

    def _alloc_tensor(self, i, layout: str) -> None:
        """AllocTensor / AllocTensorReg: a view with a layout into a storage."""
        self.out(f"so = R[{i.storage}]")
        if self.kinds[i.storage] != _STORAGE:
            self.out("if not isinstance(so, StorageObj): "
                     "raise VMError('AllocTensor on a non-storage object')")
        offset = self.size(i.offset, "off")
        self.out("s = so.storage")
        self.write(i.dst, f"TensorObj(NDArray(s.view({offset}, {layout}), s.device, s, "
                          f"{offset}), so)", _TENSOR)

    def alloc_tensor(self, pc: int, i: ins.AllocTensor) -> None:
        np_dtype, shape, nbytes = NDArray.layout(i.shape, i.dtype)
        self._alloc_tensor(i, f"{nbytes!r}, {self.const('T', np_dtype)}, {shape!r}")

    def alloc_tensor_reg(self, pc: int, i: ins.AllocTensorReg) -> None:
        self.tensor(i.shape_register, "t", "AllocTensorReg shape")
        self.out(f"dt, sh, nb = NDArray.layout(t.data, {i.dtype!r})")
        self._alloc_tensor(i, "nb, dt, sh")

    def alloc_adt(self, pc: int, i: ins.AllocADT) -> None:
        fields = ", ".join(f"R[{r}]" for r in i.fields)
        self.write(i.dst, f"ADTObj({i.tag!r}, [{fields}])", _ADT)

    def alloc_closure(self, pc: int, i: ins.AllocClosure) -> None:
        captured = ", ".join(f"R[{r}]" for r in i.captured)
        self.write(i.dst, f"ClosureObj({i.func_index!r}, [{captured}])", _CLOSURE)

    def get_field(self, pc: int, i: ins.GetField) -> None:
        self.out(f"a = R[{i.obj}]")
        if self.kinds[i.obj] != _ADT:
            self.out("if not isinstance(a, ADTObj): raise VMError('GetField on a non-ADT object')")
        self.out(f"if not 0 <= {i.field_index} < len(a.fields): raise VMError("
                 f"f'GetField index {i.field_index} out of range "
                 "({len(a.fields)} fields)')")
        self.out(f"v = a.fields[{i.field_index}]")
        self.retain("v", _ANY)
        self.write(i.dst, "v", _ANY)

    def get_tag(self, pc: int, i: ins.GetTag) -> None:
        self.out(f"a = R[{i.obj}]")
        if self.kinds[i.obj] != _ADT:
            self.out("if not isinstance(a, ADTObj): raise VMError('GetTag on a non-ADT object')")
        self.write(i.dst, "a.tag", _INT)

    def shape_of(self, pc: int, i: ins.ShapeOf) -> None:
        t = self.tensor(i.tensor, "t", "ShapeOf")
        self.write(i.dst, f"TensorObj(NDArray(asarray({t}.shape, dtype=int64), "
                          f"{self.use('HOST')}))", _CONST)

    def reshape_tensor(self, pc: int, i: ins.ReshapeTensor) -> None:
        self.tensor(i.tensor, "t", "ReshapeTensor data")
        self.tensor(i.newshape, "z", "ReshapeTensor shape")
        self.write(i.dst, "reshaped(t, z)", _VIEW)

    def device_copy(self, pc: int, i: ins.DeviceCopy) -> None:
        t = self.tensor(i.src, "t", "DeviceCopy")
        C, P = self.use("C"), self.P()
        src, dst = self.const("D", i.src_device), self.const("D", i.dst_device)
        if i.src_device.is_gpu:
            self.out(f"host_sync({C}, {P}, {src})")
        self.use("PF")
        latency = self.bind("CL", f"copy_terms(PF, {src}, {dst})[0]")
        bandwidth = self.bind("CB", f"copy_terms(PF, {src}, {dst})[1]")
        self.out(f"c = {latency} + {t}.array.nbytes / {bandwidth}")
        self.out(f"{C}.host_advance(c)")
        self.out(f"{P}.copy_time_us += c")
        self.write(i.dst, f"TensorObj({t}.array.to_device({dst}))", _CONST)

    def stream(self, s: int) -> str:
        return f"({s!r} + {self.use('S')}.offset) % {self.use('NS')}"

    def stream_event(self, pc: int, i: ins.StreamEvent) -> None:
        self.out(f"{self.use('EV')}[{i.event_index!r}] = {self.use('C')}.record_event("
                 f"{self.const('D', i.device)}, {self.stream(i.stream)}, {self.use('ERU')})")
        self.out(f"{self.P()}.record_sync_event()")

    def stream_wait(self, pc: int, i: ins.StreamWait) -> None:
        self.out(f"ts = {self.use('EV')}.get({i.event_index!r})")
        self.out("if ts is not None:")
        self.out(f"    {self.P()}.record_sync_wait({self.use('C')}.wait_event("
                 f"{self.const('D', i.device)}, {self.stream(i.stream)}, ts, "
                 f"{self.use('WEU')}, {self.use('ESU')}))")

    def invoke_packed(self, pc: int, i: ins.InvokePacked) -> None:
        self.out(f"k = {self.use('KN')}[{i.packed_index!r}]")
        xs = [self.tensor(r, f"x{n}", "kernel input", True) for n, r in enumerate(i.inputs)]
        ys = [self.tensor(r, f"y{n}", "kernel output", True) for n, r in enumerate(i.outputs)]
        inputs, outputs = ", ".join(xs), ", ".join(ys)
        device = self.const("D", i.device)
        launch_us = None  # a synchronous device: the kernel runs on the host
        if i.device.is_gpu:
            self.use("PF")
            launch_us = self.bind("L", f"PF.spec_of({device}).host_launch_us")
        C = self.use("C")
        if i.kind == "shape_func":
            self.out(f"shape_func(k, [{inputs}], [{outputs}], {C}, {self.P()})")
            return
        shapes = ", ".join(f"{x}.shape" for x in xs) + ("," if len(xs) == 1 else "")
        self.out(f"c = k.invoke_cost(({shapes}))")
        if launch_us is None:
            stream = "0"
            self.out(f"{C}.host_us += c.duration_us")  # clock.run_sync, without the call
        else:
            stream = "s"
            self.out(f"s = {self.stream(i.stream)}")
            self.out(f"{C}.launch_async({device}, c.duration_us, {launch_us}, s)")
        if i.kind == "host_scalar":
            self.out(f"{self.P()}.host_scalar_time_us += c.duration_us")
        else:  # folded into the profile when the run ends (`VMProfile.record_launches`)
            self.out(f"{self.use('LG')}.append((c, k, {stream}))")
        if i.kind == "compute":
            # Lite numerics: large, data-independent compute kernels skip
            # the NumPy execution — output buffers already have the right
            # shapes and latency was modeled above.
            self.out(f"if not ({self.use('S')}.lite and c.flops > LITE_SKIP_FLOPS "
                     "and not k.info.is_dynamic):")
            self.indent += "    "
        self.out(f"k.run([{inputs}], [{outputs}])")
        self.indent = "        "

    def if_(self, pc: int, i: ins.If) -> None:
        self.out(f"a = {self.scalar(i.test)}")
        self.out(f"b = {self.scalar(i.target)}")
        yes, no = successors(pc, i)
        if self.piece(yes) is not None and self.piece(no) is not None:
            self.leave(f"return {self.piece(yes)} if a == b else {self.piece(no)}")
            return
        self.out("if a == b:")
        self.indent += "    "
        self.jump(pc, yes)
        self.indent = "        "
        self.jump(pc, no)

    def goto(self, pc: int, i: ins.Goto) -> None:
        self.jump(pc, successors(pc, i)[0])

    def ret(self, pc: int, i: ins.Ret) -> None:
        self.out(f"v = R[{i.result}]")
        self.retain("v", self.kinds[i.result])
        self.release_frame()
        self.leave("return (v,)")

    def _call(self, pc: int, func_index: str, args: str, dst: int) -> None:
        self.leave(f"return ({func_index}, {args}, {dst!r}, {self.piece(pc + 1)!r})")

    def invoke(self, pc: int, i: ins.Invoke) -> None:
        if not is_tail_call(self.func.instructions, pc):
            args = "".join(f"R[{r}], " for r in i.args)
            self._call(pc, repr(i.func_index), f"[{args[:-2]}]", i.dst)
            return
        # A tail call: the args retained, then this frame released as a
        # ``Ret`` releases it, so its storage is back in the pool before
        # the callee allocates. The ``Move``s, ``Goto``s and ``Ret`` after
        # the call never run, so they are never charged.
        for n, r in enumerate(i.args):
            self.out(f"a{n} = R[{r}]")
            self.retain(f"a{n}", self.kinds[r])
        self.release_frame()
        args = ", ".join(f"a{n}" for n in range(len(i.args)))
        self.leave(f"return ({i.func_index!r}, [{args}], None, None)")

    def invoke_closure(self, pc: int, i: ins.InvokeClosure) -> None:
        self.out(f"c = R[{i.closure}]")
        self.out("if not isinstance(c, ClosureObj): "
                 "raise VMError('InvokeClosure on a non-closure object')")
        args = "".join(f"R[{r}], " for r in i.args)
        self._call(pc, "c.func_index", f"[{args[:-2]}] + c.captured", i.dst)

    def fatal(self, pc: int, i: ins.Fatal) -> None:
        self.out(f"raise VMError({'VM fatal: ' + i.message!r})")

    # ------------------------------------------------------------ a block
    def source(self) -> str:
        """The piece's module: ``make(vm, H)`` binding and returning it.
        A piece that does not end its basic block, or a basic block that
        falls through, continues in the next piece."""
        code = self.func.instructions
        start, end = self.start, self.end
        if self.block == len(self.shape.blocks):
            self.out(f"raise VMError({f'fell off the end of {self.func.name}'!r})")
        for pc in range(start, end):
            self.count += 1
            self.starts.append(len(self.lines))
            self.out(f"{self.use('C')}.host_us += {self.use('I')}")
            _EMIT[code[pc].opcode](self, pc, code[pc])
        if start < end and code[end - 1].opcode not in TERMINATORS:
            self.leave(f"return {self.b + 1!r}")
        head = [f"# {self.func.name}, block {self.b}: pc {start} to {end - 1}",
                "def make(vm, H):"]
        head += [f"    {name} = {expr}" for name, expr in self.binds.items()]
        head.append("    def block(R):")
        if self.profile:
            head.append("        P = S.profile")
        self.starts = [len(head) + 1 + s for s in self.starts]  # 1-based line numbers
        return "\n".join(head + self.lines + ["    return block", ""])


_EMIT = {
    _Op.MOVE: _Block.move, _Op.RET: _Block.ret, _Op.INVOKE: _Block.invoke,
    _Op.INVOKE_CLOSURE: _Block.invoke_closure, _Op.INVOKE_PACKED: _Block.invoke_packed,
    _Op.ALLOC_STORAGE: _Block.alloc_storage, _Op.ALLOC_TENSOR: _Block.alloc_tensor,
    _Op.ALLOC_TENSOR_REG: _Block.alloc_tensor_reg, _Op.ALLOC_ADT: _Block.alloc_adt,
    _Op.ALLOC_CLOSURE: _Block.alloc_closure, _Op.GET_FIELD: _Block.get_field,
    _Op.GET_TAG: _Block.get_tag, _Op.IF: _Block.if_, _Op.GOTO: _Block.goto,
    _Op.LOAD_CONST: _Block.load_const, _Op.LOAD_CONSTI: _Block.load_consti,
    _Op.DEVICE_COPY: _Block.device_copy, _Op.SHAPE_OF: _Block.shape_of,
    _Op.RESHAPE_TENSOR: _Block.reshape_tensor, _Op.FATAL: _Block.fatal,
    _Op.STREAM_EVENT: _Block.stream_event, _Op.STREAM_WAIT: _Block.stream_wait,
}


class FunctionCode:
    """One function's blocks, generated and compiled: shared by every VM
    whose function has the same content (see `function_code`). A block is
    one basic block, or a piece of one longer than `PIECE` instructions.

    ``makes[b](vm, hits)`` binds block *b* to a VM; the last block is the
    end of the function, where falling off raises. ``opcodes[b]`` are its
    instructions' opcodes, in order, and ``tallies[b]`` the same as
    ``(opcode, count)`` pairs; ``starts[b]`` the line each begins on,
    which `executed` reads a traceback's line against. Each block is
    compiled under a file name inside this module's that `linecache`
    reads the block's source from, when a traceback first needs it.
    """

    __slots__ = ("sources", "makes", "codes", "opcodes", "tallies", "starts", "filenames")

    def __init__(self, func: VMFunction, const_values: dict) -> None:
        shape = _Shape(func)
        self.sources: List[str] = []
        self.makes, self.codes, self.filenames = [], [], []
        self.opcodes: List[List[int]] = []
        self.tallies: List[List[Tuple[int, int]]] = []
        self.starts: List[List[int]] = []
        pieces, first = [], []  # (basic block, start, end); each block's first piece
        for block, (start, end) in enumerate(shape.blocks):
            first.append(len(pieces))
            pieces += [(block, pc, min(pc + PIECE, end)) for pc in range(start, end, PIECE)]
        first.append(len(pieces))
        pieces.append((len(shape.blocks), shape.n, shape.n))
        carried = None
        for b, (block_index, start, end) in enumerate(pieces):
            if carried is not None and carried.block != block_index:
                carried = None
            block = carried = _Block(func, shape, b, block_index, start, end, const_values,
                                     first, carried)
            source = block.source()
            filename = f"{__file__}<vm_{func.name}:{b}:{zlib.crc32(source.encode()):08x}>"
            namespace = dict(_GLOBALS, **block.consts)
            exec(compile(source, filename, "exec"), namespace)
            linecache.cache[filename] = (source.__str__,)  # a lazy entry
            make = namespace["make"]
            opcodes = [int(func.instructions[pc].opcode) for pc in range(start, end)]
            self.sources.append(source)
            self.filenames.append(filename)
            self.makes.append(make)
            self.codes.append(next(c for c in make.__code__.co_consts
                                   if getattr(c, "co_name", None) == "block"))
            self.opcodes.append(opcodes)
            self.tallies.append([(op, opcodes.count(op)) for op in dict.fromkeys(opcodes)])
            self.starts.append(block.starts)

    @property
    def source(self) -> str:
        return "\n".join(self.sources)

    def executed(self, b: int, line: int) -> List[int]:
        """The opcodes block *b* ran when it raised on *line*: the
        instruction on that line counts, those after it do not."""
        return self.opcodes[b][:bisect_right(self.starts[b], line)]


_CACHE: "OrderedDict[_Key, FunctionCode]" = OrderedDict()


class _Key:
    """A function's content as a cache key whose hash is computed once."""

    __slots__ = ("content", "values", "hash")

    def __init__(self, content: tuple, values: dict) -> None:
        self.content, self.values, self.hash = content, values, hash(content)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self is other or (self.hash == other.hash and self.content == other.content)


def _literal(array: NDArray) -> Optional[int]:
    """The Python int a constant is in the code: only a rank-0,
    integer-dtype tensor not on a GPU (reading one of those synchronises
    the device, a charge the clock keeps)."""
    data = array.data
    if data.ndim == 0 and data.dtype.kind in "iu" and not array.device.is_gpu:
        return int(data)
    return None


def function_code(func: VMFunction, constants: List[NDArray]) -> FunctionCode:
    """*func*'s generated code, from the cache when this process has
    generated the same content before. *constants* is the executable's
    constant pool: the value of an integer constant is part of the
    content (it is a literal in the code). The key is made once per
    function and pool and kept on the function, so a second VM binding
    it does one dict lookup."""
    if func.code_key is None or func.code_key[0] is not constants:
        code = func.instructions
        values = {i.const_index: _literal(constants[i.const_index])
                  for i in code if i.opcode == _Op.LOAD_CONST}
        content = (func.name, func.num_params, func.register_count, tuple(code),
                   tuple(values.items()))
        func.code_key = (constants, _Key(content, values))
    key = func.code_key[1]
    found = _CACHE.get(key)
    if found is not None:
        _CACHE.move_to_end(key)
        return found
    found = _CACHE[key] = FunctionCode(func, key.values)
    if len(_CACHE) > CACHE_SIZE:
        for filename in _CACHE.popitem(last=False)[1].filenames:
            linecache.cache.pop(filename, None)
    return found
