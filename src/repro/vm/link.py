"""Linking: an executable whose entry shapes are all static runs its
bounded recursion straight-line.

A specialized LSTM still walks its ``lstm_loop`` one step per call: a
``less`` launch, an ``If``, an ``add`` launch, an ``Invoke`` and a fresh
load of every weight and planned constant, each step, for a trip count
the shapes already fix. `link` is a pure bytecode → bytecode pass that
evaluates what the shapes decide once, when a `VirtualMachine` binds
the executable (exact and batched variants; never a partial one, never
a dynamic build):

* in the entry, a ``ShapeOf`` of a parameter is a constant: each run
  is guarded against the parameter's static shape (`guard_mismatch`;
  a static executable that does not link is guarded the same way);
* an ``InvokePacked`` of a CPU kernel whose inputs are all small integer
  constants (the loop's ``take``, ``less`` and ``add`` on rank-0 ints)
  is evaluated here, once, and its result is a constant;
* an ``If`` on constants folds, and a ``Goto`` is followed;
* an ``Invoke`` of a self-tail-recursive function is inlined: each
  self tail call starts a new copy of the callee on the caller's
  arguments, until a copy returns. If a test stops being constant,
  anything else needs control flow, or the copies pass `LINK_BUDGET`
  instructions, nothing is linked: the executable runs as compiled.

Every ``LoadConst`` / ``LoadConsti`` becomes a register loaded once,
where the linked code first reads it, and shared by every copy; a
folded value a kept instruction reads (the step index the ``take``
kernel reads) is loaded from a constant appended to the pool. What a
copy hands to the next lives in one of two register banks, the one its
arguments are not in; the rest of its registers, the next copy
overwrites, which releases them: fresh allocations and peak bytes stay
constant in the trip count. What no kept instruction reads — the loop test's and the
step counter's allocations — is dropped (`_drop_dead`).

The linked form is derived, never stored: the executable keeps its
functions and saves the same bytes. `linked` caches it on the
executable and by content, so a second VM over the same variant, or
over a copy loaded from the store, does not link again.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from repro.codegen.kernels import KernelSet
from repro.hardware.platforms import platform_by_name
from repro.tensor.device import Device
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.cfg import is_tail_call
from repro.vm.executable import Executable, VMFunction

_Op = ins.Opcode

# The most instructions one linked entry may have. Past it the loop stays
# rolled: generating Python costs 90-140 µs of host time per instruction,
# once per variant and process, and the bench-size models' longest served
# sequences (64 steps of a one-layer LSTM on a GPU, 13 instructions each)
# fit.
LINK_BUDGET = 1024

# A constant the linker may compute with: an integer or boolean array of
# at most this many elements (shape vectors, indices, trip counts).
_SMALL = 64

# Instructions whose only effect is their write: dropped when nothing
# reads it.
_PURE = frozenset({
    _Op.LOAD_CONST, _Op.LOAD_CONSTI, _Op.ALLOC_STORAGE, _Op.ALLOC_TENSOR,
    _Op.ALLOC_TENSOR_REG, _Op.ALLOC_ADT, _Op.MOVE, _Op.GET_FIELD, _Op.GET_TAG,
    _Op.SHAPE_OF, _Op.RESHAPE_TENSOR,
})
# Writes whose value holds no reference count: overwriting one releases
# nothing.
_UNCOUNTED = frozenset({_Op.LOAD_CONST, _Op.LOAD_CONSTI, _Op.GET_TAG, _Op.SHAPE_OF,
                        _Op.DEVICE_COPY})

Guards = Tuple[Tuple[int, Tuple[int, ...]], ...]


class Linked(NamedTuple):
    """What a VM runs for an executable — *exe* itself or its linked
    form — and the static shape each run's parameters must have (none
    for a dynamic or partial build)."""

    exe: Executable
    guards: Guards = ()


class _Abort(Exception):
    """The entry cannot be linked; it runs as compiled."""


class _Const:
    """A value known when linking: pool constant *index*, the immediate
    *imm*, or a folded result (*index* resolved when first loaded).
    *array* is its value when it is a small integer array."""

    __slots__ = ("index", "imm", "array", "device")

    def __init__(self, index: Optional[int] = None, imm: Optional[int] = None,
                 array: Optional[np.ndarray] = None, device: Optional[Device] = None) -> None:
        self.index, self.imm, self.array, self.device = index, imm, array, device

    def scalar(self) -> Optional[int]:
        """The int an ``If`` compares, if known."""
        if self.imm is not None:
            return self.imm
        if self.array is not None and self.array.size == 1:
            return int(self.array.item())
        return None


Value = Union[int, _Const]  # a linked register, or a constant


def _small(array: NDArray) -> Optional[np.ndarray]:
    data = array.data
    if data.size <= _SMALL and data.dtype.kind in "iub" and not array.device.is_gpu:
        return data
    return None


def static_shapes(exe: Executable) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Each entry parameter's shape, if all are bound: the specialized
    shapes, stacked along axis 0 for a batched variant; else None."""
    markers = exe.specialized_shapes
    if markers is None or exe.is_partial:
        return None
    batch = exe.specialized_batch or 1
    shapes = []
    for marker in markers:
        if not isinstance(marker, tuple) or not all(type(d) is int for d in marker):
            return None
        if batch > 1:
            if not marker:
                return None
            marker = (marker[0] * batch,) + marker[1:]
        shapes.append(marker)
    return tuple(shapes)


def guard_mismatch(guards: Guards, inputs) -> Optional[str]:
    """The first parameter whose shape differs from its static one (the
    one a linked form was folded for); an input without a shape fails
    too."""
    for param, shape in guards:
        actual = getattr(inputs[param], "shape", None)
        if actual is None or tuple(int(d) for d in actual) != shape:
            return (f"guard: param {param} has shape {None if actual is None else tuple(actual)} "
                    f"but the executable is static at {shape}")
    return None


def _self_tail_recursive(func: VMFunction, index: int) -> bool:
    """Every call in *func* is a tail call to itself, and it makes no
    closure."""
    code = func.instructions
    for pc, instr in enumerate(code):
        if instr.opcode in (_Op.INVOKE_CLOSURE, _Op.ALLOC_CLOSURE):
            return False
        if instr.opcode == _Op.INVOKE and (instr.func_index != index or not is_tail_call(code, pc)):
            return False
    return True


def _remap(instr: ins.Instruction, use, define) -> ins.Instruction:
    """*instr* over linked registers: each register it reads through
    *use*, then its ``dst`` through *define*."""
    changes = {}
    for f in dataclasses.fields(instr):
        if f.metadata.get("reg") and f.name != "dst":
            value = getattr(instr, f.name)
            changes[f.name] = tuple(map(use, value)) if f.metadata.get("many") else use(value)
    if hasattr(instr, "dst"):
        changes["dst"] = define(instr.dst)
    return dataclasses.replace(instr, **changes)


class _Frame:
    """One function's registers while it is linked: what each holds,
    which it wrote itself, and the linked register *reg* maps each of
    its own to."""

    def __init__(self, func: VMFunction, args: List[Value], reg: Callable[[int], int]) -> None:
        self.func = func
        self.values: Dict[int, Value] = dict(enumerate(args))
        self.owned: Set[int] = set()
        self.reg = reg


class _Linker:
    def __init__(self, exe: Executable, shapes: Tuple[Tuple[int, ...], ...]) -> None:
        self.exe = exe
        self.host = platform_by_name(exe.platform_name).host
        entry = exe.functions[exe.func_index[exe.entry]]
        self.entry = entry
        self.code: List[ins.Instruction] = []
        self.registers = entry.register_count
        self.shapes = dict(enumerate(shapes))  # entry parameter -> static shape
        self.extras: List[NDArray] = []
        self.pool: Dict[tuple, int] = {}  # a small constant's content -> pool index
        for index, constant in enumerate(exe.constants):
            array = _small(constant)
            if array is not None:
                self.pool.setdefault(self._content(array, constant.device), index)
        self.loaded: Dict[tuple, int] = {}  # ("pool", index) / ("imm", value) -> register
        self.ints: Dict[int, int] = {}  # register -> the int a LoadConsti left in it
        # register -> (shape, dtype, device, position) of the AllocTensor
        # that wrote it
        self.tensors: Dict[int, tuple] = {}
        self.devices: Dict[int, Device] = {}  # storage register -> its device
        self.inlined = 0

    @staticmethod
    def _content(array: np.ndarray, device: Device) -> tuple:
        return (array.dtype.str, array.shape, array.tobytes(), device)

    # ---------------------------------------------------------- registers
    def fresh(self, count: int = 1) -> int:
        base = self.registers
        self.registers += count
        return base

    def emit(self, instr: ins.Instruction) -> None:
        self.code.append(instr)
        # What nothing reads is dropped only at the end: it may be as
        # much again as what stays.
        if len(self.code) > 2 * LINK_BUDGET:
            raise _Abort("over the budget")

    def materialize(self, value: _Const) -> int:
        """The register holding *value*, loaded where it is first read."""
        if value.imm is not None:
            key = ("imm", value.imm)
        else:
            if value.index is None:
                content = self._content(value.array, value.device)
                value.index = self.pool.get(content)
                if value.index is None:
                    value.index = self.pool[content] = len(self.exe.constants) + len(self.extras)
                    self.extras.append(NDArray(value.array, value.device))
            key = ("pool", value.index)
        reg = self.loaded.get(key)
        if reg is None:
            reg = self.loaded[key] = self.fresh()
            load = ins.LoadConsti(value.imm, reg) if value.imm is not None \
                else ins.LoadConst(value.index, reg)
            self.emit(load)
        return reg

    def use(self, frame: _Frame, r: int) -> int:
        value = frame.values.get(r)
        if value is None:
            raise _Abort(f"{frame.func.name} reads register {r} before writing it")
        return value if value.__class__ is int else self.materialize(value)

    def define(self, frame: _Frame, r: int) -> int:
        reg = frame.reg(r)
        frame.values[r] = reg
        frame.owned.add(r)
        self.shapes.pop(reg, None)  # an entry parameter overwritten
        self.ints.pop(reg, None)
        self.tensors.pop(reg, None)
        self.devices.pop(reg, None)
        return reg

    def scalar(self, frame: _Frame, r: int) -> Optional[int]:
        value = frame.values.get(r)
        if value.__class__ is int:
            return self.ints.get(value)
        return None if value is None else value.scalar()

    # -------------------------------------------------------------- walk
    def run(self) -> VMFunction:
        result = self.frame(self.entry, list(range(self.entry.num_params)), lambda r: r)
        if self.inlined == 0:
            raise _Abort("no call to link")
        self.emit(ins.Ret(result))
        code = _drop_dead(self.code, self.entry.num_params)
        if len(code) > LINK_BUDGET:
            raise _Abort("over the budget")
        return VMFunction(self.entry.name, self.entry.num_params, code, self.registers)

    def call(self, index: int, args: List[Value]) -> int:
        """Inline function *index* on *args*, each self tail call a new
        copy; the register the last copy returns."""
        func = self.exe.functions[index]
        if func is self.entry or not _self_tail_recursive(func, index):
            raise _Abort(f"{func.name} is not self-tail-recursive")
        # The registers a copy hands to the next (its parameters and what
        # its tail call passes) alternate between banks, so that a copy
        # never overwrites what it reads; the rest share one bank, which
        # each copy overwrites, releasing the copy before's values. Banks
        # are this call's own: the caller may still read another's.
        carried = set(range(func.num_params)) | {
            r for i in func.instructions if i.opcode == _Op.INVOKE for r in i.args}
        fixed = self.fresh(func.register_count)
        banks: List[int] = []
        while True:
            self.inlined += 1
            taken = {v for v in args if v.__class__ is int}
            for base in banks:
                if not any(base <= v < base + func.register_count for v in taken):
                    break
            else:
                base = self.fresh(func.register_count)
                banks.append(base)
            step = self.frame(func, args, lambda r, base=base: (base if r in carried else fixed) + r,
                              index)
            if step.__class__ is int:
                return step
            args = step

    def frame(self, func: VMFunction, args: List[Value], reg: Callable[[int], int],
              self_index: Optional[int] = None):
        """Link one activation of *func*: the register its ``Ret``
        returns, or — at a self tail call — the next copy's arguments."""
        frame = _Frame(func, args, reg)
        code = func.instructions
        pc = 0
        while True:
            if not 0 <= pc < len(code):
                raise _Abort(f"{func.name}: control leaves the function at pc {pc}")
            instr = code[pc]
            op = instr.opcode
            if op == _Op.IF:
                test, target = self.scalar(frame, instr.test), self.scalar(frame, instr.target)
                if test is None or target is None:
                    raise _Abort(f"{func.name}: the If at pc {pc} is not constant")
                pc += instr.true_offset if test == target else instr.false_offset
                continue
            if op == _Op.GOTO:
                pc += instr.pc_offset
                continue
            if op == _Op.RET:
                return self.use(frame, instr.result)
            if op == _Op.INVOKE:
                args = [frame.values.get(r) for r in instr.args]
                if None in args:
                    raise _Abort(f"{func.name}: a call at pc {pc} reads an unwritten register")
                if instr.func_index == self_index:
                    return args  # a tail call (`_self_tail_recursive`)
                if func is not self.entry:
                    raise _Abort(f"{func.name}: a nested call at pc {pc}")
                frame.values[instr.dst] = self.call(instr.func_index, args)
                frame.owned.discard(instr.dst)
            elif op == _Op.LOAD_CONST and instr.dst not in frame.owned:
                constant = self.exe.constants[instr.const_index]
                frame.values[instr.dst] = _Const(instr.const_index, array=_small(constant))
            elif op == _Op.LOAD_CONSTI and instr.dst not in frame.owned:
                frame.values[instr.dst] = _Const(imm=instr.value)
            elif op == _Op.MOVE and instr.dst not in frame.owned and \
                    frame.values.get(instr.src).__class__ is _Const:
                frame.values[instr.dst] = frame.values[instr.src]
            elif op == _Op.SHAPE_OF and instr.dst not in frame.owned and \
                    frame.values.get(instr.tensor) in self.shapes:
                shape = self.shapes[frame.values[instr.tensor]]
                frame.values[instr.dst] = _Const(
                    array=np.asarray(shape, dtype=np.int64), device=self.host)
            elif op == _Op.INVOKE_PACKED and self.fold(frame, instr):
                pass
            elif op in (_Op.INVOKE_CLOSURE, _Op.ALLOC_CLOSURE, _Op.FATAL):
                raise _Abort(f"{func.name}: {type(instr).__name__} at pc {pc}")
            else:
                self.emit(_remap(instr, lambda r: self.use(frame, r),
                                 lambda r: self.define(frame, r)))
                if op == _Op.LOAD_CONSTI:
                    self.ints[frame.values[instr.dst]] = instr.value
                elif op == _Op.ALLOC_STORAGE:
                    self.devices[frame.values[instr.dst]] = instr.device
                elif op == _Op.ALLOC_TENSOR:
                    device = self.devices.get(self.use(frame, instr.storage))
                    self.tensors[frame.values[instr.dst]] = (
                        instr.shape, instr.dtype, device, len(self.code) - 1)
            pc += 1

    def fold(self, frame: _Frame, instr: ins.InvokePacked) -> bool:
        """Evaluate a kernel on constants now; False where it must run."""
        kernel = self.exe.kernels[instr.packed_index]
        if instr.kind == "shape_func" or instr.device.is_gpu or not isinstance(kernel, KernelSet):
            return False
        inputs = [frame.values.get(r) for r in instr.inputs]
        if not all(v.__class__ is _Const and v.array is not None for v in inputs):
            return False
        outputs = []
        for r in instr.outputs:
            reg = frame.values.get(r)
            allocated = self.tensors.get(reg) if r in frame.owned else None
            if allocated is None or allocated[2] is None or allocated[2].is_gpu:
                return False
            shape, dtype, device, at = allocated
            # Nothing may have read the buffer since it was allocated: a
            # copy of it would never see the value.
            if int(np.prod(shape, dtype=np.int64)) > _SMALL or any(
                    reg in ins.operands(i)[0] for i in self.code[at + 1:]):
                return False
            outputs.append((NDArray.layout(shape, dtype)[0], shape, device))
        arrays = [np.empty(shape, dtype) for dtype, shape, _ in outputs]
        try:
            kernel.run([v.array for v in inputs], arrays)
        except Exception:
            return False  # the run raises it, as the compiled code would
        for r, array, (_, _, device) in zip(instr.outputs, arrays, outputs):
            frame.values[r] = _Const(array=array, device=device)
            frame.owned.discard(r)
        return True


def _drop_dead(code: List[ins.Instruction], num_params: int) -> List[ins.Instruction]:
    """*code* without the pure writes nothing reads. A write over a
    register that may hold a counted value stays: it is where that value
    is released (a kill)."""
    kept: Set[int] = set()  # pure writes that must stay
    while True:
        dropped: Set[int] = set()
        live: Set[int] = set()
        for pc in range(len(code) - 1, -1, -1):
            reads, writes = ins.operands(code[pc])
            if code[pc].opcode in _PURE and pc not in kept and live.isdisjoint(writes):
                dropped.add(pc)
                continue
            live.difference_update(writes)
            live.update(reads)
        counted = set(range(num_params))  # registers a kept write left counted
        grew = False
        for pc, instr in enumerate(code):
            for r in ins.operands(instr)[1]:
                if pc in dropped:
                    if r in counted:
                        kept.add(pc)
                        grew = True
                elif instr.opcode in _UNCOUNTED:
                    counted.discard(r)
                else:
                    counted.add(r)
        if not grew:
            return [instr for pc, instr in enumerate(code) if pc not in dropped]


def _entry_to_link(exe: Executable, shapes) -> Optional[int]:
    """The index of *exe*'s entry if it may link: all of its parameters
    static and a call in it to inline."""
    index = exe.func_index.get(exe.entry)
    if shapes is None or index is None:
        return None
    entry = exe.functions[index]
    if entry.num_params != len(shapes) or not any(
            i.opcode == _Op.INVOKE for i in entry.instructions):
        return None
    return index


def _with_entry(exe: Executable, index: int, func: VMFunction,
                extras: List[NDArray]) -> Executable:
    functions = list(exe.functions)
    functions[index] = func
    return dataclasses.replace(exe, functions=functions,
                               constants=list(exe.constants) + list(extras))


def link(exe: Executable) -> Optional[Executable]:
    """The linked form of *exe*, or None where nothing links: a dynamic
    or partial build, an entry with no call to inline, or a loop that
    does not unroll inside the budget."""
    shapes = static_shapes(exe)
    index = _entry_to_link(exe, shapes)
    if index is None:
        return None
    linker = _Linker(exe, shapes)
    try:
        func = linker.run()
    except _Abort:
        return None
    return _with_entry(exe, index, func, linker.extras)


# Linked forms by content: what links one executable links a copy loaded
# from the store. An entry is one instruction list and a few scalars
# (0.27 MB for 670 instructions); the bound is the generated code's.
CACHE_SIZE = 32
_CACHE: "OrderedDict[tuple, Optional[tuple]]" = OrderedDict()


def _content_key(exe: Executable, shapes) -> tuple:
    small = tuple((i, array.dtype.str, array.shape, array.tobytes())
                  for i, array in ((i, _small(c)) for i, c in enumerate(exe.constants))
                  if array is not None)
    return (exe.content_hash(), exe.entry, shapes, small,
            tuple(getattr(k, "name", type(k).__name__) for k in exe.kernels),
            tuple((f.name, f.num_params, f.register_count, tuple(f.instructions))
                  for f in exe.functions))


def _cached_link(exe: Executable, shapes) -> Optional[Executable]:
    """`link(exe)`, from the cache when an executable of the same
    content has linked before."""
    index = _entry_to_link(exe, shapes)
    if index is None:
        return None
    key = _content_key(exe, shapes)
    if key in _CACHE:
        _CACHE.move_to_end(key)
    else:
        made = link(exe)
        # The function's fields, not the function: a bound function keeps
        # the generated-code key of its executable's constants.
        func = None if made is None else made.functions[index]
        _CACHE[key] = None if made is None else (
            (func.name, func.num_params, func.instructions, func.register_count),
            made.constants[len(exe.constants):])
        if len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)
        return made
    if _CACHE[key] is None:
        return None
    fields, extras = _CACHE[key]
    return _with_entry(exe, index, VMFunction(*fields), extras)


def linked(exe: Executable) -> Linked:
    """What a VM binding *exe* runs: its linked form where one exists,
    else *exe* itself, and its guards. Kept on the executable."""
    if exe.linked is None:
        shapes = static_shapes(exe)
        exe.linked = Linked(_cached_link(exe, shapes) or exe,
                            () if shapes is None else tuple(enumerate(shapes)))
    return exe.linked
