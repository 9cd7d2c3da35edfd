"""The VM instruction set — the 20 opcodes of Appendix A, Table A.1,
plus two scheduling opcodes (StreamEvent/StreamWait) for the AOT
multi-stream extension.

CISC-style, register-based: each instruction corresponds to a primitive IR
expression on tensors (allocation, kernel invocation, control flow), so
the dispatch loop executes very few instructions relative to kernel work
(§5.1). Registers are virtual and unbounded; instructions are variable
length (shape operands are inline).

Each class's field declarations are the one description of its
operands: the bytecode codec (``repro.vm.executable``) writes the fields
in declaration order as :func:`layout` lists them, and the analyses read
registers through :func:`operands` and :func:`aliases`. A field made
with :func:`reg` or :func:`regs` is a register; ``dst`` is the write,
every other register a read. A register field declared ``alias=True``
names what ``dst`` then holds, or holds a part of: the scheduler's RAW
edges and the lifetime checker's tensors follow it.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, NamedTuple, Tuple

from repro.tensor.device import Device


def reg(alias: bool = False):
    """A register operand; *alias*: ``dst`` then holds what it holds."""
    return field(metadata={"reg": True, "alias": alias})


def regs(alias: bool = False):
    """A tuple of register operands, written length-prefixed; *alias*:
    ``dst`` then holds what each of them holds."""
    return field(metadata={"reg": True, "alias": alias, "many": True})


class Opcode(enum.IntEnum):
    MOVE = 0
    RET = 1
    INVOKE = 2
    INVOKE_CLOSURE = 3
    INVOKE_PACKED = 4
    ALLOC_STORAGE = 5
    ALLOC_TENSOR = 6
    ALLOC_TENSOR_REG = 7
    ALLOC_ADT = 8
    ALLOC_CLOSURE = 9
    GET_FIELD = 10
    GET_TAG = 11
    IF = 12
    GOTO = 13
    LOAD_CONST = 14
    LOAD_CONSTI = 15
    DEVICE_COPY = 16
    SHAPE_OF = 17
    RESHAPE_TENSOR = 18
    FATAL = 19
    STREAM_EVENT = 20
    STREAM_WAIT = 21


@dataclass(frozen=True)
class Instruction:
    opcode = None  # overridden per class


@dataclass(frozen=True)
class Move(Instruction):
    """Moves data from one register to another (refcounted, cheap)."""

    src: int = reg(alias=True)
    dst: int = reg()
    opcode = Opcode.MOVE


@dataclass(frozen=True)
class Ret(Instruction):
    """Returns the object in `result` to the caller's register."""

    result: int = reg()
    opcode = Opcode.RET


@dataclass(frozen=True)
class Invoke(Instruction):
    """Invokes a global VM function."""

    func_index: int
    args: Tuple[int, ...] = regs()
    dst: int = reg()
    opcode = Opcode.INVOKE


@dataclass(frozen=True)
class InvokeClosure(Instruction):
    """Invokes a closure (captured registers are appended to the args)."""

    closure: int = reg()
    args: Tuple[int, ...] = regs()
    dst: int = reg()
    opcode = Opcode.INVOKE_CLOSURE


@dataclass(frozen=True)
class InvokePacked(Instruction):
    """Invokes an optimized operator kernel (or compiled shape function).

    ``outputs`` are written in place (in-out calling convention of
    ``invoke_mut``); ``kind`` distinguishes compute kernels from shape
    functions / host scalar kernels for placement and profiling (Table
    4's kernel-vs-others split).
    """

    packed_index: int
    inputs: Tuple[int, ...] = regs()
    # Reads too: an output register must already hold the pre-allocated
    # tensor the kernel writes into.
    outputs: Tuple[int, ...] = regs()
    device: Device
    kind: str = "compute"
    # Device stream this kernel is enqueued on — assigned ahead of time
    # by the static scheduler (repro.vm.schedule); 0 for unscheduled
    # builds, which reproduces the single-lane model exactly.
    stream: int = 0
    opcode = Opcode.INVOKE_PACKED


@dataclass(frozen=True)
class AllocStorage(Instruction):
    """Allocates a storage block on a device; size read from a register."""

    allocation_size: int = reg()  # holds an int64 scalar
    alignment: int
    device: Device
    dst: int = reg()
    opcode = Opcode.ALLOC_STORAGE


@dataclass(frozen=True)
class AllocTensor(Instruction):
    """Allocates a tensor with a static shape from a storage block."""

    storage: int = reg(alias=True)
    offset: int = reg()  # holds an int64 scalar
    shape: Tuple[int, ...]
    dtype: str
    dst: int = reg()
    opcode = Opcode.ALLOC_TENSOR


@dataclass(frozen=True)
class AllocTensorReg(Instruction):
    """Allocates a tensor whose shape is read from a register at runtime."""

    storage: int = reg(alias=True)
    offset: int = reg()
    shape_register: int = reg()
    dtype: str
    dst: int = reg()
    opcode = Opcode.ALLOC_TENSOR_REG


@dataclass(frozen=True)
class AllocADT(Instruction):
    """Allocates an algebraic data type object (tuples use tag 0)."""

    tag: int
    fields: Tuple[int, ...] = regs(alias=True)
    dst: int = reg()
    opcode = Opcode.ALLOC_ADT


@dataclass(frozen=True)
class AllocClosure(Instruction):
    """Allocates a closure over a lowered VM function."""

    func_index: int
    captured: Tuple[int, ...] = regs(alias=True)
    dst: int = reg()
    opcode = Opcode.ALLOC_CLOSURE


@dataclass(frozen=True)
class GetField(Instruction):
    """Gets the value at an index from an ADT/tuple object."""

    obj: int = reg(alias=True)  # conservative: the field is the whole object
    field_index: int
    dst: int = reg()
    opcode = Opcode.GET_FIELD


@dataclass(frozen=True)
class GetTag(Instruction):
    """Gets the constructor tag of an ADT object."""

    obj: int = reg()
    dst: int = reg()
    opcode = Opcode.GET_TAG


@dataclass(frozen=True)
class If(Instruction):
    """Jumps to true/false offset depending on `test == target`."""

    test: int = reg()
    target: int = reg()
    true_offset: int
    false_offset: int
    opcode = Opcode.IF


@dataclass(frozen=True)
class Goto(Instruction):
    """Unconditionally jumps by a pc offset."""

    pc_offset: int
    opcode = Opcode.GOTO


@dataclass(frozen=True)
class LoadConst(Instruction):
    """Loads a constant from the executable's constant pool."""

    const_index: int
    dst: int = reg()
    opcode = Opcode.LOAD_CONST


@dataclass(frozen=True)
class LoadConsti(Instruction):
    """Loads an immediate integer."""

    value: int
    dst: int = reg()
    opcode = Opcode.LOAD_CONSTI


@dataclass(frozen=True)
class DeviceCopy(Instruction):
    """Copies a tensor between devices."""

    src: int = reg()
    dst: int = reg()
    src_device: Device
    dst_device: Device
    opcode = Opcode.DEVICE_COPY


@dataclass(frozen=True)
class ShapeOf(Instruction):
    """Retrieves the shape of a tensor as an int64 vector."""

    tensor: int = reg()
    dst: int = reg()
    opcode = Opcode.SHAPE_OF


@dataclass(frozen=True)
class ReshapeTensor(Instruction):
    """Assigns a new shape to a tensor without altering its data."""

    tensor: int = reg(alias=True)  # same bytes, new metadata
    newshape: int = reg()  # holds the shape vector
    dst: int = reg()
    opcode = Opcode.RESHAPE_TENSOR


@dataclass(frozen=True)
class Fatal(Instruction):
    """Raises a fatal error in the VM."""

    message: str = "fatal"
    opcode = Opcode.FATAL


@dataclass(frozen=True)
class StreamEvent(Instruction):
    """Records a sync event on a device stream (``cudaEventRecord``):
    snapshots when everything enqueued on the stream so far will have
    retired, into the per-run event table at ``event_index``."""

    event_index: int
    device: Device
    stream: int
    opcode = Opcode.STREAM_EVENT


@dataclass(frozen=True)
class StreamWait(Instruction):
    """Makes a device stream wait for a recorded event
    (``cudaStreamWaitEvent``): kernels enqueued on ``stream`` after this
    instruction start only once the event has fired. Waiting on an event
    that was never recorded (its producer sat on a skipped control-flow
    path) is a no-op — if the producer did not run, there is nothing to
    wait for."""

    event_index: int
    device: Device
    stream: int
    opcode = Opcode.STREAM_WAIT


class Operand(NamedTuple):
    """One field of an instruction, in encoding order."""

    name: str
    type: type  # int, str, Device or tuple (of ints)


def _layout(cls) -> Tuple[Operand, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        Operand(f.name, typing.get_origin(hints[f.name]) or hints[f.name])
        for f in fields(cls)
    )


def _joined(registers) -> str:
    """The expression of one tuple holding *registers*: the scalars in
    field order, then each register tuple."""
    one = [f"i.{f.name}, " for f in registers if "many" not in f.metadata]
    many = [f"tuple(i.{f.name})" for f in registers if "many" in f.metadata]
    return " + ".join(([f"({''.join(one)})"] if one else []) + many) or "()"


def _getters(cls) -> Tuple[Callable, Callable]:
    """:func:`operands` and :func:`aliases` of *cls*, compiled from the
    fields to the lambdas one would write by hand, because the verifier
    and the scheduler call them once per instruction."""
    registers = [f for f in fields(cls) if f.metadata.get("reg")]
    reads = _joined([f for f in registers if f.name != "dst"])
    writes = "(i.dst,)" if any(f.name == "dst" for f in registers) else "()"
    aliased = _joined([f for f in registers if f.metadata["alias"]])
    return eval(f"lambda i: ({reads}, {writes})"), eval(f"lambda i: {aliased}")


_LAYOUTS: Dict[type, Tuple[Operand, ...]] = {
    cls: _layout(cls) for cls in Instruction.__subclasses__()
}
_GETTERS: Dict[type, Tuple[Callable, Callable]] = {cls: _getters(cls) for cls in _LAYOUTS}


def layout(cls) -> Tuple[Operand, ...]:
    """The fields of instruction class *cls*, in encoding order."""
    return _LAYOUTS[cls]


def operands(instr: Instruction) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(reads, writes)``: the registers *instr* reads and the one it
    writes (``dst``), if any."""
    return _GETTERS[type(instr)][0](instr)


# Opcodes whose only effect is their write: an instruction of one is
# dropped when nothing reads the register it writes.
PURE = frozenset({
    Opcode.LOAD_CONST, Opcode.LOAD_CONSTI, Opcode.ALLOC_STORAGE, Opcode.ALLOC_TENSOR,
    Opcode.ALLOC_TENSOR_REG, Opcode.ALLOC_ADT, Opcode.MOVE, Opcode.GET_FIELD, Opcode.GET_TAG,
    Opcode.SHAPE_OF, Opcode.RESHAPE_TENSOR,
})


def aliases(instr: Instruction) -> Tuple[int, ...]:
    """The registers whose contents ``dst`` holds, or holds a part of,
    once *instr* has run; ``()`` when ``dst`` is fresh or absent."""
    return _GETTERS[type(instr)][1](instr)
