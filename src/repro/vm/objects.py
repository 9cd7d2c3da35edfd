"""The VM's tagged object representation (§5.2).

Registers hold tagged objects — tensors, ADTs (tuples are tag-0 ADTs),
closures, storage blocks — or small Python ints (constructor tags and
immediates). Objects are reference counted so register moves are cheap
(pass-by-reference) while storage reclamation stays deterministic: when
the last register referencing a tensor is clobbered, its backing storage
refcount drops and the pooling allocator can recycle the buffer.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import VMError
from repro.tensor.device import Device
from repro.tensor.ndarray import NDArray
from repro.tensor.storage import Storage


class VMObject:
    """Base class; subclasses implement retain/release."""

    __slots__ = ()

    def retain(self) -> "VMObject":
        return self

    def release(self) -> None:
        pass


class StorageObj(VMObject):
    """A storage block with a reference count; freed via the allocator
    callback when the count reaches zero."""

    __slots__ = ("storage", "rc", "on_free")

    def __init__(self, storage: Storage, on_free: Optional[Callable[[Storage], None]] = None) -> None:
        self.storage = storage
        self.rc = 1
        self.on_free = on_free

    def retain(self) -> "StorageObj":
        self.rc += 1
        return self

    def release(self) -> None:
        self.rc -= 1
        if self.rc == 0 and self.on_free is not None:
            self.on_free(self.storage)

    @property
    def device(self) -> Device:
        return self.storage.device

    def __repr__(self) -> str:
        return f"StorageObj({self.storage!r}, rc={self.rc})"


class TensorObj(VMObject):
    """A tensor object; may be backed by a refcounted StorageObj (planner
    allocations) or stand alone (constants, inputs, copies)."""

    __slots__ = ("array", "storage_obj")

    def __init__(self, array: NDArray, storage_obj: Optional[StorageObj] = None) -> None:
        self.array = array
        self.storage_obj = storage_obj
        if storage_obj is not None:
            storage_obj.rc += 1

    @property
    def data(self) -> np.ndarray:
        return self.array.numpy()

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.array.shape

    @property
    def dtype(self) -> str:
        return self.array.dtype

    @property
    def device(self) -> Device:
        return self.array.device

    def retain(self) -> "TensorObj":
        # One storage ref per register slot holding this tensor: the
        # construction-time retain covers the first slot, each Move adds
        # one, each clobber releases one — balanced. The count is
        # adjusted here, not through StorageObj.retain / release: a
        # released tensor is one call, and frees exactly as they do.
        storage_obj = self.storage_obj
        if storage_obj is not None:
            storage_obj.rc += 1
        return self

    def release(self) -> None:
        storage_obj = self.storage_obj
        if storage_obj is not None:
            storage_obj.rc -= 1
            if storage_obj.rc == 0 and storage_obj.on_free is not None:
                storage_obj.on_free(storage_obj.storage)

    def __repr__(self) -> str:
        return f"TensorObj(shape={self.shape}, dtype={self.dtype}, device={self.device})"


class IntConstObj(TensorObj):
    """A constant-pool tensor that is a host integer scalar — every
    planned size and offset — carrying its Python ``int`` as well, read
    from the array once when the VM is built. Still a tensor: the same
    constant can be a kernel's input."""

    __slots__ = ("value",)

    def __init__(self, array: NDArray) -> None:
        super().__init__(array)
        self.value = int(array.item())


def constant_obj(array: NDArray) -> TensorObj:
    """The register object of one constant-pool entry. Only a rank-0,
    integer-dtype tensor that is not on a GPU (reading one of those
    synchronises the device) is read ahead of the run."""
    data = array.data
    if data.ndim == 0 and data.dtype.kind in "iu" and not array.device.is_gpu:
        return IntConstObj(array)
    return TensorObj(array)


class ADTObj(VMObject):
    """An algebraic data type object: constructor tag + fields.
    Tuples are represented with ``tag == TUPLE_TAG``."""

    TUPLE_TAG = -1

    __slots__ = ("tag", "fields")

    def __init__(self, tag: int, fields: Sequence[VMObject]) -> None:
        self.tag = tag
        self.fields = list(fields)
        for f in self.fields:
            if isinstance(f, VMObject):
                f.retain()
            # Storage objects retained via their own rc; ints are values.

    def retain(self) -> "ADTObj":
        # ADTs are shared by reference; their fields were retained at
        # construction. Retaining the ADT re-retains fields so nested
        # release stays balanced.
        for f in self.fields:
            if isinstance(f, VMObject):
                f.retain()
        return self

    def release(self) -> None:
        for f in self.fields:
            if isinstance(f, VMObject):
                f.release()

    def __repr__(self) -> str:
        name = "Tuple" if self.tag == self.TUPLE_TAG else f"ADT<{self.tag}>"
        return f"{name}({len(self.fields)} fields)"


class ClosureObj(VMObject):
    """A closure: lowered VM function index + captured registers."""

    __slots__ = ("func_index", "captured")

    def __init__(self, func_index: int, captured: Sequence[VMObject]) -> None:
        self.func_index = func_index
        self.captured = list(captured)
        for c in self.captured:
            if isinstance(c, VMObject):
                c.retain()

    def retain(self) -> "ClosureObj":
        for c in self.captured:
            if isinstance(c, VMObject):
                c.retain()
        return self

    def release(self) -> None:
        for c in self.captured:
            if isinstance(c, VMObject):
                c.release()

    def __repr__(self) -> str:
        return f"ClosureObj(func={self.func_index}, captured={len(self.captured)})"


RegisterValue = Union[VMObject, int, None]


def retain_value(value: RegisterValue) -> RegisterValue:
    if isinstance(value, VMObject):
        return value.retain()
    return value


def as_tensor(value: RegisterValue, what: str = "operand") -> TensorObj:
    if not isinstance(value, TensorObj):
        raise VMError(f"{what}: expected a tensor object, got {type(value).__name__}")
    return value
