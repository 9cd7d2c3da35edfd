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


class ADTObj(VMObject):
    """An algebraic data type object: constructor tag + fields.
    Tuples are represented with ``tag == TUPLE_TAG``.

    An ADT counts the references to itself (``rc``: one per register or
    field holding it) and holds one reference to each of its fields,
    dropped when its own count reaches zero. Retaining a nested ADT is
    one addition, not a walk of everything below it, and a storage
    under it is freed at the same release, in the same order, as when
    every reference re-counted every field: when the last path to it
    goes."""

    TUPLE_TAG = -1

    __slots__ = ("tag", "fields", "rc")

    def __init__(self, tag: int, fields: Sequence[VMObject]) -> None:
        self.tag = tag
        self.fields = list(fields)
        self.rc = 1
        # A tensor field, the usual one, is adjusted here as
        # `TensorObj.retain` would, without the call; ints are values.
        for f in self.fields:
            if f.__class__ is TensorObj:
                storage_obj = f.storage_obj
                if storage_obj is not None:
                    storage_obj.rc += 1
            elif isinstance(f, VMObject):
                f.retain()

    def retain(self) -> "ADTObj":
        self.rc += 1
        return self

    def release(self) -> None:
        self.rc -= 1
        if self.rc:
            return
        for f in self.fields:
            if f.__class__ is TensorObj:
                storage_obj = f.storage_obj
                if storage_obj is not None:
                    storage_obj.rc -= 1
                    if storage_obj.rc == 0 and storage_obj.on_free is not None:
                        storage_obj.on_free(storage_obj.storage)
            elif isinstance(f, VMObject):
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


def as_tensor(value: RegisterValue, what: str = "operand") -> TensorObj:
    if not isinstance(value, TensorObj):
        raise VMError(f"{what}: expected a tensor object, got {type(value).__name__}")
    return value
