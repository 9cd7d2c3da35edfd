"""Device-tagged n-dimensional arrays.

The VM passes tensors by reference (§5.2): a register move shares the
array instead of copying it, the VM counts references on the storage a
tensor was carved from (``StorageObj``), and mutation through
``invoke_mut`` writes into explicitly allocated output buffers, so views
stay cheap.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import VMError
from repro.tensor.device import Device, cpu
from repro.tensor.dtype import from_numpy_dtype, to_numpy_dtype
from repro.tensor.storage import Storage


class NDArray:
    """A tensor: NumPy data + device tag + optional backing storage.

    ``data`` is the authoritative buffer. When the tensor was carved from a
    :class:`Storage` via the memory planner, ``storage``/``offset`` record
    the aliasing so tests can check planner invariants.
    """

    __slots__ = ("data", "device", "storage", "offset")

    def __init__(
        self,
        data: np.ndarray,
        device: Device = cpu(),
        storage: Optional[Storage] = None,
        offset: int = 0,
    ) -> None:
        self.data = data
        self.device = device
        self.storage = storage
        self.offset = offset

    # -- construction -------------------------------------------------
    @staticmethod
    def layout(shape: Sequence[int], dtype: str) -> tuple:
        """(NumPy dtype, shape tuple, byte count) of a tensor: the part of
        `from_storage` the VM does once per static ``AllocTensor``."""
        np_dtype = to_numpy_dtype(dtype)
        shape = tuple(int(d) for d in shape)
        # Python ints: a rank-0 shape is one element (the empty product
        # is 1), and no size wraps around before the view checks it.
        return np_dtype, shape, math.prod(shape) * np_dtype.itemsize

    @staticmethod
    def from_storage(
        storage: Storage, offset: int, shape: Sequence[int], dtype: str
    ) -> "NDArray":
        np_dtype, shape, nbytes = NDArray.layout(shape, dtype)
        view = storage.view(offset, nbytes, np_dtype, shape)
        return NDArray(view, storage.device, storage, offset)

    # -- properties ----------------------------------------------------
    @property
    def shape(self) -> tuple:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> str:
        return from_numpy_dtype(self.data.dtype)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def item(self):
        """Extract a Python scalar (used by VM ``If`` on condition tensors)."""
        if self.data.size != 1:
            raise VMError(f"item() on tensor of shape {self.shape}")
        return self.data.reshape(()).item()

    # -- device movement ------------------------------------------------
    def to_device(self, device: Device) -> "NDArray":
        """Copy to another device (the cost is charged by the caller)."""
        if device is self.device or device == self.device:
            return self
        return NDArray(self.data.copy(), device)

    def numpy(self) -> np.ndarray:
        return self.data

    def reshape(self, shape: Sequence[int]) -> "NDArray":
        """Shape-only change sharing the underlying buffer (``ReshapeTensor``)."""
        return NDArray(self.data.reshape(tuple(int(d) for d in shape)), self.device,
                       self.storage, self.offset)

    def __repr__(self) -> str:
        return f"NDArray(shape={self.shape}, dtype={self.dtype}, device={self.device})"


def array(
    values: Union[np.ndarray, float, int, list, tuple],
    dtype: Optional[str] = None,
    device: Device = cpu(),
) -> NDArray:
    """Create an NDArray from array-like data."""
    np_dtype = to_numpy_dtype(dtype) if dtype is not None else None
    data = np.asarray(values, dtype=np_dtype)
    if dtype is None:
        # Normalize Python defaults to the IR's canonical dtypes.
        if data.dtype == np.float64:
            data = data.astype(np.float32)
        elif data.dtype in (np.int32,) and isinstance(values, (int, list, tuple)):
            data = data.astype(np.int64)
        elif data.dtype == np.int_ and data.dtype != np.int64:
            data = data.astype(np.int64)
    # ascontiguousarray promotes 0-d to 1-d; preserve scalar rank.
    if data.ndim > 0:
        data = np.ascontiguousarray(data)
    return NDArray(data, device)


def empty(shape: Sequence[int], dtype: str = "float32", device: Device = cpu()) -> NDArray:
    """Allocate an uninitialized tensor directly (bypassing storage)."""
    return NDArray(np.empty(tuple(int(d) for d in shape), dtype=to_numpy_dtype(dtype)), device)
