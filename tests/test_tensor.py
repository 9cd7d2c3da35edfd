"""Tensor substrate: dtypes, devices, NDArray, Storage."""

import numpy as np
import pytest

from repro.errors import NimbleError, VMError
from repro.tensor import NDArray, Storage, array, cpu, empty, gpu
from repro.tensor.device import Device, DeviceKind
from repro.tensor.dtype import (
    DataType,
    dtype_bytes,
    from_numpy_dtype,
    is_valid_dtype,
    to_numpy_dtype,
)


class TestDtype:
    def test_valid_dtypes(self):
        for name in ("float32", "float64", "int64", "int32", "bool", "int8", "uint8"):
            assert is_valid_dtype(name)
            assert to_numpy_dtype(name) is not None

    def test_invalid_dtype_rejected(self):
        with pytest.raises(NimbleError):
            to_numpy_dtype("complex128")
        with pytest.raises(NimbleError):
            DataType("float128")

    def test_dtype_bytes(self):
        assert dtype_bytes("float32") == 4
        assert dtype_bytes("int64") == 8
        assert dtype_bytes("bool") == 1
        assert dtype_bytes("float16") == 2

    def test_numpy_roundtrip(self):
        for name in ("float32", "int64", "bool", "uint8"):
            assert from_numpy_dtype(to_numpy_dtype(name)) == name

    def test_datatype_is_str(self):
        dt = DataType("float32")
        assert dt == "float32"
        assert isinstance(dt, str)


class TestDevice:
    def test_cpu_gpu_constructors(self):
        assert cpu().kind is DeviceKind.CPU
        assert gpu(1).index == 1
        assert cpu(0) == cpu(0)
        assert cpu(0) != gpu(0)

    def test_device_predicates(self):
        assert cpu().is_cpu and not cpu().is_gpu
        assert gpu().is_gpu and not gpu().is_cpu

    def test_device_hashable_and_printable(self):
        assert len({cpu(0), cpu(0), gpu(0)}) == 2
        assert str(gpu(2)) == "gpu(2)"

    def test_equal_devices_hash_equal_and_find_each_other(self):
        """`Device.__hash__` is written by hand (the clock and the
        allocator key tables by device): devices built separately, and
        one that went through pickle the way a kernel's does, must agree
        with `__eq__`."""
        import pickle

        makers = [lambda: cpu(0), lambda: gpu(0), lambda: gpu(1)]
        table = {make(): position for position, make in enumerate(makers)}
        assert len(table) == 3
        for position, make in enumerate(makers):
            for device in (make(), pickle.loads(pickle.dumps(make()))):
                assert device is not make()
                assert device == make() and hash(device) == hash(make())
                assert table[device] == position
            assert [make() == other() for other in makers].count(True) == 1

    def test_devices_claim_no_order(self):
        """`order=True` generated a `<` that raised on the enum field;
        nothing orders devices, so the dataclass no longer says it can."""
        with pytest.raises(TypeError):
            sorted([gpu(0), cpu(0)])
        assert "__lt__" not in vars(Device)


class TestNDArray:
    def test_array_scalar_preserves_rank0(self):
        a = array(1.5)
        assert a.shape == ()
        assert a.dtype == "float32"
        assert a.item() == pytest.approx(1.5)

    def test_array_int_defaults_to_int64(self):
        a = array([1, 2, 3])
        assert a.dtype == "int64"

    def test_array_float_defaults_to_float32(self):
        a = array([1.0, 2.0])
        assert a.dtype == "float32"

    def test_explicit_dtype(self):
        a = array([1, 0], dtype="bool")
        assert a.dtype == "bool"

    def test_item_requires_single_element(self):
        with pytest.raises(VMError):
            array([1.0, 2.0]).item()

    def test_empty(self):
        a = empty((2, 3), "int32")
        assert a.shape == (2, 3)
        assert a.dtype == "int32"

    def test_reshape_shares_buffer(self):
        a = array(np.arange(6, dtype=np.float32))
        b = a.reshape((2, 3))
        b.numpy()[0, 0] = 99.0
        assert a.numpy()[0] == 99.0

    def test_to_device(self):
        a = array([1.0])
        b = a.to_device(gpu(0))
        assert b.device == gpu(0)
        assert a.to_device(cpu(0)) is a


class TestStorage:
    def test_view_carves_tensor(self):
        s = Storage(256, 64, cpu())
        v = s.view(0, 16, np.dtype(np.float32), (4,))
        v[:] = 7.0
        assert np.all(s.buffer[:16].view(np.float32) == 7.0)

    def test_view_bounds_checked(self):
        s = Storage(64, 64, cpu())
        with pytest.raises(VMError):
            s.view(32, 64, np.dtype(np.float32), (16,))

    def test_use_after_free_rejected(self):
        s = Storage(64, 64, cpu())
        s.free()
        with pytest.raises(VMError):
            s.view(0, 4, np.dtype(np.float32), (1,))

    def test_invalid_alignment_rejected(self):
        with pytest.raises(VMError):
            Storage(64, 3, cpu())

    def test_negative_size_rejected(self):
        with pytest.raises(VMError):
            Storage(-1, 64, cpu())

    def test_from_storage_ndarray(self):
        s = Storage(256, 64, cpu())
        t = NDArray.from_storage(s, 64, (4, 4), "float32")
        assert t.shape == (4, 4)
        assert t.storage is s
        assert t.offset == 64

    def test_from_storage_scalar_takes_one_element(self):
        s = Storage(64, 64, cpu())
        t = NDArray.from_storage(s, 8, (), "float32")
        assert t.shape == () and t.nbytes == 4

    def test_from_storage_rejects_what_does_not_fit(self):
        s = Storage(256, 64, cpu())
        with pytest.raises(VMError, match="does not fit"):
            NDArray.from_storage(s, 0, (9, 8), "float32")
        # A size no int64 holds is still just a tensor that does not fit.
        with pytest.raises(VMError, match="does not fit"):
            NDArray.from_storage(s, 0, (2**40, 2**40), "float32")
