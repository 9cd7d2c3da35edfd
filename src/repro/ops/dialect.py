"""The memory / VM / device dialect ops (§4.3–4.4).

After the manifest-allocation pass, memory is explicit in the IR via the
four constructs of §4.3 — ``alloc_storage``, ``alloc_tensor``,
``invoke_mut`` and ``kill`` — plus the placement constructs of §4.4 —
``device_copy`` and ``shape_of`` — and the shape-function invocation
``vm.shape_func``. Representing them as ordinary operators (as Relay's
memory dialect does) keeps every later pass a plain expression rewrite.

These ops are OPAQUE to fusion and are lowered specially by the VM
compiler; they have no standalone computes (the VM interprets them).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CompilerError, TypeInferenceError
from repro.ir.expr import Constant
from repro.ir.types import Any, StorageType, TensorType, TupleType, Type
from repro.ops.batching import BatchCall, static_shape
from repro.ops.registry import OpDef, OpPattern, ShapeFuncMode, register_op
from repro.ops.type_relations import expect_tensor
from repro.tensor.ndarray import array as make_array

UNIT = TupleType(())


def _no_compute(name: str):
    def compute(inputs, attrs):
        raise CompilerError(f"dialect op {name} has no standalone compute; "
                            "it is interpreted by the VM")

    return compute


# -- memory.alloc_storage(size) -> Storage ------------------------------------
def _alloc_storage_rel(arg_types, attrs) -> Type:
    size = expect_tensor(arg_types[0], "alloc_storage size")
    if size.dtype != "int64":
        raise TypeInferenceError("alloc_storage size must be int64")
    return StorageType()


register_op(
    OpDef(
        name="memory.alloc_storage",
        type_rel=_alloc_storage_rel,
        compute=_no_compute("memory.alloc_storage"),
        pattern=OpPattern.OPAQUE,
    )
)


# -- memory.alloc_tensor(storage, offset, shape?) -> Tensor ---------------------
def _alloc_tensor_rel(arg_types, attrs) -> Type:
    if not isinstance(arg_types[0], StorageType):
        raise TypeInferenceError("alloc_tensor expects a Storage first argument")
    ttype = attrs.get("ttype")
    if not isinstance(ttype, TensorType):
        raise TypeInferenceError("alloc_tensor requires a 'ttype' TensorType attr")
    return ttype


register_op(
    OpDef(
        name="memory.alloc_tensor",
        type_rel=_alloc_tensor_rel,
        compute=_no_compute("memory.alloc_tensor"),
        pattern=OpPattern.OPAQUE,
    )
)


# -- memory.kill(tensor) -> () ---------------------------------------------------
register_op(
    OpDef(
        name="memory.kill",
        type_rel=lambda ts, attrs: UNIT,
        compute=_no_compute("memory.kill"),
        pattern=OpPattern.OPAQUE,
    )
)


# -- vm.invoke_mut(func, (inputs), (outputs)) -> () -------------------------------
def _invoke_mut_rel(arg_types, attrs) -> Type:
    if len(arg_types) != 3:
        raise TypeInferenceError("invoke_mut expects (func, inputs, outputs)")
    return UNIT


register_op(
    OpDef(
        name="vm.invoke_mut",
        type_rel=_invoke_mut_rel,
        compute=_no_compute("vm.invoke_mut"),
        pattern=OpPattern.OPAQUE,
    )
)


# -- vm.shape_func((inputs)) -> shape tensor(s) --------------------------------------
def _shape_func_rel(arg_types, attrs) -> Type:
    num_outputs = attrs.get("num_outputs", 1)
    out_ranks = attrs.get("out_ranks")
    if out_ranks is None:
        raise TypeInferenceError("vm.shape_func requires 'out_ranks' attr")
    fields = [TensorType((rank,), "int64") for rank in out_ranks]
    return fields[0] if num_outputs == 1 else TupleType(fields)


register_op(
    OpDef(
        name="vm.shape_func",
        type_rel=_shape_func_rel,
        compute=_no_compute("vm.shape_func"),
        pattern=OpPattern.OPAQUE,
    )
)


# -- vm.storage_size(shape) -> int64 scalar --------------------------------------------
def _storage_size_rel(arg_types, attrs) -> Type:
    shape = expect_tensor(arg_types[0], "storage_size shape")
    if shape.dtype != "int64" or shape.ndim != 1:
        raise TypeInferenceError("storage_size expects an int64 shape vector")
    return TensorType((), "int64")


def _storage_size_compute(inputs, attrs):
    from repro.tensor.dtype import dtype_bytes

    nelems = int(np.prod(inputs[0])) if inputs[0].size else 1
    return np.asarray(nelems * dtype_bytes(attrs["dtype"]), dtype=np.int64)


register_op(
    OpDef(
        name="vm.storage_size",
        type_rel=_storage_size_rel,
        compute=_storage_size_compute,
        shape_func=lambda s, v, a: [()],
        pattern=OpPattern.OPAQUE,
        flops=lambda i, o, a: float(i[0][0]) if i and i[0] else 1.0,
    )
)


# -- vm.shape_of(tensor) -> int64 vector ---------------------------------------------
def _shape_of_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "shape_of data")
    return TensorType((data.ndim,), "int64")


def _shape_of_compute(inputs, attrs):
    return np.asarray(inputs[0].shape, dtype=np.int64)


def _shape_of_batch_rule(c: BatchCall):
    """Static module: the member shape is a compile-time constant."""
    shape = static_shape(c.member_tys[0], c.name)
    return Constant(make_array(np.asarray(shape, dtype=np.int64))), False


register_op(
    OpDef(
        name="vm.shape_of",
        type_rel=_shape_of_rel,
        compute=_shape_of_compute,
        pattern=OpPattern.OPAQUE,
        batch_rule=_shape_of_batch_rule,
    )
)


# -- device.device_copy(tensor) --------------------------------------------------------
def _device_copy_rel(arg_types, attrs) -> Type:
    return expect_tensor(arg_types[0], "device_copy data")


register_op(
    OpDef(
        name="device.device_copy",
        type_rel=_device_copy_rel,
        compute=lambda inputs, attrs: inputs[0],
        pattern=OpPattern.OPAQUE,
    )
)


# -- vm.reshape_tensor(data, shape) — metadata-only reshape ------------------------------
def _reshape_tensor_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "reshape_tensor data")
    newshape = attrs.get("newshape")
    if newshape is None:
        raise TypeInferenceError("vm.reshape_tensor requires 'newshape'")
    return TensorType(tuple(newshape), data.dtype)


register_op(
    OpDef(
        name="vm.reshape_tensor",
        type_rel=_reshape_tensor_rel,
        compute=lambda inputs, attrs: inputs[0].reshape(
            tuple(int(d) for d in np.asarray(inputs[1]))
        ),
        pattern=OpPattern.OPAQUE,
    )
)


# -- vm.slice_upper_bound(data, actual_shape) -------------------------------------------
def _slice_ub_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "slice_upper_bound data")
    return TensorType(tuple(Any() for _ in data.shape), data.dtype)


def _slice_ub_compute(inputs, attrs):
    data, actual = inputs
    index = tuple(slice(0, int(d)) for d in np.asarray(actual))
    return np.ascontiguousarray(data[index])


register_op(
    OpDef(
        name="vm.slice_upper_bound",
        type_rel=_slice_ub_rel,
        compute=_slice_ub_compute,
        # For cost analysis the output is bounded by the padded input; the
        # real shape comes from the `actual` operand at runtime.
        shape_func=lambda s, v, a: [tuple(s[0])],
        pattern=OpPattern.OPAQUE,
        flops=lambda i, o, a: 0.0,
    )
)

DIALECT_OPS = frozenset(
    {
        "memory.alloc_storage",
        "memory.alloc_tensor",
        "memory.kill",
        "vm.invoke_mut",
        "vm.shape_func",
        "vm.shape_of",
        "vm.storage_size",
        "vm.alloc_closure",
        "device.device_copy",
        "vm.reshape_tensor",
        "vm.slice_upper_bound",
    }
)
