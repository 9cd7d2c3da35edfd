"""Reduction operators (COMM_REDUCE fusion pattern)."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TypeInferenceError
from repro.ir.types import TensorType, Type
from repro.ops.registry import OpDef, OpPattern, register_op
from repro.ops.shape_funcs import normalize_axis, prod
from repro.ops.type_relations import expect_tensor


def _reduce_axes(ndim: int, attrs) -> List[int]:
    axis = attrs.get("axis")
    if axis is None:
        return list(range(ndim))
    if not isinstance(axis, (list, tuple)):
        axis = [axis]
    return sorted(normalize_axis(a, ndim) for a in axis)


def _reduce_rel_factory(out_dtype: Optional[str] = None):
    def rel(arg_types: Sequence[Type], attrs: dict) -> Type:
        data = expect_tensor(arg_types[0], "reduce data")
        axes = _reduce_axes(data.ndim, attrs)
        keepdims = attrs.get("keepdims", False)
        shape: List = []
        for i, dim in enumerate(data.shape):
            if i in axes:
                if keepdims:
                    shape.append(1)
            else:
                shape.append(dim)
        return TensorType(tuple(shape), out_dtype or data.dtype)

    return rel


def _register_reduce(name: str, np_fn, out_dtype: Optional[str] = None) -> None:
    def compute(inputs, attrs):
        x = inputs[0]
        axes = tuple(_reduce_axes(x.ndim, attrs))
        keepdims = attrs.get("keepdims", False)
        result = np_fn(x, axis=axes, keepdims=keepdims)
        if out_dtype is None:
            result = np.asarray(result).astype(x.dtype, copy=False)
        return np.asarray(result)

    register_op(
        OpDef(
            name=name,
            type_rel=_reduce_rel_factory(out_dtype),
            compute=compute,
            pattern=OpPattern.COMM_REDUCE,
            flops=lambda i, o, a: float(prod(i[0])),
        )
    )


_register_reduce("sum", np.sum)
_register_reduce("mean", np.mean)
_register_reduce("max", np.max)
_register_reduce("min", np.min)
_register_reduce("prod", np.prod)


# -- arg reductions (single axis, int64 output) -------------------------------
def _arg_reduce_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "arg-reduce data")
    axis = attrs.get("axis", -1)
    axis = normalize_axis(axis, data.ndim)
    keepdims = attrs.get("keepdims", False)
    shape = list(data.shape)
    if keepdims:
        shape[axis] = 1
    else:
        del shape[axis]
    return TensorType(tuple(shape), "int64")


def _register_arg_reduce(name: str, np_fn) -> None:
    def compute(inputs, attrs):
        x = inputs[0]
        axis = attrs.get("axis", -1)
        result = np_fn(x, axis=axis)
        if attrs.get("keepdims", False):
            result = np.expand_dims(result, axis=axis)
        return result.astype(np.int64)

    register_op(
        OpDef(
            name=name,
            type_rel=_arg_reduce_rel,
            compute=compute,
            pattern=OpPattern.COMM_REDUCE,
            flops=lambda i, o, a: float(prod(i[0])),
        )
    )


_register_arg_reduce("argmax", np.argmax)
_register_arg_reduce("argmin", np.argmin)
