"""Elementwise and broadcast operators.

These are the ELEMWISE/BROADCAST fusion-pattern ops that the fusion pass
folds into preceding compute-heavy kernels. All computes are vectorized
NumPy; outputs are cast back to the declared dtype so fused groups stay
dtype-stable. The ops registered by ``_unary``, ``_binary`` and
``_comparison`` keep their function on the ``OpDef`` (``ufunc``), the one
description of their math: ``compute`` is built from it, and so is their
lowering, which a kernel calls where that cast is a no-op.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _scipy_erf

from repro.errors import TypeInferenceError
from repro.ir.types import TensorType, Type
from repro.ops.batching import elementwise
from repro.ops.registry import OpDef, OpPattern, ShapeFuncMode, register_op, ufunc_lowering
from repro.ops.shape_funcs import broadcast_shape_func, same_shape_func
from repro.ops.type_relations import broadcast_rel, expect_tensor, identity_rel


def _unary(name: str, fn: Callable[..., np.ndarray], flop_per_elem: float = 1.0) -> None:
    def compute(inputs, attrs):
        x = inputs[0]
        return fn(x).astype(x.dtype, copy=False)

    def flops(in_shapes, out_shapes, attrs):
        n = 1.0
        for d in out_shapes[0]:
            n *= d
        return n * flop_per_elem

    register_op(
        OpDef(
            name=name,
            type_rel=identity_rel,
            compute=compute,
            shape_func=same_shape_func,
            shape_func_mode=ShapeFuncMode.DATA_INDEPENDENT,
            pattern=OpPattern.ELEMWISE,
            flops=flops,
            ufunc=fn,
            batch_rule=elementwise,
            lower=ufunc_lowering(name, fn),
        )
    )


def _binary(name: str, fn: Callable[..., np.ndarray]) -> None:
    def compute(inputs, attrs):
        a, b = inputs
        return fn(a, b).astype(a.dtype, copy=False)

    register_op(
        OpDef(
            name=name,
            type_rel=broadcast_rel,
            compute=compute,
            shape_func=broadcast_shape_func,
            shape_func_mode=ShapeFuncMode.DATA_INDEPENDENT,
            pattern=OpPattern.BROADCAST,
            ufunc=fn,
            batch_rule=elementwise,
            lower=ufunc_lowering(name, fn),
        )
    )


def _comparison(name: str, fn: Callable[..., np.ndarray]) -> None:
    def rel(arg_types: Sequence[Type], attrs: dict) -> Type:
        base = broadcast_rel(arg_types, attrs)
        return TensorType(base.shape, "bool")

    def compute(inputs, attrs):
        return fn(inputs[0], inputs[1])

    register_op(
        OpDef(
            name=name,
            type_rel=rel,
            compute=compute,
            shape_func=broadcast_shape_func,
            shape_func_mode=ShapeFuncMode.DATA_INDEPENDENT,
            pattern=OpPattern.BROADCAST,
            ufunc=fn,
            batch_rule=elementwise,
            lower=ufunc_lowering(name, fn),
        )
    )


# Elementwise ops that are not one ufunc: the same ufuncs, in the same
# order and dtype, as a ufunc-like function (only the last writes *out*).
def rsqrt(x, out=None):
    return np.divide(1.0, np.sqrt(x), out=out)


def sigmoid(x, out=None):
    return np.divide(1.0, np.add(1.0, np.exp(np.negative(x))), out=out)


def relu(x, out=None):
    return np.maximum(x, 0, out=out)


def copy(x, out=None):
    if out is None:
        return x.copy()
    np.copyto(out, x)
    return out


# -- arithmetic -------------------------------------------------------------
_binary("add", np.add)
_binary("subtract", np.subtract)
_binary("multiply", np.multiply)
_binary("divide", np.divide)
_binary("maximum", np.maximum)
_binary("minimum", np.minimum)
_binary("power", np.power)

# -- unary math ------------------------------------------------------------
_unary("negative", np.negative)
_unary("exp", np.exp, flop_per_elem=4.0)
_unary("log", np.log, flop_per_elem=4.0)
_unary("sqrt", np.sqrt, flop_per_elem=2.0)
_unary("rsqrt", rsqrt, flop_per_elem=3.0)
_unary("tanh", np.tanh, flop_per_elem=6.0)
_unary("sigmoid", sigmoid, flop_per_elem=6.0)
_unary("erf", _scipy_erf, flop_per_elem=8.0)
_unary("abs", np.abs)
_unary("copy", copy, flop_per_elem=0.0)

# -- comparisons ------------------------------------------------------------
_comparison("equal", np.equal)
_comparison("not_equal", np.not_equal)
_comparison("less", np.less)
_comparison("less_equal", np.less_equal)
_comparison("greater", np.greater)
_comparison("greater_equal", np.greater_equal)
_comparison("logical_and", np.logical_and)
_comparison("logical_or", np.logical_or)


def _logical_not_compute(inputs, attrs):
    return np.logical_not(inputs[0])


register_op(
    OpDef(
        name="logical_not",
        type_rel=identity_rel,
        compute=_logical_not_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.ELEMWISE,
        batch_rule=elementwise,
    )
)


# -- cast ---------------------------------------------------------------------
def _cast_rel(arg_types, attrs) -> Type:
    src = expect_tensor(arg_types[0], "cast input")
    dtype = attrs.get("dtype")
    if dtype is None:
        raise TypeInferenceError("cast requires a 'dtype' attribute")
    return TensorType(src.shape, dtype)


def _cast_compute(inputs, attrs):
    from repro.tensor.dtype import to_numpy_dtype

    return inputs[0].astype(to_numpy_dtype(attrs["dtype"]))


register_op(
    OpDef(
        name="cast",
        type_rel=_cast_rel,
        compute=_cast_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.ELEMWISE,
        batch_rule=elementwise,
    )
)


# -- where (select) ----------------------------------------------------------
def _where_rel(arg_types, attrs) -> Type:
    cond = expect_tensor(arg_types[0], "where condition")
    lhs = expect_tensor(arg_types[1], "where lhs")
    rhs = expect_tensor(arg_types[2], "where rhs")
    if lhs.dtype != rhs.dtype:
        raise TypeInferenceError("where branches must share a dtype")
    merged = broadcast_rel([lhs, rhs], {})
    merged = broadcast_rel([TensorType(cond.shape, lhs.dtype), merged], {})
    return TensorType(merged.shape, lhs.dtype)


def _where_compute(inputs, attrs):
    cond, lhs, rhs = inputs
    return np.where(cond, lhs, rhs).astype(lhs.dtype, copy=False)


def _where_shape_func(in_shapes, in_values, attrs):
    step = broadcast_shape_func(in_shapes[1:], None, attrs)[0]
    return broadcast_shape_func([in_shapes[0], step], None, attrs)


register_op(
    OpDef(
        name="where",
        type_rel=_where_rel,
        compute=_where_compute,
        shape_func=_where_shape_func,
        pattern=OpPattern.BROADCAST,
        batch_rule=elementwise,
    )
)


# -- relu/clip (kept here with the other cheap elementwise ops) ---------------
_unary("nn.relu", relu)


def _clip_compute(inputs, attrs):
    return np.clip(inputs[0], attrs.get("a_min", 0.0), attrs.get("a_max", float("inf")))


register_op(
    OpDef(
        name="clip",
        type_rel=identity_rel,
        compute=_clip_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.ELEMWISE,
        batch_rule=elementwise,
    )
)
