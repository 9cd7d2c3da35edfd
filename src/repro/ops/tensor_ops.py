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

from repro.errors import TypeInferenceError
from repro.ir.types import TensorType, Type
from repro.ops.batching import elementwise
from repro.ops.registry import OpDef, OpPattern, register_op, ufunc_lowering
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
            pattern=OpPattern.BROADCAST,
            ufunc=fn,
            batch_rule=elementwise,
            lower=ufunc_lowering(name, fn),
        )
    )


# Elementwise ops that are not one ufunc: the same ufuncs, in the same
# order and dtype, as a ufunc-like function (only the last writes *out*).
def sigmoid(x, out=None):
    return np.divide(1.0, np.add(1.0, np.exp(np.negative(x))), out=out)


def relu(x, out=None):
    return np.maximum(x, 0, out=out)


# -- arithmetic -------------------------------------------------------------
_binary("add", np.add)
_binary("multiply", np.multiply)

# -- unary math ------------------------------------------------------------
_unary("tanh", np.tanh, flop_per_elem=6.0)
_unary("sigmoid", sigmoid, flop_per_elem=6.0)

# -- comparisons ------------------------------------------------------------
_comparison("less", np.less)


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


register_op(
    OpDef(
        name="where",
        type_rel=_where_rel,
        compute=_where_compute,
        pattern=OpPattern.BROADCAST,
        batch_rule=elementwise,
    )
)


# -- relu (kept here with the other cheap elementwise ops) ---------------------
_unary("nn.relu", relu)
