"""Call-building helpers: the user-facing way to construct operator calls.

``api.dense(x, w)`` builds ``Call(Op("nn.dense"), [x, w])`` etc. Model
builders (:mod:`repro.models`) are written entirely against this module.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.ir.expr import Call, Expr
from repro.ir.op import Op


def _call(name: str, args: Sequence[Expr], attrs: Optional[dict] = None) -> Call:
    return Call(Op.get(name), list(args), attrs or {})


# -- arithmetic ----------------------------------------------------------------
def add(lhs: Expr, rhs: Expr) -> Call:
    return _call("add", [lhs, rhs])


def multiply(lhs: Expr, rhs: Expr) -> Call:
    return _call("multiply", [lhs, rhs])


def tanh(x: Expr) -> Call:
    return _call("tanh", [x])


def sigmoid(x: Expr) -> Call:
    return _call("sigmoid", [x])


# -- comparisons -----------------------------------------------------------------
def less(lhs: Expr, rhs: Expr) -> Call:
    return _call("less", [lhs, rhs])


def where(cond: Expr, lhs: Expr, rhs: Expr) -> Call:
    return _call("where", [cond, lhs, rhs])


# -- nn -----------------------------------------------------------------------------
def dense(data: Expr, weight: Expr) -> Call:
    return _call("nn.dense", [data, weight])


def bias_add(data: Expr, bias: Expr, axis: int = -1) -> Call:
    return _call("nn.bias_add", [data, bias], {"axis": axis})


def batch_matmul(lhs: Expr, rhs: Expr) -> Call:
    return _call("nn.batch_matmul", [lhs, rhs])


def relu(x: Expr) -> Call:
    return _call("nn.relu", [x])


def gelu(x: Expr) -> Call:
    return _call("nn.gelu", [x])


def softmax(x: Expr, axis: int = -1) -> Call:
    return _call("nn.softmax", [x], {"axis": axis})


def layer_norm(data: Expr, gamma: Expr, beta: Expr, axis: int = -1, epsilon: float = 1e-5) -> Call:
    return _call("nn.layer_norm", [data, gamma, beta], {"axis": axis, "epsilon": epsilon})


def conv2d(data: Expr, weight: Expr, strides: int = 1, padding: int = 0, groups: int = 1) -> Call:
    return _call(
        "nn.conv2d", [data, weight], {"strides": strides, "padding": padding, "groups": groups}
    )


def max_pool2d(data: Expr, pool_size: int = 2, strides: Optional[int] = None, padding: int = 0) -> Call:
    return _call(
        "nn.max_pool2d",
        [data],
        {"pool_size": pool_size, "strides": strides or pool_size, "padding": padding},
    )


def global_avg_pool2d(data: Expr) -> Call:
    return _call("nn.global_avg_pool2d", [data])


def batch_norm_inference(
    data: Expr, gamma: Expr, beta: Expr, mean: Expr, var: Expr, epsilon: float = 1e-5
) -> Call:
    return _call(
        "nn.batch_norm_inference", [data, gamma, beta, mean, var], {"epsilon": epsilon}
    )


# -- transforms ------------------------------------------------------------------------
def reshape(data: Expr, newshape: Sequence[int]) -> Call:
    return _call("reshape", [data], {"newshape": tuple(newshape)})


def transpose(data: Expr, axes: Optional[Sequence[int]] = None) -> Call:
    return _call("transpose", [data], {"axes": tuple(axes) if axes else None})


def concatenate(tensors: Sequence[Expr], axis: int = 0) -> Call:
    return _call("concatenate", list(tensors), {"axis": axis})


def split(data: Expr, indices_or_sections: Union[int, Sequence[int]], axis: int = 0) -> Call:
    ios = (
        indices_or_sections
        if isinstance(indices_or_sections, int)
        else tuple(indices_or_sections)
    )
    return _call("split", [data], {"indices_or_sections": ios, "axis": axis})


def take(data: Expr, indices: Expr, axis: Optional[int] = None) -> Call:
    return _call("take", [data, indices], {"axis": axis})


def zeros(shape: Sequence[int], dtype: str = "float32") -> Call:
    return _call("zeros", [], {"shape": tuple(shape), "dtype": dtype})


# -- dynamic ops -----------------------------------------------------------------------------
def arange(start: Expr, stop: Expr, step: Expr, dtype: str = "float32") -> Call:
    return _call("arange", [start, stop, step], {"dtype": dtype})


def unique(data: Expr) -> Call:
    return _call("unique", [data])


def nonzero(data: Expr) -> Call:
    return _call("nonzero", [data])


def non_max_suppression(boxes: Expr, scores: Expr, iou_threshold: float = 0.5) -> Call:
    return _call(
        "vision.non_max_suppression", [boxes, scores], {"iou_threshold": iou_threshold}
    )


# -- dialect (used by passes, exposed for tests) -----------------------------------------------
def shape_of(data: Expr) -> Call:
    return _call("vm.shape_of", [data])


def device_copy(data: Expr, src_device, dst_device) -> Call:
    return _call("device.device_copy", [data], {"src_device": src_device, "dst_device": dst_device})
