"""Dynamically-shaped operators (§4.1–4.2).

These are the ops that *force* ``Any`` into the type system:

* ``arange`` — data-dependent: the output length is a function of the
  start/stop/step *values*;
* ``unique`` — data-dependent: output length is the number of distinct
  elements;
* ``vision.non_max_suppression`` — upper-bound: computing the exact output
  shape costs as much as the op itself, so its shape function returns an
  upper bound and the compute returns the *actual* shape alongside the
  data, which the runtime uses to slice the result (§4.2).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.errors import ShapeError, TypeInferenceError
from repro.ir.types import Any, TensorType, Type
from repro.ops.registry import OpDef, OpPattern, ShapeFuncMode, register_op
from repro.ops.type_relations import expect_tensor


# -- arange -------------------------------------------------------------------
def _arange_rel(arg_types, attrs) -> Type:
    # start, stop, step are rank-0 tensors; output length is data-dependent.
    for i, name in enumerate(("start", "stop", "step")):
        t = expect_tensor(arg_types[i], f"arange {name}")
        if t.ndim != 0:
            raise TypeInferenceError(f"arange {name} must be a scalar tensor")
    return TensorType((Any(),), attrs.get("dtype", "float32"))


def _arange_compute(inputs, attrs):
    from repro.tensor.dtype import to_numpy_dtype

    start, stop, step = (np.asarray(x).reshape(()).item() for x in inputs)
    return np.arange(start, stop, step, dtype=to_numpy_dtype(attrs.get("dtype", "float32")))


def _arange_shape_func(in_shapes, in_values, attrs):
    if in_values is None or any(v is None for v in in_values):
        raise ShapeError("arange shape function requires input values (data-dependent)")
    start, stop, step = (np.asarray(v).reshape(()).item() for v in in_values)
    if step == 0:
        raise ShapeError("arange with step 0")
    length = max(0, int(math.ceil((stop - start) / step)))
    return [(length,)]


register_op(
    OpDef(
        name="arange",
        type_rel=_arange_rel,
        compute=_arange_compute,
        shape_func=_arange_shape_func,
        shape_func_mode=ShapeFuncMode.DATA_DEPENDENT,
        pattern=OpPattern.OPAQUE,
    )
)


# -- unique ------------------------------------------------------------------
def _unique_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "unique data")
    if data.ndim != 1:
        raise TypeInferenceError("unique expects a 1-D tensor")
    return TensorType((Any(),), data.dtype)


def _unique_compute(inputs, attrs):
    return np.unique(inputs[0])


def _unique_shape_func(in_shapes, in_values, attrs):
    if in_values is None or in_values[0] is None:
        raise ShapeError("unique shape function requires input values (data-dependent)")
    return [(int(np.unique(in_values[0]).shape[0]),)]


register_op(
    OpDef(
        name="unique",
        type_rel=_unique_rel,
        compute=_unique_compute,
        shape_func=_unique_shape_func,
        shape_func_mode=ShapeFuncMode.DATA_DEPENDENT,
        pattern=OpPattern.OPAQUE,
    )
)


# -- nonzero ------------------------------------------------------------------
def _nonzero_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "nonzero data")
    return TensorType((data.ndim, Any()), "int64")


def _nonzero_compute(inputs, attrs):
    return np.stack(np.nonzero(inputs[0])).astype(np.int64)


def _nonzero_shape_func(in_shapes, in_values, attrs):
    if in_values is None or in_values[0] is None:
        raise ShapeError("nonzero shape function requires input values")
    count = int(np.count_nonzero(in_values[0]))
    return [(len(in_shapes[0]), count)]


register_op(
    OpDef(
        name="nonzero",
        type_rel=_nonzero_rel,
        compute=_nonzero_compute,
        shape_func=_nonzero_shape_func,
        shape_func_mode=ShapeFuncMode.DATA_DEPENDENT,
        pattern=OpPattern.OPAQUE,
    )
)


# -- non-maximum suppression (upper-bound mode) --------------------------------
def _nms_rel(arg_types, attrs) -> Type:
    boxes = expect_tensor(arg_types[0], "nms boxes")  # (N, 4)
    scores = expect_tensor(arg_types[1], "nms scores")  # (N,)
    if boxes.ndim != 2 or scores.ndim != 1:
        raise TypeInferenceError("nms expects boxes (N,4) and scores (N,)")
    return TensorType((Any(),), "int64")


def _nms_reference(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS over axis-aligned boxes (x1, y1, x2, y2)."""
    order = np.argsort(-scores)
    keep: List[int] = []
    suppressed = np.zeros(len(scores), dtype=bool)
    areas = np.maximum(0.0, boxes[:, 2] - boxes[:, 0]) * np.maximum(
        0.0, boxes[:, 3] - boxes[:, 1]
    )
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        x1 = np.maximum(boxes[idx, 0], boxes[:, 0])
        y1 = np.maximum(boxes[idx, 1], boxes[:, 1])
        x2 = np.minimum(boxes[idx, 2], boxes[:, 2])
        y2 = np.minimum(boxes[idx, 3], boxes[:, 3])
        inter = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
        union = areas[idx] + areas - inter
        iou = np.where(union > 0, inter / np.maximum(union, 1e-9), 0.0)
        suppressed |= iou > iou_threshold
    return np.asarray(keep, dtype=np.int64)


def _nms_compute(inputs, attrs):
    boxes, scores = inputs
    keep = _nms_reference(boxes, scores, attrs.get("iou_threshold", 0.5))
    # Upper-bound contract: (padded data, actual shape). The buffer is the
    # upper-bound size; the runtime slices to `actual`.
    padded = np.full((boxes.shape[0],), -1, dtype=np.int64)
    padded[: keep.shape[0]] = keep
    return padded, np.asarray(keep.shape, dtype=np.int64)


def _nms_shape_func(in_shapes, in_values, attrs):
    # Cheap upper bound: every box survives.
    return [(in_shapes[0][0],)]


register_op(
    OpDef(
        name="vision.non_max_suppression",
        type_rel=_nms_rel,
        compute=_nms_compute,
        shape_func=_nms_shape_func,
        shape_func_mode=ShapeFuncMode.UPPER_BOUND,
        pattern=OpPattern.OPAQUE,
        returns_shape=True,
        flops=lambda i, o, a: 8.0 * i[0][0] * i[0][0],
    )
)
