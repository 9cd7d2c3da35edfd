"""Tensor layout/shape transform operators (INJECTIVE fusion pattern).

Type relations here do most of the ``Any``-propagation work: e.g.
``concatenate`` along a dynamic axis emits an ``Any`` output dim, and
``reshape`` with ``-1`` over a dynamic input stays dynamic — with the
input's identity token when the inferred dim provably *is* the input's one
dynamic dim (``(?a, 256) -> (-1, 4, 64)`` gives ``(?a, 4, 64)``), which is
what lets ``ManifestAlloc`` see that a whole BERT has one symbolic
dimension. Shape functions recompute everything exactly at runtime.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ShapeError, TypeInferenceError
from repro.ir.types import Any, TensorType, TupleType, Type
from repro.ops.registry import OpDef, OpPattern, ShapeFuncMode, register_op
from repro.ops.shape_funcs import normalize_axis, prod
from repro.ops.type_relations import expect_tensor, unify_dim


# -- reshape ------------------------------------------------------------------
def _reshape_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "reshape data")
    newshape = list(attrs["newshape"])
    if newshape.count(-1) > 1:
        raise TypeInferenceError("reshape allows at most one -1")
    out: List = []
    for dim in newshape:
        if dim == -1:
            # The inferred dim is static only when all of the input and the
            # other output dims are static.
            known_in = data.num_elements()
            others = [d for d in newshape if d != -1]
            if known_in is not None:
                rest = prod(others) if others else 1
                if rest == 0 or known_in % rest != 0:
                    raise TypeInferenceError(
                        f"reshape: cannot infer -1 for {data!r} -> {newshape}"
                    )
                out.append(known_in // rest)
            else:
                # Sub-shaping: with one dynamic input dim and equal static
                # cofactors on both sides, -1 *is* that dim — keep its token.
                dynamic = [d for d in data.shape if isinstance(d, Any)]
                cofactor = prod([d for d in data.shape if not isinstance(d, Any)])
                same = len(dynamic) == 1 and cofactor != 0 and cofactor == prod(others)
                out.append(dynamic[0] if same else Any())
        elif dim >= 0:
            out.append(dim)
        else:
            raise TypeInferenceError(f"reshape: invalid dim {dim}")
    return TensorType(tuple(out), data.dtype)


def _reshape_compute(inputs, attrs):
    return np.reshape(inputs[0], tuple(attrs["newshape"]))


def _reshape_shape_func(in_shapes, in_values, attrs):
    total = prod(in_shapes[0])
    newshape = list(attrs["newshape"])
    known = prod([d for d in newshape if d != -1]) if newshape else 1
    out = []
    for dim in newshape:
        if dim == -1:
            if known == 0 or total % known != 0:
                raise ShapeError(f"reshape runtime check failed: {in_shapes[0]} -> {newshape}")
            out.append(total // known)
        else:
            out.append(dim)
    if prod(out) != total:
        raise ShapeError(f"reshape element count mismatch: {in_shapes[0]} -> {out}")
    return [tuple(out)]


register_op(
    OpDef(
        name="reshape",
        type_rel=_reshape_rel,
        compute=_reshape_compute,
        shape_func=_reshape_shape_func,
        pattern=OpPattern.INJECTIVE,
        flops=lambda i, o, a: 0.0,
    )
)


# -- transpose ----------------------------------------------------------------
def _transpose_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "transpose data")
    axes = attrs.get("axes")
    if axes is None:
        axes = tuple(reversed(range(data.ndim)))
    if sorted(axes) != list(range(data.ndim)):
        raise TypeInferenceError(f"transpose: bad axes {axes} for {data!r}")
    return TensorType(tuple(data.shape[a] for a in axes), data.dtype)


def _transpose_compute(inputs, attrs):
    axes = attrs.get("axes")
    return np.ascontiguousarray(np.transpose(inputs[0], axes))


def _transpose_shape_func(in_shapes, in_values, attrs):
    shape = in_shapes[0]
    axes = attrs.get("axes") or tuple(reversed(range(len(shape))))
    return [tuple(shape[a] for a in axes)]


register_op(
    OpDef(
        name="transpose",
        type_rel=_transpose_rel,
        compute=_transpose_compute,
        shape_func=_transpose_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)


# -- concatenate (variadic) -----------------------------------------------------
def _concatenate_rel(arg_types, attrs) -> Type:
    tensors = [expect_tensor(t, "concatenate input") for t in arg_types]
    if not tensors:
        raise TypeInferenceError("concatenate of zero tensors")
    ndim = tensors[0].ndim
    dtype = tensors[0].dtype
    axis = normalize_axis(attrs.get("axis", 0), ndim)
    out: List = []
    for i in range(ndim):
        if i == axis:
            total = 0
            dynamic = False
            for t in tensors:
                if isinstance(t.shape[i], Any):
                    dynamic = True
                else:
                    total += t.shape[i]
            out.append(Any() if dynamic else total)
        else:
            dim = tensors[0].shape[i]
            for t in tensors[1:]:
                dim = unify_dim(dim, t.shape[i], "concatenate non-axis dim")
            out.append(dim)
    return TensorType(tuple(out), dtype)


def _concatenate_compute(inputs, attrs):
    return np.concatenate(list(inputs), axis=attrs.get("axis", 0))


def _concatenate_shape_func(in_shapes, in_values, attrs):
    axis = normalize_axis(attrs.get("axis", 0), len(in_shapes[0]))
    out = list(in_shapes[0])
    for shape in in_shapes[1:]:
        for i, (a, b) in enumerate(zip(out, shape)):
            if i == axis:
                out[i] = a + b
            elif a != b:
                raise ShapeError(f"concatenate runtime check failed: {in_shapes}")
    return [tuple(out)]


register_op(
    OpDef(
        name="concatenate",
        type_rel=_concatenate_rel,
        compute=_concatenate_compute,
        shape_func=_concatenate_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)


# -- split ----------------------------------------------------------------------
def _split_sections(dim, attrs):
    sections = attrs["indices_or_sections"]
    if isinstance(sections, int):
        if isinstance(dim, Any):
            return [Any() for _ in range(sections)]
        if dim % sections != 0:
            raise TypeInferenceError(f"split: {dim} not divisible by {sections}")
        return [dim // sections] * sections
    # explicit indices
    pieces = []
    prev = 0
    for idx in list(sections):
        pieces.append(Any() if isinstance(dim, Any) else idx - prev)
        prev = idx
    pieces.append(Any() if isinstance(dim, Any) else dim - prev)
    return pieces


def _split_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "split data")
    axis = normalize_axis(attrs.get("axis", 0), data.ndim)
    pieces = _split_sections(data.shape[axis], attrs)
    fields = []
    for piece in pieces:
        shape = list(data.shape)
        shape[axis] = piece
        fields.append(TensorType(tuple(shape), data.dtype))
    return TupleType(fields)


def _split_compute(inputs, attrs):
    x = inputs[0]
    axis = attrs.get("axis", 0)
    sections = attrs["indices_or_sections"]
    if not isinstance(sections, int) or sections <= 0:
        return tuple(np.ascontiguousarray(p) for p in np.split(x, sections, axis=axis))
    # Equal sections are sliced directly: np.split goes through
    # array_split, a Python loop with two swapaxes per part.
    size = x.shape[axis]
    if size % sections:
        raise ValueError("array split does not result in an equal division")
    step = size // sections
    index = [slice(None)] * x.ndim
    parts = []
    for part in range(sections):
        index[axis] = slice(part * step, (part + 1) * step)
        parts.append(np.ascontiguousarray(x[tuple(index)]))
    return tuple(parts)


def _split_shape_func(in_shapes, in_values, attrs):
    shape = in_shapes[0]
    axis = normalize_axis(attrs.get("axis", 0), len(shape))
    sections = attrs["indices_or_sections"]
    if isinstance(sections, int):
        if shape[axis] % sections != 0:
            raise ShapeError(f"split runtime check failed: {shape[axis]} % {sections}")
        sizes = [shape[axis] // sections] * sections
    else:
        sizes, prev = [], 0
        for idx in list(sections):
            sizes.append(idx - prev)
            prev = idx
        sizes.append(shape[axis] - prev)
    out = []
    for size in sizes:
        s = list(shape)
        s[axis] = size
        out.append(tuple(s))
    return out


def _split_num_outputs(attrs) -> int:
    sections = attrs["indices_or_sections"]
    return sections if isinstance(sections, int) else len(list(sections)) + 1


register_op(
    OpDef(
        name="split",
        type_rel=_split_rel,
        compute=_split_compute,
        shape_func=_split_shape_func,
        pattern=OpPattern.INJECTIVE,
        num_outputs=-1,  # depends on attrs; see _split_num_outputs
    )
)


# -- take (gather / embedding lookup) ------------------------------------------
def _take_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "take data")
    indices = expect_tensor(arg_types[1], "take indices")
    axis = attrs.get("axis")
    if axis is None:
        return TensorType(indices.shape, data.dtype)
    axis = normalize_axis(axis, data.ndim)
    shape = data.shape[:axis] + indices.shape + data.shape[axis + 1 :]
    return TensorType(shape, data.dtype)


def _take_compute(inputs, attrs):
    data, indices = inputs
    axis = attrs.get("axis")
    if axis is None:
        return np.take(data.reshape(-1), indices.astype(np.int64))
    return np.take(data, indices.astype(np.int64), axis=axis)


def _take_shape_func(in_shapes, in_values, attrs):
    data, indices = in_shapes
    axis = attrs.get("axis")
    if axis is None:
        return [tuple(indices)]
    axis = normalize_axis(axis, len(data))
    return [tuple(data[:axis]) + tuple(indices) + tuple(data[axis + 1 :])]


register_op(
    OpDef(
        name="take",
        type_rel=_take_rel,
        compute=_take_compute,
        shape_func=_take_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)


# -- stack / expand_dims / squeeze -----------------------------------------------
def _stack_rel(arg_types, attrs) -> Type:
    tensors = [expect_tensor(t, "stack input") for t in arg_types]
    base = tensors[0]
    for t in tensors[1:]:
        for a, b in zip(base.shape, t.shape):
            unify_dim(a, b, "stack dims")
    axis = attrs.get("axis", 0)
    shape = list(base.shape)
    shape.insert(axis if axis >= 0 else axis + base.ndim + 1, len(tensors))
    return TensorType(tuple(shape), base.dtype)


register_op(
    OpDef(
        name="stack",
        type_rel=_stack_rel,
        compute=lambda inputs, attrs: np.stack(list(inputs), axis=attrs.get("axis", 0)),
        shape_func=lambda s, v, a: [
            tuple(
                list(s[0][: a.get("axis", 0)]) + [len(s)] + list(s[0][a.get("axis", 0) :])
            )
        ],
        pattern=OpPattern.INJECTIVE,
    )
)


def _expand_dims_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "expand_dims data")
    axis = attrs.get("axis", 0)
    shape = list(data.shape)
    shape.insert(axis if axis >= 0 else axis + data.ndim + 1, 1)
    return TensorType(tuple(shape), data.dtype)


register_op(
    OpDef(
        name="expand_dims",
        type_rel=_expand_dims_rel,
        compute=lambda inputs, attrs: np.expand_dims(inputs[0], attrs.get("axis", 0)),
        shape_func=lambda s, v, a: [
            tuple(
                list(s[0][: a.get("axis", 0)]) + [1] + list(s[0][a.get("axis", 0) :])
            )
        ],
        pattern=OpPattern.INJECTIVE,
        flops=lambda i, o, a: 0.0,
    )
)


def _squeeze_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "squeeze data")
    axes = attrs.get("axis")
    if axes is None:
        shape = tuple(d for d in data.shape if not (isinstance(d, int) and d == 1))
    else:
        axes = [normalize_axis(a, data.ndim) for a in (axes if isinstance(axes, (list, tuple)) else [axes])]
        for a in axes:
            if isinstance(data.shape[a], int) and data.shape[a] != 1:
                raise TypeInferenceError(f"squeeze axis {a} has extent {data.shape[a]}")
        shape = tuple(d for i, d in enumerate(data.shape) if i not in axes)
    return TensorType(shape, data.dtype)


def _squeeze_compute(inputs, attrs):
    axes = attrs.get("axis")
    if axes is not None and not isinstance(axes, (list, tuple)):
        axes = [axes]
    return np.squeeze(inputs[0], axis=tuple(axes) if axes is not None else None)


def _squeeze_shape_func(in_shapes, in_values, attrs):
    shape = in_shapes[0]
    axes = attrs.get("axis")
    if axes is None:
        return [tuple(d for d in shape if d != 1)]
    if not isinstance(axes, (list, tuple)):
        axes = [axes]
    axes = {normalize_axis(a, len(shape)) for a in axes}
    return [tuple(d for i, d in enumerate(shape) if i not in axes)]


register_op(
    OpDef(
        name="squeeze",
        type_rel=_squeeze_rel,
        compute=_squeeze_compute,
        shape_func=_squeeze_shape_func,
        pattern=OpPattern.INJECTIVE,
        flops=lambda i, o, a: 0.0,
    )
)


# -- strided_slice -----------------------------------------------------------------
def _strided_slice_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "strided_slice data")
    begin = list(attrs["begin"])
    end = list(attrs["end"])
    strides = list(attrs.get("strides") or [1] * len(begin))
    shape: List = []
    for i, dim in enumerate(data.shape):
        if i >= len(begin):
            shape.append(dim)
            continue
        if isinstance(dim, Any):
            shape.append(Any())
            continue
        b = min(begin[i], dim) if begin[i] >= 0 else begin[i] + dim
        e = min(end[i], dim) if end[i] >= 0 else end[i] + dim
        s = strides[i]
        shape.append(max(0, (e - b + s - 1) // s))
    return TensorType(tuple(shape), data.dtype)


def _strided_slice_compute(inputs, attrs):
    x = inputs[0]
    begin = list(attrs["begin"])
    end = list(attrs["end"])
    strides = list(attrs.get("strides") or [1] * len(begin))
    index = tuple(
        slice(b, e, s) for b, e, s in zip(begin, end, strides)
    ) + (Ellipsis,)
    return np.ascontiguousarray(x[index])


def _strided_slice_shape_func(in_shapes, in_values, attrs):
    shape = in_shapes[0]
    begin = list(attrs["begin"])
    end = list(attrs["end"])
    strides = list(attrs.get("strides") or [1] * len(begin))
    out = []
    for i, dim in enumerate(shape):
        if i >= len(begin):
            out.append(dim)
            continue
        b = begin[i] if begin[i] >= 0 else begin[i] + dim
        e = end[i] if end[i] >= 0 else end[i] + dim
        b, e = max(0, min(b, dim)), max(0, min(e, dim))
        out.append(max(0, (e - b + strides[i] - 1) // strides[i]))
    return [tuple(out)]


register_op(
    OpDef(
        name="strided_slice",
        type_rel=_strided_slice_rel,
        compute=_strided_slice_compute,
        shape_func=_strided_slice_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)


# -- constant creators ------------------------------------------------------------
def _filled_rel(arg_types, attrs) -> Type:
    return TensorType(tuple(attrs["shape"]), attrs.get("dtype", "float32"))


def _register_filled(name: str, fill_value) -> None:
    def compute(inputs, attrs):
        from repro.tensor.dtype import to_numpy_dtype

        value = attrs.get("fill_value", fill_value)
        return np.full(
            tuple(attrs["shape"]), value, dtype=to_numpy_dtype(attrs.get("dtype", "float32"))
        )

    register_op(
        OpDef(
            name=name,
            type_rel=_filled_rel,
            compute=compute,
            shape_func=lambda s, v, a: [tuple(a["shape"])],
            pattern=OpPattern.ELEMWISE,
        )
    )


_register_filled("zeros", 0.0)
_register_filled("ones", 1.0)
_register_filled("full", 0.0)


# -- broadcast_to --------------------------------------------------------------------
def _broadcast_to_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "broadcast_to data")
    return TensorType(tuple(attrs["shape"]), data.dtype)


register_op(
    OpDef(
        name="broadcast_to",
        type_rel=_broadcast_to_rel,
        compute=lambda inputs, attrs: np.broadcast_to(
            inputs[0], tuple(attrs["shape"])
        ).copy(),
        shape_func=lambda s, v, a: [tuple(a["shape"])],
        pattern=OpPattern.BROADCAST,
    )
)
