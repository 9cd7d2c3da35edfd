"""Tensor layout/shape transform operators (INJECTIVE fusion pattern).

Type relations here do most of the ``Any``-propagation work: e.g.
``concatenate`` along a dynamic axis emits an ``Any`` output dim, and
``reshape`` with ``-1`` over a dynamic input stays dynamic — with the
input's identity token when the inferred dim provably *is* the input's one
dynamic dim (``(?a, 256) -> (-1, 4, 64)`` gives ``(?a, 4, 64)``), which is
what lets ``ManifestAlloc`` see that a whole BERT has one symbolic
dimension. At run time the same relations, given concrete types,
compute every shape exactly and make the checks ``Any`` put off.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import BatchSpecializeError, TypeInferenceError
from repro.ir.expr import Call, Constant
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, TupleType, Type
from repro.ops.batching import BatchCall, canonical, elementwise, row_wise, static_shape
from repro.ops.registry import OpDef, OpPattern, operand_probe, register_op
from repro.ops.shape_funcs import normalize_axis, prod
from repro.ops.type_relations import expect_tensor, unify_dim
from repro.tensor.dtype import to_numpy_dtype
from repro.tensor.ndarray import array as make_array


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
    if -1 not in newshape and data.num_elements() not in (None, prod(newshape)):
        raise TypeInferenceError(f"reshape: element count mismatch {data!r} -> {newshape}")
    return TensorType(tuple(out), data.dtype)


def _reshape_compute(inputs, attrs):
    return np.reshape(inputs[0], tuple(attrs["newshape"]))


def _reshape_lower(call, args):
    return f"{args[0]}.reshape({tuple(int(d) for d in call.attrs['newshape'])})", {}, None


def _reshape_batch_rule(c: BatchCall):
    """The stacked value's flat layout is the members': reshape it to
    the canonical stacked form of the member result."""
    member_out = static_shape(c.out_ty, c.name)
    if not member_out:
        raise BatchSpecializeError("reshape to a member scalar")
    return canonical(c.args[0], member_out, c.batch), True


register_op(
    OpDef(
        name="reshape",
        type_rel=_reshape_rel,
        compute=_reshape_compute,
        pattern=OpPattern.INJECTIVE,
        flops=lambda i, o, a: 0.0,
        batch_rule=_reshape_batch_rule,
        lower=_reshape_lower,
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
    # ``asarray(order="C")``, not ``ascontiguousarray``: that one makes a
    # 0-d result 1-d, where the relation says 0-d.
    return np.asarray(np.transpose(inputs[0], attrs.get("axes")), order="C")


def _transpose_lower(call, args):
    axes = call.attrs.get("axes")
    axes = None if axes is None else tuple(int(a) for a in axes)
    return (f"asarray(transpose({args[0]}, {axes}), order='C')",
            {"asarray": np.asarray, "transpose": np.transpose}, None)


def _transpose_batch_rule(c: BatchCall):
    """Lifted: the batch axis stays first, the member's axes follow."""
    axes = c.call.attrs.get("axes") or reversed(range(c.member_tys[0].ndim))
    return c.lift({"axes": (0,) + tuple(a + 1 for a in axes)}), True


register_op(
    OpDef(
        name="transpose",
        type_rel=_transpose_rel,
        compute=_transpose_compute,
        pattern=OpPattern.INJECTIVE,
        batch_rule=_transpose_batch_rule,
        lower=_transpose_lower,
    )
)


# -- concatenate (variadic) -----------------------------------------------------
def _concatenate_rel(arg_types, attrs) -> Type:
    tensors = [expect_tensor(t, "concatenate input") for t in arg_types]
    if not tensors:
        raise TypeInferenceError("concatenate of zero tensors")
    ndim = tensors[0].ndim
    dtype = tensors[0].dtype
    if any(t.ndim != ndim for t in tensors):
        raise TypeInferenceError(f"concatenate: rank mismatch {tensors!r}")
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


def _concatenate_lower(call, args):
    tensors = ", ".join(args) + ("," if len(args) == 1 else "")
    axis = int(call.attrs.get("axis", 0))
    return f"concatenate(({tensors}), axis={axis})", {"concatenate": np.concatenate}, None


register_op(
    OpDef(
        name="concatenate",
        type_rel=_concatenate_rel,
        compute=_concatenate_compute,
        pattern=OpPattern.INJECTIVE,
        batch_rule=row_wise(default_axis=0, tile=True),
        lower=_concatenate_lower,
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
    # Explicit indices: the pieces are x[:i0], x[i0:i1], ..., x[ik:], each
    # bound clamped (and a negative one counted from the end) as NumPy does.
    bounds = [0, *sections, None]
    if isinstance(dim, Any):
        return [Any() for _ in bounds[1:]]
    return [len(range(*slice(a, b).indices(dim))) for a, b in zip(bounds, bounds[1:])]


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


register_op(
    OpDef(
        name="split",
        type_rel=_split_rel,
        compute=_split_compute,
        pattern=OpPattern.INJECTIVE,
        batch_rule=row_wise(default_axis=0),
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


def _take_lower(call, args):
    """``d.take(i, axis=K)`` without ``compute``'s copy of ``int64`` indices."""
    indices, axis = operand_probe(call.args[1]), call.attrs.get("axis")
    if indices is None or indices.dtype != np.int64:
        return None
    where = "" if axis is None else f", axis={int(axis)}"
    return f"{args[0]}.take({args[1]}{where})", {}, None


def _take_batch_rule(c: BatchCall):
    data_f, idx_f = c.flags
    axis = c.call.attrs.get("axis")
    if axis is not None:
        axis = normalize_axis(axis, c.member_tys[0].ndim)
    if data_f is False and idx_f is not False:
        # Gather from a shared table with stacked indices (embedding
        # lookup): member-wise by construction for axis-0/flat gathers.
        if axis in (None, 0):
            return Call(c.call.op, c.args, c.call.attrs), True
        raise BatchSpecializeError("take: stacked indices on an inner axis")
    if data_f is not True:
        raise BatchSpecializeError("take: unsupported operand batching")
    if axis is None:
        raise BatchSpecializeError("take: flat gather from a batched value")
    data_shape = static_shape(c.member_tys[0], c.name)
    if axis != 0:
        if idx_f is not False:
            raise BatchSpecializeError("take: batched indices on an inner axis")
        return Call(c.call.op, c.args, c.call.attrs), True
    if idx_f is not False or c.member_tys[1].ndim != 0:
        raise BatchSpecializeError("take: unsupported axis-0 index shape")
    member_out = static_shape(c.out_ty, c.name)
    if not member_out:
        raise BatchSpecializeError("take: member-scalar gather")
    # Row r of each member is row r + i*member_rows of the stack: gather
    # every member's row in one kernel with offset indices. A negative
    # index wraps within the *member* (take's own convention), so it must
    # be normalized before the offsets are added — raw `i*rows + (-1)`
    # would wrap within the whole stack and hand member i another
    # member's row. The normalization folds to a constant for constant
    # indices.
    index = c.args[1]
    lead = np.int64(data_shape[0])
    zero = Constant(make_array(np.int64(0)))
    wrapped = Call(Op.get("add"), [index, Constant(make_array(lead))], None)
    is_negative = Call(Op.get("less"), [index, zero], None)
    normalized = Call(Op.get("where"), [is_negative, wrapped, index], None)
    offsets = Constant(make_array(np.arange(c.batch, dtype=np.int64) * lead))
    indices = Call(Op.get("add"), [offsets, normalized], None)
    gathered = Call(c.call.op, [c.args[0], indices], {"axis": 0})
    return canonical(gathered, member_out, c.batch), True


register_op(
    OpDef(
        name="take",
        type_rel=_take_rel,
        compute=_take_compute,
        pattern=OpPattern.INJECTIVE,
        batch_rule=_take_batch_rule,
        lower=_take_lower,
    )
)


# -- constant creators ------------------------------------------------------------
def _zeros_rel(arg_types, attrs) -> Type:
    return TensorType(tuple(attrs["shape"]), attrs.get("dtype", "float32"))


def _zeros_compute(inputs, attrs):
    return np.zeros(tuple(attrs["shape"]), dtype=to_numpy_dtype(attrs.get("dtype", "float32")))


register_op(
    OpDef(
        name="zeros",
        type_rel=_zeros_rel,
        compute=_zeros_compute,
        pattern=OpPattern.ELEMWISE,
        batch_rule=elementwise,
    )
)
