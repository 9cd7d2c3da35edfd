"""Neural-network operators: the compute-intensive kernels.

``nn.dense`` / ``nn.batch_matmul`` are the OUT_ELEMWISE_FUSABLE anchors the
fusion pass attaches elementwise epilogues to, and the ops whose symbolic
codegen / residue dispatch Figure 3 measures. ``nn.conv2d`` and pooling
exist for the CV models of the §6.3 memory-footprint study.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import BatchSpecializeError, ShapeError, TypeInferenceError
from repro.ir.expr import Call
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, TupleType, Type
from repro.ops.batching import BatchCall, elementwise, row_wise, static_shape
from repro.ops.registry import OpDef, OpPattern, ShapeFuncMode, get_op_def, keeps_dtype, register_op
from repro.ops.shape_funcs import check_rank, normalize_axis, prod, same_shape_func
from repro.ops.type_relations import expect_tensor, unify_dim


# -- dense --------------------------------------------------------------------
# Two rewrites stack GEMMs into one ``nn.dense`` that is priced as one GEMM
# and computed in the pieces it was stacked from, each as its own matmul:
# ``batch`` cuts the data rows into equal parts, one per member
# ``SpecializeBatch`` stacked, and ``sections`` the weight rows at the
# offsets where ``CombineParallelDense`` stacked separate weights. BLAS
# results are not row-stable across the GEMM's size, so one matmul over
# all the rows could differ from the separate ones in the last bits.
def _dense_rel(arg_types: Sequence[Type], attrs: dict) -> Type:
    data = expect_tensor(arg_types[0], "dense data")
    weight = expect_tensor(arg_types[1], "dense weight")
    if data.ndim < 1 or weight.ndim != 2:
        raise TypeInferenceError(f"dense: bad ranks {data!r} @ {weight!r}")
    unify_dim(data.shape[-1], weight.shape[1], "dense reduction axis")
    cuts = list(attrs.get("sections", ()))
    rows = weight.shape[0]
    if cuts and (cuts != sorted(set(cuts)) or cuts[0] <= 0
                 or (not isinstance(rows, Any) and cuts[-1] >= rows)):
        raise TypeInferenceError(f"dense: sections {tuple(cuts)} do not cut {rows} weight rows")
    batch = int(attrs.get("batch", 1))
    if batch < 1 or (batch > 1 and data.ndim != 2):
        raise TypeInferenceError(f"dense: batch {batch} does not cut {data!r}")
    stacked = data.shape[0]
    if not isinstance(stacked, Any) and stacked % batch:
        raise TypeInferenceError(f"dense: {stacked} stacked rows not divisible by batch {batch}")
    return TensorType(data.shape[:-1] + (weight.shape[0],), data.dtype)


def _joined(parts, axis):
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _dense_compute(inputs, attrs):
    """``data @ weight.T``, one GEMM per (member, section)."""
    data, weight = inputs
    batch = int(attrs.get("batch", 1))
    if data.shape[0] % batch:
        raise ShapeError(f"dense: {data.shape[0]} stacked rows not divisible by batch {batch}")
    members = np.split(data, batch) if batch > 1 else [data]
    cuts = attrs.get("sections")
    weights = np.split(weight, cuts) if cuts else [weight]
    return _joined([_joined([(d @ w.T).astype(d.dtype, copy=False) for w in weights], -1)
                    for d in members], 0)


def _dense_shape_func(in_shapes, in_values, attrs):
    d, w = in_shapes
    if d[-1] != w[1] or d[0] % int(attrs.get("batch", 1)):
        raise ShapeError(f"dense runtime check failed: {d} @ {w}")
    return [tuple(d[:-1]) + (w[0],)]


def _dense_flops(in_shapes, out_shapes, attrs):
    d, w = in_shapes
    return 2.0 * prod(d[:-1]) * w[0] * w[1]


def _dense_batch_rule(c: BatchCall):
    """Stacked rows against shared weights: the same dense, cut into
    ``batch`` members."""
    if c.flags[1] is not False:
        raise BatchSpecializeError("dense: batched weights")
    if "batch" in c.call.attrs:
        raise BatchSpecializeError("dense: already cut into batch members")
    rank = len(static_shape(c.member_tys[0], c.name))
    if rank != 2:
        raise BatchSpecializeError(f"dense: rank-{rank} dense data")
    return Call(c.call.op, c.args, {**c.call.attrs, "batch": c.batch}), True


def _dense_lower(call, args):
    """``compute``'s matmuls over the slices ``np.split`` views: a
    member's static rows, a section's weight rows."""
    if not keeps_dtype(call, lambda d, w: np.matmul(d, w.T)):
        return None
    d, w = args
    batch, members = int(call.attrs.get("batch", 1)), [d]
    if batch > 1:
        stacked = call.checked_type.shape[0]
        if isinstance(stacked, Any):
            return None
        rows = stacked // batch
        members = [f"{d}[{i * rows}:{(i + 1) * rows}]" for i in range(batch)]
    cuts = tuple(call.attrs.get("sections") or ())
    weights = [f"{w}[{a}:{b}]" for a, b in zip((0,) + cuts, cuts + ("",))] if cuts else [w]

    def joined(parts, axis):
        return parts[0] if len(parts) == 1 else f"concatenate(({', '.join(parts)}), axis={axis})"

    text = joined([joined([f"matmul({m}, {x}.T)" for x in weights], -1) for m in members], 0)
    return text, {"matmul": np.matmul, "concatenate": np.concatenate}, None


register_op(
    OpDef(
        name="nn.dense",
        type_rel=_dense_rel,
        compute=_dense_compute,
        shape_func=_dense_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=_dense_flops,
        batch_rule=_dense_batch_rule,
        lower=_dense_lower,
    )
)


# -- bias add --------------------------------------------------------------
def _bias_add_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "bias_add data")
    bias = expect_tensor(arg_types[1], "bias_add bias")
    if bias.ndim != 1:
        raise TypeInferenceError("bias_add: bias must be rank 1")
    axis = attrs.get("axis", -1)
    unify_dim(data.shape[axis], bias.shape[0], "bias_add channel axis")
    return data


def _bias_add_compute(inputs, attrs):
    data, bias = inputs
    axis = attrs.get("axis", -1)
    if axis < 0:
        axis += data.ndim
    shape = [1] * data.ndim
    shape[axis] = bias.shape[0]
    return (data + bias.reshape(shape)).astype(data.dtype, copy=False)


def _bias_add_lower(call, args):
    """On the last axis the bias broadcasts as it stands: ``add``'s line."""
    data = call.args[0].checked_type
    if isinstance(data, TensorType) and call.attrs.get("axis", -1) in (-1, data.ndim - 1):
        return get_op_def("add").lower(call, args)
    return None


register_op(
    OpDef(
        name="nn.bias_add",
        type_rel=_bias_add_rel,
        compute=_bias_add_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.BROADCAST,
        batch_rule=row_wise(shared=(1,)),
        lower=_bias_add_lower,
    )
)


# -- batch matmul -------------------------------------------------------------
def _batch_matmul_rel(arg_types, attrs) -> Type:
    a = expect_tensor(arg_types[0], "batch_matmul lhs")
    b = expect_tensor(arg_types[1], "batch_matmul rhs")
    if a.ndim != 3 or b.ndim != 3:
        raise TypeInferenceError("batch_matmul expects rank-3 inputs")
    batch = unify_dim(a.shape[0], b.shape[0], "batch_matmul batch")
    # Relay convention: B is (batch, N, K); output (batch, M, N).
    unify_dim(a.shape[2], b.shape[2], "batch_matmul reduction")
    return TensorType((batch, a.shape[1], b.shape[1]), a.dtype)


def _batch_matmul_compute(inputs, attrs):
    a, b = inputs
    return np.matmul(a, b.transpose(0, 2, 1)).astype(a.dtype, copy=False)


def _batch_matmul_shape_func(in_shapes, in_values, attrs):
    a, b = in_shapes
    if a[0] != b[0] or a[2] != b[2]:
        raise ShapeError(f"batch_matmul runtime check failed: {a} x {b}")
    return [(a[0], a[1], b[1])]


def _batch_matmul_flops(in_shapes, out_shapes, attrs):
    a, b = in_shapes
    return 2.0 * a[0] * a[1] * b[1] * a[2]


register_op(
    OpDef(
        name="nn.batch_matmul",
        type_rel=_batch_matmul_rel,
        compute=_batch_matmul_compute,
        shape_func=_batch_matmul_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=_batch_matmul_flops,
        # Member-wise along axis 0 already: stacking only lengthens it.
        batch_rule=lambda c: (Call(c.call.op, c.tiled(), c.call.attrs), True),
    )
)


# -- softmax ----------------------------------------------------------------
def _softmax_compute(inputs, attrs):
    x = inputs[0]
    axis = attrs.get("axis", -1)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return (e / np.sum(e, axis=axis, keepdims=True)).astype(x.dtype, copy=False)


def _softmax_flops(in_shapes, out_shapes, attrs):
    return 8.0 * prod(in_shapes[0])


register_op(
    OpDef(
        name="nn.softmax",
        type_rel=lambda ts, attrs: expect_tensor(ts[0], "softmax"),
        compute=_softmax_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=_softmax_flops,
        batch_rule=row_wise(lifts=True),
    )
)


def _log_softmax_compute(inputs, attrs):
    x = inputs[0]
    axis = attrs.get("axis", -1)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return (shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))).astype(
        x.dtype, copy=False
    )


register_op(
    OpDef(
        name="nn.log_softmax",
        type_rel=lambda ts, attrs: expect_tensor(ts[0], "log_softmax"),
        compute=_log_softmax_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=_softmax_flops,
        batch_rule=row_wise(lifts=True),
    )
)


# -- layer norm --------------------------------------------------------------
def _layer_norm_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "layer_norm data")
    gamma = expect_tensor(arg_types[1], "layer_norm gamma")
    beta = expect_tensor(arg_types[2], "layer_norm beta")
    axis = attrs.get("axis", -1)
    unify_dim(data.shape[axis], gamma.shape[0], "layer_norm gamma")
    unify_dim(data.shape[axis], beta.shape[0], "layer_norm beta")
    return data


def _layer_norm_compute(inputs, attrs):
    x, gamma, beta = inputs
    axis = attrs.get("axis", -1)
    eps = attrs.get("epsilon", 1e-5)
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.var(x, axis=axis, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(x.dtype, copy=False)


register_op(
    OpDef(
        name="nn.layer_norm",
        type_rel=_layer_norm_rel,
        compute=_layer_norm_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=lambda i, o, a: 8.0 * prod(i[0]),
        batch_rule=row_wise(shared=(1, 2)),
    )
)


# -- gelu (BERT's activation; composed of erf but kept fused as one op) -------
def _gelu_compute(inputs, attrs):
    from scipy.special import erf

    x = inputs[0]
    return (0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))).astype(x.dtype, copy=False)


register_op(
    OpDef(
        name="nn.gelu",
        type_rel=lambda ts, attrs: expect_tensor(ts[0], "gelu"),
        compute=_gelu_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.ELEMWISE,
        flops=lambda i, o, a: 12.0 * prod(i[0]),
        batch_rule=elementwise,
    )
)


# -- embedding lookup is `take` (see transform.py) ----------------------------


# -- conv2d (NCHW, used by the CV models in the memory study) -----------------
def _conv_out_dim(in_dim, kernel, stride, pad):
    if isinstance(in_dim, Any):
        return Any()
    return (in_dim + 2 * pad - kernel) // stride + 1


def _conv2d_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "conv2d data")
    weight = expect_tensor(arg_types[1], "conv2d weight")
    if data.ndim != 4 or weight.ndim != 4:
        raise TypeInferenceError("conv2d expects NCHW data and OIHW weight")
    stride = attrs.get("strides", 1)
    pad = attrs.get("padding", 0)
    groups = attrs.get("groups", 1)
    kh, kw = weight.shape[2], weight.shape[3]
    if isinstance(weight.shape[1], int) and isinstance(data.shape[1], int):
        if weight.shape[1] * groups != data.shape[1]:
            raise TypeInferenceError(
                f"conv2d channel mismatch: data C={data.shape[1]}, "
                f"weight I={weight.shape[1]}, groups={groups}"
            )
    oh = _conv_out_dim(data.shape[2], kh, stride, pad)
    ow = _conv_out_dim(data.shape[3], kw, stride, pad)
    return TensorType((data.shape[0], weight.shape[0], oh, ow), data.dtype)


def _conv2d_compute(inputs, attrs):
    data, weight = inputs
    stride = attrs.get("strides", 1)
    pad = attrs.get("padding", 0)
    groups = attrs.get("groups", 1)
    n, c, h, w = data.shape
    oc, ic, kh, kw = weight.shape
    if pad:
        data = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (data.shape[2] - kh) // stride + 1
    ow = (data.shape[3] - kw) // stride + 1
    out = np.empty((n, oc, oh, ow), dtype=data.dtype)
    cg = c // groups  # input channels per group
    og = oc // groups  # output channels per group
    for g in range(groups):
        dg = data[:, g * cg : (g + 1) * cg]
        wg = weight[g * og : (g + 1) * og]
        # im2col: patches (n, oh, ow, cg*kh*kw) @ (og, cg*kh*kw)^T
        cols = np.lib.stride_tricks.sliding_window_view(dg, (kh, kw), axis=(2, 3))
        cols = cols[:, :, ::stride, ::stride]  # (n, cg, oh, ow, kh, kw)
        cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, cg * kh * kw)
        wmat = wg.reshape(og, cg * kh * kw)
        out[:, g * og : (g + 1) * og] = np.einsum(
            "nhwk,ok->nohw", cols, wmat, optimize=True
        ).astype(data.dtype, copy=False)
    return out


def _conv2d_shape_func(in_shapes, in_values, attrs):
    d, w = in_shapes
    stride = attrs.get("strides", 1)
    pad = attrs.get("padding", 0)
    oh = (d[2] + 2 * pad - w[2]) // stride + 1
    ow = (d[3] + 2 * pad - w[3]) // stride + 1
    return [(d[0], w[0], oh, ow)]


def _conv2d_flops(in_shapes, out_shapes, attrs):
    d, w = in_shapes
    o = out_shapes[0]
    groups = attrs.get("groups", 1)
    return 2.0 * prod(o) * (w[1] * w[2] * w[3])


register_op(
    OpDef(
        name="nn.conv2d",
        type_rel=_conv2d_rel,
        compute=_conv2d_compute,
        shape_func=_conv2d_shape_func,
        pattern=OpPattern.OUT_ELEMWISE_FUSABLE,
        flops=_conv2d_flops,
    )
)


# -- pooling -----------------------------------------------------------------
def _pool_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "pool data")
    if data.ndim != 4:
        raise TypeInferenceError("pool expects NCHW")
    k = attrs.get("pool_size", 2)
    s = attrs.get("strides", k)
    p = attrs.get("padding", 0)
    oh = _conv_out_dim(data.shape[2], k, s, p)
    ow = _conv_out_dim(data.shape[3], k, s, p)
    return TensorType((data.shape[0], data.shape[1], oh, ow), data.dtype)


def _pool_compute_factory(reduce_fn):
    def compute(inputs, attrs):
        x = inputs[0]
        k = attrs.get("pool_size", 2)
        s = attrs.get("strides", k)
        p = attrs.get("padding", 0)
        if p:
            pad_value = -np.inf if reduce_fn is np.max else 0.0
            x = np.pad(
                x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=pad_value
            )
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s]
        return reduce_fn(windows, axis=(-2, -1)).astype(x.dtype, copy=False)

    return compute


def _pool_shape_func(in_shapes, in_values, attrs):
    d = in_shapes[0]
    k = attrs.get("pool_size", 2)
    s = attrs.get("strides", k)
    p = attrs.get("padding", 0)
    oh = (d[2] + 2 * p - k) // s + 1
    ow = (d[3] + 2 * p - k) // s + 1
    return [(d[0], d[1], oh, ow)]


register_op(
    OpDef(
        name="nn.max_pool2d",
        type_rel=_pool_rel,
        compute=_pool_compute_factory(np.max),
        shape_func=_pool_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)

register_op(
    OpDef(
        name="nn.avg_pool2d",
        type_rel=_pool_rel,
        compute=_pool_compute_factory(np.mean),
        shape_func=_pool_shape_func,
        pattern=OpPattern.INJECTIVE,
    )
)


def _gap_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "global_avg_pool2d")
    return TensorType((data.shape[0], data.shape[1], 1, 1), data.dtype)


register_op(
    OpDef(
        name="nn.global_avg_pool2d",
        type_rel=_gap_rel,
        compute=lambda inputs, attrs: np.mean(
            inputs[0], axis=(2, 3), keepdims=True
        ).astype(inputs[0].dtype, copy=False),
        shape_func=lambda s, v, a: [(s[0][0], s[0][1], 1, 1)],
        pattern=OpPattern.COMM_REDUCE,
    )
)


# -- inference-mode batch norm (folded scale/shift) ---------------------------
def _batch_norm_rel(arg_types, attrs) -> Type:
    data = expect_tensor(arg_types[0], "batch_norm data")
    return data


def _batch_norm_compute(inputs, attrs):
    x, gamma, beta, mean, var = inputs
    eps = attrs.get("epsilon", 1e-5)
    shape = [1] * x.ndim
    shape[1] = gamma.shape[0]
    scale = (gamma / np.sqrt(var + eps)).reshape(shape)
    shift = (beta - mean * gamma / np.sqrt(var + eps)).reshape(shape)
    return (x * scale + shift).astype(x.dtype, copy=False)


register_op(
    OpDef(
        name="nn.batch_norm_inference",
        type_rel=_batch_norm_rel,
        compute=_batch_norm_compute,
        shape_func=same_shape_func,
        pattern=OpPattern.BROADCAST,
        batch_rule=elementwise,
    )
)
