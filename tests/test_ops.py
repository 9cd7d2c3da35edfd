"""Operator library: computes vs NumPy ground truth, shape-function
exactness (property-based), fusion patterns, dynamic-op contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.errors import CompilerError, ShapeError, TypeInferenceError
from repro.ir import Any, TensorType, TupleType
from repro.ops import (
    DIALECT_OPS,
    OpPattern,
    ShapeFuncMode,
    all_op_names,
    get_op_def,
    has_op,
)
from repro.ops.registry import output_shapes, output_types

RNG = np.random.RandomState(7)


def run_op(name, inputs, attrs=None):
    return get_op_def(name).compute([np.asarray(i) for i in inputs], attrs or {})


class TestElementwise:
    @pytest.mark.parametrize("name,fn", [("add", np.add), ("multiply", np.multiply),
                                         ("less", np.less)])
    def test_binary_matches_numpy(self, name, fn):
        a = RNG.randn(3, 4).astype(np.float32)
        b = RNG.randn(3, 4).astype(np.float32) + 2.0
        assert np.allclose(run_op(name, [a, b]), fn(a, b), atol=1e-6)

    @pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((4,), (3, 4)), ((3, 1), (1, 4)),
                                        ((), (3, 4)), ((2, 1, 4), (3, 1))], ids=str)
    @pytest.mark.parametrize("name,fn", [("add", np.add), ("multiply", np.multiply),
                                         ("less", np.less)])
    def test_binary_broadcasts_like_numpy(self, name, fn, shapes):
        a, b = (np.asarray(RNG.randn(*shape), np.float32) for shape in shapes)
        out, want = run_op(name, [a, b]), fn(a, b)
        assert out.shape == want.shape and out.dtype == want.dtype
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("name,fn", [
        ("tanh", np.tanh),
        ("sigmoid", lambda x: 1 / (1 + np.exp(-x))),
        ("nn.relu", lambda x: np.maximum(x, 0)),
        ("nn.gelu", lambda x: 0.5 * x * (1 + special.erf(x / np.sqrt(2)))),
    ])
    def test_unary_matches_numpy(self, name, fn):
        x = RNG.randn(5).astype(np.float32)
        assert np.allclose(run_op(name, [x]), fn(x), atol=1e-5)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", ["tanh", "sigmoid", "nn.relu", "nn.gelu"])
    def test_unary_keeps_shape_and_dtype(self, name, dtype):
        for shape in ((), (5,), (2, 3, 4)):
            x = np.asarray(RNG.randn(*shape), dtype)
            out = np.asarray(run_op(name, [x]))
            assert out.shape == shape and out.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("left,right", [
        ("float32", "float64"), ("float64", "float32"), ("int64", "int32"), ("int32", "float32")])
    def test_binary_result_has_the_first_operands_dtype(self, left, right):
        a = np.arange(1, 7).reshape(2, 3).astype(left)
        b = np.arange(2, 5).astype(right)
        out = run_op("multiply", [a, b])
        assert out.dtype == a.dtype and out.shape == (2, 3)
        assert np.array_equal(out, (a * b).astype(left))

    def test_sigmoid(self):
        x = RNG.randn(8).astype(np.float32)
        assert np.allclose(run_op("sigmoid", [x]), 1 / (1 + np.exp(-x)), atol=1e-6)

    def test_broadcasting(self):
        a = RNG.randn(3, 1).astype(np.float32)
        b = RNG.randn(1, 4).astype(np.float32)
        assert run_op("add", [a, b]).shape == (3, 4)

    def test_comparisons_produce_bool(self):
        a = np.array([1.0, 2.0], np.float32)
        b = np.array([2.0, 1.0], np.float32)
        out = run_op("less", [a, b])
        assert out.dtype == np.bool_
        assert out.tolist() == [True, False]

    def test_where(self):
        c = np.array([True, False])
        out = run_op("where", [c, np.float32([1, 1]), np.float32([2, 2])])
        assert out.tolist() == [1.0, 2.0]


class TestNN:
    def test_dense(self):
        x = RNG.randn(3, 8).astype(np.float32)
        w = RNG.randn(5, 8).astype(np.float32)
        assert np.allclose(run_op("nn.dense", [x, w]), x @ w.T, atol=1e-5)

    def test_batch_matmul(self):
        a = RNG.randn(2, 3, 4).astype(np.float32)
        b = RNG.randn(2, 5, 4).astype(np.float32)
        assert np.allclose(
            run_op("nn.batch_matmul", [a, b]), a @ b.transpose(0, 2, 1), atol=1e-5
        )

    def test_softmax_rows_sum_to_one(self):
        x = RNG.randn(4, 9).astype(np.float32)
        out = run_op("nn.softmax", [x], {"axis": -1})
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    def test_layer_norm_normalizes(self):
        x = RNG.randn(6, 16).astype(np.float32) * 3 + 5
        g, b = np.ones(16, np.float32), np.zeros(16, np.float32)
        out = run_op("nn.layer_norm", [x, g, b], {"axis": -1, "epsilon": 1e-5})
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_bias_add(self):
        x = RNG.randn(2, 3).astype(np.float32)
        b = RNG.randn(3).astype(np.float32)
        assert np.allclose(run_op("nn.bias_add", [x, b], {"axis": -1}), x + b)

    def test_conv2d_matches_direct(self):
        x = RNG.randn(1, 2, 6, 6).astype(np.float32)
        w = RNG.randn(3, 2, 3, 3).astype(np.float32)
        out = run_op("nn.conv2d", [x, w], {"strides": 1, "padding": 1, "groups": 1})
        assert out.shape == (1, 3, 6, 6)
        # Check one output position against a direct dot product: output
        # (1, 1) covers padded rows/cols [1:4] with a 3x3 kernel.
        patch = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))[0, :, 1:4, 1:4]
        assert np.allclose(out[0, 0, 1, 1], np.sum(patch * w[0]), atol=1e-4)

    def test_depthwise_conv2d(self):
        x = RNG.randn(1, 4, 6, 6).astype(np.float32)
        w = RNG.randn(4, 1, 3, 3).astype(np.float32)
        out = run_op("nn.conv2d", [x, w], {"strides": 1, "padding": 1, "groups": 4})
        assert out.shape == (1, 4, 6, 6)

    def test_max_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = run_op("nn.max_pool2d", [x], {"pool_size": 2, "strides": 2, "padding": 0})
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_gelu_bounds(self):
        x = RNG.randn(100).astype(np.float32)
        out = run_op("nn.gelu", [x])
        assert np.all(out >= np.minimum(x, 0) - 0.2)


class TestTransforms:
    def test_reshape(self):
        x = np.arange(6, dtype=np.float32)
        assert run_op("reshape", [x], {"newshape": (2, 3)}).shape == (2, 3)
        assert run_op("reshape", [x], {"newshape": (-1, 3)}).shape == (2, 3)

    def test_transpose(self):
        x = RNG.randn(2, 3, 4).astype(np.float32)
        assert run_op("transpose", [x], {"axes": (2, 0, 1)}).shape == (4, 2, 3)

    def test_concatenate(self):
        a, b = np.ones((2, 3), np.float32), np.zeros((1, 3), np.float32)
        out = run_op("concatenate", [a, b], {"axis": 0})
        assert out.shape == (3, 3)

    def test_split(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 6)
        parts = run_op("split", [x], {"indices_or_sections": 3, "axis": 1})
        assert len(parts) == 3 and parts[0].shape == (2, 2)
        # The output count is the relation's, as prim_info counts it.
        for sections in (3, (2, 5)):
            outs = output_types(get_op_def("split"), [TensorType((2, 6))], None,
                                {"indices_or_sections": sections, "axis": 1})
            assert len(outs) == 3, sections

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_is_np_split(self, data):
        """Equal sections are sliced directly, not through np.split ->
        array_split; index lists still are. Either way the parts are what
        np.split gives — contiguous, byte-equal — and an uneven division
        is the same ValueError."""
        shape = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        x = np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape)
        if data.draw(st.booleans()):
            x = x.T  # a strided input: parts need a real copy
        axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
        sections = data.draw(st.one_of(
            st.integers(1, 6),
            st.lists(st.integers(0, 6), max_size=3).map(lambda cuts: tuple(sorted(cuts))),
        ))
        attrs = {"indices_or_sections": sections, "axis": axis}
        try:
            want = np.split(x, sections, axis=axis)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                run_op("split", [x], attrs)
            return
        got = run_op("split", [x], attrs)
        assert isinstance(got, tuple) and len(got) == len(want)
        for part, ref in zip(got, want):
            assert part.shape == ref.shape and part.dtype == ref.dtype
            assert part.flags.c_contiguous
            assert part.tobytes() == ref.tobytes()

    def test_take_embedding_style(self):
        table = RNG.randn(10, 4).astype(np.float32)
        ids = np.array([1, 3, 1], np.int64)
        out = run_op("take", [table, ids], {"axis": 0})
        assert out.shape == (3, 4)
        assert np.allclose(out[0], table[1])

    def test_zeros(self):
        out = run_op("zeros", [], {"shape": (2,), "dtype": "float32"})
        assert out.dtype == np.float32 and np.all(out == 0)


class TestReduce:
    """The reductions the models reach: softmax along an axis and the
    spatial mean of ``nn.global_avg_pool2d`` (FuseOps' COMM_REDUCE op)."""

    @pytest.mark.parametrize("axis", [-3, -2, -1, 0, 1, 2])
    def test_softmax_over_each_axis(self, axis):
        x = RNG.randn(2, 3, 4).astype(np.float32)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        out = run_op("nn.softmax", [x], {"axis": axis})
        assert out.shape == x.shape and out.dtype == np.float32
        assert np.allclose(out, e / e.sum(axis=axis, keepdims=True), atol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 2, 5, 5), (2, 3, 4, 6), (1, 1, 1, 1)], ids=str)
    def test_global_avg_pool2d_is_the_spatial_mean(self, shape):
        x = RNG.randn(*shape).astype(np.float32)
        out = run_op("nn.global_avg_pool2d", [x])
        assert out.shape == shape[:2] + (1, 1)
        assert np.allclose(out, x.mean(axis=(2, 3), keepdims=True), atol=1e-6)

    @pytest.mark.parametrize("pool,stride,pad", [(2, 2, 0), (3, 1, 1), (3, 2, 0), (2, 1, 0)])
    def test_max_pool2d_is_the_window_max(self, pool, stride, pad):
        x = RNG.randn(1, 2, 7, 7).astype(np.float32)
        out = run_op("nn.max_pool2d", [x], {"pool_size": pool, "strides": stride, "padding": pad})
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
        size = (7 + 2 * pad - pool) // stride + 1
        want = np.array([[[[padded[n, c, i * stride:i * stride + pool,
                                   j * stride:j * stride + pool].max()
                            for j in range(size)] for i in range(size)]
                          for c in range(2)] for n in range(1)], np.float32)
        assert out.dtype == np.float32 and np.array_equal(out, want)


class TestDynamicOps:
    def test_arange_data_dependent(self):
        op = get_op_def("arange")
        assert op.shape_func_mode is ShapeFuncMode.DATA_DEPENDENT
        out = run_op("arange", [np.float32(0), np.float32(5), np.float32(1)], {"dtype": "float32"})
        assert out.tolist() == [0, 1, 2, 3, 4]
        values = [np.float32(0), np.float32(5), np.float32(1)]
        assert output_shapes(op, [TensorType((), "float32")] * 3, values, {}) == [(5,)]

    def test_arange_shape_func_requires_values(self):
        with pytest.raises(ShapeError):
            output_shapes(get_op_def("arange"), [TensorType((), "float32")] * 3, None, {})

    def test_unique(self):
        out = run_op("unique", [np.array([3, 1, 3, 2], np.int64)])
        assert out.tolist() == [1, 2, 3]
        values = [np.array([3, 1, 3, 2], np.int64)]
        assert output_shapes(get_op_def("unique"), [TensorType((4,), "int64")], values, {}) == [(3,)]

    def test_nonzero(self):
        out = run_op("nonzero", [np.array([0, 1, 0, 2], np.int64)])
        assert out.shape == (1, 2)

    def test_nms_upper_bound_contract(self):
        op = get_op_def("vision.non_max_suppression")
        assert op.shape_func_mode is ShapeFuncMode.UPPER_BOUND
        assert op.returns_shape
        boxes = np.array(
            [[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60]], np.float32
        )
        scores = np.array([0.9, 0.8, 0.7], np.float32)
        padded, actual = op.compute([boxes, scores], {"iou_threshold": 0.5})
        assert padded.shape == (3,)  # upper bound
        assert actual.tolist() == [2]  # two boxes survive
        assert padded[:2].tolist() == [0, 2]
        # Upper-bound shape function needs only shapes.
        assert output_shapes(op, [TensorType((3, 4)), TensorType((3,))], None, {}) == [(3,)]


    @pytest.mark.parametrize("start,stop,step", [(0, 5, 1), (2, 11, 3), (5, 0, -1),
                                                 (0, 1, 0.25), (3, 3, 1)])
    def test_arange_shape_function_reads_the_values(self, start, stop, step):
        values = [np.float32(start), np.float32(stop), np.float32(step)]
        out = run_op("arange", values, {"dtype": "float32"})
        assert out.tolist() == np.arange(*values, dtype=np.float32).tolist()
        shapes = output_shapes(get_op_def("arange"), [TensorType((), "float32")] * 3, values, {})
        assert shapes == [out.shape]

    @pytest.mark.parametrize("data", [[3, 1, 3, 2], [7, 7, 7], [], [1, 2, 3, 4]], ids=str)
    def test_unique_shape_function_reads_the_values(self, data):
        x = np.array(data, np.int64)
        out = run_op("unique", [x])
        assert out.tolist() == sorted(set(data))
        shapes = output_shapes(get_op_def("unique"), [TensorType(x.shape, "int64")], [x], {})
        assert shapes == [out.shape]

    @pytest.mark.parametrize("data", [[0, 1, 0, 2], [[0, 1], [2, 0]], [[[1, 0]], [[0, 3]]],
                                      [[0, 0], [0, 0]]], ids=str)
    def test_nonzero_shape_function_reads_the_values(self, data):
        x = np.array(data, np.int64)
        out = run_op("nonzero", [x])
        assert out.shape == (x.ndim, np.count_nonzero(x))
        shapes = output_shapes(get_op_def("nonzero"), [TensorType(x.shape, "int64")], [x], {})
        assert shapes == [out.shape]

    @pytest.mark.parametrize("threshold,kept", [(0.0, 2), (0.5, 2), (0.7, 3)])
    def test_nms_pads_to_the_box_count_at_any_threshold(self, threshold, kept):
        op = get_op_def("vision.non_max_suppression")
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60]], np.float32)
        scores = np.array([0.9, 0.8, 0.7], np.float32)
        padded, actual = op.compute([boxes, scores], {"iou_threshold": threshold})
        assert padded.shape == (3,) and actual.tolist() == [kept]
        assert output_shapes(op, [TensorType((3, 4)), TensorType((3,))], None,
                             {"iou_threshold": threshold}) == [(3,)]


def _f32(*shapes):
    return [RNG.randn(*shape).astype(np.float32) for shape in shapes]


# Calls of each op whose run-time shape function is its type relation
# (no own ``shape_func``): (inputs, attrs). A case where the relation
# refuses the concrete types is one ``compute`` refuses too. An op with
# a lowering adds the calls ``tests/test_codegen.py`` lowers it on.
_SHAPE_CASES = {
    "where": [([RNG.rand(2, 1) < 0.5, *_f32((1, 3), (2, 3))], {}),
              ([RNG.rand(2, 3) < 0.5, *_f32((3, 3), (2, 3))], {})],
    "transpose": [(_f32((2, 3, 4)), {"axes": (1, 2, 0)}), (_f32((2, 3)), {})],
    "split": [(_f32((4, 6)), {"indices_or_sections": 2, "axis": 1}),
              (_f32((4, 6)), {"indices_or_sections": (1, 3)}),
              (_f32((3,)), {"indices_or_sections": 2}),
              (_f32((4,)), {"indices_or_sections": (3, 2)}),
              (_f32((4,)), {"indices_or_sections": (1, 6)})],
    "zeros": [([], {"shape": (2, 3), "dtype": "float32"})],
    "nn.dense": [(_f32((2, 8), (4, 9)), {}), (_f32((5, 8), (4, 8)), {"batch": 2})],
    "nn.bias_add": [(_f32((2, 3), (4,)), {})],
    "nn.batch_matmul": [(_f32((2, 3, 4), (2, 5, 4)), {}), (_f32((2, 3, 4), (2, 5, 3)), {})],
    "nn.softmax": [(_f32((3, 5)), {"axis": -1})],
    "nn.layer_norm": [(_f32((2, 4), (4,), (4,)), {}), (_f32((2, 4), (3,), (3,)), {})],
    "nn.gelu": [(_f32((2, 3)), {})],
    "nn.conv2d": [(_f32((1, 2, 8, 8), (4, 2, 3, 3)), {"strides": 1, "padding": 1}),
                  (_f32((1, 4, 6, 6), (4, 2, 3, 3)), {"groups": 2, "strides": 2}),
                  (_f32((1, 3, 8, 8), (4, 2, 1, 1)), {})],
    "nn.max_pool2d": [(_f32((1, 2, 8, 8)), {"pool_size": 2, "strides": 2}),
                      (_f32((1, 2, 7, 7)), {"pool_size": 3, "strides": 1, "padding": 1})],
    "nn.global_avg_pool2d": [(_f32((1, 2, 5, 5)), {})],
    "nn.batch_norm_inference": [([*_f32((2, 3, 4, 4), (3,), (3,), (3,)), np.ones(3, np.float32)], {})],
    "reshape": [(_f32((17,)), {"newshape": (1, 16)}), (_f32((6,)), {"newshape": (4, -1)})],
    "concatenate": [(_f32((2, 3), (2, 4)), {"axis": 0}), (_f32((2, 3), (2, 3, 1)), {"axis": 0})],
    "add": [(_f32((2, 4), (3, 4)), {})],
    "vm.storage_size": [([np.array([2, 3], np.int64)], {"dtype": "float32"})],
    "vm.shape_of": [(_f32((2, 3)), {})],
    "device.device_copy": [(_f32((2, 3)), {})],
    "vm.reshape_tensor": [([*_f32((2, 6)), np.array([3, 4], np.int64)], {"newshape": (3, 4)})],
}
# Memory and VM constructs the VM interprets: no compute to compare with.
_VM_INTERPRETED = {"memory.alloc_storage", "memory.alloc_tensor", "memory.kill",
                   "vm.invoke_mut", "vm.shape_func", "vm.alloc_closure"}


def _relation_shaped_ops():
    import repro.passes  # noqa: F401 -- registers vm.alloc_closure

    return [name for name in all_op_names() if get_op_def(name).shape_func is None]


def _shape_cases(name):
    cases = list(_SHAPE_CASES.get(name, []))
    if get_op_def(name).lower is not None:
        from test_codegen import _lowering_cases

        # Only the calls compute runs: the others are its dtype and index
        # errors, which no shape function sees (the lowering test's).
        for inputs, attrs, _ in _lowering_cases(name):
            with np.errstate(all="ignore"):
                try:
                    get_op_def(name).compute(inputs, attrs)
                except (TypeError, ValueError, IndexError):
                    continue
            cases.append((inputs, attrs))
    return cases


def _shapes_or_refusal(run):
    try:
        with np.errstate(all="ignore"):
            return [tuple(s) for s in run()]
    except (ShapeError, TypeError, ValueError, IndexError):
        return "refused"


def _computed_shapes(op_def, inputs, attrs):
    out = op_def.compute(inputs, attrs)
    return [np.shape(o) for o in (out if isinstance(out, tuple) else [out])]


class TestShapeFunctionExactness:
    """§4.2's invariant the allocator relies on, generated from the
    registry: for every op whose run-time shape function is its type
    relation at concrete types (``output_shapes``), the shapes it predicts
    are the shapes ``compute`` returns, or both refuse the call."""

    @pytest.mark.parametrize("name", _relation_shaped_ops())
    def test_output_shapes_are_the_shapes_compute_returns(self, name):
        op_def = get_op_def(name)
        if name in _VM_INTERPRETED:
            with pytest.raises((CompilerError, RuntimeError), match="interpreted by the VM"):
                op_def.compute([], {})
            return
        cases = _shape_cases(name)
        assert cases, f"{name} has no shape case: add one to _SHAPE_CASES"
        for inputs, attrs in cases:
            types = [TensorType(x.shape, x.dtype.name) for x in inputs]
            predicted = _shapes_or_refusal(lambda: output_shapes(op_def, types, inputs, attrs))
            actual = _shapes_or_refusal(lambda: _computed_shapes(op_def, inputs, attrs))
            assert predicted == actual, (name, [x.shape for x in inputs], attrs)

    def test_an_op_without_a_case_fails(self, monkeypatch):
        monkeypatch.delitem(_SHAPE_CASES, "nn.gelu")
        with pytest.raises(AssertionError, match="no shape case"):
            self.test_output_shapes_are_the_shapes_compute_returns("nn.gelu")

    def test_a_relation_that_drifts_from_compute_fails(self, monkeypatch):
        monkeypatch.setattr(get_op_def("transpose"), "type_rel",
                            lambda ts, attrs: TensorType((1,) + ts[0].shape, ts[0].dtype))
        with pytest.raises(AssertionError):
            self.test_output_shapes_are_the_shapes_compute_returns("transpose")

    def test_exactly_the_dynamic_ops_declare_their_own_shape_function(self):
        assert sorted(set(all_op_names()) - set(_relation_shaped_ops())) == [
            "arange", "nonzero", "unique", "vision.non_max_suppression", "vm.slice_upper_bound"]


def _relation_fields(op_def, types, attrs):
    try:
        out = op_def.type_rel(types, attrs)
    except (TypeInferenceError, ShapeError, TypeError, ValueError, IndexError):
        return "refused"
    return list(out.fields) if isinstance(out, TupleType) else [out]


class TestGradualRelations:
    """§4.1's gradual typing, generated from the registry: a relation that
    accepts concrete types accepts them with any one dimension made
    ``Any``, and each output dimension it then gives is ``Any`` or the
    concrete one. Type inference never refuses what the run-time check
    (the relation at concrete types) would let through."""

    @pytest.mark.parametrize(
        "name", [n for n in _relation_shaped_ops() if n not in _VM_INTERPRETED])
    def test_an_any_dimension_widens_the_relation_and_never_refuses(self, name):
        op_def = get_op_def(name)
        checked = 0
        for inputs, attrs in _shape_cases(name):
            types = [TensorType(x.shape, x.dtype.name) for x in inputs]
            concrete = _relation_fields(op_def, types, attrs)
            if concrete == "refused":
                continue
            for i, ty in enumerate(types):
                for axis in range(ty.ndim):
                    shape = list(ty.shape)
                    shape[axis] = Any()
                    widened = [*types[:i], TensorType(tuple(shape), ty.dtype), *types[i + 1:]]
                    gradual = _relation_fields(op_def, widened, attrs)
                    case = (name, [t.shape for t in types], attrs, i, axis)
                    assert gradual != "refused", case
                    assert len(gradual) == len(concrete), case
                    for got, want in zip(gradual, concrete):
                        assert got.dtype == want.dtype and got.ndim == want.ndim, case
                        assert all(isinstance(g, Any) or g == w
                                   for g, w in zip(got.shape, want.shape)), case
                    checked += 1
        # An op of rank-0 operands only (or none) has no dimension to widen.
        assert checked or all(not x.ndim for inputs, _ in _shape_cases(name) for x in inputs), name


class TestRegistry:
    def test_registry_has_expected_size(self):
        assert len(set(all_op_names()) - set(DIALECT_OPS)) == 27

    def test_every_registered_op_is_reached(self):
        """An op stays only if the system reaches it: a model builder's IR
        calls it, a pass inserts it (the batched tier's rewrite included),
        or a named claim of the paper needs it. Anything else is surface
        no workload exercises, and is deleted rather than kept."""
        import repro.nimble as nimble
        from repro.hardware import intel_cpu
        from repro.ir import Call, Op
        from repro.ir.analysis import iter_nodes
        from repro.models import (BertConfig, BertWeights, LSTMWeights, TreeLSTMWeights,
                                  build_bert_module, build_gram_module, build_lstm_module,
                                  build_mobilenet_like, build_resnet_like,
                                  build_squeezenet_like, build_tree_lstm_module,
                                  build_vgg_like)

        lstm = build_lstm_module(LSTMWeights.create(8, 16, seed=0))
        bert = build_bert_module(BertWeights.create(
            BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32), seed=0))
        modules = [lstm, bert, build_tree_lstm_module(TreeLSTMWeights.create(8, 4, seed=0)),
                   build_gram_module(), *(build(image=16) for build in (
                       build_resnet_like, build_mobilenet_like, build_vgg_like,
                       build_squeezenet_like))]
        roots = [func for mod in modules for func in mod.functions.values()]
        # The batched tier's variants: SpecializeBatch's rules insert ops.
        for mod, member in ((lstm, (5, 8)), (bert, (5, 16))):
            exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[member], batch=2)
            roots += [kernel.prim for kernel in exe.kernels]
        reached = {node.op.name for root in roots for node in iter_nodes(root)
                   if isinstance(node, Call) and isinstance(node.op, Op)}
        named = {
            "arange": "§4.1-4.2, a data-dependent shape function",
            "unique": "§4.1-4.2, a data-dependent shape function",
            "nonzero": "§4.1-4.2, a data-dependent shape function",
            "vision.non_max_suppression": "§4.2, an upper-bound shape function; "
                                          "examples/detection_postprocess.py",
        }
        assert set(named) <= set(all_op_names())
        unreached = set(all_op_names()) - set(DIALECT_OPS) - reached - set(named)
        assert not unreached, f"{len(unreached)} unreached ops: {sorted(unreached)}"

    def test_dynamic_policy_classification(self):
        assert get_op_def("arange").is_dynamic_shape_func
        assert get_op_def("unique").is_dynamic_shape_func
        assert get_op_def("vision.non_max_suppression").is_dynamic_shape_func
        assert not get_op_def("nn.dense").is_dynamic_shape_func
        assert not get_op_def("concatenate").is_dynamic_shape_func

    def test_patterns(self):
        assert get_op_def("add").pattern == OpPattern.BROADCAST
        assert get_op_def("tanh").pattern == OpPattern.ELEMWISE
        assert get_op_def("nn.dense").pattern == OpPattern.OUT_ELEMWISE_FUSABLE
        assert get_op_def("concatenate").pattern == OpPattern.INJECTIVE
        assert get_op_def("nn.global_avg_pool2d").pattern == OpPattern.COMM_REDUCE

    def test_unknown_op_rejected(self):
        from repro.errors import CompilerError

        assert not has_op("nn.flux_capacitor")
        with pytest.raises(CompilerError):
            get_op_def("nn.flux_capacitor")

    def test_duplicate_registration_rejected(self):
        from repro.errors import CompilerError
        from repro.ops.registry import OpDef, register_op

        with pytest.raises(CompilerError):
            register_op(OpDef(name="add", type_rel=None, compute=None))

    def test_dense_flops(self):
        flops = get_op_def("nn.dense").flops([(4, 8), (16, 8)], [(4, 16)], {})
        assert flops == 2.0 * 4 * 16 * 8
