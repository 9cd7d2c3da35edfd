"""The dynamic type system (§4.1): inference, Any propagation, joins,
sub-shaping, gradual runtime checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.typing import (
    any_dim_groups,
    check_subtype,
    infer_expr_type,
    infer_types,
    join_types,
    unify_types,
)
from repro.errors import ShapeError, TypeInferenceError
from repro.ir import (
    Any,
    Call,
    Clause,
    Function,
    If,
    IRModule,
    Match,
    Op,
    PatternConstructor,
    PatternVar,
    TensorType,
    Tuple,
    TupleGetItem,
    TupleType,
    TypeCall,
    TypeData,
    Var,
    const,
    scalar_type,
)
from repro.ops import api, get_op_def
from repro.ops.registry import output_shapes
from repro.ops.type_relations import broadcast_dim


class TestBroadcastRelation:
    """The paper's §4.1 rules: (Any,1)->Any, (Any,d)->d, (Any,Any)->Any."""

    def test_any_with_one_is_any(self):
        assert isinstance(broadcast_dim(Any(), 1), Any)

    def test_any_with_d_is_d(self):
        assert broadcast_dim(Any(), 7) == 7
        assert broadcast_dim(7, Any()) == 7

    def test_any_with_any_is_any(self):
        assert isinstance(broadcast_dim(Any(), Any()), Any)

    def test_same_token_any_preserved(self):
        a = Any()
        out = broadcast_dim(a, a)
        assert isinstance(out, Any) and out.token == a.token

    def test_static_rules(self):
        assert broadcast_dim(3, 3) == 3
        assert broadcast_dim(1, 5) == 5
        with pytest.raises(TypeInferenceError):
            broadcast_dim(3, 5)


class TestInference:
    def test_paper_arange_example(self):
        """§4.1: arange -> Tensor[(Any,)], broadcast with (5,1) -> (5, Any)."""
        x = Var("x", TensorType((5, 1), "float32"))
        r = api.arange(const(0.0), const(10.0), const(1.0))
        out = api.add(x, r)
        infer_types(IRModule.from_expr(Function([x], out)))
        assert r.checked_type == TensorType((Any(),), "float32")
        assert out.checked_type == TensorType((5, Any()), "float32")

    def test_dense_any_rows(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = Var("w", TensorType((4, 8), "float32"))
        ty = infer_expr_type(Function([x, w], api.dense(x, w)))
        assert ty.ret_type == TensorType((Any(), 4), "float32")

    def test_dense_reduction_mismatch_rejected(self):
        x = Var("x", TensorType((2, 8), "float32"))
        w = Var("w", TensorType((4, 9), "float32"))
        with pytest.raises(TypeInferenceError):
            infer_expr_type(Function([x, w], api.dense(x, w)))

    @staticmethod
    def _dense_type(data, attrs, weight=(9, 4)):
        x = Var("x", TensorType(data, "float32"))
        w = Var("w", TensorType(weight, "float32"))
        return infer_expr_type(Function([x, w], Call(Op.get("nn.dense"), [x, w], attrs))).ret_type

    @pytest.mark.parametrize("data, attrs", [
        ((6, 4), {"batch": 0}),
        ((2, 3, 4), {"batch": 2}),
        ((4,), {"batch": 2}),
        ((5, 4), {"batch": 2}),
        ((6, 4), {"batch": 3, "sections": (5, 2)}),
        ((6, 4), {"batch": 3, "sections": (0, 5)}),
        ((6, 4), {"batch": 3, "sections": (2, 9)}),
        ((Any(), 4), {"batch": 3, "sections": (2, 2)}),
    ], ids=["batch_0", "rank_3_data", "rank_1_data", "rows_not_divisible",
            "unsorted_sections", "empty_first_section", "section_past_the_rows",
            "repeated_section_on_any_rows"])
    def test_dense_cut_refused(self, data, attrs):
        with pytest.raises(TypeInferenceError):
            self._dense_type(data, attrs)

    def test_dense_both_cuts_keep_the_dense_type(self):
        attrs = {"sections": (2, 5), "batch": 3}
        assert self._dense_type((6, 4), attrs) == TensorType((6, 9), "float32")
        assert self._dense_type((Any(), 4), attrs) == TensorType((Any(), 9), "float32")

    def test_if_branches_join_to_any(self):
        """Conflicting static dims across branches relax to Any (gradual)."""
        c = Var("c", scalar_type("bool"))
        t = Var("t", TensorType((3, 4)))
        f = Var("f", TensorType((5, 4)))
        ty = infer_expr_type(Function([c, t, f], If(c, t, f)))
        ret = ty.ret_type
        assert isinstance(ret.shape[0], Any)
        assert ret.shape[1] == 4

    def test_if_rank_mismatch_rejected(self):
        c = Var("c", scalar_type("bool"))
        t = Var("t", TensorType((3,)))
        f = Var("f", TensorType((5, 4)))
        with pytest.raises(TypeInferenceError):
            infer_expr_type(Function([c, t, f], If(c, t, f)))

    def test_if_condition_must_be_scalar(self):
        c = Var("c", TensorType((2,), "bool"))
        t = Var("t", TensorType((3,)))
        with pytest.raises(TypeInferenceError):
            infer_expr_type(Function([c, t], If(c, t, t)))

    def test_tuple_projection(self):
        x = Var("x", TensorType((6, 2)))
        parts = api.split(x, 3, axis=0)
        item = TupleGetItem(parts, 1)
        ty = infer_expr_type(Function([x], item))
        assert ty.ret_type == TensorType((2, 2))

    def test_tuple_index_out_of_range(self):
        x = Var("x", TensorType((6, 2)))
        bad = TupleGetItem(api.split(x, 3, axis=0), 7)
        with pytest.raises(TypeInferenceError):
            infer_expr_type(Function([x], bad))

    def test_recursion_requires_annotations(self):
        mod = IRModule()
        gv = mod.get_global_var("f")
        x = Var("x", TensorType((2,)))
        mod[gv] = Function([x], Call(gv, [x]))  # no ret annotation
        with pytest.raises(TypeInferenceError):
            infer_types(mod)

    def test_recursive_function_with_annotation(self):
        mod = IRModule()
        gv = mod.get_global_var("f")
        c = Var("c", scalar_type("bool"))
        x = Var("x", TensorType((2,)))
        body = If(c, Call(gv, [c, x]), x)
        mod[gv] = Function([c, x], body, TensorType((2,)))
        infer_types(mod)
        assert mod[gv].checked_type.ret_type == TensorType((2,))

    def test_unannotated_param_rejected(self):
        x = Var("x")  # no annotation
        with pytest.raises(TypeInferenceError):
            infer_expr_type(Function([x], api.add(x, x)))

    def test_call_arity_mismatch(self):
        mod = IRModule()
        gv = mod.get_global_var("g")
        x = Var("x", TensorType((2,)))
        mod[gv] = Function([x], x, TensorType((2,)))
        y = Var("y", TensorType((2,)))
        mod["main"] = Function([y], Call(gv, [y, y]))
        with pytest.raises(TypeInferenceError):
            infer_types(mod)


class TestADTInference:
    def _tree_mod(self):
        mod = IRModule()
        gtv = mod.get_global_type_var("Tree")
        leaf_ty = TensorType((4,))
        data = TypeData(
            gtv, [], [("Leaf", [leaf_ty]), ("Node", [TypeCall(gtv, []), TypeCall(gtv, [])])]
        )
        mod.add_type_data(data)
        return mod, gtv, data

    def test_constructor_call_types(self):
        mod, gtv, data = self._tree_mod()
        leaf = data.constructor("Leaf")
        x = Var("x", TensorType((4,)))
        mod["main"] = Function([x], Call(leaf, [x]))
        infer_types(mod)
        assert mod.main.checked_type.ret_type == TypeCall(gtv, [])

    def test_constructor_arity_checked(self):
        mod, gtv, data = self._tree_mod()
        node = data.constructor("Node")
        x = Var("x", TensorType((4,)))
        mod["main"] = Function([x], Call(node, [Call(data.constructor("Leaf"), [x])]))
        with pytest.raises(TypeInferenceError):
            infer_types(mod)

    def test_match_binds_pattern_vars(self):
        mod, gtv, data = self._tree_mod()
        leaf, node = data.constructor("Leaf"), data.constructor("Node")
        t = Var("t", TypeCall(gtv, []))
        v = Var("v")
        clauses = [Clause(PatternConstructor(leaf, [PatternVar(v)]), v)]
        mod["main"] = Function([t], Match(t, clauses))
        infer_types(mod)
        assert v.checked_type == TensorType((4,))
        assert mod.main.checked_type.ret_type == TensorType((4,))

    def test_match_on_non_adt_rejected(self):
        mod, gtv, data = self._tree_mod()
        x = Var("x", TensorType((4,)))
        leaf = data.constructor("Leaf")
        clause = Clause(PatternConstructor(leaf, [PatternVar(Var("v"))]), x)
        mod["main"] = Function([x], Match(x, [clause]))
        with pytest.raises(TypeInferenceError):
            infer_types(mod)


class TestUnifyJoinSubtype:
    def test_unify_prefers_specific(self):
        a = TensorType((Any(), 4))
        b = TensorType((3, 4))
        assert unify_types(a, b) == TensorType((3, 4))

    def test_unify_conflict_raises(self):
        with pytest.raises(TypeInferenceError):
            unify_types(TensorType((3,)), TensorType((4,)))

    def test_unify_dtype_conflict(self):
        with pytest.raises(TypeInferenceError):
            unify_types(TensorType((3,), "float32"), TensorType((3,), "int64"))

    def test_join_relaxes_to_any(self):
        out = join_types(TensorType((3, 4)), TensorType((5, 4)))
        assert isinstance(out.shape[0], Any) and out.shape[1] == 4

    def test_join_preserves_identical_any(self):
        a = Any()
        t = TensorType((a, 4))
        out = join_types(t, t)
        assert out.shape[0].token == a.token

    def test_subtype_static_into_any(self):
        check_subtype(TensorType((3, 4)), TensorType((Any(), 4)))

    def test_subtype_any_into_static_rejected(self):
        with pytest.raises(TypeInferenceError):
            check_subtype(TensorType((Any(), 4)), TensorType((3, 4)))

    def test_subtype_function_contravariant(self):
        from repro.ir import FuncType

        specific = FuncType([TensorType((Any(),))], TensorType((3,)))
        general = FuncType([TensorType((3,))], TensorType((Any(),)))
        check_subtype(specific, general)
        with pytest.raises(TypeInferenceError):
            check_subtype(general, specific)

    def test_tuple_subtype_fieldwise(self):
        a = TupleType([TensorType((3,))])
        b = TupleType([TensorType((Any(),))])
        check_subtype(a, b)
        with pytest.raises(TypeInferenceError):
            check_subtype(b, a)


class TestSubShaping:
    def test_elementwise_preserves_token(self):
        x = Var("x", TensorType((Any(), 4), "float32"))
        out = api.tanh(x)
        func = Function([x], out)
        infer_types(IRModule.from_expr(func))
        token = x.checked_type.shape[0].token
        assert out.checked_type.shape[0].token == token

    def test_any_dim_groups_collects_occurrences(self):
        x = Var("x", TensorType((Any(), 4), "float32"))
        out = api.tanh(api.tanh(x))
        func = Function([x], out)
        infer_types(IRModule.from_expr(func))
        groups = any_dim_groups(func)
        assert len(groups) == 1
        (members,) = groups.values()
        assert len(members) >= 3  # x, inner tanh, outer tanh

    def test_reshape_keeps_the_token_of_the_one_dynamic_dim(self):
        """BERT's head split and merge: `-1` is the sequence length."""
        a = Any()
        rel = get_op_def("reshape").type_rel
        split = rel([TensorType((a, 256))], {"newshape": (-1, 4, 64)})
        assert split.shape[0].token == a.token and split.shape[1:] == (4, 64)
        merged = rel([TensorType((a, 4, 64))], {"newshape": (-1, 256)})
        assert merged.shape[0].token == a.token
        assert rel([TensorType((a, 256))], {"newshape": (-1, 128)}).shape[0].token != a.token

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_kept_reshape_token_names_the_same_runtime_dim(self, data):
        """Whenever `_reshape_rel` keeps a token the runtime dimension is
        the input's; two dynamic dims, unequal static cofactors or a zero
        cofactor draw a fresh `Any`."""
        small = st.integers(min_value=0, max_value=4)
        static_in = data.draw(st.lists(small, max_size=3))
        anys = [Any() for _ in range(data.draw(st.integers(1, 2)))]
        in_shape = list(static_in)
        for a in anys:
            in_shape.insert(data.draw(st.integers(0, len(in_shape))), a)
        static_out = data.draw(st.one_of(st.permutations(static_in), st.lists(small, max_size=3)))
        newshape = list(static_out)
        at = data.draw(st.integers(0, len(newshape)))
        newshape.insert(at, -1)
        attrs = {"newshape": tuple(newshape)}

        inferred = get_op_def("reshape").type_rel([TensorType(in_shape)], attrs).shape[at]
        assert isinstance(inferred, Any)
        kept = [a for a in anys if a.token == inferred.token]
        cofactor = int(np.prod(static_in, dtype=np.int64))
        same = len(anys) == 1 and cofactor != 0 and cofactor == np.prod(static_out, dtype=np.int64)
        assert bool(kept) == same
        if kept:
            values = {a.token: data.draw(st.integers(1, 6)) for a in anys}
            concrete = tuple(values[d.token] if isinstance(d, Any) else d for d in in_shape)
            (runtime,) = output_shapes(get_op_def("reshape"), [TensorType(concrete)], None, attrs)
            assert runtime[at] == values[inferred.token]


def _run_dynamic(body, *params_and_inputs):
    """Build ``Function(params, body(*params))`` on intel_cpu and run it
    on the inputs: *params_and_inputs* is (param type, input) pairs."""
    from repro import nimble
    from repro.hardware import intel_cpu

    params = [Var(f"x{i}", ty) for i, (ty, _) in enumerate(params_and_inputs)]
    mod = IRModule.from_expr(Function(params, body(*params)))
    exe, _ = nimble.build(mod, intel_cpu())
    return nimble.VirtualMachine(exe).run(*(x for _, x in params_and_inputs))


def _f32(*shape):
    return np.ones(shape, np.float32)


# (op, body, (param type, input) pairs): a call static typing lets through
# because of ``Any``, whose inputs the relation refuses at run time.
_REFUSED_BEHIND_ANY = [
    ("nn.dense", lambda x: api.dense(x, const(_f32(4, 8))),
     [(TensorType((Any(), Any())), _f32(2, 9))]),
    ("nn.batch_matmul", lambda x: api.batch_matmul(x, const(_f32(2, 5, 4))),
     [(TensorType((Any(), 3, Any())), _f32(2, 3, 5))]),
    ("nn.bias_add", lambda x: api.bias_add(x, const(_f32(4))),
     [(TensorType((Any(), Any())), _f32(2, 5))]),
    ("nn.layer_norm", lambda x: api.layer_norm(x, const(_f32(4)), const(_f32(4))),
     [(TensorType((Any(), Any())), _f32(2, 5))]),
    ("add", lambda x: api.add(x, const(_f32(4))),
     [(TensorType((Any(), Any())), _f32(2, 3))]),
    ("multiply", lambda x, y: api.multiply(x, y),
     [(TensorType((Any(), Any())), _f32(2, 3)), (TensorType((Any(), Any())), _f32(2, 4))]),
    ("where", lambda c, x: api.where(api.less(c, const(np.float32(0.5))), x, x),
     [(TensorType((Any(),)), _f32(3)), (TensorType((Any(),)), _f32(4))]),
]


class TestGradualRuntimeChecks:
    """A data-independent op's run-time shape function is its type
    relation at concrete types (``output_shapes``), so what static typing
    let through because of ``Any`` fails at run time exactly where the
    relation would have refused the concrete types."""

    def test_broadcast_shape_func_runtime_failure(self):
        """What static typing allowed (Any vs 3) must fail at runtime when
        Any instantiates to an incompatible value."""
        with pytest.raises(ShapeError):
            output_shapes(get_op_def("add"), [TensorType((2, 4)), TensorType((3, 4))], None, {})

    def test_dense_shape_func_runtime_failure(self):
        dense = get_op_def("nn.dense")
        with pytest.raises(ShapeError):
            output_shapes(dense, [TensorType((2, 8)), TensorType((4, 9))], None, {})
        with pytest.raises(ShapeError):  # 5 stacked rows, 2 members
            output_shapes(dense, [TensorType((5, 8)), TensorType((4, 8))], None, {"batch": 2})

    @pytest.mark.parametrize("name,body,params", _REFUSED_BEHIND_ANY,
                             ids=[c[0] for c in _REFUSED_BEHIND_ANY])
    def test_a_mismatch_behind_an_any_fails_its_shape_function(self, name, body, params):
        with pytest.raises(ShapeError, match=f"{name} runtime check failed"):
            _run_dynamic(body, *params)

    def test_a_split_that_does_not_divide_fails_its_shape_function(self):
        with pytest.raises(ShapeError, match="split"):
            _run_dynamic(lambda x: api.split(x, 2, axis=1),
                         (TensorType((Any(), Any())), np.ones((2, 3), np.float32)))

    def test_concatenate_of_unequal_shapes_fails_its_shape_function(self):
        with pytest.raises(ShapeError, match="concatenate"):
            _run_dynamic(lambda x, y: api.concatenate([x, y]),
                         (TensorType((Any(), 5)), np.ones((3, 5), np.float32)),
                         (TensorType((Any(), Any())), np.ones((3, 4), np.float32)))

    def test_conv2d_channel_mismatch_fails_its_shape_function(self):
        weight = const(np.ones((4, 2, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="channel mismatch"):
            _run_dynamic(lambda x: api.conv2d(x, weight),
                         (TensorType((Any(), Any(), 8, 8)), np.ones((1, 3, 8, 8), np.float32)))

    def test_a_static_reshape_of_the_wrong_element_count_is_refused(self):
        x = Var("x", TensorType((17,)))
        with pytest.raises(TypeInferenceError, match="element count"):
            infer_types(IRModule.from_expr(Function([x], api.reshape(x, (1, 16)))))
        with pytest.raises(ShapeError):  # ... and at run time, behind an Any
            _run_dynamic(lambda x: api.reshape(x, (1, 16)),
                         (TensorType((Any(),)), np.ones((17,), np.float32)))

    def test_an_axis_outside_the_rank_is_a_type_error(self):
        """Type inference refuses it as a type error; only the relation's
        run at concrete types (``output_shapes``) makes it a ShapeError."""
        x = Var("x", TensorType((2, 3)))
        with pytest.raises(TypeInferenceError, match="axis 5 out of range"):
            infer_types(IRModule.from_expr(Function([x], api.concatenate([x], axis=5))))
        with pytest.raises(ShapeError, match="axis 5 out of range"):
            output_shapes(get_op_def("concatenate"), [TensorType((2, 3))], None, {"axis": 5})

    def test_dense_compute_refuses_rows_that_batch_does_not_cut(self):
        """Not one unsliced GEMM: that would be the batched GEMM whose
        last bits the member-wise tiers do not reproduce."""
        compute = get_op_def("nn.dense").compute
        data, weight = np.ones((5, 4), np.float32), np.ones((3, 4), np.float32)
        with pytest.raises(ShapeError, match="not divisible by batch 2"):
            compute([data, weight], {"batch": 2})
        assert compute([data, weight], {"batch": 5}).shape == (5, 3)
