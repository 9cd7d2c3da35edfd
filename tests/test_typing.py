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
    shared_any_dims,
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

    def test_shared_any_dims(self):
        a = Any()
        t1 = TensorType((a, 4))
        t2 = TensorType((8, a))
        assert shared_any_dims(t1, t2) == [(0, 1)]

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
            (runtime,) = get_op_def("reshape").shape_func([concrete], None, attrs)
            assert runtime[at] == values[inferred.token]


class TestGradualRuntimeChecks:
    def test_broadcast_shape_func_runtime_failure(self):
        """What static typing allowed (Any vs 3) must fail at runtime when
        Any instantiates to an incompatible value."""
        from repro.ops.shape_funcs import broadcast_shape_func

        with pytest.raises(ShapeError):
            broadcast_shape_func([(2, 4), (3, 4)], None, {})

    def test_dense_shape_func_runtime_failure(self):
        from repro.ops import get_op_def

        sf = get_op_def("nn.dense").shape_func
        with pytest.raises(ShapeError):
            sf([(2, 8), (4, 9)], None, {})
        with pytest.raises(ShapeError):  # 5 stacked rows, 2 members
            sf([(5, 8), (4, 8)], None, {"batch": 2})

    def test_dense_compute_refuses_rows_that_batch_does_not_cut(self):
        """Not one unsliced GEMM: that would be the batched GEMM whose
        last bits the member-wise tiers do not reproduce."""
        compute = get_op_def("nn.dense").compute
        data, weight = np.ones((5, 4), np.float32), np.ones((3, 4), np.float32)
        with pytest.raises(ShapeError, match="not divisible by batch 2"):
            compute([data, weight], {"batch": 2})
        assert compute([data, weight], {"batch": 5}).shape == (5, 3)
