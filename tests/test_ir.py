"""IR: types with Any, expressions, module, builder, printer, analyses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeInferenceError
from repro.ir import (
    Any,
    Call,
    Clause,
    Constant,
    Function,
    FuncType,
    GlobalVar,
    If,
    IRModule,
    Let,
    Match,
    Op,
    PatternVar,
    PatternWildcard,
    ScopeBuilder,
    TensorType,
    Tuple,
    TupleType,
    TypeData,
    Var,
    const,
    count_nodes,
    fold_lets,
    free_vars,
    bound_vars,
    let_chain,
    map_nested_scopes,
    nested_scopes,
    post_dfs_order,
    pretty,
    scalar_type,
    structural_equal,
    structural_hash,
    type_equal,
    use_sites,
)
from repro.ir.types import StorageType, has_any_dim, same_dim
from repro.ops import api


class TestTypes:
    def test_tensor_type_basics(self):
        t = TensorType((2, 3), "float32")
        assert t.ndim == 2 and t.is_static and t.num_elements() == 6

    def test_any_dim_makes_dynamic(self):
        t = TensorType((2, Any()), "float32")
        assert not t.is_static
        assert t.num_elements() is None
        assert has_any_dim(t)

    def test_any_equality_ignores_token(self):
        assert TensorType((Any(),)) == TensorType((Any(),))
        assert TensorType((Any(),)) != TensorType((3,))

    def test_same_dim_uses_tokens(self):
        a = Any()
        assert same_dim(a, a)
        assert not same_dim(a, Any())
        assert same_dim(4, 4)
        assert not same_dim(4, Any())

    def test_negative_dim_rejected(self):
        with pytest.raises(TypeInferenceError):
            TensorType((-1, 2))

    def test_invalid_dtype_rejected(self):
        with pytest.raises(TypeInferenceError):
            TensorType((1,), "float999")

    def test_tuple_and_func_types(self):
        tt = TupleType([scalar_type(), TensorType((2,))])
        ft = FuncType([tt], scalar_type())
        assert type_equal(ft, FuncType([TupleType([scalar_type(), TensorType((2,))])], scalar_type()))
        assert not type_equal(ft, FuncType([tt], TensorType((2,))))

    def test_storage_type_equality(self):
        assert type_equal(StorageType(), StorageType())

    def test_type_hash_consistent_with_equality(self):
        a = TensorType((2, Any()), "float32")
        b = TensorType((2, Any()), "float32")
        assert hash(a) == hash(b)


class TestExpressions:
    def test_var_identity_equality(self):
        a, b = Var("x"), Var("x")
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_constant_wraps_values(self):
        c = const(2.0)
        assert c.data.item() == pytest.approx(2.0)
        assert const([1, 2], "int64").value.dtype == "int64"

    def test_annotated_var_has_checked_type(self):
        v = Var("x", TensorType((3,)))
        assert v.checked_type == TensorType((3,))

    def test_op_interning(self):
        assert Op.get("add") is Op.get("add")
        assert Op.get("add") == Op.get("add")
        assert Op.get("add") != Op.get("multiply")

    def test_function_primitive_flag(self):
        f = Function([], const(1.0), attrs={"primitive": True})
        assert f.is_primitive
        assert not Function([], const(1.0)).is_primitive


class TestModule:
    def test_global_var_interning(self):
        mod = IRModule()
        assert mod.get_global_var("f") is mod.get_global_var("f")

    def test_set_get_function(self):
        mod = IRModule()
        f = Function([], const(1.0))
        mod["main"] = f
        assert mod["main"] is f
        assert "main" in mod
        assert "missing" not in mod

    def test_from_expr_wraps(self):
        mod = IRModule.from_expr(const(1.0))
        assert isinstance(mod.main, Function)

    def test_adt_registration(self):
        mod = IRModule()
        gtv = mod.get_global_type_var("List")
        data = TypeData(gtv, [], [("Nil", []), ("Cons", [scalar_type()])])
        mod.add_type_data(data)
        assert mod.get_constructor("List", "Cons").tag == 1
        with pytest.raises(KeyError):
            mod.get_constructor("List", "Missing")

    def test_shallow_copy_independent(self):
        mod = IRModule()
        mod["main"] = Function([], const(1.0))
        copy = mod.shallow_copy()
        copy["extra"] = Function([], const(2.0))
        assert "extra" not in mod


class TestScopeBuilder:
    def test_builds_let_chain(self):
        sb = ScopeBuilder()
        x = Var("x", TensorType((2,)))
        a = sb.let("a", api.add(x, x))
        b = sb.let("b", api.multiply(a, a))
        body = sb.get(b)
        assert isinstance(body, Let)
        assert body.var is a
        assert isinstance(body.body, Let)

    def test_fresh_names_unique(self):
        sb = ScopeBuilder()
        v1 = sb.let("t", const(1.0))
        v2 = sb.let("t", const(2.0))
        assert v1.name_hint != v2.name_hint

    def test_finalized_builder_rejects_let(self):
        from repro.errors import CompilerError

        sb = ScopeBuilder()
        sb.get(const(1.0))
        with pytest.raises(CompilerError):
            sb.let("x", const(2.0))


class TestAnalysis:
    def _sample(self):
        x = Var("x", TensorType((2,)))
        y = Var("y", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, y))
        b = sb.let("b", api.multiply(a, x))
        return x, y, Function([x], sb.get(b))

    def test_free_vars(self):
        x, y, func = self._sample()
        assert free_vars(func) == [y]
        assert free_vars(func.body) == [x, y]

    def test_bound_vars(self):
        x, y, func = self._sample()
        bv = bound_vars(func)
        assert x in bv and y not in bv
        assert len(bv) == 3  # param + two lets

    def test_post_dfs_operands_before_users(self):
        x, y, func = self._sample()
        order = post_dfs_order(func.body)
        positions = {id(n): i for i, n in enumerate(order)}
        for node in order:
            from repro.ir.analysis import _children

            for child in _children(node):
                assert positions[id(child)] < positions[id(node)]

    def test_count_nodes(self):
        _, _, func = self._sample()
        assert count_nodes(func) > 5

    def test_deep_let_chain_no_recursion_error(self):
        # 5000 bindings would blow Python's stack if visited recursively.
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        cur = x
        for _ in range(5000):
            cur = sb.let("t", api.add(cur, x))
        body = sb.get(cur)
        assert len(free_vars(body)) == 1
        assert count_nodes(body) > 5000


class TestScopeView:
    """The one view of an ANF scope that every rewriting pass walks
    through: bindings and tail, their fold, nested scopes, use sites."""

    def _chain(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        b = sb.let("b", api.multiply(a, x))
        return x, a, b, sb.get(b)

    def test_a_chain_splits_into_bindings_and_tail_and_folds_back(self):
        x, a, b, chain = self._chain()
        bindings, tail = let_chain(chain)
        assert [var for var, _ in bindings] == [a, b] and tail is b
        assert bindings[0][1] is chain.value and bindings[1][1] is chain.body.value
        assert structural_equal(fold_lets(bindings, tail), chain)
        assert let_chain(x) == ([], x) and fold_lets([], x) is x

    def test_use_sites_list_each_reader_once_the_tail_last(self):
        x, a, b, chain = self._chain()
        sites = use_sites(*let_chain(chain))
        assert (sites[x], sites[a], sites[b]) == ([0, 1], [1], [2])

    @staticmethod
    def _nested_values():
        x, c = Var("x", TensorType((2,))), Var("c", TensorType((), "bool"))
        v, z = Var("v"), Var("z", TensorType((2,)))
        return {
            "if": If(c, api.sigmoid(x), x),
            "match": Match(x, [Clause(PatternVar(v), api.tanh(v)), Clause(PatternWildcard(), x)],
                           complete=False),
            "closure": Function([z], api.add(z, x), TensorType((2,)), {"name": "f"}),
        }

    @pytest.mark.parametrize("kind", ["if", "match", "closure"])
    def test_each_nested_scope_is_rewritten(self, kind):
        value = self._nested_values()[kind]
        seen = []

        def rewrite(scope):
            seen.append(scope)
            return Let(Var("mark"), const(0.0), scope)

        out = map_nested_scopes(value, rewrite)
        assert type(out) is type(value) and out is not value
        assert seen == list(nested_scopes(value)) and len(seen) == (1 if kind == "closure" else 2)
        assert [scope.body for scope in nested_scopes(out)] == seen
        if kind == "if":
            assert out.cond is value.cond
        elif kind == "match":
            assert out.data is value.data and not out.complete
            assert [c.pattern for c in out.clauses] == [c.pattern for c in value.clauses]
        else:
            assert (out.params, out.ret_type, out.attrs) == (value.params, value.ret_type, value.attrs)

    def test_a_primitive_function_is_left_alone(self):
        z = Var("z", TensorType((2,)))
        prim = Function([z], api.sigmoid(z), attrs={"primitive": True})
        assert nested_scopes(prim) == ()
        assert map_nested_scopes(prim, lambda scope: pytest.fail("a kernel body is no scope")) is prim

    def test_a_value_without_nested_scopes_comes_back_as_itself(self):
        x, a, _, chain = self._chain()
        for value in (chain.value, Tuple([x, a]), x, const(1.0)):
            assert map_nested_scopes(value, lambda scope: pytest.fail("no scope")) is value


class TestStructuralEquality:
    def test_alpha_equivalence(self):
        x1, x2 = Var("x", TensorType((2,))), Var("y", TensorType((2,)))
        f1 = Function([x1], api.add(x1, x1))
        f2 = Function([x2], api.add(x2, x2))
        assert structural_equal(f1, f2)
        assert structural_hash(f1) == structural_hash(f2)

    def test_different_ops_not_equal(self):
        x = Var("x", TensorType((2,)))
        assert not structural_equal(api.add(x, x), api.multiply(x, x))

    def test_different_attrs_not_equal(self):
        x = Var("x", TensorType((4,)))
        assert not structural_equal(
            api.reshape(x, (2, 2)), api.reshape(x, (4, 1))
        )

    def test_constants_compared_by_value(self):
        assert structural_equal(const(1.5), const(1.5))
        assert not structural_equal(const(1.5), const(2.5))

    def test_free_vars_must_be_identical(self):
        x, y = Var("x", TensorType((2,))), Var("y", TensorType((2,)))
        assert structural_equal(api.add(x, x), api.add(x, x))
        assert not structural_equal(api.add(x, x), api.add(y, y))

    def test_let_chains_alpha_equal(self):
        def build():
            x = Var("x", TensorType((2,)))
            sb = ScopeBuilder()
            a = sb.let("a", api.add(x, x))
            return Function([x], sb.get(a))

        assert structural_equal(build(), build())

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_hash_equal_for_alpha_equal_chains(self, n):
        def build():
            x = Var("x", TensorType((2,)))
            sb = ScopeBuilder()
            cur = x
            for _ in range(n):
                cur = sb.let("t", api.add(cur, cur))
            return Function([x], sb.get(cur))

        a, b = build(), build()
        assert structural_equal(a, b)
        assert structural_hash(a) == structural_hash(b)


class TestPrinterGolden:
    """The printed text of each model family is stable (golden files) and
    carries enough structure to recover every function signature."""

    @staticmethod
    def _builders():
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

        return {
            "lstm": lambda: build_lstm_module(
                LSTMWeights.create(input_size=8, hidden_size=4, num_layers=1, seed=0)
            ),
            "tree_lstm": lambda: build_tree_lstm_module(
                TreeLSTMWeights.create(input_size=8, hidden_size=4, seed=0)
            ),
            "bert": lambda: build_bert_module(
                BertWeights.create(
                    BertConfig(hidden=8, num_layers=1, num_heads=2, ffn=16), seed=0
                )
            ),
        }

    @staticmethod
    def _golden(name):
        import pathlib

        path = pathlib.Path(__file__).parent / "golden" / f"{name}.txt"
        return path.read_text()

    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    def test_printed_module_matches_golden(self, family):
        from repro.ir import pretty_module

        mod = self._builders()[family]()
        assert pretty_module(mod) + "\n" == self._golden(family)

    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    def test_rebuild_is_equivalent(self, family):
        from repro.ir import pretty_module

        from repro.ir import iter_nodes
        from repro.ir.expr import Constructor

        build = self._builders()[family]
        a, b = build(), build()
        assert pretty_module(a) == pretty_module(b)
        for gv, func in a.functions.items():
            # Global refs compare by identity, so alpha-equivalence only
            # applies to self-contained functions; cross-module reference
            # equality is covered by the printed-text comparison above.
            self_contained = not any(
                isinstance(n, (GlobalVar, Constructor)) for n in iter_nodes(func)
            )
            if self_contained:
                assert structural_equal(func, b[gv.name_hint])


class TestPrinter:
    def test_prints_function(self):
        x = Var("x", TensorType((2, Any()), "float32"))
        text = pretty(Function([x], api.add(x, x)))
        assert "fn" in text and "add" in text and "?" in text

    def test_prints_let_chain_flat(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        text = pretty(sb.get(a))
        assert "let" in text

    def test_name_collisions_disambiguated(self):
        a, b = Var("x"), Var("x")
        text = pretty(Tuple([a, b]))
        assert "%x" in text and "%x_1" in text
