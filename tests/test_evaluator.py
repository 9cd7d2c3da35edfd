"""The IR evaluator: pattern matching, tail calls, host-scalar routing,
and the charge hook the baselines price."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.data import embedding_table, sst_like_trees
from repro.evaluator import evaluate
from repro.hardware import intel_cpu
from repro.ir import (
    Call,
    Clause,
    Function,
    If,
    IRModule,
    Match,
    PatternConstructor,
    PatternVar,
    PatternWildcard,
    TensorType,
    TypeCall,
    TypeData,
    Var,
    const,
    scalar_type,
)
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt
from repro.ops import api
from repro.tensor.ndarray import array
from repro.vm.objects import ADTObj, TensorObj


def _option_module():
    """main(t: Opt) = match t { Some(v) => v, _ => zeros }."""
    mod = IRModule()
    gtv = mod.get_global_type_var("Opt")
    data = TypeData(gtv, [], [("None_", []), ("Some", [TensorType((2,))])])
    mod.add_type_data(data)
    t = Var("t", TypeCall(gtv, []))
    v = Var("v")
    clauses = [
        Clause(PatternConstructor(data.constructor("Some"), [PatternVar(v)]), v),
        Clause(PatternWildcard(), const(np.zeros(2, np.float32))),
    ]
    mod["main"] = Function([t], Match(t, clauses), TensorType((2,)))
    return mod


def _count_module():
    """count(i, n) = if i < n then count(i + 1, n) else i."""
    mod = IRModule()
    gv = mod.get_global_var("count")
    i = Var("i", scalar_type("int64"))
    n = Var("n", scalar_type("int64"))
    step = Call(gv, [api.add(i, const(np.int64(1), "int64")), n])
    mod[gv] = Function([i, n], If(api.less(i, n), step, i), scalar_type("int64"))
    main_n = Var("n", scalar_type("int64"))
    mod["main"] = Function([main_n], Call(gv, [const(np.int64(0), "int64"), main_n]))
    return mod


def _no_call(op_name, inputs, attrs):
    raise AssertionError(f"{op_name} reached the op call")


def test_match_constructor_var_and_wildcard_patterns():
    mod = _option_module()
    some = ADTObj(1, [TensorObj(array(np.float32([5, 6])))])
    assert evaluate(mod, some).tolist() == [5, 6]
    assert evaluate(mod, ADTObj(0, [])).tolist() == [0, 0]


def test_no_matching_clause_raises():
    mod = IRModule()
    gtv = mod.get_global_type_var("AB")
    data = TypeData(gtv, [], [("A", []), ("B", [])])
    mod.add_type_data(data)
    t = Var("t", TypeCall(gtv, []))
    clauses = [Clause(PatternConstructor(data.constructor("A"), []), const(1.0))]
    mod["main"] = Function([t], Match(t, clauses), scalar_type())
    with pytest.raises(ValueError, match="no match clause"):
        evaluate(mod, ADTObj(1, []))


def test_tail_recursion_runs_in_constant_stack():
    """5,000 iterations of a recursive loop, each a taken `If`: beyond
    Python's recursion limit, and every counter op a host scalar."""
    charged = []
    out = evaluate(_count_module(), np.int64(5000), call=_no_call,
                   charge=lambda expr, taken: charged.append((type(expr), taken)))
    assert out.item() == 5000
    assert charged == [(If, True)] * 5000 + [(If, False)]


def test_charge_hook_sees_one_match_per_tree_node():
    w = TreeLSTMWeights.create(10, 5)
    mod = build_tree_lstm_module(w)
    emb = embedding_table(vocab_size=30, dim=10)
    for tree in sst_like_trees(2, vocab_size=30, seed=4):
        matches = []
        evaluate(mod, tree_to_adt(tree, emb), charge=lambda expr, taken: matches.append(expr))
        assert len(matches) == 2 * tree.num_leaves() - 1  # binary tree


def test_building_leaves_the_module_evaluable():
    """The tables compile a module and then hand the same object to the
    baselines: the build must not change what it evaluates to."""
    mod = build_lstm_module(LSTMWeights.create(8, 4, 2))
    x = np.random.RandomState(1).randn(4, 8).astype(np.float32)
    before = evaluate(mod, x)
    nimble.build(mod, intel_cpu())
    assert np.array_equal(evaluate(mod, x), before)


def test_answer_hook_replaces_a_global_call_or_lets_it_run():
    """`answer(gv, args)` is asked about each call of a global function:
    a value is the call's result, `None` evaluates it."""
    mod = _count_module()
    asked = []

    def answer(gv, args):
        asked.append((gv.name_hint, [a.item() for a in args]))
        return np.int64(-1) if args[0] == 2 else None

    assert evaluate(mod, np.int64(5), answer=answer).item() == -1
    assert asked == [("count", [0, 5]), ("count", [1, 5]), ("count", [2, 5])]
