"""Generic passes: ANF, constant folding, DCE, CSE, simplification, fusion."""

import itertools

import numpy as np
import pytest

from repro.core.typing import infer_types
from repro.ir import (
    Any,
    Call,
    Constant,
    Function,
    If,
    IRModule,
    Let,
    Op,
    ScopeBuilder,
    TensorType,
    Tuple,
    TupleGetItem,
    Var,
    const,
    free_vars,
    iter_nodes,
    scalar_type,
)
from repro.ops import api
from repro.ops.registry import OpPattern
from repro.passes import (
    CommonSubexprElimination,
    DeadCodeElimination,
    FoldConstant,
    FuseOps,
    SimplifyExpressions,
    ToANF,
    to_anf,
)


def _let_chain(expr):
    out = []
    node = expr
    while isinstance(node, Let):
        out.append((node.var, node.value))
        node = node.body
    return out, node


class TestToANF:
    def test_nested_calls_flattened(self):
        x = Var("x", TensorType((2,)))
        expr = api.add(api.multiply(x, x), api.tanh(x))
        body = to_anf(Function([x], expr)).body
        bindings, tail = _let_chain(body)
        assert len(bindings) == 3
        assert isinstance(tail, Var)  # strict ANF: atom result

    def test_shared_subexpression_bound_once(self):
        x = Var("x", TensorType((2,)))
        shared = api.multiply(x, x)
        expr = api.add(shared, shared)  # same object twice
        bindings, _ = _let_chain(to_anf(Function([x], expr)).body)
        assert len(bindings) == 2  # multiply once + add

    def test_if_branches_get_own_scopes(self):
        c = Var("c", scalar_type("bool"))
        x = Var("x", TensorType((2,)))
        expr = If(c, api.add(x, x), api.multiply(x, x))
        bindings, tail = _let_chain(to_anf(Function([c, x], expr)).body)
        (var, value), = [b for b in bindings if isinstance(b[1], If)]
        t_bindings, t_tail = _let_chain(value.true_branch)
        assert len(t_bindings) == 1 and isinstance(t_tail, Var)

    def test_existing_lets_preserved(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        body = to_anf(Function([x], sb.get(a))).body
        bindings, tail = _let_chain(body)
        assert bindings[0][0] is a
        assert tail is a

    def test_free_vars_preserved(self):
        x = Var("x", TensorType((2,)))
        y = Var("y", TensorType((2,)))
        f = Function([x], api.add(api.multiply(x, y), y))
        assert free_vars(to_anf(f)) == [y]


class TestFoldConstant:
    def _fold(self, expr, params=()):
        mod = IRModule.from_expr(Function(list(params), expr))
        mod = infer_types(mod)
        return FoldConstant().run(mod).main.body

    def test_folds_constant_arithmetic(self):
        out = self._fold(api.add(const(2.0), const(3.0)))
        assert isinstance(out, Constant)
        assert out.data.item() == pytest.approx(5.0)

    def test_folds_dynamic_arange_to_static(self):
        out = self._fold(api.arange(const(0.0), const(4.0), const(1.0)))
        assert isinstance(out, Constant)
        assert out.data.shape == (4,)

    def test_leaves_variable_expressions(self):
        x = Var("x", TensorType((2,)))
        out = self._fold(api.add(x, const(1.0)), [x])
        assert isinstance(out, Call)

    def test_folds_multi_output_and_projection(self):
        expr = TupleGetItem(api.split(const(np.arange(6, dtype=np.float32)), 3), 1)
        out = self._fold(expr)
        assert isinstance(out, Constant)
        assert out.data.tolist() == [2.0, 3.0]


class TestDeadCode:
    def test_removes_unused_binding(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        sb.let("dead", api.add(x, x))
        live = sb.let("live", api.multiply(x, x))
        mod = IRModule.from_expr(Function([x], sb.get(live)))
        out = DeadCodeElimination().run(mod).main
        bindings, _ = _let_chain(out.body)
        assert len(bindings) == 1

    def test_cascading_removal(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        sb.let("b", api.tanh(a))  # b unused -> then a unused
        live = sb.let("live", x)
        mod = IRModule.from_expr(Function([x], sb.get(live)))
        out = DeadCodeElimination().run(mod).main
        bindings, _ = _let_chain(out.body)
        assert len(bindings) == 1

    def test_keeps_effectful_ops(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        sb.let("k", Call(Op.get("memory.kill"), [x]))
        live = sb.let("live", x)
        mod = IRModule.from_expr(Function([x], sb.get(live)))
        out = DeadCodeElimination().run(mod).main
        bindings, _ = _let_chain(out.body)
        assert len(bindings) == 2


class TestCSE:
    def test_duplicate_calls_merged(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        b = sb.let("b", api.add(x, x))  # duplicate
        out_v = sb.let("out", api.multiply(a, b))
        mod = IRModule.from_expr(Function([x], sb.get(out_v)))
        mod = infer_types(mod)
        out = CommonSubexprElimination().run(mod).main
        bindings, _ = _let_chain(out.body)
        adds = [v for _, v in bindings if isinstance(v, Call) and v.op == Op.get("add")]
        assert len(adds) == 1
        # The multiply now uses the surviving variable twice.
        mul = bindings[-1][1]
        assert mul.args[0] is mul.args[1]

    def test_different_attrs_not_merged(self):
        x = Var("x", TensorType((4,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.reshape(x, (2, 2)))
        b = sb.let("b", api.reshape(x, (4, 1)))
        out_v = sb.let("o", Tuple([a, b]))
        mod = IRModule.from_expr(Function([x], sb.get(out_v)))
        out = CommonSubexprElimination().run(mod).main
        bindings, _ = _let_chain(out.body)
        reshapes = [v for _, v in bindings if isinstance(v, Call)]
        assert len(reshapes) == 2

    def test_weights_hash_by_sample_and_merge_only_when_equal(self):
        """A constant hashes a bounded sample of its elements, so two
        weights differing off the sample share a hash; CSE's
        ``structural_equal`` still keeps them apart, and merges a copy."""
        from repro.ir import structural_hash

        w = np.zeros(1000, np.float32)  # sampled every 16th element
        off_sample = w.copy()
        off_sample[1] = 1.0
        assert structural_hash(const(w)) == structural_hash(const(off_sample))

        x = Var("x", TensorType((1000,)))
        sb = ScopeBuilder()
        adds = [sb.let(f"a{i}", api.add(x, const(v))) for i, v in
                enumerate((w, off_sample, w.copy()))]
        mod = IRModule.from_expr(Function([x], sb.get(sb.let("o", Tuple(adds)))))
        bindings, _ = _let_chain(CommonSubexprElimination().run(mod).main.body)
        assert sum(isinstance(v, Call) for _, v in bindings) == 2


class TestSimplify:
    def _simplify(self, expr, params):
        mod = IRModule.from_expr(Function(list(params), expr))
        mod = infer_types(mod)
        return SimplifyExpressions().run(mod).main.body

    def test_identity_reshape_removed(self):
        x = Var("x", TensorType((2, 3)))
        out = self._simplify(api.reshape(x, (2, 3)), [x])
        assert out is x

    def test_identity_cast_removed(self):
        x = Var("x", TensorType((2,), "float32"))
        out = self._simplify(api.cast(x, "float32"), [x])
        assert out is x

    def test_add_zero_removed(self):
        x = Var("x", TensorType((2,)))
        out = self._simplify(api.add(x, const(0.0)), [x])
        assert out is x

    def test_mul_one_removed(self):
        x = Var("x", TensorType((2,)))
        out = self._simplify(api.multiply(x, const(1.0)), [x])
        assert out is x

    def test_real_reshape_kept(self):
        x = Var("x", TensorType((2, 3)))
        out = self._simplify(api.reshape(x, (3, 2)), [x])
        assert isinstance(out, Call)


class TestFusion:
    def _fuse(self, func):
        mod = IRModule.from_expr(func)
        mod = infer_types(mod)
        mod = ToANF().run(mod)
        mod = infer_types(mod)
        return FuseOps().run(mod).main

    @staticmethod
    def _prim_calls(func):
        out = []
        for node in iter_nodes(func.body):
            if isinstance(node, Call) and isinstance(node.op, Function) and node.op.is_primitive:
                out.append(node)
        return out

    @staticmethod
    def _ops_of(prim_call):
        names = []
        for node in iter_nodes(prim_call.op.body):
            if isinstance(node, Call) and isinstance(node.op, Op):
                names.append(node.op.name)
        return sorted(names)

    def test_dense_absorbs_elementwise_epilogue(self):
        x = Var("x", TensorType((4, 8)))
        w = Var("w", TensorType((16, 8)))
        func = Function([x, w], api.relu(api.dense(x, w)))
        fused = self._fuse(func)
        prims = self._prim_calls(fused)
        assert len(prims) == 1
        assert self._ops_of(prims[0]) == ["nn.dense", "nn.relu"]

    def test_elementwise_chain_fuses(self):
        x = Var("x", TensorType((4,)))
        func = Function([x], api.tanh(api.sigmoid(api.exp(x))))
        prims = self._prim_calls(self._fuse(func))
        assert len(prims) == 1
        assert len(self._ops_of(prims[0])) == 3

    def test_two_denses_not_fused_together(self):
        x = Var("x", TensorType((4, 8)))
        w1 = Var("w1", TensorType((8, 8)))
        w2 = Var("w2", TensorType((8, 8)))
        func = Function([x, w1, w2], api.dense(api.dense(x, w1), w2))
        prims = self._prim_calls(self._fuse(func))
        assert len(prims) == 2

    def test_multi_use_producer_not_fused(self):
        x = Var("x", TensorType((4,)))
        shared = api.exp(x)
        func = Function([x], api.add(api.tanh(shared), shared))
        prims = self._prim_calls(self._fuse(func))
        # exp has two consumers: it must stay its own kernel.
        exp_groups = [p for p in prims if "exp" in self._ops_of(p)]
        assert len(exp_groups) == 1
        assert self._ops_of(exp_groups[0]) == ["exp"]

    def test_dynamic_op_never_absorbs_producers(self):
        """The §4.2 fusion policy: data-dependent shape functions cannot
        take fused intermediate results."""
        x = Var("x", TensorType((6,)))
        func = Function([x], api.unique(api.tanh(x)))
        prims = self._prim_calls(self._fuse(func))
        assert len(prims) == 2
        unique_groups = [p for p in prims if "unique" in self._ops_of(p)]
        assert self._ops_of(unique_groups[0]) == ["unique"]

    def test_injective_fuses_into_reduce(self):
        x = Var("x", TensorType((4, 4)))
        func = Function([x], api.sum_(api.tanh(x), axis=1))
        prims = self._prim_calls(self._fuse(func))
        assert len(prims) == 1

    def test_every_compute_becomes_primitive(self):
        # After fusion, every top-level binding that computes does so
        # through a primitive function call (uniform kernel lowering).
        x = Var("x", TensorType((4, 8)))
        w = Var("w", TensorType((8, 8)))
        fused = self._fuse(Function([x, w], api.dense(x, w)))
        bindings, _ = _let_chain(fused.body)
        for _, value in bindings:
            if isinstance(value, Call) and isinstance(value.op, Op):
                assert value.op.name.startswith(("vm.", "memory.", "device."))

    def test_constants_become_params(self):
        x = Var("x", TensorType((2, 4)))
        w = const(np.zeros((3, 4), np.float32))
        fused = self._fuse(Function([x], api.dense(x, w)))
        prims = self._prim_calls(fused)
        assert len(prims[0].op.params) == 2
        assert any(isinstance(a, Constant) for a in prims[0].args)


class TestMultiOutputFusion:
    """A tuple-producing group (`split`) merges with every group that
    reads its projections into one kernel returning each member used
    outside it — or, when one of the four conditions fails, not at all."""

    @staticmethod
    def _chain_prims(expr):
        """The primitive calls bound in one let chain, in order."""
        bindings, _ = _let_chain(expr)
        return [v for _, v in bindings if isinstance(v, Call) and isinstance(v.op, Function)]

    def test_an_lstm_layer_step_is_three_kernels_and_h_c_one_call(self):
        from repro.models.lstm import LSTMWeights, build_lstm_module

        mod = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        mod = FuseOps().run(infer_types(ToANF().run(infer_types(mod))))
        (step,) = [v for _, v in _let_chain(mod["lstm_loop"].body)[0] if isinstance(v, If)]
        bindings, _ = _let_chain(step.true_branch)
        prims = self._chain_prims(step.true_branch)
        # concatenate, dense+bias_add, split+gates+c+h per layer; t + 1.
        assert len(prims) == 3 * 2 + 1
        cells = [p for p in prims if "split" in TestFusion._ops_of(p)]
        assert len(cells) == 2
        for cell in cells:
            assert TestFusion._ops_of(cell) == sorted(
                ["split", "sigmoid", "sigmoid", "sigmoid", "tanh", "tanh",
                 "multiply", "multiply", "multiply", "add"])
            (result,) = [var for var, v in bindings if v is cell]
            projections = [var for var, v in bindings
                           if isinstance(v, TupleGetItem) and v.tuple_value is result]
            assert [p.name_hint[0] for p in projections] == ["c", "h"]
        # The recursive call takes each layer's (h, c) from one kernel call.
        (recurse,) = [v for _, v in bindings
                      if isinstance(v, Call) and not isinstance(v.op, (Op, Function))]
        producer = {var: v.tuple_value for var, v in bindings if isinstance(v, TupleGetItem)}
        states = recurse.args[3:]
        assert producer[states[0]] is producer[states[1]]
        assert producer[states[2]] is producer[states[3]]
        assert producer[states[0]] is not producer[states[2]]

    def _fused(self, bindings, tail, params):
        sb = ScopeBuilder()
        out = {}
        for name, make in bindings:
            out[name] = sb.let(name, make(out))
        body = sb.get(tail(out))
        return TestFusion()._fuse(Function(params, body))

    def _split_is_alone(self, fused):
        prims = TestFusion._prim_calls(fused)
        (split,) = [p for p in prims if "split" in TestFusion._ops_of(p)]
        assert TestFusion._ops_of(split) == ["split"]
        return prims

    def test_merged_when_every_condition_holds(self):
        x = Var("x", TensorType((2, 8)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("b", lambda v: api.tanh(TupleGetItem(v["parts"], 1))),
             ("out", lambda v: Tuple([v["a"], v["b"]]))],
            lambda v: v["out"], [x])
        (prim,) = TestFusion._prim_calls(fused)
        assert TestFusion._ops_of(prim) == ["sigmoid", "split", "tanh"]

    def test_refused_when_a_non_member_between_the_members_reads_one(self):
        """`n` sits between `a` and `b`, reads `a`, and is not fused (two
        readers): merging would need `a` before the kernel ran."""
        x = Var("x", TensorType((2, 8)))
        w = Var("w", TensorType((4, 4)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("n", lambda v: api.dense(v["a"], w)),
             ("b", lambda v: api.add(TupleGetItem(v["parts"], 1), v["n"])),
             ("out", lambda v: Tuple([v["b"], v["n"]]))],
            lambda v: v["out"], [x, w])
        assert len(self._split_is_alone(fused)) == 4

    def test_refused_when_a_projection_escapes_to_the_tail(self):
        x = Var("x", TensorType((2, 8)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("p1", lambda v: TupleGetItem(v["parts"], 1)),
             ("out", lambda v: api.add(v["a"], v["p1"]))],
            lambda v: v["p1"], [x])
        assert len(self._split_is_alone(fused)) == 2  # split, sigmoid+add

    def test_refused_when_the_tuple_is_read_whole(self):
        x = Var("x", TensorType((2, 8)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("out", lambda v: Tuple([v["a"], v["parts"]]))],
            lambda v: v["out"], [x])
        assert len(self._split_is_alone(fused)) == 2

    def test_refused_when_a_reader_cannot_absorb_the_split(self):
        """`dense` (OUT_ELEMWISE_FUSABLE) absorbs no producer."""
        x = Var("x", TensorType((2, 8)))
        w = Var("w", TensorType((4, 4)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("d", lambda v: api.dense(TupleGetItem(v["parts"], 1), w)),
             ("out", lambda v: Tuple([v["a"], v["d"]]))],
            lambda v: v["out"], [x, w])
        assert len(self._split_is_alone(fused)) == 3

    def test_refused_when_a_reader_has_a_dynamic_shape_function(self):
        x = Var("x", TensorType((8,)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2)),
             ("u", lambda v: api.unique(TupleGetItem(v["parts"], 0))),
             ("b", lambda v: api.tanh(TupleGetItem(v["parts"], 1))),
             ("out", lambda v: Tuple([v["u"], v["b"]]))],
            lambda v: v["out"], [x])
        assert len(self._split_is_alone(fused)) == 3


    def test_merged_before_an_outside_reader_when_later_members_read_only_members(self):
        """`n` reads `a` before member `b` is bound, but `b` reads only
        members: the kernel materializes before `n`."""
        x = Var("x", TensorType((2, 8)))
        w = Var("w", TensorType((4, 4)))
        fused = self._fused(
            [("parts", lambda v: api.split(x, 2, axis=1)),
             ("a", lambda v: api.sigmoid(TupleGetItem(v["parts"], 0))),
             ("t", lambda v: api.tanh(TupleGetItem(v["parts"], 1))),
             ("n", lambda v: api.dense(v["a"], w)),
             ("b", lambda v: api.exp(v["t"])),
             ("out", lambda v: Tuple([v["n"], v["b"]]))],
            lambda v: v["out"], [x, w])
        assert [TestFusion._ops_of(p) for p in self._chain_prims(fused.body)] == [
            ["exp", "sigmoid", "split", "tanh"], ["nn.dense"]]


def _differential_cases():
    """(model, tier, platform, streams): both paper loops, every tier, on
    the CPU and on the GPU at one and two streams."""
    from repro.hardware import intel_cpu, nvidia_gpu

    return itertools.product(
        ("lstm", "tree_lstm"), ("dynamic", "specialized", "batched"),
        ((intel_cpu, 1), (nvidia_gpu, 1), (nvidia_gpu, 2)))


class TestMultiOutputFusionDifferential:
    """The whole pipeline with the multi-output merge and with it
    replaced by a no-op: bitwise-equal outputs, fewer kernels."""

    @staticmethod
    def _build_and_run(model, tier, platform, streams):
        import repro.nimble as nimble
        from repro.data import Tree, embedding_table
        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.models.tree_lstm import (
            TreeLSTMWeights, build_tree_lstm_module, tree_to_adt)
        from repro.runtime.context import ExecutionContext
        from repro.vm.compiler import CompilerOptions
        from repro.vm.interpreter import VirtualMachine

        rng = np.random.RandomState(0)
        options = CompilerOptions(device_streams=streams)
        if model == "lstm":
            mod = build_lstm_module(
                LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
            members = [rng.randn(5, 12).astype(np.float32) for _ in range(3)]
            if tier == "dynamic":
                exe = nimble.build(mod, platform, options=options)[0]
                inputs = [rng.randn(3, 12).astype(np.float32)] + members
            elif tier == "specialized":
                exe = nimble.specialize(mod, platform, shapes=[(5, 12)], options=options)[0]
                inputs = members
            else:
                exe = nimble.specialize(
                    mod, platform, shapes=[(5, 12)], options=options, batch=3)[0]
                inputs = [np.concatenate(members, axis=0)]
        else:
            mod = build_tree_lstm_module(
                TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
            embeddings = embedding_table(vocab_size=32, dim=12, seed=0)
            trees = [Tree.node(Tree.node(Tree.leaf(1), Tree.leaf(2)), Tree.leaf(3)),
                     Tree.node(Tree.leaf(7), Tree.leaf(8))]
            inputs = [tree_to_adt(t, embeddings) for t in trees]
            if tier == "dynamic":
                exe = nimble.build(mod, platform, options=options)[0]
            else:
                exe = nimble.specialize(mod, platform, shapes=[None], options=options,
                                        batch=3 if tier == "batched" else 1)[0]
        vm = VirtualMachine(exe, ExecutionContext(platform, numerics="full"))
        return len(exe.kernels), [vm.run(x).numpy().tobytes() for x in inputs]

    @pytest.mark.parametrize(
        "case", _differential_cases(),
        ids=lambda c: f"{c[0]}-{c[1]}-{c[2][0].__name__}x{c[2][1]}")
    def test_merge_changes_kernels_not_outputs(self, case, monkeypatch):
        from repro.passes.fuse_ops import _Fuser
        from repro.passes.specialize import BatchSpecializeError

        model, tier, (make_platform, streams) = case

        def build():
            return self._build_and_run(model, tier, make_platform(), streams)

        try:
            merged = build()
        except BatchSpecializeError:
            merged = None  # a Tree entry cannot be stacked
        monkeypatch.setattr(_Fuser, "_merge_tuple_group", lambda self, *args: None)
        if merged is None:
            with pytest.raises(BatchSpecializeError):  # refused either way
                build()
            return
        unmerged = build()
        assert merged[0] < unmerged[0]
        assert merged[1] == unmerged[1]


# ---------------------------------------------------------------------------
# Parallel dense layers combine into one GEMM on one-queue platforms
# ---------------------------------------------------------------------------


def _branches(x, *weights):
    """``bias_add(dense(x, Wᵢ), bᵢ)`` per weight, float32 biases, as
    let-bound (dense, bias_add) pairs ending in their tuple."""
    sb = ScopeBuilder()
    outs = []
    for i, w in enumerate(weights):
        rows = w.data.shape[0] if isinstance(w, Constant) else 4
        b = np.arange(rows, dtype="float32")
        d = sb.let(f"d{i}", api.dense(x, w))
        outs.append(sb.let(f"o{i}", api.bias_add(d, const(b))))
    return sb.get(Tuple(outs))


def _weight(rows, k=8, dtype="float32", seed=0):
    return const(np.random.RandomState(seed + rows).randn(rows, k).astype(dtype))


class TestCombineParallelDense:
    """``bias_add(dense(x, Wᵢ), bᵢ)`` on one ``x`` become one dense over the
    stacked weights, one bias_add and a split; anything else is left as
    it is."""

    @staticmethod
    def _combined(func):
        from repro.passes import CombineParallelDense

        mod = IRModule.from_expr(func)
        return mod, CombineParallelDense().run(mod)

    @staticmethod
    def _ops(func):
        return [v.op.name for _, v in _let_chain(func.body)[0]
                if isinstance(v, Call) and isinstance(v.op, Op)]

    @pytest.mark.parametrize("rows", [(4, 4, 4), (3, 5)], ids=["equal", "unequal"])
    def test_branches_on_one_input_become_one_gemm_with_bitwise_outputs(self, rows):
        from repro.evaluator import evaluate

        x = Var("x", TensorType((Any(), 8), "float32"))
        func = Function([x], _branches(x, *[_weight(r) for r in rows]))
        before, after = self._combined(func)
        assert self._ops(after.main) == ["nn.dense", "nn.bias_add", "split"]
        (dense,) = [v for _, v in _let_chain(after.main.body)[0] if isinstance(v, Call)
                    and getattr(v.op, "name", "") == "nn.dense"]
        assert dense.attrs == {"sections": tuple(np.cumsum(rows[:-1]))}
        assert dense.args[1].data.shape == (sum(rows), 8)
        data = np.random.RandomState(1).randn(7, 8).astype(np.float32)
        want = evaluate(infer_types(before), data)
        got = evaluate(infer_types(after), data)
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]

    @pytest.mark.parametrize("case", [
        "different_inputs", "non_constant_weight", "dense_read_twice",
        "mismatched_dtypes", "single_branch", "other_reduction_dim"])
    def test_left_alone(self, case):
        x = Var("x", TensorType((Any(), 8), "float32"))
        y = Var("y", TensorType((Any(), 8), "float32"))
        params = [x]
        if case == "different_inputs":
            sb = ScopeBuilder()
            a = sb.let("a", api.bias_add(api.dense(x, _weight(4)), const(np.zeros(4, "float32"))))
            b = sb.let("b", api.bias_add(api.dense(y, _weight(4)), const(np.zeros(4, "float32"))))
            body, params = sb.get(Tuple([a, b])), [x, y]
        elif case == "non_constant_weight":
            w = Var("w", TensorType((4, 8), "float32"))
            body, params = _branches(x, _weight(4), w), [x, w]
        elif case == "dense_read_twice":
            sb = ScopeBuilder()
            d0 = sb.let("d0", api.dense(x, _weight(4)))
            a = sb.let("a", api.bias_add(d0, const(np.zeros(4, "float32"))))
            b = sb.let("b", api.bias_add(api.dense(x, _weight(4, seed=1)),
                                         const(np.zeros(4, "float32"))))
            body = sb.get(Tuple([a, b, d0]))
        elif case == "mismatched_dtypes":  # the float16 weight's bias is float32
            body = _branches(x, _weight(4), _weight(4, dtype="float16"))
        elif case == "single_branch":
            body = _branches(x, _weight(4))
        else:
            body = _branches(x, _weight(4), _weight(4, k=6))
        func = Function(params, to_anf(Function(params, body)).body)
        before, after = self._combined(func)
        assert after.main is before.main

    @staticmethod
    def _bert():
        from repro.models.bert import BertConfig, BertWeights, build_bert_module

        return build_bert_module(
            BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))

    @staticmethod
    def _tiers(mod):
        """Each tier's executable on `intel_cpu` and its inputs."""
        import repro.nimble as nimble
        from repro.hardware import intel_cpu

        rng = np.random.RandomState(0)
        rows = [rng.randn(n, 24).astype(np.float32) for n in (1, 5, 9)]
        fives = [rng.randn(5, 24).astype(np.float32) for _ in range(4)]
        return {
            "dynamic": (nimble.build(mod, intel_cpu())[0], rows),
            "exact": (nimble.specialize(mod, intel_cpu(), shapes=[(5, 24)])[0], fives),
            "partial": (nimble.specialize(mod, intel_cpu(), shapes=[(None, 24)])[0], rows),
            "batched": (nimble.specialize(mod, intel_cpu(), shapes=[(5, 24)], batch=4)[0],
                        [np.concatenate(fives)]),
        }

    def test_bert_on_one_queue_is_bitwise_the_pipeline_without_the_pass(self, monkeypatch):
        """Every tier builds either way, with fewer kernels combined, and
        runs to the same bytes."""
        from repro.passes import CombineParallelDense
        from repro.vm.interpreter import VirtualMachine

        def outputs(tiers):
            return {tier: [VirtualMachine(exe).run(x).numpy().tobytes() for x in inputs]
                    for tier, (exe, inputs) in tiers.items()}

        combined = self._tiers(self._bert())
        monkeypatch.setattr(CombineParallelDense, "run", lambda self, mod: mod)
        separate = self._tiers(self._bert())
        assert outputs(combined) == outputs(separate)
        for tier in combined:
            assert len(combined[tier][0].kernels) < len(separate[tier][0].kernels), tier

    @pytest.mark.parametrize("family, make_platform, streams", [
        ("lstm", "intel_cpu", 1), ("tree_lstm", "intel_cpu", 1),
        ("lstm", "nvidia_gpu", 2), ("tree_lstm", "nvidia_gpu", 1),
        ("bert", "nvidia_gpu", 1), ("bert", "nvidia_gpu", 4)])
    def test_where_nothing_combines_the_executable_is_the_same(
            self, family, make_platform, streams, monkeypatch):
        """LSTM and TreeLSTM have no parallel branches and a GPU build
        does not run the pass: every tier keeps its key and its bytes."""
        import repro.hardware as hardware
        from repro.passes import CombineParallelDense

        platform = getattr(hardware, make_platform)()

        def saved():
            out = {}
            for tier in ("dynamic", "specialized", "batch4"):
                exe = TestLazyInference._executable(family, tier, platform, streams)
                out[tier] = exe and (TestLazyInference._canonical_save(exe), exe.content_hash())
            return out

        with_pass = saved()
        monkeypatch.setattr(CombineParallelDense, "run", lambda self, mod: mod)
        assert saved() == with_pass


# ---------------------------------------------------------------------------
# Types are inferred where a pass reads them
# ---------------------------------------------------------------------------


def _small_module(family):
    """A fresh module of one paper model: inference mutates the nodes it
    types, so two compiles that are compared never share a module."""
    from repro.models.bert import BertConfig, BertWeights, build_bert_module
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

    if family == "lstm":
        return build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
    if family == "tree_lstm":
        return build_tree_lstm_module(
            TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
    return build_bert_module(
        BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))


def _pipeline(platform):
    """Every pass of a dynamic build, in order, as fresh instances."""
    from repro.core.device import DevicePlace
    from repro.core.memory import ManifestAlloc, MemoryPlan
    from repro.passes import CombineParallelDense, LambdaLift

    one_queue = [CombineParallelDense()] if platform.max_streams == 1 else []
    return [FoldConstant(), SimplifyExpressions(), ToANF(), CommonSubexprElimination(),
            DeadCodeElimination(), *one_queue, LambdaLift(), FuseOps(), ManifestAlloc(),
            DevicePlace(platform.host, platform.compute), MemoryPlan()]


def _type_blind_passes():
    """Every Pass class that declares it never reads ``checked_type``."""
    from repro.passes import Pass

    classes, todo = [], [Pass]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.append(sub)
            todo.append(sub)
    return {cls for cls in classes if not cls.reads_types}


def _wipe_types(mod):
    from repro.ir import Constructor, GlobalVar
    from repro.ir.analysis import bound_vars

    for gv, func in mod.functions.items():
        gv.checked_type = None
        for node in itertools.chain(iter_nodes(func), bound_vars(func)):
            if not isinstance(node, (Op, Constructor, GlobalVar)):
                node.checked_type = None


class TestLazyInference:
    TYPE_BLIND = ("FoldConstant", "ToANF", "CommonSubexprElimination",
                  "DeadCodeElimination", "CombineParallelDense", "MemoryPlan")

    def test_the_declared_passes_are_the_tested_ones(self):
        import repro.nimble  # noqa: F401  (imports every pass)

        assert {cls.__name__ for cls in _type_blind_passes()} == set(self.TYPE_BLIND)

    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    @pytest.mark.parametrize("name", TYPE_BLIND)
    def test_a_type_blind_pass_ignores_types(self, name, family):
        """The declaration is honest: the pass gives a structurally equal
        module when every ``checked_type`` of its input is wiped."""
        from repro.hardware import intel_cpu
        from repro.ir import structural_equal
        from repro.passes import Sequential

        passes = _pipeline(intel_cpu())
        at = [type(p).__name__ for p in passes].index(name)
        typed = Sequential(passes[:at]).run(infer_types(_small_module(family)))
        want = passes[at](typed)
        _wipe_types(typed)
        got = type(passes[at])()(typed)
        assert list(got.functions) == list(want.functions)
        for gv, func in want.functions.items():
            assert structural_equal(got.functions[gv], func), gv.name_hint

    @pytest.mark.parametrize("verify, want", [
        (False, ["blind", "blind2", "infer", "reader", "blind3", "infer"]),
        (True, ["blind", "infer", "blind2", "infer", "reader", "infer", "blind3", "infer"]),
    ], ids=["plain", "verify_each_pass"])
    def test_sequential_infers_before_a_reader_and_once_at_the_end(
            self, verify, want, monkeypatch):
        import repro.core.typing as typing
        from repro.passes import Pass, Sequential

        events = []

        def infer(mod):
            events.append("infer")
            return mod

        def make(name, reads):
            cls = type(name, (Pass,), {"name": name, "reads_types": reads,
                                       "run": lambda self, mod: events.append(name) or mod})
            return cls()

        monkeypatch.setattr(typing, "infer_types", infer)
        x = Var("x", TensorType((2,)))
        pipeline = Sequential([make("blind", False), make("blind2", False),
                               make("reader", True), make("blind3", False)],
                              verify_each_pass=verify)
        pipeline.run(infer_types(IRModule.from_expr(Function([x], x))))
        assert events == want
        assert set(pipeline.timings) == {"blind", "blind2", "reader", "blind3", "InferType"}

    @staticmethod
    def _canonical_save(exe):
        """``exe.save()`` with ``Any`` tokens numbered by first use: tokens
        come from a process-wide counter, so two compiles in one process
        differ in them and in nothing else."""
        numbering = {}

        def reduce(self, protocol):
            return (Any, (numbering.setdefault(self.token, len(numbering)),))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Any, "__reduce_ex__", reduce, raising=False)
            return exe.save()

    @staticmethod
    def _executable(family, tier, platform, streams):
        import repro.nimble as nimble
        from repro.passes import BatchSpecializeError

        mod = _small_module(family)
        options = nimble.CompilerOptions(device_streams=streams)
        shapes = {"lstm": [(5, 12)], "tree_lstm": [None], "bert": [(5, 24)]}[family]
        try:
            if tier == "dynamic":
                return nimble.build(mod, platform, options=options)[0]
            return nimble.specialize(mod, platform, shapes=shapes, options=options,
                                     batch=4 if tier == "batch4" else 1)[0]
        except BatchSpecializeError:
            return None  # a Tree entry cannot be stacked

    @classmethod
    def _compile(cls, family, tier, platform, streams):
        exe = cls._executable(family, tier, platform, streams)
        return None if exe is None else cls._canonical_save(exe)

    @pytest.mark.parametrize(
        "make_platform, streams", [("intel_cpu", 1), ("nvidia_gpu", 2)],
        ids=["intel_cpu", "nvidia_gpu-2"])
    @pytest.mark.parametrize("tier", ["dynamic", "specialized", "batch4"])
    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    def test_lazy_inference_saves_the_eager_bytes(
            self, family, tier, make_platform, streams, monkeypatch):
        """Inferring only where a pass reads types compiles byte for byte
        what inferring after every pass compiles."""
        import repro.hardware as hardware

        platform = getattr(hardware, make_platform)()
        lazy = self._compile(family, tier, platform, streams)
        for cls in _type_blind_passes():
            monkeypatch.setattr(cls, "reads_types", True)
        eager = self._compile(family, tier, platform, streams)
        assert lazy == eager


class TestCompileWork:
    def test_compile_work_per_bench_size_build(self, monkeypatch, capsys):
        """Type inferences and constant bytes ``structural_hash`` reads per
        ``build`` of the bench-size LSTM (2 layers, 300 -> 512) and BERT
        (256 wide, 6 layers). Before lazy inference and sampled constant
        hashing: 11 inferences each, and 15,065,104 / 18,954,264 bytes.
        CI's "Size trajectory" step prints the line."""
        import repro.nimble as nimble
        from repro.core.typing import infer
        from repro.ir import analysis
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.models.lstm import LSTMWeights, build_lstm_module

        work = {"inferences": 0, "hashed": 0}
        real_run, real_sample = infer._Inferencer.run, analysis.constant_sample

        def counted_run(self):
            work["inferences"] += 1
            return real_run(self)

        def counted_sample(data):
            sample = real_sample(data)
            work["hashed"] += len(sample)
            return sample

        monkeypatch.setattr(infer._Inferencer, "run", counted_run)
        monkeypatch.setattr(analysis, "constant_sample", counted_sample)
        models = {
            "LSTM": build_lstm_module(LSTMWeights.create(
                input_size=300, hidden_size=512, num_layers=2, seed=0)),
            "BERT": build_bert_module(BertWeights.create(
                BertConfig(hidden=256, num_heads=4, num_layers=6, ffn=1024), seed=0)),
        }
        seen = []
        for name, mod in models.items():
            work.update(inferences=0, hashed=0)
            nimble.build(mod)
            seen.append((name, dict(work)))
        with capsys.disabled():
            print("\ncompile work per bench-size build: " + "; ".join(
                f"{name} {w['inferences']} type inferences, {w['hashed']:,} constant bytes hashed"
                for name, w in seen))
        for name, w in seen:
            assert w["inferences"] <= 7, name
            assert w["hashed"] <= 64 * 1024, name
