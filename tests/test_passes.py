"""Generic passes: ANF, constant folding, CSE, fusion."""

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
    Op,
    ScopeBuilder,
    TensorType,
    Tuple,
    TupleGetItem,
    Var,
    const,
    free_vars,
    iter_nodes,
    let_chain,
    scalar_type,
)
from repro.ops import api
from repro.ops.registry import OpPattern
from repro.passes import (
    CommonSubexprElimination,
    FoldConstant,
    FuseOps,
    ToANF,
    to_anf,
)


class TestToANF:
    def test_nested_calls_flattened(self):
        x = Var("x", TensorType((2,)))
        expr = api.add(api.multiply(x, x), api.tanh(x))
        body = to_anf(Function([x], expr)).body
        bindings, tail = let_chain(body)
        assert len(bindings) == 3
        assert isinstance(tail, Var)  # strict ANF: atom result

    def test_shared_subexpression_bound_once(self):
        x = Var("x", TensorType((2,)))
        shared = api.multiply(x, x)
        expr = api.add(shared, shared)  # same object twice
        bindings, _ = let_chain(to_anf(Function([x], expr)).body)
        assert len(bindings) == 2  # multiply once + add

    def test_if_branches_get_own_scopes(self):
        c = Var("c", scalar_type("bool"))
        x = Var("x", TensorType((2,)))
        expr = If(c, api.add(x, x), api.multiply(x, x))
        bindings, tail = let_chain(to_anf(Function([c, x], expr)).body)
        (var, value), = [b for b in bindings if isinstance(b[1], If)]
        t_bindings, t_tail = let_chain(value.true_branch)
        assert len(t_bindings) == 1 and isinstance(t_tail, Var)

    def test_existing_lets_preserved(self):
        x = Var("x", TensorType((2,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.add(x, x))
        body = to_anf(Function([x], sb.get(a))).body
        bindings, tail = let_chain(body)
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
        bindings, _ = let_chain(out.body)
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
        bindings, _ = let_chain(out.body)
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
        bindings, _ = let_chain(CommonSubexprElimination().run(mod).main.body)
        assert sum(isinstance(v, Call) for _, v in bindings) == 2


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
        func = Function([x], api.tanh(api.sigmoid(api.relu(x))))
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
        shared = api.sigmoid(x)
        func = Function([x], api.add(api.tanh(shared), shared))
        prims = self._prim_calls(self._fuse(func))
        # sigmoid has two consumers: it must stay its own kernel.
        sigmoid_groups = [p for p in prims if "sigmoid" in self._ops_of(p)]
        assert len(sigmoid_groups) == 1
        assert self._ops_of(sigmoid_groups[0]) == ["sigmoid"]

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
        x = Var("x", TensorType((1, 2, 4, 4)))
        func = Function([x], api.global_avg_pool2d(api.tanh(x)))
        prims = self._prim_calls(self._fuse(func))
        assert len(prims) == 1

    def test_every_compute_becomes_primitive(self):
        # After fusion, every top-level binding that computes does so
        # through a primitive function call (uniform kernel lowering).
        x = Var("x", TensorType((4, 8)))
        w = Var("w", TensorType((8, 8)))
        fused = self._fuse(Function([x, w], api.dense(x, w)))
        bindings, _ = let_chain(fused.body)
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
        bindings, _ = let_chain(expr)
        return [v for _, v in bindings if isinstance(v, Call) and isinstance(v.op, Function)]

    def test_an_lstm_layer_step_is_two_kernels_and_h_c_one_call(self):
        from repro.models.lstm import LSTMWeights, build_lstm_module

        mod = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        mod = FuseOps().run(infer_types(ToANF().run(infer_types(mod))))
        (step,) = [v for _, v in let_chain(mod["lstm_loop"].body)[0] if isinstance(v, If)]
        bindings, _ = let_chain(step.true_branch)
        prims = self._chain_prims(step.true_branch)
        # concatenate, dense+bias_add+split+gates+c+h per layer; t + 1
        # (3 * 2 + 1 while the gate GEMM was a kernel of its own).
        assert len(prims) == 2 * 2 + 1
        cells = [p for p in prims if "split" in TestFusion._ops_of(p)]
        assert len(cells) == 2
        for cell in cells:
            assert TestFusion._ops_of(cell) == sorted(
                ["nn.dense", "nn.bias_add", "split", "sigmoid", "sigmoid", "sigmoid",
                 "tanh", "tanh", "multiply", "multiply", "multiply", "add"])
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
             ("b", lambda v: api.relu(v["t"])),
             ("out", lambda v: Tuple([v["n"], v["b"]]))],
            lambda v: v["out"], [x, w])
        assert [TestFusion._ops_of(p) for p in self._chain_prims(fused.body)] == [
            ["nn.relu", "sigmoid", "split", "tanh"], ["nn.dense"]]


class TestSplitJoinsItsDense:
    """A ``split`` that cuts a dense's ``bias_add`` on the last axis at
    static widths joins that dense's kernel, and its projections'
    injective readers with it: the GEMM and the split it feeds are one
    launch, whatever the cuts and whether the dense carries ``sections``.
    A split on another axis, or of a value read twice, stays out."""

    @staticmethod
    def _function(x_shape, dense_attrs, split_at, axis=-1, also_returned=None):
        """``split(bias_add(dense(x, W)))`` over 12 weight rows, each
        section transposed; *also_returned* names ``"d"`` or ``"b"`` to
        give it a second reader, the tail."""
        x = Var("x", TensorType(x_shape, "float32"))
        w = const(np.random.RandomState(0).randn(12, 8).astype("float32"))
        sb = ScopeBuilder()
        d = sb.let("d", Call(Op.get("nn.dense"), [x, w], dense_attrs))
        b = sb.let("b", api.bias_add(d, const(np.arange(12, dtype="float32"))))
        parts = sb.let("parts", api.split(b, split_at, axis=axis))
        count = split_at if isinstance(split_at, int) else len(split_at) + 1
        heads = [sb.let(f"h{i}", api.transpose(TupleGetItem(parts, i), (1, 0)))
                 for i in range(count)]
        body = sb.get(Tuple(heads + [{"d": d, "b": b}[also_returned]] if also_returned else heads))
        return Function([x], body)

    @classmethod
    def _kernels(cls, *args):
        """The ops of each kernel of :meth:`_function`, fused."""
        fused = TestFusion()._fuse(cls._function(*args))
        return [TestFusion._ops_of(p) for p in TestMultiOutputFusion._chain_prims(fused.body)]

    @pytest.mark.parametrize("x_shape, attrs, split_at", [
        ((Any(), 8), {"sections": (4, 8)}, 3),
        ((Any(), 8), {"sections": (3,)}, (3,)),
        ((6, 8), {"sections": (4, 8), "batch": 2}, 3),
        ((Any(), 8), {"sections": (4, 8)}, 2),
        ((Any(), 8), {}, 3),
        ((Any(), 8), {}, 1),
        ((Any(), 8), {}, (5, 7)),
    ], ids=["equal_sections", "index_cuts", "batch_and_sections", "other_cuts",
            "no_sections", "no_sections_one_part", "no_sections_index_cuts"])
    def test_the_split_joins_the_gemm(self, x_shape, attrs, split_at):
        import repro.nimble as nimble
        from repro.evaluator import evaluate
        from repro.hardware import intel_cpu
        from repro.vm.interpreter import VirtualMachine

        (kernel,) = self._kernels(x_shape, attrs, split_at)
        count = split_at if isinstance(split_at, int) else len(split_at) + 1
        assert kernel == sorted(["nn.bias_add", "nn.dense", "split"] + ["transpose"] * count)
        mod = IRModule.from_expr(self._function(x_shape, attrs, split_at))
        data = np.random.RandomState(1).randn(6, 8).astype(np.float32)
        want = evaluate(infer_types(mod), data)
        got = VirtualMachine(nimble.build(mod, intel_cpu())[0]).run(data)
        assert [g.numpy().tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]

    @pytest.mark.parametrize("x_shape, attrs, split_at, axis, also_returned", [
        ((12, 8), {"sections": (4, 8)}, 3, 0, None),
        ((12, 8), {}, 3, 0, None),
        ((Any(), 8), {"sections": (4, 8)}, 3, -1, "d"),
        ((Any(), 8), {"sections": (4, 8)}, 3, -1, "b"),
        ((Any(), 8), {}, 3, -1, "b"),
    ], ids=["other_axis", "other_axis_no_sections", "dense_read_twice",
            "bias_add_read_twice", "bias_add_read_twice_no_sections"])
    def test_refused(self, x_shape, attrs, split_at, axis, also_returned):
        """Each breaks one condition: the split and its readers stay out
        of the GEMM's kernel. Along axis 0 the 12 rows are cut at (4, 8),
        the dense's sections, but on the wrong axis."""
        kernels = self._kernels(x_shape, attrs, split_at, axis, also_returned)
        (split,) = [ops for ops in kernels if "split" in ops]
        assert "nn.dense" not in split and "transpose" in split

    def test_refused_at_dynamic_widths(self):
        """A weight of unknown row count cuts into parts of unknown width."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = Var("w", TensorType((Any(), 8), "float32"))
        bias = Var("bias", TensorType((Any(),), "float32"))
        sb = ScopeBuilder()
        parts = sb.let("parts", api.split(api.bias_add(api.dense(x, w), bias), 2, axis=1))
        heads = [sb.let(f"h{i}", api.transpose(TupleGetItem(parts, i), (1, 0))) for i in range(2)]
        fused = TestFusion()._fuse(Function([x, w, bias], sb.get(Tuple(heads))))
        kernels = [TestFusion._ops_of(p) for p in TestMultiOutputFusion._chain_prims(fused.body)]
        (split,) = [ops for ops in kernels if "split" in ops]
        assert "nn.dense" not in split and "transpose" in split

    def test_fires_on_combine_parallel_dense_output_and_keeps_its_bytes(self):
        """Three projections of one input, each split into two heads as
        BERT's are: after ``CombineParallelDense`` the stacked GEMM, the
        split and all the head reshapes are one kernel, and the build
        runs to the evaluator's bytes on the uncombined module."""
        import repro.nimble as nimble
        from repro.evaluator import evaluate
        from repro.hardware import intel_cpu
        from repro.passes import CombineParallelDense
        from repro.vm.interpreter import VirtualMachine

        x = Var("x", TensorType((Any(), 8), "float32"))
        sb = ScopeBuilder()
        heads = []
        for i in range(3):
            w, b = _weight(4, seed=i), const(np.arange(4, dtype="float32") + i)
            proj = sb.let(f"proj{i}", api.bias_add(api.dense(x, w), b))
            heads.append(sb.let(f"head{i}", api.transpose(api.reshape(proj, (-1, 2, 2)),
                                                          (1, 0, 2))))
        mod = IRModule.from_expr(Function([x], sb.get(Tuple(heads))))
        combined = CombineParallelDense().run(ToANF().run(infer_types(mod)))
        fused = FuseOps().run(infer_types(combined)).main
        (kernel,) = [TestFusion._ops_of(p) for p in TestMultiOutputFusion._chain_prims(fused.body)]
        assert kernel == sorted(["nn.dense", "nn.bias_add", "split"]
                                + ["reshape", "transpose"] * 3)
        data = np.random.RandomState(1).randn(5, 8).astype(np.float32)
        want = evaluate(infer_types(mod), data)
        got = VirtualMachine(nimble.build(mod, intel_cpu())[0]).run(data)
        assert [g.numpy().tobytes() for g in got] == [
            np.asarray(w).tobytes() for w in want]


def _differential_cases():
    """(model, tier, platform, streams): both paper loops, the LSTM at one
    and two layers, every tier (the exact variant linked, as the VM binds
    it, and rolled), on the CPU and on the GPU at one and two streams."""
    from repro.hardware import intel_cpu, nvidia_gpu

    return itertools.product(
        ("lstm1", "lstm", "tree_lstm"), ("dynamic", "specialized", "rolled", "batched"),
        ((intel_cpu, 1), (nvidia_gpu, 1), (nvidia_gpu, 2)))


class TestMultiOutputFusionDifferential:
    """The whole pipeline with the multi-output merge and with it
    replaced by a no-op, and with a gate split joining its GEMM and
    without: bitwise-equal outputs, fewer kernels. The same for CPU BERT
    with and without its combined Q/K/V GEMM, whose head split fuses
    into it."""

    @staticmethod
    def _build_and_run(model, tier, platform, streams):
        import dataclasses

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
        if model.startswith("lstm"):
            mod = build_lstm_module(LSTMWeights.create(
                input_size=12, hidden_size=16, num_layers=1 if model == "lstm1" else 2, seed=0))
            members = [rng.randn(5, 12).astype(np.float32) for _ in range(3)]
            if tier == "dynamic":
                exe = nimble.build(mod, platform, options=options)[0]
                inputs = [rng.randn(3, 12).astype(np.float32)] + members
            elif tier in ("specialized", "rolled"):
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
        if tier == "rolled":
            exe = dataclasses.replace(exe, specialized_shapes=None, specialized_batch=None)
        vm = VirtualMachine(exe, ExecutionContext(platform, numerics="full"))
        return len(exe.kernels), [vm.run(x).numpy().tobytes() for x in inputs]

    def _fewer_kernels_same_outputs(self, case, switch_off):
        """Build and run *case*, then again after *switch_off()*: fewer
        kernels before, the same output bytes. A Tree entry cannot be
        stacked, so its batched build is refused both times."""
        from repro.passes.specialize import BatchSpecializeError

        model, tier, (make_platform, streams) = case

        def build():
            return self._build_and_run(model, tier, make_platform(), streams)

        try:
            on = build()
        except BatchSpecializeError:
            on = None
        switch_off()
        if on is None:
            with pytest.raises(BatchSpecializeError):
                build()
            return
        off = build()
        assert on[0] < off[0]
        assert on[1] == off[1]

    @pytest.mark.parametrize(
        "case", _differential_cases(),
        ids=lambda c: f"{c[0]}-{c[1]}-{c[2][0].__name__}x{c[2][1]}")
    def test_merge_changes_kernels_not_outputs(self, case, monkeypatch):
        from repro.passes.fuse_ops import _Fuser

        self._fewer_kernels_same_outputs(case, lambda: monkeypatch.setattr(
            _Fuser, "_merge_tuple_group", lambda self, *args: None))

    @pytest.mark.parametrize(
        "case", _differential_cases(),
        ids=lambda c: f"{c[0]}-{c[1]}-{c[2][0].__name__}x{c[2][1]}")
    def test_gate_split_joining_its_gemm_changes_kernels_not_outputs(self, case, monkeypatch):
        import repro.passes.fuse_ops as fuse_ops

        self._fewer_kernels_same_outputs(case, lambda: monkeypatch.setattr(
            fuse_ops, "_splits_dense", lambda *args: False))

    @staticmethod
    def _bert_outputs():
        """(kernels, head-split kernels, output bytes) of toy CPU BERT per
        tier: dynamic and partial over three lengths, the exact variant
        linked and rolled, the batch-4 variant, and the exact and batched
        variants replayed from their launch tapes."""
        import dataclasses

        import repro.nimble as nimble
        from repro.hardware import intel_cpu
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.vm.interpreter import VirtualMachine
        from repro.vm.tape import LaunchTape

        mod = build_bert_module(
            BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))
        rng = np.random.RandomState(0)
        rows = [rng.randn(n, 24).astype(np.float32) for n in (1, 5, 9)]
        fives = [rng.randn(5, 24).astype(np.float32) for _ in range(4)]
        exact = nimble.specialize(mod, intel_cpu(), shapes=[(5, 24)])[0]
        tiers = {
            "dynamic": (nimble.build(mod, intel_cpu())[0], rows),
            "exact": (exact, fives),
            "rolled": (dataclasses.replace(exact, specialized_shapes=None,
                                           specialized_batch=None), fives),
            "partial": (nimble.specialize(mod, intel_cpu(), shapes=[(None, 24)])[0], rows),
            "batched": (nimble.specialize(mod, intel_cpu(), shapes=[(5, 24)], batch=4)[0],
                        [np.concatenate(fives)]),
        }
        outputs = {}
        for tier, (exe, inputs) in tiers.items():
            heads = [k.name for k in exe.kernels if "split" in getattr(k, "name", "")]
            outputs[tier] = (len(exe.kernels), heads,
                             [VirtualMachine(exe).run(x).numpy().tobytes() for x in inputs])
        for tier in ("exact", "batched"):
            exe, inputs = tiers[tier]
            outputs[f"{tier}_tape"] = outputs[tier][:2] + (
                [LaunchTape(exe, x).replay()[0].numpy().tobytes() for x in inputs],)
        return outputs

    def test_cpu_bert_is_bitwise_the_pipeline_without_combined_gemms(self, monkeypatch):
        """With ``CombineParallelDense`` each layer's stacked Q/K/V GEMM,
        its split and the head reshapes are one kernel; without it each
        projection is its own kernel. Every tier runs to the same bytes."""
        from repro.passes import CombineParallelDense

        combined = self._bert_outputs()
        monkeypatch.setattr(CombineParallelDense, "run", lambda self, mod: mod)
        separate = self._bert_outputs()
        for tier in combined:
            assert combined[tier][2] == separate[tier][2], tier
            assert combined[tier][0] < separate[tier][0], tier
            (heads,) = combined[tier][1]
            assert heads.startswith("fused_nn.dense+nn.bias_add+split+"), tier
            assert separate[tier][1] == [], tier

    def test_the_gpu_bert_plan_does_not_move(self, monkeypatch):
        """A GPU build runs no ``CombineParallelDense``, so BERT has no
        split for the rule to join to a GEMM: the `bert3@gpu4` plan and
        bytes pinned in `tests/test_memory_device.py` hold with the rule
        and without it."""
        import hashlib
        from dataclasses import asdict

        import repro.passes.fuse_ops as fuse_ops
        from repro.core.memory import MemoryPlan
        from repro.ir import pretty_module
        from test_memory_device import _PARENT_COMMIT_PLANS, _planned_models

        (compile_,) = [c for name, c in _planned_models() if name == "bert3@gpu4"]
        planned, real_run = [], MemoryPlan.run

        def recording_run(self, mod):
            planned.append(real_run(self, mod))
            return planned[-1]

        def reading():
            del planned[:]
            exe, report = compile_()
            (module,) = planned
            return (hashlib.sha256(pretty_module(module).encode()).hexdigest(),
                    asdict(report.memory), hashlib.sha256(exe.save()).hexdigest())

        monkeypatch.setattr(MemoryPlan, "run", recording_run)
        assert reading() == _PARENT_COMMIT_PLANS["bert3@gpu4"]
        monkeypatch.setattr(fuse_ops, "_splits_dense", lambda *args: False)
        assert reading() == _PARENT_COMMIT_PLANS["bert3@gpu4"]


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
    it is. CPU BERT with and without the pass, on every tier, is
    `TestMultiOutputFusionDifferential`'s."""

    @staticmethod
    def _combined(func):
        from repro.passes import CombineParallelDense

        mod = IRModule.from_expr(func)
        return mod, CombineParallelDense().run(mod)

    @staticmethod
    def _ops(func):
        return [v.op.name for _, v in let_chain(func.body)[0]
                if isinstance(v, Call) and isinstance(v.op, Op)]

    @pytest.mark.parametrize("rows", [(4, 4, 4), (3, 5)], ids=["equal", "unequal"])
    def test_branches_on_one_input_become_one_gemm_with_bitwise_outputs(self, rows):
        from repro.evaluator import evaluate

        x = Var("x", TensorType((Any(), 8), "float32"))
        func = Function([x], _branches(x, *[_weight(r) for r in rows]))
        before, after = self._combined(func)
        assert self._ops(after.main) == ["nn.dense", "nn.bias_add", "split"]
        (dense,) = [v for _, v in let_chain(after.main.body)[0] if isinstance(v, Call)
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
    return [FoldConstant(), ToANF(), CommonSubexprElimination(), *one_queue, LambdaLift(),
            FuseOps(), ManifestAlloc(), DevicePlace(platform.host, platform.compute),
            MemoryPlan()]


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
                  "CombineParallelDense", "MemoryPlan")

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
        hashing: 11 inferences each, and 15,065,104 / 18,954,264 bytes;
        7 each while the prefix ran ``SimplifyExpressions``, which read
        types. CI's "Size trajectory" step prints the line."""
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
            assert w["inferences"] <= 6, name
            assert w["hashed"] <= 64 * 1024, name


# ---------------------------------------------------------------------------
# Every normalization pass rewrites some model
# ---------------------------------------------------------------------------


def _normalizations(compile_):
    """What *compile_* returns, and the normalizing pipelines it runs as
    (stage, passes, input module): the prefix's whole pipeline, and the
    passes a suffix runs before ``FuseOps`` (a batched variant
    re-normalizes there)."""
    from repro.passes import Sequential

    runs = []
    real_run = Sequential.run

    def recording(self, mod):
        passes = list(itertools.takewhile(lambda p: not isinstance(p, FuseOps), self.passes))
        if passes:
            stage = "suffix" if len(passes) < len(self.passes) else "prefix"
            runs.append((stage, passes, mod))
        return real_run(self, mod)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sequential, "run", recording)
        return compile_(), runs


class TestEveryPassIsReached:
    # A pass no model needs, kept for a named reason.
    EXEMPT = {
        "LambdaLift": "no model has a closure literal, and the VM compiler needs "
                      "lifted closures (tests/test_closures.py)",
    }

    def test_every_normalization_pass_rewrites_some_model(self):
        """A normalization pass stays only if the pipeline without it
        gives some small-size model builder's module a different
        ``module_fingerprint`` on ``intel_cpu`` or ``nvidia_gpu``: in the
        prefix, over every builder; in the batched suffix, over LSTM and
        BERT at batch 2. A pass that rewrites nothing is risk without
        work, and is deleted rather than kept."""
        import repro.nimble as nimble
        from repro.hardware import intel_cpu, nvidia_gpu
        from repro.ir.printer import module_fingerprint
        from repro.models import (BertConfig, BertWeights, LSTMWeights, TreeLSTMWeights,
                                  build_bert_module, build_gram_module, build_lstm_module,
                                  build_mobilenet_like, build_resnet_like,
                                  build_squeezenet_like, build_tree_lstm_module,
                                  build_vgg_like)
        from repro.passes import Sequential

        def fingerprint(passes, mod):
            return module_fingerprint(Sequential([type(p)() for p in passes]).run(mod))

        runs = []
        for platform in (intel_cpu(), nvidia_gpu()):
            models = [
                (build_lstm_module(LSTMWeights.create(8, 16, seed=0)), (5, 8)),
                (build_lstm_module(LSTMWeights.create(8, 16, num_layers=2, seed=0)), (5, 8)),
                (build_bert_module(BertWeights.create(
                    BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32), seed=0)), (5, 16)),
                (build_tree_lstm_module(TreeLSTMWeights.create(8, 4, seed=0)), None),
                (build_gram_module(), None),
                *((build(image=16), None) for build in (
                    build_resnet_like, build_mobilenet_like, build_vgg_like,
                    build_squeezenet_like)),
            ]
            for mod, member in models:
                prefix, found = _normalizations(lambda: nimble.build_prefix(mod, platform))
                runs += found
                if member is not None:
                    runs += _normalizations(lambda: nimble.specialize(
                        mod, platform, shapes=[member], batch=2, prefix=prefix))[1]

        stages = {stage: set() for stage, _, _ in runs}
        reached = {stage: set() for stage in stages}
        for stage, passes, mod in runs:
            stages[stage].update(type(p).__name__ for p in passes)
            whole = fingerprint(passes, mod)
            for i, p in enumerate(passes):
                if fingerprint(passes[:i] + passes[i + 1:], mod) != whole:
                    reached[stage].add(type(p).__name__)
        assert set(stages) == {"prefix", "suffix"}
        assert set(self.EXEMPT) <= stages["prefix"]
        unreached = {stage: sorted(names - reached[stage] - set(self.EXEMPT))
                     for stage, names in stages.items()}
        assert not any(unreached.values()), f"passes that rewrite no model: {unreached}"
        assert not set(self.EXEMPT) & set().union(*reached.values()), "a stale exemption"

    @pytest.mark.parametrize("make_platform", ["intel_cpu", "nvidia_gpu"])
    @pytest.mark.parametrize("cascading", [False, True], ids=["independent", "cascading"])
    def test_a_dead_binding_compiles_verifies_and_runs(self, make_platform, cascading):
        """No pass drops dead bindings: a module with some still builds,
        verifies and computes its live output, dynamic and batched,
        launching the dead kernels too. A cascading one is dead only
        because the binding that reads it is."""
        import repro.hardware as hardware

        x = Var("x", TensorType((Any(), 8)))
        sb = ScopeBuilder()
        dead = sb.let("dead", api.dense(x, const(np.ones((8, 8), np.float32))))
        sb.let("dead2", api.tanh(dead if cascading else x))
        live = sb.let("live", api.relu(x))
        mod = IRModule.from_expr(Function([x], sb.get(live)))
        dead_kernels = ({"fused_nn.dense+tanh"} if cascading
                        else {"fused_nn.dense", "fused_tanh"})
        for exe, args, vm in _built_and_run(mod, getattr(hardware, make_platform)()):
            assert dead_kernels <= {k.name for k in exe.kernels}
            assert np.array_equal(vm.run(args).numpy(), np.maximum(args, 0))
            assert vm.ctx.allocator.live_bytes == 0

    @pytest.mark.parametrize("make_platform", ["intel_cpu", "nvidia_gpu"])
    @pytest.mark.parametrize("case", ["identity_reshape", "add_zero", "mul_one", "real_reshape"])
    def test_an_algebraic_identity_is_computed_as_written(self, case, make_platform):
        """No pass removes an identity reshape, an add of 0 or a multiply
        by 1: a module with one still builds, verifies and computes what
        the evaluator does, dynamic and batched, as a real reshape does."""
        import repro.hardware as hardware
        from repro.evaluator import evaluate

        x = Var("x", TensorType((Any(), 8)))
        body = {
            "identity_reshape": lambda: api.reshape(x, (-1, 8)),
            "add_zero": lambda: api.add(x, const(0.0)),
            "mul_one": lambda: api.multiply(x, const(1.0)),
            "real_reshape": lambda: api.reshape(x, (-1, 2, 4)),
        }[case]()
        mod = IRModule.from_expr(Function([x], api.tanh(body)))
        for exe, args, vm in _built_and_run(mod, getattr(hardware, make_platform)()):
            out = vm.run(args).numpy()
            assert np.array_equal(out, evaluate(mod, args))
            assert out.size == args.size
            assert vm.ctx.allocator.live_bytes == 0


def _built_and_run(mod, platform):
    """``(executable, input, VM)`` for *mod*'s dynamic build on a (3, 8)
    input and its batch-2 variant on two of them, each executable
    verified."""
    import repro.nimble as nimble
    from repro.analysis import verify_executable
    from repro.vm.interpreter import VirtualMachine

    xs = np.random.RandomState(0).randn(3, 8).astype(np.float32)
    for exe, args in (
        (nimble.build(mod, platform)[0], xs),
        (nimble.specialize(mod, platform, shapes=[(3, 8)], batch=2)[0],
         np.concatenate([xs, xs])),
    ):
        assert verify_executable(exe) == []
        yield exe, args, VirtualMachine(exe)
