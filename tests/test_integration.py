"""End-to-end integration: dynamic ops through the full pipeline, data
distributions, experiment harness smoke tests, cross-executor agreement."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.data import Tree, embedding_table, mrpc_like_lengths, sst_like_trees
from repro.hardware import arm_cpu, intel_cpu, nvidia_gpu
from repro.ir import Any, Function, IRModule, TensorType, Var, const
from repro.ops import api
from repro.runtime.context import ExecutionContext
from repro.vm.interpreter import VirtualMachine


class TestDynamicOpsEndToEnd:
    def _run(self, func, *inputs, platform=None):
        exe, report = nimble.build(IRModule.from_expr(func), platform or intel_cpu())
        vm = VirtualMachine(exe)
        return vm.run(*inputs), vm, report

    def test_arange_dynamic_output(self):
        stop = Var("stop", TensorType((), "float32"))
        func = Function([stop], api.arange(const(0.0), stop, const(1.0)))
        out, _, _ = self._run(func, np.float32(6.0))
        assert out.numpy().tolist() == [0, 1, 2, 3, 4, 5]
        out2, _, _ = self._run(func, np.float32(2.0))
        assert out2.numpy().tolist() == [0, 1]

    def test_unique_through_vm(self):
        x = Var("x", TensorType((6,), "int64"))
        func = Function([x], api.unique(x))
        out, _, _ = self._run(func, np.array([5, 1, 5, 2, 1, 5], np.int64))
        assert out.numpy().tolist() == [1, 2, 5]

    def test_nms_upper_bound_through_vm(self):
        boxes = Var("b", TensorType((4, 4), "float32"))
        scores = Var("s", TensorType((4,), "float32"))
        func = Function([boxes, scores], api.non_max_suppression(boxes, scores))
        b = np.array(
            [[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60], [0, 0, 9, 9]],
            np.float32,
        )
        s = np.array([0.9, 0.8, 0.95, 0.3], np.float32)
        out, _, _ = self._run(func, b, s)
        # Result is sliced to the true count (upper-bound contract, §4.2).
        assert out.shape[0] < 4
        assert 2 in out.numpy()  # disjoint high-score box survives

    def test_growing_tensor_loop(self):
        """The §4.1 motivating case: a tensor that grows each iteration
        (decoder-style) — typed with Any, executed by the VM."""
        from repro.ir import Call, If, scalar_type

        mod = IRModule()
        gv = mod.get_global_var("grow")
        i = Var("i", scalar_type("int64"))
        n = Var("n", scalar_type("int64"))
        acc = Var("acc", TensorType((Any(), 2), "float32"))
        step = api.concatenate([acc, const(np.ones((1, 2), np.float32))], axis=0)
        body = If(
            api.less(i, n),
            Call(gv, [api.add(i, const(np.int64(1), "int64")), n, step]),
            acc,
        )
        mod[gv] = Function([i, n, acc], body, TensorType((Any(), 2), "float32"))
        seed = Var("seed", TensorType((1, 2), "float32"))
        main_n = Var("n", scalar_type("int64"))
        mod["main"] = Function(
            [main_n, seed],
            Call(gv, [const(np.int64(0), "int64"), main_n, seed]),
        )
        exe, _ = nimble.build(mod, intel_cpu())
        out = VirtualMachine(exe).run(np.int64(4), np.zeros((1, 2), np.float32))
        assert out.shape == (5, 2)

    def test_gpu_platform_agrees_with_cpu(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = const(np.random.RandomState(0).randn(4, 8).astype(np.float32))
        func = Function([x], api.softmax(api.dense(x, w)))
        data = np.random.RandomState(1).randn(5, 8).astype(np.float32)
        outs = []
        for platform in (intel_cpu(), nvidia_gpu(), arm_cpu()):
            exe, _ = nimble.build(IRModule.from_expr(func), platform)
            outs.append(VirtualMachine(exe).run(data).numpy())
        assert np.allclose(outs[0], outs[1], atol=1e-5)
        assert np.allclose(outs[0], outs[2], atol=1e-5)

    def test_latency_deterministic(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = const(np.zeros((4, 8), np.float32))
        func = Function([x], api.dense(x, w))
        data = np.zeros((3, 8), np.float32)
        lats = []
        for _ in range(2):
            exe, _ = nimble.build(IRModule.from_expr(func), intel_cpu())
            ctx = ExecutionContext(intel_cpu())
            VirtualMachine(exe, ctx).run(data)
            lats.append(ctx.elapsed_us)
        assert lats[0] == lats[1]


class TestData:
    def test_mrpc_lengths_distribution(self):
        lengths = mrpc_like_lengths(500, seed=0)
        assert all(7 <= l <= 40 for l in lengths)
        assert 15 < np.mean(lengths) < 27

    def test_mrpc_seeded(self):
        assert mrpc_like_lengths(10, seed=1) == mrpc_like_lengths(10, seed=1)
        assert mrpc_like_lengths(10, seed=1) != mrpc_like_lengths(10, seed=2)

    def test_sst_trees_are_binary(self):
        for tree in sst_like_trees(20, seed=0):
            stack = [tree]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    assert node.left is not None and node.right is not None
                    stack.extend([node.left, node.right])
                else:
                    assert node.token_id >= 0

    def test_sst_leaf_distribution(self):
        trees = sst_like_trees(200, seed=1)
        mean_leaves = np.mean([t.num_leaves() for t in trees])
        assert 13 < mean_leaves < 25

    def test_tree_levels_respect_children(self):
        tree = sst_like_trees(1, seed=2)[0]
        levels = tree.nodes_by_depth()
        assert all(n.is_leaf for n in levels[0])
        assert levels[-1] and not levels[-1][0].is_leaf

    def test_embedding_table_shape(self):
        emb = embedding_table(vocab_size=10, dim=7)
        assert emb.shape == (10, 7) and emb.dtype == np.float32


class TestHarnessSmoke:
    """Tiny-config smoke runs of each experiment; the benchmarks run the
    paper-sized versions."""

    def test_table1_shape(self):
        from repro.harness import table1_lstm

        r = table1_lstm(
            num_sentences=2, platforms=("intel",), layer_counts=(1,),
            input_size=16, hidden_size=8,
        )
        row = r[1]["intel"]
        assert set(row) == {"nimble", "pytorch", "mxnet", "tensorflow"}
        assert row["nimble"] < row["tensorflow"]

    def test_table2_shape(self):
        from repro.harness import table2_tree_lstm

        r = table2_tree_lstm(num_trees=2, platforms=("intel",), input_size=16, hidden_size=8)
        assert r["intel"]["nimble"] < r["intel"]["pytorch"]
        assert r["intel"]["tf_fold"] is not None

    def test_table2_fold_missing_on_arm(self):
        from repro.harness import table2_tree_lstm

        r = table2_tree_lstm(num_trees=1, platforms=("arm",), input_size=16, hidden_size=8)
        assert r["arm"]["tf_fold"] is None

    def test_table4_overhead_positive(self):
        from repro.harness import table4_overhead
        from repro.models.bert import BertConfig

        cfg = BertConfig(hidden=32, num_layers=1, num_heads=2, ffn=64)
        r = table4_overhead(platforms=("intel",), config=cfg, seq_len=16)
        row = r["intel"]
        assert row["nimble_ms"] >= row["kernel_ms"]
        assert row["others_ms"] >= 0

    @pytest.mark.parametrize("platform", ["intel", "arm"])
    def test_table4_others_are_the_sum_of_their_parts_on_a_cpu(self, platform):
        """On a CPU nothing overlaps the kernels: kernel time plus
        dispatch, shape functions, allocation, copies and sync is the
        whole inference."""
        from repro.harness import table4_overhead
        from repro.models.bert import BertConfig

        cfg = BertConfig(hidden=32, num_layers=1, num_heads=2, ffn=64)
        row = table4_overhead(platforms=(platform,), config=cfg, seq_len=16)[platform]
        parts = ("dispatch_ms", "shape_func_ms", "alloc_ms", "copy_ms", "sync_ms")
        assert row["kernel_ms"] + sum(row[p] for p in parts) == pytest.approx(
            row["nimble_ms"], rel=1e-9)
        assert row["instructions"] > row["alloc_storages"] > 0 and row["shape_funcs"] > 0

    def test_figure3_monotone(self):
        from repro.harness import figure3_dispatch

        r = figure3_dispatch(rows=range(1, 33))
        for dense, row in r.items():
            assert row["static"] == 100.0
            assert row["dispatch/8"] <= row["dispatch/4"] <= row["no dispatch"]

    def test_memory_planning_reduces_allocs(self):
        from repro.harness.experiments import memory_planning_study
        from repro.models.bert import BertConfig

        cfg = BertConfig(hidden=32, num_layers=2, num_heads=2, ffn=64)
        r = memory_planning_study(config=cfg, seq_len=16)
        assert r["allocs_planned"] < r["allocs_unplanned"]
        assert r["alloc_latency_planned_ms"] < r["alloc_latency_unplanned_ms"]

    def test_memory_footprint_vs_static(self):
        from repro.harness.experiments import memory_footprint_vs_static

        r = memory_footprint_vs_static()
        assert set(r) == {"resnet", "mobilenet", "vgg", "squeezenet"}
        for model, row in r.items():
            # Nimble's dynamic allocator should be within a modest factor
            # of the fully-static plan (paper: <= 8% extra).
            assert row["nimble_bytes"] <= row["static_bytes"] * 1.6


class TestScenarioRunner:
    """The machinery every serving study runs on (`repro.harness.scenario`),
    on a 16-request toy LSTM: the studies themselves take a minute."""

    def _scenario(self):
        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.serve import ServeConfig, lstm_traffic

        mod = build_lstm_module(LSTMWeights.create(8, 8, num_layers=1, seed=0))
        trace = lstm_traffic(16, input_size=8, mean_interarrival_us=100.0, seed=0)
        config = ServeConfig(
            max_batch_size=4, specialize=True, specialize_threshold=2,
            specialize_compile_us=200.0,
        )
        return mod, intel_cpu(), trace, config

    def _study(self, *variants, summary=None):
        """The same toy as a declaration, with the store-split row."""
        from functools import partial

        from repro.harness.scenario import Study
        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.serve import lstm_traffic

        *_, config = self._scenario()
        return Study(
            partial(build_lstm_module, LSTMWeights.create(8, 8, num_layers=1, seed=0)),
            "intel",
            partial(lstm_traffic, 16, input_size=8, mean_interarrival_us=100.0),
            config,
            variants,
            row=("fresh_compiles", "restored", "specialized_hits", "deterministic"),
            summary=summary,
        )

    def test_run_step_replays_over_a_store(self, tmp_path):
        from repro.harness.scenario import run_scenario
        from repro.store import ArtifactStore

        store = str(tmp_path / "store")
        run = run_scenario(*self._scenario(), artifact_dir=store)
        assert ArtifactStore(store).keys()  # the store was really used
        assert run.deterministic
        assert run.report.specialized_hits > 0

    def test_variants_naming_one_store_share_it_in_order(self):
        """The second of two variants over one named store restores what
        the first compiled, and computes bitwise what the first did."""
        from repro.harness.scenario import Variant, outputs_equal, run_study

        study = self._study(
            Variant("cold", store="store"),
            Variant("warm", store="store"),
            summary=lambda runs: {
                "bit_identical": outputs_equal(runs["cold"].report, runs["warm"].report)
            },
        )
        result = run_study(study)
        assert result["cold"]["fresh_compiles"] > 0
        assert result["warm"]["fresh_compiles"] == 0.0
        assert result["warm"]["restored"] > 0
        assert result["summary"] == {"bit_identical": 1.0}
        # Every measure is cast: rows hold floats only.
        assert {type(v) for row in result.values() for v in row.values()} == {float}

    def test_in_memory_variants_make_no_directory(self, tmp_path, monkeypatch):
        import os
        import tempfile

        from repro.harness.scenario import Variant, run_study

        def refuse(*args, **kwargs):
            raise AssertionError("an in-memory study made a scratch root")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        assert run_study(self._study(Variant("memory")))["memory"]["deterministic"] == 1.0
        root = tmp_path / "root"
        root.mkdir()
        run_study(self._study(Variant("memory"), Variant("disk", store="disk")), str(root))
        assert os.listdir(root) == ["disk"]

    def test_owned_store_is_removed_on_error(self, tmp_path, monkeypatch):
        """A run that raises leaves no owned root behind; a caller's
        directory is kept with what the runs before it wrote."""
        import os
        import tempfile

        from repro.harness.scenario import Variant, run_study
        from repro.store import ArtifactStore

        made = []
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(
            tempfile, "mkdtemp", lambda **kw: made.append(mkdtemp(**kw)) or made[-1]
        )
        # The second variant's config is refused when its server is built.
        study = self._study(
            Variant("cold", store="store"),
            Variant("broken", {"num_workers": 0}, store="store"),
        )
        with pytest.raises(ValueError, match="num_workers"):
            run_study(study)
        assert len(made) == 1 and not os.path.exists(made[0])
        given = tmp_path / "given"
        with pytest.raises(ValueError, match="num_workers"):
            run_study(study, str(given))
        assert ArtifactStore(str(given / "store")).keys()

    def test_every_serving_study_row_names_a_measure(self, monkeypatch):
        """A misspelt measure fails here, not after a minute of
        simulation: each declared serving study (the constants, and what
        the parameterized studies declare at their defaults) names only
        measures of the table, and no two of its variants share a name."""
        from repro.harness import experiments
        from repro.harness.scenario import MEASURES, Study

        declared = [v for v in vars(experiments).values() if isinstance(v, Study)]
        monkeypatch.setattr(
            experiments, "run_study", lambda study, *a, **k: declared.append(study) or {}
        )
        experiments.serving_study()
        experiments.serving_study(model="bert")
        experiments.compile_pool_study()
        assert len(declared) == 9
        for study in declared:
            assert set(study.row) <= MEASURES.keys()
            names = [v.name for v in study.variants]
            assert len(set(names)) == len(names) and "summary" not in names

    def test_one_altered_output_is_not_deterministic(self, monkeypatch):
        """The determinism flag covers outputs, not only counters: a
        replay that differs in one element of one response reads false."""
        from repro.harness.scenario import run_scenario
        from repro.serve import InferenceServer
        from repro.tensor.ndarray import array

        simulate = InferenceServer.simulate
        reports = []

        def tampering(server, trace):
            report = simulate(server, trace)
            reports.append(report)
            if len(reports) == 2:  # the replay
                altered = report.responses[7].output.numpy().copy()
                altered.flat[0] += 1.0
                report.responses[7].output = array(altered)
            return report

        monkeypatch.setattr(InferenceServer, "simulate", tampering)
        run = run_scenario(*self._scenario())
        assert reports[0].counters() == reports[1].counters()
        assert not run.deterministic
