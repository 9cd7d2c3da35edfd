"""Baseline frameworks, the launch tape, clock, allocator."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.baselines
import repro.nimble as nimble
from repro.baselines import EagerFramework, FoldFramework, GraphFramework, HybridFramework, overhead
from repro.data import embedding_table, sst_like_trees
from repro.data.trees import Tree
from repro.errors import VMError
from repro.evaluator import evaluate
from repro.hardware import arm_cpu, intel_cpu, nvidia_gpu, platform_by_name
from repro.models.bert import BertConfig, BertWeights, bert_reference, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_lstm_reference,
    tree_to_adt,
)
from repro.models.vision import (
    build_mobilenet_like,
    build_resnet_like,
    build_squeezenet_like,
    build_vgg_like,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.context import ExecutionContext
from repro.tensor.device import gpu
from repro.vm.interpreter import VirtualMachine
from repro.vm.tape import LaunchTape


class TestVirtualClock:
    def test_sync_execution(self):
        clock = VirtualClock()
        clock.run_sync(10.0)
        assert clock.elapsed_us == 10.0

    def test_async_overlap(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 100.0, enqueue_us=1.0)
        clock.host_advance(50.0)  # overlapped host work
        assert clock.host_us == 51.0
        assert clock.elapsed_us == 101.0  # device finishes at 1 + 100

    def test_sync_waits_for_queue(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 100.0, enqueue_us=1.0)
        clock.sync(dev)
        assert clock.host_us == 101.0

    def test_queue_serializes_kernels(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 10.0, 1.0)
        clock.launch_async(dev, 10.0, 1.0)
        assert clock.elapsed_us == pytest.approx(21.0)

    def test_zero_duration_launch(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 0.0, enqueue_us=1.0)
        # A zero-length kernel still occupies a queue slot: the stream's
        # frontier lands exactly at enqueue time, never before host time.
        assert clock.stream_ready_us[(dev, 0)] == 1.0
        assert clock.elapsed_us == 1.0
        clock.launch_async(dev, 5.0, enqueue_us=1.0)
        assert clock.elapsed_us == pytest.approx(7.0)

    def test_sync_with_no_pending_work(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.host_advance(3.0)
        clock.sync(dev)  # nothing enqueued: a no-op
        clock.sync_all()
        assert clock.host_us == 3.0
        assert clock.elapsed_us == 3.0
        assert clock.device_ready(dev) == 0.0

    def test_interleaved_advance_to_and_run_sync(self):
        clock = VirtualClock()
        clock.run_sync(10.0)
        clock.advance_to(5.0)  # already past: must not rewind
        assert clock.host_us == 10.0
        clock.advance_to(20.0)
        assert clock.host_us == 20.0
        clock.run_sync(2.5)
        assert clock.host_us == 22.5
        # advance_to is idle wall time, run_sync is work: ordering of an
        # advance between two kernels only fast-forwards the gap.
        clock.advance_to(22.5)
        assert clock.elapsed_us == 22.5

    def test_streams_are_independent_queues(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 100.0, 1.0, stream=0)
        clock.launch_async(dev, 100.0, 1.0, stream=1)
        # Two streams overlap; the second kernel starts when its enqueue
        # lands (host at 2.0), not after the first retires.
        assert clock.stream_ready_us[(dev, 0)] == 101.0
        assert clock.stream_ready_us[(dev, 1)] == 102.0
        assert clock.elapsed_us == 102.0

    def test_record_event_on_idle_stream_is_host_time(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.host_advance(7.0)
        ts = clock.record_event(dev, 3, host_cost_us=1.0)
        # Nothing pending on the stream: the event completes at record
        # time (host after paying the record cost).
        assert ts == 8.0
        assert clock.host_us == 8.0

    def test_wait_event_charges_sync_only_on_stall(self):
        clock = VirtualClock()
        dev = gpu(0)
        clock.launch_async(dev, 100.0, 1.0, stream=0)
        ts = clock.record_event(dev, 0, host_cost_us=1.0)
        assert ts == 101.0
        # Stream 1 is behind the event: it stalls to the event plus the
        # propagation charge, and the stall is returned.
        stall = clock.wait_event(dev, 1, ts, host_cost_us=1.0, sync_us=1.5)
        assert stall == pytest.approx(102.5)
        assert clock.stream_ready_us[(dev, 1)] == pytest.approx(102.5)
        # A wait on an already-complete event is free on the device: no
        # frontier movement, no sync charge, zero stall.
        clock.launch_async(dev, 150.0, 1.0, stream=2)
        before = clock.stream_ready_us[(dev, 2)]
        assert before > ts
        stall2 = clock.wait_event(dev, 2, ts, host_cost_us=1.0, sync_us=1.5)
        assert stall2 == 0.0
        assert clock.stream_ready_us[(dev, 2)] == before

    def test_single_stream_reproduces_single_lane_model(self):
        a, b = VirtualClock(), VirtualClock()
        dev = gpu(0)
        for clock in (a, b):
            clock.run_sync(2.0)
        a.launch_async(dev, 10.0, 1.0)  # pre-streams call shape
        b.launch_async(dev, 10.0, 1.0, stream=0)
        assert a.elapsed_us == b.elapsed_us
        a.sync(dev)
        b.sync(dev)
        assert a.host_us == b.host_us


class TestAllocator:
    def test_pool_hit_cheaper_than_fresh(self):
        from repro.hardware import calibration

        ctx = ExecutionContext(intel_cpu())
        alloc = ctx.allocator
        s = alloc.alloc(1000, 64, intel_cpu().host)
        alloc.free(s)
        s2 = alloc.alloc(900, 64, intel_cpu().host)  # same size class
        assert alloc.stats.pooled_allocs == 1
        assert alloc.stats.fresh_allocs == 1

    def test_peak_tracking(self):
        ctx = ExecutionContext(intel_cpu())
        a = ctx.allocator.alloc(1024, 64, intel_cpu().host)
        b = ctx.allocator.alloc(1024, 64, intel_cpu().host)
        ctx.allocator.free(a)
        ctx.allocator.alloc(512, 64, intel_cpu().host)
        assert ctx.allocator.stats.peak_bytes == 2048

    def test_double_free_ignored(self):
        ctx = ExecutionContext(intel_cpu())
        s = ctx.allocator.alloc(64, 64, intel_cpu().host)
        ctx.allocator.free(s)
        ctx.allocator.free(s)
        assert ctx.allocator.stats.frees == 1


def _small_bert() -> BertWeights:
    return BertWeights.create(BertConfig(hidden=64, num_layers=2, num_heads=2, ffn=128), seed=0)


class TestLaunchTape:
    """The launch tape (`repro.vm.tape`), Table 4's static baseline,
    against the interpreter it records from: the same launches, so the
    same outputs bit for bit and the same kernel charge."""

    @staticmethod
    def _replay_both(exe, x):
        """(VM latency, tape latency, launches) of one full-numerics run
        each, after checking outputs and Σ kernel charge are equal."""
        vm = VirtualMachine(exe)
        expected, vm_us = vm.run_with_latency(x)
        tape = LaunchTape(exe, x)
        out, tape_us = tape.replay()
        assert out.numpy().dtype == expected.numpy().dtype
        assert out.numpy().tobytes() == expected.numpy().tobytes()
        assert tape.kernel_time_us == vm.profile.kernel_time_us
        return vm_us, tape_us, len(tape.launches)

    @pytest.mark.parametrize("platform", [intel_cpu, nvidia_gpu, arm_cpu])
    def test_specialized_bert_replays_the_interpreter(self, platform):
        """On `intel_cpu` it prints what the VM pays around the same
        kernels — dispatch and allocation of a static executable — which
        CI's "Size trajectory" step shows."""
        exe, _ = nimble.specialize(build_bert_module(_small_bert()), platform(), shapes=[(6, 64)])
        x = np.random.RandomState(1).randn(6, 64).astype(np.float32)
        vm_us, tape_us, launches = self._replay_both(exe, x)
        assert tape_us < vm_us
        if platform is intel_cpu:
            print(f"specialized BERT VM minus its tape (intel_cpu): {vm_us - tape_us:.2f} us "
                  f"over {launches} launches")

    @pytest.mark.parametrize(
        "builder", [build_resnet_like, build_mobilenet_like, build_vgg_like, build_squeezenet_like])
    def test_cv_models_replay_the_interpreter(self, builder):
        exe, _ = nimble.build(builder(image=32), intel_cpu())
        self._replay_both(exe, np.random.RandomState(0).randn(1, 3, 32, 32).astype(np.float32))

    @pytest.mark.parametrize("case, opcode", [
        ("dynamic bert", "ShapeOf"),
        ("lstm", "Invoke"),
        ("bert on two gpu streams", "StreamEvent"),
    ])
    def test_refuses_what_is_not_one_static_launch_sequence(self, case, opcode):
        bert = build_bert_module(_small_bert())
        exe = {
            "dynamic bert": lambda: nimble.build(bert, intel_cpu()),
            "lstm": lambda: nimble.build(build_lstm_module(LSTMWeights.create(8, 4, 1)), intel_cpu()),
            "bert on two gpu streams": lambda: nimble.specialize(
                bert, nvidia_gpu(), shapes=[(6, 64)],
                options=nimble.CompilerOptions(device_streams=2)),
        }[case]()[0]
        ctx = ExecutionContext(platform_by_name(exe.platform_name))
        with pytest.raises(VMError, match=rf"cannot record .*\b{opcode}\b"):
            LaunchTape(exe, np.zeros((6, 64), np.float32), ctx=ctx)
        assert ctx.elapsed_us == 0.0  # refused before any launch

    def test_a_kernel_with_more_results_than_buffers_fails_the_replay_too(self):
        """Regression: the replay zipped a kernel's buffers with its
        results, so a second result was dropped and a misshapen first one
        broadcast into its buffer. Both launch paths now hand the kernel
        its buffers (`KernelSet.run(inputs, outputs)`), and it checks."""
        from repro.codegen.kernels import KernelSet
        from repro.ir import Function, Tuple
        from repro.ops import api

        platform = intel_cpu()
        exe, _ = nimble.specialize(build_bert_module(_small_bert()), platform, shapes=[(6, 64)])
        index, dense = next((i, k) for i, k in enumerate(exe.kernels)
                            if getattr(k, "name", "") == "fused_nn.dense+nn.bias_add")
        bias = dense.prim.params[-1]  # (64,): broadcasts into the (6, 64) buffer
        exe.kernels[index] = KernelSet(
            Function(dense.prim.params, Tuple([api.tanh(bias), api.tanh(bias)])),
            platform, platform.compute_spec)
        x = np.random.RandomState(1).randn(6, 64).astype(np.float32)
        message = r"kernel fused_tanh\+tanh produced 2 outputs for 1 buffers"
        with pytest.raises(VMError, match=message):
            VirtualMachine(exe).run(x)
        tape = LaunchTape(exe, x)
        with pytest.raises(VMError, match=message):
            tape.replay()

    def test_recording_generates_no_code_a_run_did_not(self):
        """The tape records through the run's own generated code: after
        one run, recording finds every function in the cache."""
        from repro.vm import generator

        exe, _ = nimble.specialize(build_bert_module(_small_bert()), intel_cpu(), shapes=[(6, 64)])
        x = np.zeros((6, 64), np.float32)
        VirtualMachine(exe).run(x)
        cached = set(generator._CACHE)
        LaunchTape(exe, x)
        assert set(generator._CACHE) == cached

    @pytest.mark.parametrize("platform", [intel_cpu, nvidia_gpu])
    def test_launches_are_the_runs_in_order(self, platform, monkeypatch):
        """Kernel and stream of every launch, as the VM's launch log
        holds them when the run ends: 30, and 22 on the CPU since Q/K/V
        run as one GEMM and the head split as one kernel per layer."""
        from repro.vm.profiler import VMProfile

        exe, _ = nimble.specialize(build_bert_module(_small_bert()), platform(), shapes=[(6, 64)])
        assert exe.device_streams == 1
        x = np.random.RandomState(1).randn(6, 64).astype(np.float32)
        logged, record_launches = [], VMProfile.record_launches

        def log(profile, launches):
            logged.extend((kernel, stream) for _, kernel, stream in launches)
            record_launches(profile, launches)

        monkeypatch.setattr(VMProfile, "record_launches", log)
        VirtualMachine(exe).run(x)
        ran = list(logged)
        tape = LaunchTape(exe, x)
        assert [(kernel, stream) for kernel, *_, stream in tape.launches] == ran
        assert len(ran) == (22 if platform is intel_cpu else 30)

    def test_recording_checks_the_entry_guard(self):
        """Inputs that fail a specialized entry's shape guard are refused
        as a run refuses them."""
        from repro.errors import ShapeGuardError

        exe, _ = nimble.specialize(build_bert_module(_small_bert()), intel_cpu(), shapes=[(6, 64)])
        with pytest.raises(ShapeGuardError):
            LaunchTape(exe, np.zeros((7, 64), np.float32))

    def test_tape_latency_is_pinned(self):
        """Node charge plus kernel charge of the 22 launches of small
        BERT at length 6 on `intel_cpu` (30 launches and 79.04 us before
        Q/K/V became one GEMM and the head split one kernel)."""
        exe, _ = nimble.specialize(build_bert_module(_small_bert()), intel_cpu(), shapes=[(6, 64)])
        _, tape_us = LaunchTape(exe, np.zeros((6, 64), np.float32)).replay()
        assert tape_us == 58.39481007900463


class TestEagerFramework:
    def test_lstm_matches_reference(self):
        """Full numerics: the eager executor's output is the model's. The
        widths keep every tensor op above the host-scalar size, so each
        one goes through the executor."""
        w = LSTMWeights.create(12, 10, 1)
        fw = EagerFramework(intel_cpu())
        sents = [np.random.RandomState(i).randn(3 + i, 12).astype(np.float32) for i in range(2)]
        result = fw.run(build_lstm_module(w), sents)
        assert result.total_us > 0
        for sent, out in zip(sents, result.outputs):
            assert np.allclose(out, lstm_reference(sent, w), atol=1e-5)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_lstm_charging_rule(self, layers):
        """13·L + 2 framework ops per token (the L cells, and the `take` +
        `reshape` of x[t]) plus 2·L `zeros` per sentence. `vm.shape_of`
        and the counter arithmetic (`less`, `add`, `take` of the shape)
        are host scalars: computed, never charged."""
        w = LSTMWeights.create(12, 10, layers)
        mod = build_lstm_module(w)
        fw = EagerFramework(intel_cpu())
        ex = fw._executor(fw.make_context())
        charged = []

        def call(op_name, inputs, attrs):
            charged.append(op_name)
            return ex.call(op_name, inputs, attrs)

        lengths = (3, 5)
        for n in lengths:
            x = np.random.RandomState(n).randn(n, 12).astype(np.float32)
            assert np.allclose(evaluate(mod, x, call=call), lstm_reference(x, w), atol=1e-5)
        tokens = sum(lengths)
        assert ex.ops_executed == len(charged)
        assert ex.ops_executed == (13 * layers + 2) * tokens + 2 * layers * len(lengths)
        assert "less" not in charged and "vm.shape_of" not in charged
        assert charged.count("add") == layers * tokens  # each cell's c' = f·c + i·g
        assert charged.count("take") == tokens  # x[t], never the shape's

    def test_tree_lstm_supported(self):
        assert EagerFramework(intel_cpu()).supports("tree_lstm")

    def test_bert_matches_reference(self):
        cfg = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        w = BertWeights.create(cfg)
        x = np.random.RandomState(0).randn(4, 16).astype(np.float32)
        (out,) = EagerFramework(intel_cpu()).run(build_bert_module(w), [x]).outputs
        assert np.allclose(out, bert_reference(x, w), atol=1e-4)


class TestHybridFramework:
    def test_loop_iterations_charged(self):
        """One `foreach` iteration per `If` that takes its body: a
        sentence of n tokens pays n of them; the loop exit is free."""

        class NoLoopCharge(HybridFramework):
            construct_us = {}

        mod = build_lstm_module(LSTMWeights.create(12, 10, 1))
        x = np.zeros((5, 12), np.float32)
        with_loop = HybridFramework(intel_cpu()).run(mod, [x]).total_us
        without = NoLoopCharge(intel_cpu()).run(mod, [x]).total_us
        assert with_loop - without == pytest.approx(5 * overhead.HYBRID_LOOP_ITER_US["intel"])


class TestFrameworkSupportMatrix:
    """§6.2's availability: who can run what (and where)."""

    def test_mxnet_cannot_tree_lstm(self):
        assert not HybridFramework(intel_cpu()).supports("tree_lstm")

    def test_tensorflow_cannot_tree_lstm(self):
        assert not GraphFramework(intel_cpu()).supports("tree_lstm")

    def test_fold_only_tree_lstm(self):
        fold = FoldFramework(intel_cpu())
        assert fold.supports("tree_lstm")
        assert not fold.supports("lstm")
        assert not fold.supports("bert")

    def test_fold_does_not_build_on_arm(self):
        assert not FoldFramework(arm_cpu()).supports("tree_lstm")

    @pytest.mark.parametrize("platform", [intel_cpu, nvidia_gpu, arm_cpu])
    def test_fold_supports_exactly_where_it_runs(self, platform):
        """Regression: Fold claimed the GPU, then its run raised
        `KeyError: 'nvidia'` — its cost tables have no GPU row. `supports`
        now reads the platforms from those tables."""
        w = TreeLSTMWeights.create(12, 9)
        tree = tree_to_adt(Tree.node(Tree.leaf(1), Tree.leaf(2)), embedding_table(30, 12))
        fold = FoldFramework(platform(), "lite")
        try:
            fold.run(build_tree_lstm_module(w), [tree])
            ran = True
        except Exception:
            ran = False
        assert fold.supports("tree_lstm") == ran


def test_no_baseline_imports_a_model_or_its_data():
    """A baseline runs the model's own IR module and holds no copy of a
    model: nothing under `repro/baselines/` imports `repro.models` or
    `repro.data`."""
    banned = ("repro.models", "repro.data")
    package = Path(repro.baselines.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                parts = ["repro", "baselines"][: 3 - node.level] if node.level else []
                module = ".".join(parts + ([node.module] if node.module else []))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}: {name}"
                for name in names
                if any(name == b or name.startswith(b + ".") for b in banned)
            ]
    assert not found


class TestGraphFramework:
    """TensorFlow runs the model's LSTM module. The recursive loop is its
    while loop: each `If` that takes its body pays Merge, Switch and
    NextIteration per loop variable plus one LoopCond, and the `If` that
    does not pays Enter + Exit per variable. Hidden 10 keeps every cell op
    above the host-scalar size, so each is charged."""

    def test_lstm_matches_reference(self):
        w = LSTMWeights.create(12, 10, 2)
        sents = [np.random.RandomState(i).randn(3 + i, 12).astype(np.float32) for i in range(2)]
        result = GraphFramework(intel_cpu()).run(build_lstm_module(w), sents)
        for sent, out in zip(sents, result.outputs):
            assert np.allclose(out, lstm_reference(sent, w), atol=1e-5)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_loop_control_flow_charged(self, layers):
        """n iterations of 3V + 1 primitives and one loop exit of 2V, with
        V = 3 + 2L loop variables: the loop function's t, n, x and each
        layer's (h, c)."""

        class NoControlFlow(GraphFramework):
            construct_us = {}

        mod = build_lstm_module(LSTMWeights.create(12, 10, layers))
        n, v = 5, 3 + 2 * layers
        x = np.zeros((n, 12), np.float32)
        with_loop = GraphFramework(intel_cpu()).run(mod, [x]).total_us
        without = NoControlFlow(intel_cpu()).run(mod, [x]).total_us
        prim = overhead.CONTROL_PRIMITIVE_US["intel"]
        assert with_loop - without == pytest.approx(n * (3 * v + 1) * prim + 2 * v * prim)

    def test_control_primitives_charged(self):
        w = LSTMWeights.create(12, 10, 1)
        sent = [np.zeros((20, 12), np.float32)]
        graph_us = GraphFramework(intel_cpu()).run(build_lstm_module(w), sent).total_us
        eager_us = EagerFramework(intel_cpu()).run(build_lstm_module(w), sent).total_us
        # TF's per-iteration control primitives dominate its LSTM cost.
        assert graph_us > eager_us


class TestFoldFramework:
    """Fold evaluates the model's tree function once per tree level, on
    the stacked rows of that level's nodes. Hidden 9 and embeddings of 12
    keep every one-row op above the host-scalar size, so each is
    charged."""

    W = TreeLSTMWeights.create(12, 9, seed=2)
    EMB = embedding_table(vocab_size=30, dim=12, seed=1)
    LEAF_OPS = 9  # dense, bias_add, split, 3 gates, multiply, tanh, multiply
    NODE_OPS = 20  # add, 3 × (dense, bias_add), split, 5 gates, 4 multiply, 2 add, tanh

    def _run(self, trees):
        """(outputs, framework ops) of one Fold run over *trees*."""
        executors = []

        class Counting(FoldFramework):
            def _executor(self, ctx):
                executors.append(super()._executor(ctx))
                return executors[-1]

        mod = build_tree_lstm_module(self.W)
        result = Counting(intel_cpu()).run(mod, [tree_to_adt(t, self.EMB) for t in trees])
        return result.outputs, executors[0].ops_executed

    def test_batched_numerics_match_reference(self):
        trees = sst_like_trees(2, vocab_size=30, seed=5)
        outputs, _ = self._run(trees)
        for tree, h in zip(trees, outputs):
            assert np.allclose(h, tree_lstm_reference(tree, self.EMB, self.W)[0], atol=1e-4)

    @pytest.mark.parametrize("leaves", [1, 4])
    def test_one_clause_evaluation_per_level(self, leaves):
        """A single leaf, and a left spine — one internal node per level:
        one leaf-clause evaluation for all the leaves, then one
        node-clause evaluation per internal level."""
        tree = Tree.leaf(1)
        for token in range(2, leaves + 1):
            tree = Tree.node(tree, Tree.leaf(token))
        (h,), ops = self._run([tree])
        assert np.allclose(h, tree_lstm_reference(tree, self.EMB, self.W)[0], atol=1e-4)
        assert ops == self.LEAF_OPS + (leaves - 1) * self.NODE_OPS

    def test_fold_faster_than_eager_slower_than_nothing(self):
        mod = build_tree_lstm_module(self.W)
        trees = [tree_to_adt(t, self.EMB) for t in sst_like_trees(3, vocab_size=30, seed=6)]
        fold_us = FoldFramework(intel_cpu()).run(mod, trees).total_us
        eager_us = EagerFramework(intel_cpu()).run(mod, trees).total_us
        assert fold_us < eager_us  # batching wins despite per-input compile
