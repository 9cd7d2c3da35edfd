"""Baseline frameworks, the launch tape, clock, allocator."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.baselines import EagerFramework, FoldFramework, GraphFramework, HybridFramework
from repro.baselines.base import OpExecutor
from repro.baselines.graph_framework import Graph, GraphExecutor
from repro.data import embedding_table, sst_like_trees
from repro.errors import VMError
from repro.hardware import arm_cpu, intel_cpu, nvidia_gpu, platform_by_name
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import TreeLSTMWeights, tree_lstm_reference
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

    def test_no_pooling_mode(self):
        ctx = ExecutionContext(intel_cpu(), pooling=False)
        s = ctx.allocator.alloc(128, 64, intel_cpu().host)
        ctx.allocator.free(s)
        ctx.allocator.alloc(128, 64, intel_cpu().host)
        assert ctx.allocator.stats.pooled_allocs == 0
        assert ctx.allocator.stats.fresh_allocs == 2

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

    def test_tape_latency_is_pinned(self):
        """Node charge plus kernel charge of the 30 launches of small
        BERT at length 6 on `intel_cpu`."""
        exe, _ = nimble.specialize(build_bert_module(_small_bert()), intel_cpu(), shapes=[(6, 64)])
        _, tape_us = LaunchTape(exe, np.zeros((6, 64), np.float32)).replay()
        assert tape_us == 79.04403440257668


class TestEagerFramework:
    def test_lstm_numerics_and_tokens(self):
        w = LSTMWeights.create(8, 4, 1)
        fw = EagerFramework(intel_cpu())
        sents = [np.random.RandomState(i).randn(3 + i, 8).astype(np.float32) for i in range(2)]
        result = fw.run_lstm(sents, w)
        assert result.total_tokens == 3 + 4
        assert result.total_us > 0

    def test_tree_lstm_supported(self):
        assert EagerFramework(intel_cpu()).supports("tree_lstm")

    def test_bert_runs(self):
        cfg = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        w = BertWeights.create(cfg)
        fw = EagerFramework(intel_cpu())
        r = fw.run_bert([np.zeros((4, 16), np.float32)], w)
        assert r.total_tokens == 4


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


class TestGraphFrameworkExecutor:
    def test_while_loop_semantics(self):
        w = LSTMWeights.create(8, 4, 1)
        fw = GraphFramework(intel_cpu())
        graph = fw.build_lstm_graph(w)
        ctx = fw.make_context()
        ex = fw._executor(ctx)
        executor = GraphExecutor(ex, "intel")
        x = np.random.RandomState(0).randn(5, 8).astype(np.float32)
        (out,) = executor.run(graph, [np.asarray(5, np.int64), x])
        assert np.allclose(out, lstm_reference(x, w), atol=1e-4)

    def test_control_primitives_charged(self):
        w = LSTMWeights.create(8, 4, 1)
        fw_graph = GraphFramework(intel_cpu())
        fw_eager = EagerFramework(intel_cpu())
        sent = [np.zeros((20, 8), np.float32)]
        graph_us = fw_graph.run_lstm(sent, w).total_us
        eager_us = fw_eager.run_lstm(sent, w).total_us
        # TF's per-iteration control primitives dominate its LSTM cost.
        assert graph_us > eager_us


class TestFoldFramework:
    def test_batched_numerics_match_reference(self):
        w = TreeLSTMWeights.create(10, 5, seed=2)
        emb = embedding_table(vocab_size=30, dim=10, seed=1)
        trees = sst_like_trees(2, vocab_size=30, seed=5)
        fold = FoldFramework(intel_cpu())
        ctx = fold.make_context()
        ex = OpExecutor(intel_cpu(), ctx, 1.0)
        for tree in trees:
            h, c = fold._run_batched(ex, tree, emb, w, level_us=1.0)
            ref_h, ref_c = tree_lstm_reference(tree, emb, w)
            assert np.allclose(h, ref_h, atol=1e-4)
            assert np.allclose(c, ref_c, atol=1e-4)

    def test_fold_faster_than_eager_slower_than_nothing(self):
        w = TreeLSTMWeights.create(10, 5)
        emb = embedding_table(vocab_size=30, dim=10)
        trees = sst_like_trees(3, vocab_size=30, seed=6)
        fold_us = FoldFramework(intel_cpu()).run_tree_lstm(trees, emb, w).us_per_token
        eager_us = EagerFramework(intel_cpu()).run_tree_lstm(trees, emb, w).us_per_token
        assert fold_us < eager_us  # batching wins despite per-input compile
