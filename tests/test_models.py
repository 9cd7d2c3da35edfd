"""Models: Nimble-compiled output must match the eager NumPy references."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.data import embedding_table, sst_like_trees
from repro.evaluator import evaluate
from repro.hardware import intel_cpu, nvidia_gpu
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
from repro.vm.interpreter import VirtualMachine


def _compiled(mod):
    vm = VirtualMachine(nimble.build(mod, intel_cpu())[0])
    return lambda *args: vm.run(*args).numpy()


def _evaluated(mod):
    """The independent oracle: the un-lowered module, op by op."""
    return lambda *args: evaluate(mod, *args)


# Each reference test runs the module compiled and through the evaluator.
RUNNERS = pytest.mark.parametrize("runner", [_compiled, _evaluated], ids=["vm", "evaluator"])


class TestLSTM:
    @RUNNERS
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_reference(self, layers, runner):
        w = LSTMWeights.create(input_size=12, hidden_size=6, num_layers=layers, seed=layers)
        run = runner(build_lstm_module(w))
        x = np.random.RandomState(0).randn(7, 12).astype(np.float32)
        assert np.allclose(run(x), lstm_reference(x, w), atol=1e-5)

    def test_variable_lengths_same_executable(self):
        """The whole point: one compiled artifact serves every length."""
        w = LSTMWeights.create(8, 4, 1)
        exe, _ = nimble.build(build_lstm_module(w), intel_cpu())
        vm = VirtualMachine(exe)
        for length in (1, 3, 9):
            x = np.random.RandomState(length).randn(length, 8).astype(np.float32)
            assert np.allclose(vm.run(x).numpy(), lstm_reference(x, w), atol=1e-5)

    def test_runs_on_gpu_platform(self):
        w = LSTMWeights.create(8, 4, 1)
        exe, _ = nimble.build(build_lstm_module(w), nvidia_gpu())
        vm = VirtualMachine(exe)
        x = np.random.RandomState(3).randn(4, 8).astype(np.float32)
        assert np.allclose(vm.run(x).numpy(), lstm_reference(x, w), atol=1e-5)


class TestTreeLSTM:
    @RUNNERS
    def test_matches_reference_on_random_trees(self, runner):
        w = TreeLSTMWeights.create(input_size=10, hidden_size=5, seed=1)
        run = runner(build_tree_lstm_module(w))
        emb = embedding_table(vocab_size=40, dim=10, seed=2)
        for tree in sst_like_trees(3, vocab_size=40, seed=3):
            ref_h, _ = tree_lstm_reference(tree, emb, w)
            assert np.allclose(run(tree_to_adt(tree, emb)), ref_h, atol=1e-5)

    def test_single_leaf_tree(self):
        from repro.data.trees import Tree

        w = TreeLSTMWeights.create(10, 5)
        exe, _ = nimble.build(build_tree_lstm_module(w), intel_cpu())
        vm = VirtualMachine(exe)
        emb = embedding_table(vocab_size=4, dim=10)
        tree = Tree.leaf(2)
        out = vm.run(tree_to_adt(tree, emb))
        ref_h, _ = tree_lstm_reference(tree, emb, w)
        assert np.allclose(out.numpy(), ref_h, atol=1e-5)


class TestBERT:
    @RUNNERS
    def test_matches_reference(self, runner):
        cfg = BertConfig(hidden=24, num_layers=2, num_heads=3, ffn=48)
        w = BertWeights.create(cfg, seed=4)
        run = runner(build_bert_module(w))
        x = np.random.RandomState(5).randn(6, 24).astype(np.float32)
        assert np.allclose(run(x), bert_reference(x, w), atol=1e-4)

    def test_variable_sequence_lengths(self):
        cfg = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        w = BertWeights.create(cfg)
        exe, _ = nimble.build(build_bert_module(w), intel_cpu())
        vm = VirtualMachine(exe)
        for L in (1, 5, 13):
            x = np.random.RandomState(L).randn(L, 16).astype(np.float32)
            assert np.allclose(vm.run(x).numpy(), bert_reference(x, w), atol=1e-4)

    def test_static_module_matches_dynamic(self):
        cfg = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        w = BertWeights.create(cfg)
        x = np.random.RandomState(9).randn(8, 16).astype(np.float32)
        dyn_exe, _ = nimble.build(build_bert_module(w), intel_cpu())
        sta_exe, _ = nimble.specialize(build_bert_module(w), intel_cpu(), shapes=[(8, 16)])
        a = VirtualMachine(dyn_exe).run(x).numpy()
        b = VirtualMachine(sta_exe).run(x).numpy()
        assert np.array_equal(a, b)


class TestVisionModels:
    @pytest.mark.parametrize(
        "builder",
        [build_resnet_like, build_mobilenet_like, build_vgg_like, build_squeezenet_like],
    )
    def test_compiles_and_runs(self, builder):
        mod = builder(image=32)
        exe, _ = nimble.build(mod, intel_cpu())
        vm = VirtualMachine(exe)
        out = vm.run(np.random.RandomState(0).randn(1, 3, 32, 32).astype(np.float32))
        assert out.shape == (1, 10)
        assert np.all(np.isfinite(out.numpy()))
