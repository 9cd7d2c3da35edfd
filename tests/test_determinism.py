"""End-to-end determinism: the whole point of the virtual-clock
methodology is that compile + run is a pure function of its inputs. For
all three dynamic model families, two independent ``nimble.build`` +
``vm.run`` invocations must produce bit-identical outputs, identical
virtual latencies, and identical serialized executables."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.hardware import intel_cpu, nvidia_gpu
from repro.runtime.context import ExecutionContext
from repro.vm.interpreter import VirtualMachine


def _lstm_case():
    from repro.models.lstm import LSTMWeights, build_lstm_module

    weights = LSTMWeights.create(input_size=8, hidden_size=8, num_layers=1, seed=0)
    mod = build_lstm_module(weights)
    x = (np.random.RandomState(3).randn(11, 8) * 0.1).astype(np.float32)
    return mod, (x,)


def _tree_lstm_case():
    from repro.data import embedding_table, sst_like_trees
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt

    weights = TreeLSTMWeights.create(input_size=8, hidden_size=4, seed=0)
    mod = build_tree_lstm_module(weights)
    tree = sst_like_trees(1, seed=0)[0]
    embeddings = embedding_table(dim=8, seed=0)
    return mod, (tree_to_adt(tree, embeddings),)


def _bert_case():
    from repro.models.bert import BertConfig, BertWeights, build_bert_module

    config = BertConfig(hidden=16, num_layers=2, num_heads=2, ffn=32)
    weights = BertWeights.create(config, seed=0)
    mod = build_bert_module(weights)
    x = (np.random.RandomState(5).randn(9, 16) * 0.1).astype(np.float32)
    return mod, (x,)


CASES = {"lstm": _lstm_case, "tree_lstm": _tree_lstm_case, "bert": _bert_case}


def _flatten(out):
    if isinstance(out, tuple):
        return [arr for item in out for arr in _flatten(item)]
    return [out.numpy()]


def _once(family, platform):
    mod, inputs = CASES[family]()
    exe, _ = nimble.build(mod, platform)
    ctx = ExecutionContext(platform)
    vm = VirtualMachine(exe, ctx)
    out = vm.run(*inputs)
    # Compare the bytecode + constant sections: kernels pickle ``Any``
    # identity tokens, which are process-global counters and thus differ
    # between two builds without changing semantics.
    sections = exe._serialize_bytecode() + b"".join(exe._constant_chunks())
    return _flatten(out), ctx.elapsed_us, sections


@pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
@pytest.mark.parametrize("platform_fn", [intel_cpu, nvidia_gpu], ids=["intel", "nvidia"])
def test_build_and_run_bit_identical(family, platform_fn):
    out_a, latency_a, bytecode_a = _once(family, platform_fn())
    out_b, latency_b, bytecode_b = _once(family, platform_fn())
    assert len(out_a) == len(out_b)
    for arr_a, arr_b in zip(out_a, out_b):
        assert arr_a.dtype == arr_b.dtype
        assert np.array_equal(arr_a, arr_b)  # bit-identical, not just close
    assert latency_a == latency_b
    assert bytecode_a == bytecode_b


@pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
def test_latency_identical_across_numerics_modes(family):
    """lite mode skips heavy NumPy but must keep the exact latency model."""
    mod, inputs = CASES[family]()
    exe, _ = nimble.build(mod, intel_cpu())
    latencies = {}
    for mode in ("full", "lite"):
        ctx = ExecutionContext(intel_cpu(), numerics=mode)
        VirtualMachine(exe, ctx).run(*inputs)
        latencies[mode] = ctx.elapsed_us
    assert latencies["full"] == latencies["lite"]
