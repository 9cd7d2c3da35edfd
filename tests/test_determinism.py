"""End-to-end determinism: the whole point of the virtual-clock
methodology is that compile + run is a pure function of its inputs. For
all three dynamic model families, two independent ``nimble.build`` +
``vm.run`` invocations must produce bit-identical outputs, identical
virtual latencies, and identical serialized executables — and every
artifact a build writes is the same bytes however many ``Any`` dims the
process made before it."""

import io
import pickle

import numpy as np
import pytest

import repro.nimble as nimble
from repro.codegen import KernelCache
from repro.hardware import intel_cpu, nvidia_gpu
from repro.ir.types import Any
from repro.runtime.context import ExecutionContext
from repro.vm.executable import Executable
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
    return _flatten(out), ctx.elapsed_us, exe.save()


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


def _artifacts(family):
    """What one build of *family* writes: the dynamic executable, the
    prefix and the kernel cache, as bytes — and the live objects."""
    mod, _ = CASES[family]()
    cache = KernelCache()
    exe, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
    prefix = nimble.build_prefix(mod, intel_cpu())
    blobs = (exe.save(), prefix.save(), cache.export_entries())
    return blobs, (exe, prefix, cache)


def _tokens(obj):
    """The token of every ``Any`` reachable from *obj*, found the way
    pickle walks it."""
    found = set()

    class Walker(pickle.Pickler):
        def persistent_id(self, value):
            if isinstance(value, Any):
                found.add(value.token)
            return None

    Walker(io.BytesIO(), protocol=5, buffer_callback=lambda buf: None).dump(obj)
    return found


class TestReproducibleArtifacts:
    """``Any`` tokens leave a process by position (``repro.ir.codec``):
    the token counter's state never reaches a byte, and a restored
    token never names a live dim."""

    @pytest.mark.parametrize("drawn", [1, 777])
    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    def test_a_build_saves_the_same_bytes_after_any_number_of_tokens(self, family, drawn):
        first, _ = _artifacts(family)
        for _ in range(drawn):
            Any()
        again, _ = _artifacts(family)
        for name, a, b in zip(("executable", "prefix", "kernel cache"), first, again):
            assert a == b, name

    # TreeLSTM's entry takes a tree: none of its artifacts holds an Any.
    @pytest.mark.parametrize("family", ["lstm", "bert"])
    def test_a_loaded_artifact_shares_no_token_with_a_live_one(self, family):
        (exe_blob, prefix_blob, cache_blob), (exe, prefix, cache) = _artifacts(family)
        newest = Any().token  # every dim alive now has a token at most this
        warm = KernelCache()
        warm.import_entries(cache_blob)
        pairs = (
            (exe.kernels, Executable.load(exe_blob).kernels),
            (prefix.module, nimble.SpecializationPrefix.load(prefix_blob).module),
            (list(cache._kernels.values()), list(warm._kernels.values())),
        )
        assert _tokens(prefix.module)
        for live, loaded in pairs:
            restored = _tokens(loaded)
            assert all(token > newest for token in restored)
            # Each payload's dims that shared a token still do, one for one.
            assert len(restored) == len(_tokens(live))

    @pytest.mark.parametrize("family", ["lstm", "bert"])
    def test_a_loaded_prefix_specializes_as_the_live_one(self, family):
        """Same bytecode and outputs. Not the same blob: pickle memoizes
        a string the live prefix's objects share (LSTM's ``'int64'``)
        where the restored copies hold equal strings, so the kernels
        section can differ by a few bytes. That object-identity drift
        waits for the structural IR encoder (ROADMAP item 12(ii))."""
        mod, (x,) = CASES[family]()
        live = nimble.build_prefix(mod, intel_cpu())
        loaded = nimble.SpecializationPrefix.load(live.save())
        shape = [x.shape]
        exes = [
            nimble.specialize(mod, intel_cpu(), shapes=shape, prefix=prefix)[0]
            for prefix in (live, loaded)
        ]
        assert exes[0]._serialize_bytecode() == exes[1]._serialize_bytecode()
        assert exes[0].content_hash() == exes[1].content_hash()
        outs = [VirtualMachine(exe).run(x).numpy() for exe in exes]
        assert np.array_equal(outs[0], outs[1])
