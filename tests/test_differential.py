"""Cross-tier differential fuzzing.

Three coexisting execution tiers must be *bit-identical* on the same
input: the dynamic VM (shape functions + symbolic kernels), the
per-member specialized executable (static recompilation of one exact
shape), and the batch-specialized executable (a full bucket stacked into
one call, one batched GEMM per member-wise GEMM site). Hypothesis drives
random sequence lengths, batch sizes, and payloads through the LSTM and
BERT entries; every discrepancy — numeric, shape, or a leaked buffer —
is a routing bug the serving layer would silently ship.

Executables are memoised per (model, shape, batch) across examples and
share one KernelCache per model, so the fuzz budget is spent running
tensors, not recompiling the same module.

The staged property extends the matrix: for every sampled binding, a
shared prefix (``nimble.specialize(prefix=...)``, member and batched
variants sharing one ``build_prefix`` result) must produce the same
``Executable`` artifact key AND bitwise-identical outputs as a per-call
prefix (``prefix=None``) — sharing is an implementation detail, never
an observable one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import ShapeGuardError
from repro.hardware import intel_cpu, nvidia_gpu
from repro.models import build_gram_module
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.runtime.context import ExecutionContext
from repro.vm.compiler import CompilerOptions
from repro.vm.interpreter import VirtualMachine

MAX_LEN = 8
BATCHES = (2, 3, 4)
STREAM_COUNTS = (1, 2, 4)


class _TierCache:
    """Per-model executables + VMs, compiled once and reused across
    examples. All tiers share one KernelCache — exactly the serving
    layer's configuration."""

    def __init__(self, mod, input_dim):
        self.mod = mod
        self.input_dim = input_dim
        self.platform = intel_cpu()
        self.kernel_cache = KernelCache()
        self._vms = {}
        self._prefix = None

    def _vm(self, key, build):
        found = self._vms.get(key)
        if found is None:
            exe = build()
            ctx = ExecutionContext(self.platform, numerics="full")
            found = VirtualMachine(exe, ctx)
            self._vms[key] = found
        return found

    def exe(self, key):
        return self._vms[key].exe

    def prefix(self):
        """One shape-independent prefix per model — member and batched
        staged variants of every length share it."""
        if self._prefix is None:
            self._prefix = nimble.build_prefix(self.mod, self.platform)
        return self._prefix

    def dynamic(self) -> VirtualMachine:
        return self._vm(
            "dyn",
            lambda: nimble.build(
                self.mod, self.platform, kernel_cache=self.kernel_cache
            )[0],
        )

    def member(self, length) -> VirtualMachine:
        return self._vm(
            ("member", length),
            lambda: nimble.specialize(
                self.mod,
                self.platform,
                shapes=[(length, self.input_dim)],
                kernel_cache=self.kernel_cache,
            )[0],
        )

    def batched(self, length, batch) -> VirtualMachine:
        return self._vm(
            ("batched", length, batch),
            lambda: nimble.specialize(
                self.mod,
                self.platform,
                shapes=[(length, self.input_dim)],
                kernel_cache=self.kernel_cache,
                batch=batch,
            )[0],
        )

    def member_staged(self, length) -> VirtualMachine:
        return self._vm(
            ("member_staged", length),
            lambda: nimble.specialize(
                self.mod,
                self.platform,
                shapes=[(length, self.input_dim)],
                kernel_cache=self.kernel_cache,
                prefix=self.prefix(),
            )[0],
        )

    def batched_staged(self, length, batch) -> VirtualMachine:
        return self._vm(
            ("batched_staged", length, batch),
            lambda: nimble.specialize(
                self.mod,
                self.platform,
                shapes=[(length, self.input_dim)],
                kernel_cache=self.kernel_cache,
                batch=batch,
                prefix=self.prefix(),
            )[0],
        )


def _lstm_cache():
    weights = LSTMWeights.create(input_size=4, hidden_size=8, seed=0)
    return _TierCache(build_lstm_module(weights), 4)


def _bert_cache():
    config = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
    weights = BertWeights.create(config, seed=0)
    return _TierCache(build_bert_module(weights), 16)


_CACHES = {}


def _cache(model) -> _TierCache:
    if model not in _CACHES:
        _CACHES[model] = {"lstm": _lstm_cache, "bert": _bert_cache}[model]()
    return _CACHES[model]


def _run_drained(vm: VirtualMachine, *inputs):
    """One inference, then the allocator must be back to zero live bytes
    — a tier that leaks buffers corrupts every later tier sharing the
    worker's pool."""
    out = vm.run(*inputs)
    assert vm.ctx.allocator.live_bytes == 0, (
        f"allocator holds {vm.ctx.allocator.live_bytes} live bytes after a run"
    )
    return out.numpy()


def _differential_case(model: str, length: int, batch: int, seed: int):
    cache = _cache(model)
    rng = np.random.RandomState(seed)
    members = [
        (rng.randn(length, cache.input_dim) * 0.2).astype(np.float32)
        for _ in range(batch)
    ]

    outs_dynamic = [_run_drained(cache.dynamic(), x) for x in members]
    outs_member = [_run_drained(cache.member(length), x) for x in members]
    stacked = _run_drained(
        cache.batched(length, batch), np.concatenate(members, axis=0)
    )
    outs_batched = np.split(stacked, batch, axis=0)

    for i, (d, m, b) in enumerate(zip(outs_dynamic, outs_member, outs_batched)):
        assert d.shape == m.shape == b.shape, f"member {i}: shape drift"
        assert np.array_equal(d, m), f"member {i}: member tier diverged"
        assert np.array_equal(d, b), (
            f"member {i}: batched tier diverged "
            f"(max abs err {np.abs(d - b).max()})"
        )


def _staged_case(model: str, length: int, batch: int, seed: int):
    """Per-call prefix vs shared prefix: identical artifact keys and
    bitwise-identical outputs, member and batched variants."""
    cache = _cache(model)
    rng = np.random.RandomState(seed)
    members = [
        (rng.randn(length, cache.input_dim) * 0.2).astype(np.float32)
        for _ in range(batch)
    ]

    vm_mono = cache.member(length)
    vm_staged = cache.member_staged(length)
    assert (
        cache.exe(("member", length)).content_hash()
        == cache.exe(("member_staged", length)).content_hash()
    ), f"member artifact key drift at length {length}"
    for i, x in enumerate(members):
        assert np.array_equal(
            _run_drained(vm_mono, x), _run_drained(vm_staged, x)
        ), f"member {i}: staged member tier diverged"

    stacked_in = np.concatenate(members, axis=0)
    vm_bmono = cache.batched(length, batch)
    vm_bstaged = cache.batched_staged(length, batch)
    assert (
        cache.exe(("batched", length, batch)).content_hash()
        == cache.exe(("batched_staged", length, batch)).content_hash()
    ), f"batched artifact key drift at (length={length}, batch={batch})"
    assert np.array_equal(
        _run_drained(vm_bmono, stacked_in), _run_drained(vm_bstaged, stacked_in)
    ), "staged batched tier diverged"


class _StreamCache:
    """The small BERT compiled on the GPU platform once per stream count,
    all sharing one KernelCache. Multi-stream scheduling is a latency
    optimization of the virtual clock only — host-sequential dispatch
    means every stream count must produce bit-identical payloads."""

    def __init__(self):
        config = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        weights = BertWeights.create(config, seed=0)
        self.mod = build_bert_module(weights)
        self.input_dim = 16
        self.platform = nvidia_gpu()
        self.kernel_cache = KernelCache()
        self._vms = {}

    def vm(self, streams) -> VirtualMachine:
        found = self._vms.get(streams)
        if found is None:
            exe = nimble.build(
                self.mod,
                self.platform,
                options=CompilerOptions(device_streams=streams),
                kernel_cache=self.kernel_cache,
            )[0]
            ctx = ExecutionContext(self.platform, numerics="full")
            found = VirtualMachine(exe, ctx)
            self._vms[streams] = found
        return found

    def fresh_vm(self, streams) -> VirtualMachine:
        exe = self.vm(streams).exe
        return VirtualMachine(exe, ExecutionContext(self.platform, numerics="full"))


_STREAM_CACHE = None


def _stream_cache() -> _StreamCache:
    global _STREAM_CACHE
    if _STREAM_CACHE is None:
        _STREAM_CACHE = _StreamCache()
    return _STREAM_CACHE


def _stream_case(length: int, batch: int, seed: int):
    cache = _stream_cache()
    rng = np.random.RandomState(seed)
    members = [
        (rng.randn(length, cache.input_dim) * 0.2).astype(np.float32)
        for _ in range(batch)
    ]

    baseline = [_run_drained(cache.vm(1), x) for x in members]
    for streams in STREAM_COUNTS[1:]:
        vm = cache.vm(streams)
        assert vm.exe.device_streams == streams
        assert vm.exe.num_events > 0, "multi-stream build scheduled no events"
        for i, x in enumerate(members):
            # Rotate members across stream lanes exactly as the serving
            # worker does — relabeling lanes must not touch payloads.
            out = vm.run(x, stream_offset=i % streams)
            assert vm.ctx.allocator.live_bytes == 0
            assert np.array_equal(out.numpy(), baseline[i]), (
                f"member {i}: streams={streams} diverged from single-stream"
            )


class TestStreamDifferential:
    """Stream counts ∈ {1, 2, 4} on the GPU platform: static scheduling
    must be bitwise invisible in outputs and exactly replayable in
    modeled latency."""

    @given(
        length=st.integers(1, MAX_LEN),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stream_counts_bit_identical(self, length, batch, seed):
        _stream_case(length, batch, seed)

    def test_scheduled_replay_is_deterministic(self):
        """Same executable, fresh context: the virtual clock must land on
        the exact same latency and payload both times, at every stream
        count — the property that lets CI assert on modeled numbers."""
        cache = _stream_cache()
        rng = np.random.RandomState(3)
        xs = [
            (rng.randn(n, cache.input_dim) * 0.2).astype(np.float32)
            for n in (2, 6, 4)
        ]
        for streams in STREAM_COUNTS:
            replays = []
            for _ in range(2):
                vm = cache.fresh_vm(streams)
                outs = [vm.run(x).numpy() for x in xs]
                replays.append((vm.ctx.clock.elapsed_us, outs))
            (us_a, outs_a), (us_b, outs_b) = replays
            assert us_a == us_b, f"streams={streams}: replay latency drifted"
            assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))

    def test_stream_offset_is_pure_relabeling(self):
        """Offsetting the whole schedule by a constant lane permutes
        which physical stream does what but cannot change latency or
        payload of a single run."""
        cache = _stream_cache()
        x = (np.random.RandomState(9).randn(5, cache.input_dim) * 0.2).astype(
            np.float32
        )
        base_vm = cache.fresh_vm(4)
        base_out = base_vm.run(x).numpy()
        base_us = base_vm.ctx.clock.elapsed_us
        for offset in (1, 2, 3):
            vm = cache.fresh_vm(4)
            out = vm.run(x, stream_offset=offset).numpy()
            assert np.array_equal(out, base_out)
            assert vm.ctx.clock.elapsed_us == base_us


class TestDifferential:
    @given(
        length=st.integers(1, MAX_LEN),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_lstm_three_tiers_bit_identical(self, length, batch, seed):
        _differential_case("lstm", length, batch, seed)

    @given(
        length=st.integers(1, MAX_LEN),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_bert_three_tiers_bit_identical(self, length, batch, seed):
        _differential_case("bert", length, batch, seed)

    @given(
        length=st.integers(1, MAX_LEN),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_lstm_staged_equals_monolithic(self, length, batch, seed):
        _staged_case("lstm", length, batch, seed)

    @given(
        length=st.integers(1, MAX_LEN),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_bert_staged_equals_monolithic(self, length, batch, seed):
        _staged_case("bert", length, batch, seed)

    def test_batched_tier_counts_one_gemm_per_site(self):
        """The whole point of the batched tier: a batch-of-B bucket pays
        the GEMM launch count of ONE member run, not B of them."""
        cache = _cache("bert")
        length, batch = 5, 4
        rng = np.random.RandomState(7)
        members = [
            (rng.randn(length, cache.input_dim) * 0.2).astype(np.float32)
            for _ in range(batch)
        ]
        vm_m = cache.member(length)
        vm_b = cache.batched(length, batch)
        vm_m.profile.reset()
        vm_b.profile.reset()
        for x in members:
            _run_drained(vm_m, x)
        _run_drained(vm_b, np.concatenate(members, axis=0))
        member_total = vm_m.profile.gemm_invocations()
        batched_total = vm_b.profile.gemm_invocations()
        assert batched_total > 0
        assert member_total == batch * batched_total
        assert vm_b.profile.runs == 1

    def test_batched_output_splits_to_member_shapes(self):
        """Axis-0 splitting must reproduce exactly the member output
        shape for both models (LSTM returns (1, H) per member, BERT
        (L, H))."""
        for model, length, batch in (("lstm", 3, 2), ("bert", 6, 3)):
            cache = _cache(model)
            rng = np.random.RandomState(1)
            members = [
                (rng.randn(length, cache.input_dim) * 0.2).astype(np.float32)
                for _ in range(batch)
            ]
            member_out = _run_drained(cache.member(length), members[0])
            stacked = _run_drained(
                cache.batched(length, batch), np.concatenate(members, axis=0)
            )
            parts = np.split(stacked, batch, axis=0)
            assert all(p.shape == member_out.shape for p in parts)


class _GramTiers:
    """The weight-free two-``Any``-dim gram model compiled to every
    binding flavor — dynamic, exact, and *partial* (one dim bound, the
    other left ``Any``) — sharing one KernelCache. Partial variants are
    what the serving layer synthesizes for long-tailed shape families;
    they must be bitwise invisible next to the exact and dynamic tiers."""

    def __init__(self):
        self.mod = build_gram_module()
        self.platform = intel_cpu()
        self.kernel_cache = KernelCache()
        self._vms = {}

    def vm(self, spec) -> VirtualMachine:
        """``spec`` is None for the dynamic build, or one entry shape
        possibly holding None dims (a partial binding)."""
        found = self._vms.get(spec)
        if found is None:
            if spec is None:
                exe, _ = nimble.build(
                    self.mod, self.platform, kernel_cache=self.kernel_cache
                )
            else:
                exe, _ = nimble.specialize(
                    self.mod,
                    self.platform,
                    shapes=[spec],
                    kernel_cache=self.kernel_cache,
                )
            found = VirtualMachine(
                exe, ExecutionContext(self.platform, numerics="full")
            )
            self._vms[spec] = found
        return found


_GRAM_TIERS = []


def _gram_tiers() -> _GramTiers:
    if not _GRAM_TIERS:
        _GRAM_TIERS.append(_GramTiers())
    return _GRAM_TIERS[0]


GRAM_COLS = (8, 16)


class TestPartialDifferential:
    """Partial ≡ exact ≡ dynamic, bitwise, across fuzzed bindings — and
    the entry guard turns every wrong routing into a loud error, never a
    wrong answer."""

    @given(
        rows=st.integers(1, 12),
        cols=st.sampled_from(GRAM_COLS),
        bound=st.sampled_from(["rows", "cols", "both"]),
        seed=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_partial_exact_dynamic_bit_identical(self, rows, cols, bound, seed):
        tiers = _gram_tiers()
        rng = np.random.RandomState(seed)
        x = (rng.randn(rows, cols) * 0.2).astype(np.float32)
        spec = {
            "rows": (rows, None),
            "cols": (None, cols),
            "both": (rows, cols),
        }[bound]
        out_dynamic = _run_drained(tiers.vm(None), x)
        out_bound = _run_drained(tiers.vm(spec), x)
        assert out_dynamic.shape == out_bound.shape == (rows, rows)
        assert np.array_equal(out_dynamic, out_bound), (
            f"binding {spec} diverged from dynamic "
            f"(max abs err {np.abs(out_dynamic - out_bound).max()})"
        )

    def test_partial_marker_and_guard(self):
        tiers = _gram_tiers()
        exe = tiers.vm((None, 16)).exe
        assert exe.is_partial
        ok = np.zeros((5, 16), dtype=np.float32)
        bad = np.zeros((5, 8), dtype=np.float32)
        assert exe.guard_mismatch((ok,)) is None
        assert exe.guard_mismatch((bad,)) is not None
        # The dynamic build guards nothing — every shape is its shape.
        assert tiers.vm(None).exe.guard_mismatch((bad,)) is None
        # Opaque inputs (no .shape) fail open: the guard is a routing
        # aid, the VM's own checks remain the authority on validity.
        assert exe.guard_mismatch((object(),)) is None

    def test_vm_raises_shape_guard_error_on_mismatched_entry(self):
        """The safety net behind the serving layer's deopt: running a
        member-wise specialized executable on inputs that violate its
        bound dims must raise — static code compiled for someone else's
        dims must never return a plausible-looking wrong tensor."""
        tiers = _gram_tiers()
        bad = np.zeros((5, 8), dtype=np.float32)
        for spec in ((None, 16), (4, 16)):
            vm = VirtualMachine(
                tiers.vm(spec).exe,
                ExecutionContext(intel_cpu(), numerics="full"),
            )
            with pytest.raises(ShapeGuardError):
                vm.run(bad)


def _family(name):
    """(module, input width) of each model family above."""
    if name == "gram":
        return _gram_tiers().mod, GRAM_COLS[0]
    return _cache(name).mod, _cache(name).input_dim


class TestKernelBuffers:
    """A kernel writes an output's last op straight into its buffer while
    later ops of the same launch may still read their inputs. That is
    sound only if no output buffer shares memory with an input of its
    launch — checked on every launch of the three families, dynamic,
    specialized (the launch tape) and batched, on intel_cpu and on two
    GPU streams."""

    @pytest.mark.parametrize("platform, streams", [(intel_cpu, 1), (nvidia_gpu, 2)],
                             ids=["intel", "nvidia@2"])
    @pytest.mark.parametrize("family", ["lstm", "bert", "gram"])
    def test_no_output_buffer_shares_memory_with_an_input(self, family, platform, streams,
                                                          monkeypatch):
        from repro.codegen.kernels import KernelSet

        mod, width = _family(family)
        launches = []
        real_run = KernelSet.run

        def checked_run(kernel, inputs, outputs=None):
            for out in outputs:
                assert not any(np.shares_memory(out, x) for x in inputs), kernel.name
            launches.append(kernel.name)
            return real_run(kernel, inputs, outputs)

        monkeypatch.setattr(KernelSet, "run", checked_run)
        options = CompilerOptions(device_streams=streams)
        rng = np.random.RandomState(0)
        members = [(rng.randn(5, width) * 0.2).astype(np.float32) for _ in range(2)]
        runs = [(nimble.build(mod, platform(), options=options), members[0]),
                (nimble.specialize(mod, platform(), shapes=[(5, width)], options=options),
                 members[1])]
        if family != "gram":
            runs.append((nimble.specialize(mod, platform(), shapes=[(5, width)],
                                           options=options, batch=2),
                         np.concatenate(members, axis=0)))
        for (exe, _), x in runs:
            _run_drained(VirtualMachine(exe, ExecutionContext(platform(), numerics="full")), x)
        assert len(set(launches)) > 1


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
