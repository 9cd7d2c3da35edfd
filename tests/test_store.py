"""The persistent artifact store (`repro.store`): content-addressed
executable persistence, kernel-cache export/import, corruption handling
(skip-and-count, never crash, never silently load), the serving layer's
restore path, and the public nimble.save_artifacts/load_artifacts API."""

import dataclasses
import functools
import math
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import SerializationError
from repro.hardware import intel_cpu
from repro.ir import Any, Function, IRModule, TensorType, Var, codec, const
from repro.ir.printer import module_fingerprint
from repro.ops import api
from repro.passes import bound_entry_shapes
from repro.serve import (
    InferenceServer,
    ServeConfig,
    ShapeProfile,
    long_tailed_traffic,
    profile_store_key,
)
from repro.store import STORE_FORMAT, ArtifactStore, envelope
from repro.vm import executable
from repro.vm.executable import Executable, VMFunction, artifact_key
from repro.vm.instruction import InvokePacked


def _dyn_mlp_module(dim=8, seed=0):
    w = const(
        (np.random.RandomState(seed).randn(dim, dim) * 0.1).astype(np.float32)
    )
    x = Var("x", TensorType((Any(), dim), "float32"))
    return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))


def _specialized(mod, rows=4, dim=8, cache=None, batch=1):
    exe, _ = nimble.specialize(
        mod, intel_cpu(), shapes=[(rows, dim)],
        kernel_cache=cache if cache is not None else KernelCache(),
        batch=batch,
    )
    return exe


# ---------------------------------------------------------------------------
# Content hashing / store keys
# ---------------------------------------------------------------------------


class TestArtifactKey:
    def test_content_hash_is_stable_and_identity_sensitive(self):
        mod = _dyn_mlp_module()
        exe = _specialized(mod)
        again = _specialized(mod)
        assert exe.content_hash() == again.content_hash()
        other_shape = _specialized(mod, rows=6)
        assert exe.content_hash() != other_shape.content_hash()
        other_model = _specialized(_dyn_mlp_module(dim=16), dim=16)
        assert exe.content_hash() != other_model.content_hash()

    def test_batch_marker_distinguishes_variants_but_one_is_memberwise(self):
        sig = "s"
        member = artifact_key(sig, "intel", ((4, 8),), None)
        assert artifact_key(sig, "intel", ((4, 8),), 1) == member
        assert artifact_key(sig, "intel", ((4, 8),), 2) != member

    def test_manager_side_key_matches_compiled_artifact(self):
        """The serving layer computes the store key *before* compiling
        (bound_entry_shapes); it must match the content hash the
        compiled executable files itself under, or warm restarts would
        never hit."""
        from repro.core.typing import infer_types
        from repro.serve import ShapeBucketer

        mod = _dyn_mlp_module()
        typed = infer_types(mod)
        bucketer = ShapeBucketer(typed["main"])
        exe = _specialized(mod, rows=12)
        binding = dict(zip(bucketer.tokens, (12,)))
        predicted = artifact_key(
            module_fingerprint(mod),
            "intel",
            bound_entry_shapes(mod["main"], binding),
            None,
        )
        assert predicted == exe.content_hash()

    def test_fingerprint_is_weight_sensitive(self):
        """Executables embed their constants, so a retrained model (same
        architecture, new weights) must get a new fingerprint — a
        weight-blind key would warm-restore artifacts that serve the
        OLD model's numerics from the specialized tiers."""
        base = module_fingerprint(_dyn_mlp_module(seed=0))
        assert base == module_fingerprint(_dyn_mlp_module(seed=0))
        assert base != module_fingerprint(_dyn_mlp_module(seed=1))
        assert base != module_fingerprint(_dyn_mlp_module(dim=16))

    def test_fingerprint_is_the_one_the_copying_hasher_gave(self):
        """`module_fingerprint` feeds sha256 each constant's own buffer
        instead of a `tobytes()` copy. The literal is the digest the
        copying hasher gives: every store key written before stays valid."""
        from repro.ir.expr import Constant
        from repro.tensor.ndarray import NDArray

        rng = np.random.RandomState(18)
        x = Var("x", TensorType((4, 3), "float32"))
        strided = Constant(NDArray(rng.randn(3, 4).astype(np.float32).T))
        scalar = const(np.array(3, dtype=np.int64))
        empty = const(np.zeros((0, 3), np.float32))
        assert not strided.data.flags.c_contiguous
        assert scalar.data.ndim == 0 and empty.data.size == 0
        body = api.concatenate(
            [api.multiply(api.add(x, strided), api.take(strided, scalar, axis=0)), empty], axis=0)
        mod = IRModule.from_expr(Function([x], body))
        assert module_fingerprint(mod) == (
            "1045044b70b486d56fb68bd38d1afb0c314d89d21ffb9bedbbb11b854cf69d96")

    def test_retrained_weights_miss_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_specialized(_dyn_mlp_module(seed=0)))
        retrained = _specialized(_dyn_mlp_module(seed=1))
        assert not store.contains(retrained.content_hash())
        assert store.get(retrained.content_hash()) is None
        assert store.rejects == 0  # a clean miss, not a reject


# ---------------------------------------------------------------------------
# Store round-trip + validation
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_put_get_roundtrip_runs(self, tmp_path):
        mod = _dyn_mlp_module()
        exe = _specialized(mod)
        store = ArtifactStore(tmp_path / "store")
        key = store.put(exe)
        assert store.contains(key) and store.keys() == [key]
        loaded = store.get(key, expected_signature=module_fingerprint(mod))
        assert loaded is not None
        assert loaded.specialized_shapes == exe.specialized_shapes
        x = np.random.rand(4, 8).astype(np.float32)
        out = nimble.VirtualMachine(loaded).run(x)
        ref = nimble.VirtualMachine(exe).run(x)
        assert np.array_equal(out.numpy(), ref.numpy())

    def test_miss_returns_none_without_reject(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.rejects == 0

    def test_version_bumped_artifact_skipped_and_counted(self, tmp_path):
        """A stale executable inside a sound envelope: the payload's own
        v5 version check (``Executable.load``) is the one that fires,
        and the store counts it like any other reject."""
        store = ArtifactStore(tmp_path)
        key = store.put(_specialized(_dyn_mlp_module()))
        path = store.blob_path("exe", key)
        payload = bytearray(envelope.open(
            path.read_bytes(), b"NMBE", executable.VERSION, "artifact"
        ))
        payload[4:6] = struct.pack("<H", 99)
        path.write_bytes(
            envelope.seal(b"NMBE", executable.VERSION, payload) + payload
        )
        assert store.get(key) is None
        assert store.rejects == 1
        assert "version" in store.reject_log[0][1]

    def test_artifact_filed_under_wrong_key_skipped(self, tmp_path):
        """A valid blob copied to another artifact's path must not be
        served as that artifact."""
        store = ArtifactStore(tmp_path)
        key = store.put(_specialized(_dyn_mlp_module()))
        wrong = "f" * 64
        store.blob_path("exe", wrong).write_bytes(
            store.blob_path("exe", key).read_bytes()
        )
        assert store.get(wrong) is None
        assert store.rejects == 1

    def test_signature_mismatch_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.put(_specialized(_dyn_mlp_module()))
        assert store.get(key, expected_signature="not-this-module") is None
        assert store.rejects == 1
        assert "signature" in store.reject_log[0][1]

    def test_store_format_mismatch_refused_at_open(self, tmp_path):
        ArtifactStore(tmp_path)
        (tmp_path / "STORE_FORMAT").write_text(f"{STORE_FORMAT + 1}\n")
        with pytest.raises(SerializationError, match="format"):
            ArtifactStore(tmp_path)

    def test_tampered_blob_rejected_by_loader_directly(self):
        exe = _specialized(_dyn_mlp_module())
        blob = bytearray(exe.save())
        # Flip a byte inside the platform-name section: the embedded
        # content hash no longer matches the recomputed one.
        blob[7] ^= 0xFF
        with pytest.raises(SerializationError):
            Executable.load(bytes(blob))

    def test_resealed_blob_with_a_flipped_kernel_kind_rejected(self, tmp_path):
        """A compute kernel relabelled a shape function decodes, keys and
        seals clean under its artifact's key: verification is the gate
        that refuses it (the VM would run a kernel set as a shape
        function)."""
        exe = _specialized(_dyn_mlp_module())
        store = ArtifactStore(tmp_path)
        key = store.put(exe)
        assert store.get(key) is not None and store.verify_rejects == 0
        func = exe.functions[exe.func_index[exe.entry]]
        instrs = list(func.instructions)
        pc = next(pc for pc, i in enumerate(instrs) if isinstance(i, InvokePacked))
        instrs[pc] = dataclasses.replace(instrs[pc], kind="shape_func")
        flipped = dataclasses.replace(exe, functions=[
            VMFunction(f.name, f.num_params, instrs, f.register_count) if f is func else f
            for f in exe.functions
        ])
        assert store.put(flipped) == key
        assert store.get(key) is None
        assert (store.rejects, store.verify_rejects) == (1, 1)
        assert "shape_func invocation of kernel" in store.reject_log[0][1]

    @pytest.mark.parametrize("name", ["nn.relu", "nn.dense"])
    def test_a_blob_calling_an_unregistered_op_is_a_counted_reject(self, tmp_path, monkeypatch,
                                                                   name):
        """A blob an older build wrote may call an operator this build no
        longer registers. It decodes and keys clean; verification refuses
        it at restore, where a miss is a recompile, instead of letting it
        fail at its first launch."""
        from repro.ops import registry

        exe = _specialized(_dyn_mlp_module())
        store = ArtifactStore(tmp_path)
        key = store.put(exe)
        monkeypatch.delitem(registry._REGISTRY, name)
        assert store.get(key) is None
        assert (store.rejects, store.verify_rejects) == (1, 1)
        assert f"does not register: {name}" in store.reject_log[0][1]


# ---------------------------------------------------------------------------
# Kernel-cache persistence
# ---------------------------------------------------------------------------


class TestKernelCachePersistence:
    def test_export_import_roundtrip(self, tmp_path):
        cache = KernelCache()
        _specialized(_dyn_mlp_module(), cache=cache)
        assert len(cache) > 0
        store = ArtifactStore(tmp_path)
        store.save_kernel_cache(cache)
        fresh = KernelCache()
        added = store.load_kernel_cache(fresh)
        assert added >= len(cache)
        assert len(fresh) == len(cache)

    def test_import_keeps_existing_entries(self):
        cache = KernelCache()
        _specialized(_dyn_mlp_module(), cache=cache)
        blob = cache.export_entries()
        live = dict(cache._kernels)
        assert cache.import_entries(blob) == 0
        assert all(cache._kernels[k] is v for k, v in live.items())

    def test_bad_blob_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            KernelCache().import_entries(b"not a cache")
        store = ArtifactStore(tmp_path)
        store.kernel_cache_path.write_bytes(b"garbage")
        assert store.load_kernel_cache(KernelCache()) == 0
        assert store.rejects == 1


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


class TestNimbleArtifactAPI:
    def test_save_load_artifacts(self, tmp_path):
        mod = _dyn_mlp_module()
        cache = KernelCache()
        exes = [_specialized(mod, rows=r, cache=cache) for r in (4, 9)]
        keys = nimble.save_artifacts(tmp_path, exes, kernel_cache=cache)
        assert sorted(keys) == ArtifactStore(tmp_path).keys()
        fresh_cache = KernelCache()
        loaded = nimble.load_artifacts(tmp_path, kernel_cache=fresh_cache)
        assert set(loaded) == set(keys)
        assert len(fresh_cache) == len(cache)
        shapes = {exe.specialized_shapes for exe in loaded.values()}
        assert shapes == {((4, 8),), ((9, 8),)}

    def test_load_artifacts_skips_corrupt(self, tmp_path):
        mod = _dyn_mlp_module()
        keys = nimble.save_artifacts(
            tmp_path, [_specialized(mod, rows=r) for r in (4, 9)]
        )
        store = ArtifactStore(tmp_path)
        path = store.blob_path("exe", sorted(keys)[0])
        path.write_bytes(path.read_bytes()[:25])
        loaded = nimble.load_artifacts(tmp_path)
        assert set(loaded) == {sorted(keys)[1]}


# ---------------------------------------------------------------------------
# Serving integration: warm restarts, eviction restores, corruption
# ---------------------------------------------------------------------------


def _serve_setup(tmp_path, **overrides):
    from repro.models.lstm import LSTMWeights, build_lstm_module

    weights = LSTMWeights.create(16, 16, num_layers=1, seed=0)
    mod = build_lstm_module(weights)
    requests = long_tailed_traffic(
        160, input_size=16, mean_interarrival_us=400.0,
        hot_lengths=(7, 12, 19), hot_fraction=0.85, seed=0,
    )
    params = dict(
        max_batch_size=4,
        max_delay_us=1500.0,
        num_workers=2,
        specialize=True,
        specialize_threshold=4,
        specialize_max_executables=8,
        specialize_compile_us=6000.0,
        artifact_dir=str(tmp_path / "store"),
    )
    params.update(overrides)
    return mod, requests, ServeConfig(**params)


class TestServeRestore:
    def test_warm_restart_restores_everything(self, tmp_path):
        mod, requests, config = _serve_setup(tmp_path)
        cold = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        assert cold.specialize_fresh_compiles > 0
        assert cold.specialize_restored == 0
        warm_server = InferenceServer(mod, intel_cpu(), config)
        warm = warm_server.simulate(requests)
        assert warm.specialize_fresh_compiles == 0
        assert warm.specialize_restored == cold.specialize_fresh_compiles
        # Three variants: cold pays 3 x 2400 (the suffix share of the
        # 6000 us override) + 3600 once for the prefix; warm pays three
        # 450 us deserializes (300 + 30 per kernel, five kernels a blob
        # since each layer's gate GEMM and gate math are one kernel; 480
        # with six while the GEMM was its own, 540 with eight before the
        # LSTM cell was one kernel) — 12.5% of the cold charge.
        assert cold.specialize_compile_us == pytest.approx(10_800.0)
        assert warm.specialize_compile_us == pytest.approx(1_350.0)
        assert warm.specialized_hit_rate >= cold.specialized_hit_rate
        for a, b in zip(cold.responses, warm.responses):
            assert np.array_equal(a.output.numpy(), b.output.numpy())
        # Replays of the warm server are bit-identical: the restorable
        # key set was frozen at construction.
        replay = warm_server.simulate(requests)
        assert replay.latencies_us == warm.latencies_us
        assert replay.specialize_restored == warm.specialize_restored
        assert replay.specialize_compile_us == warm.specialize_compile_us

    def test_cold_server_replay_is_identical_despite_own_writes(self, tmp_path):
        """The first simulation populates the store; the second must
        still compile (not restore) so replays stay bit-identical."""
        mod, requests, config = _serve_setup(tmp_path)
        server = InferenceServer(mod, intel_cpu(), config)
        first = server.simulate(requests)
        second = server.simulate(requests)
        assert second.specialize_restored == first.specialize_restored == 0
        assert second.specialize_compile_us == first.specialize_compile_us
        assert second.latencies_us == first.latencies_us

    def test_evicted_shape_restores_instead_of_recompiling(self, tmp_path):
        """PR-3 follow-on: with a store, an evicted-then-re-armed shape
        pays the deserialize charge, not a second full compile. The
        traffic's last phase revisits the first phase's hot shape, so
        its (evicted) artifact re-triggers after being persisted."""
        mod, requests, config = _serve_setup(
            tmp_path,
            specialize_max_executables=1,
            specialize_decay_half_life_us=4_000.0,
        )
        requests = long_tailed_traffic(
            160, input_size=16, mean_interarrival_us=400.0,
            hot_lengths=(7, 12, 7), hot_fraction=0.85, seed=0,
        )
        report = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        assert report.specialize_evictions > 0
        # Some re-arms restored the persisted binary at restore cost.
        assert report.specialize_restored > 0
        assert (
            report.specialize_restore_us
            < report.specialize_restored * config.specialize_compile_us
        )

    def test_corrupt_store_falls_back_to_compile(self, tmp_path):
        """The corruption contract: a truncated artifact is skipped with
        a recorded store_rejects count and the server compiles fresh —
        no crash, no silent load, outputs unchanged."""
        mod, requests, config = _serve_setup(tmp_path)
        cold = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        store = ArtifactStore(config.artifact_dir)
        victim = store.blob_path("exe", store.keys()[0])
        victim.write_bytes(victim.read_bytes()[: 50])
        warm_server = InferenceServer(mod, intel_cpu(), config)
        warm = warm_server.simulate(requests)
        assert warm.store_rejects == 1
        assert warm.specialize_fresh_compiles == 1
        assert warm.specialize_restored == cold.specialize_fresh_compiles - 1
        for a, b in zip(cold.responses, warm.responses):
            assert np.array_equal(a.output.numpy(), b.output.numpy())
        # The reject replays deterministically even though the fallback
        # compile overwrote the corrupt blob with a good one.
        replay = warm_server.simulate(requests)
        assert replay.store_rejects == warm.store_rejects
        assert replay.specialize_compile_us == warm.specialize_compile_us
        assert replay.latencies_us == warm.latencies_us

    def test_version_bumped_artifact_in_store_falls_back(self, tmp_path):
        mod, requests, config = _serve_setup(tmp_path)
        InferenceServer(mod, intel_cpu(), config).simulate(requests)
        store = ArtifactStore(config.artifact_dir)
        for key in store.keys():
            path = store.blob_path("exe", key)
            blob = bytearray(path.read_bytes())
            blob[4:8] = struct.pack("<I", 99)
            path.write_bytes(bytes(blob))
        warm = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        assert warm.store_rejects > 0
        assert warm.specialize_restored == 0
        assert warm.specialize_fresh_compiles > 0

    def test_a_store_of_the_previous_formats_is_refused_and_served_cold(
        self, tmp_path, monkeypatch
    ):
        """A store filled at executable ``VERSION`` 7 and
        ``KERNEL_CACHE_FORMAT`` 3, the formats whose kernels ran the
        default schedule where a build now runs the one it searched
        (batched blobs among its executables), is never run. Its
        executables sit under keys this build does not ask for; copied
        under the ones it does, each is refused before it is decoded, as
        is ``kernels.kc``, each refusal a counted ``StoreReject``, and
        the server compiles what a cold one does.
        (Full numerics: every tier's output is the member-wise one, so
        each response matches by rid whichever tier served it.)"""
        from repro.serve.events import StoreReject
        from repro.store import artifacts

        mod, requests, config = _serve_setup(
            tmp_path, specialize_batch=True, numerics="full")
        with monkeypatch.context() as m:
            m.setattr(executable, "VERSION", 7)
            m.setattr(artifacts, "KERNEL_CACHE_FORMAT", 3)
            cold = InferenceServer(mod, intel_cpu(), config).simulate(requests)
            store = ArtifactStore(config.artifact_dir)
            stale = {key: store.get(key) for key in store.keys()}
        assert any(exe.specialized_batch for exe in stale.values())
        for key, exe in stale.items():  # the key this build asks for
            assert exe.content_hash() != key
            store.blob_path("exe", exe.content_hash()).write_bytes(
                store.blob_path("exe", key).read_bytes())
        warm = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        rejects = [r for r in warm.records if isinstance(r, StoreReject)]
        assert sorted(r.kind for r in rejects) == ["exe"] * len(stale) + ["kernels"]
        assert warm.store_rejects == len(stale) + 1 and warm.verify_rejects == 0
        assert warm.specialize_restored == 0
        assert warm.specialize_fresh_compiles == cold.specialize_fresh_compiles
        assert "batched" in {r.tier for r in warm.responses}
        want = {r.rid: r.output.numpy().tobytes() for r in cold.responses}
        assert {r.rid: r.output.numpy().tobytes() for r in warm.responses} == want

    def test_kernel_cache_warm_loads(self, tmp_path):
        mod, requests, config = _serve_setup(tmp_path)
        InferenceServer(mod, intel_cpu(), config).simulate(requests)
        store = ArtifactStore(config.artifact_dir)
        probe = KernelCache()
        assert store.load_kernel_cache(probe) > 0
        warm_server = InferenceServer(mod, intel_cpu(), config)
        assert len(warm_server.kernel_cache) >= len(probe)

    def test_corrupt_kernel_cache_visible_in_report(self, tmp_path):
        """A rejected kernels.kc must surface in ServeReport.store_rejects
        — the kernel-cache half of warm restart failing silently would
        read as 'store healthy' while every kernel recompiles cold."""
        mod, requests, config = _serve_setup(tmp_path)
        InferenceServer(mod, intel_cpu(), config).simulate(requests)
        ArtifactStore(config.artifact_dir).kernel_cache_path.write_bytes(
            b"garbage"
        )
        warm = InferenceServer(mod, intel_cpu(), config).simulate(requests)
        # 1 kernel-cache reject on top of zero executable rejects; the
        # executables themselves still restore fine.
        assert warm.store_rejects == 1
        assert warm.specialize_restored > 0


# ---------------------------------------------------------------------------
# Specialization-prefix persistence
# ---------------------------------------------------------------------------


class TestPrefixStore:
    def _prefix(self, mod):
        nimble.clear_prefix_cache()
        prefix, _ = nimble.compile_prefix(mod, intel_cpu())
        nimble.clear_prefix_cache()
        return prefix

    def test_put_get_roundtrip(self, tmp_path):
        mod = _dyn_mlp_module()
        prefix = self._prefix(mod)
        store = ArtifactStore(tmp_path)
        key = store.put_prefix(prefix)
        assert key == prefix.store_key()
        assert store.keys("prefix") == [key]
        loaded = store.get_prefix(
            key, expected_signature=module_fingerprint(mod)
        )
        assert loaded is not None
        assert loaded.store_key() == key
        # The loaded prefix compiles to the same artifact as monolithic.
        cache = KernelCache()
        mono = _specialized(mod, cache=cache)
        staged, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], kernel_cache=cache,
            prefix=loaded,
        )
        assert staged.content_hash() == mono.content_hash()

    def test_prefix_blobs_never_alias_executable_keys(self, tmp_path):
        """.nmblp files must not leak into keys() (which a manager
        freezes at init to decide warm restores), nor vice versa."""
        mod = _dyn_mlp_module()
        store = ArtifactStore(tmp_path)
        store.put_prefix(self._prefix(mod))
        store.put(_specialized(mod))
        assert len(store.keys()) == 1
        assert len(store.keys("prefix")) == 1
        assert set(store.keys()).isdisjoint(store.keys("prefix"))

    def test_prefix_miss_is_silent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get_prefix("0" * 64) is None
        assert store.rejects == 0

    def test_signature_mismatch_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.put_prefix(self._prefix(_dyn_mlp_module()))
        assert store.get_prefix(key, expected_signature="f" * 64) is None
        assert store.rejects == 1

    def test_prefix_filed_under_wrong_key_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.put_prefix(self._prefix(_dyn_mlp_module()))
        wrong = "0" * len(key)
        store.blob_path("prefix", key).rename(store.blob_path("prefix", wrong))
        assert store.get_prefix(wrong) is None
        assert store.rejects == 1


# ---------------------------------------------------------------------------
# Shape-profile (.nmblprof) persistence
# ---------------------------------------------------------------------------


class TestProfileStore:
    def _profile(self, signature="a" * 64):
        return ShapeProfile(
            source_signature=signature,
            platform_name="intel",
            hits={(9, 16): 40, (25, 16): 12, (None, 16): 60},
            scores={(9, 16): 4.5, (25, 16): 1.25, (None, 16): 7.0},
        )

    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        profile = self._profile()
        key = store.put_profile(profile)
        assert key == profile_store_key("a" * 64, "intel")
        assert store.keys("profile") == [key]
        back = store.get_profile(key, expected_signature="a" * 64)
        assert back is not None
        assert back.hits == profile.hits
        assert back.scores == profile.scores
        assert store.rejects == 0

    def test_top_keys_order_is_total_with_partial_keys(self):
        profile = self._profile()
        # By decayed score: the partial key (None, 16) is hottest; mixed
        # None/int tuples are not Python-comparable, so the ordering must
        # go through the None-safe proxy without raising.
        assert profile.top_keys() == ((None, 16), (9, 16), (25, 16))
        assert profile.top_keys(1) == ((None, 16),)

    def test_profile_blobs_never_alias_other_suffixes(self, tmp_path):
        """.nmblprof files must stay invisible to keys() and
        keys("prefix") — a .nmblp match that also took .nmblprof would
        feed profile bytes into the executable restore path."""
        mod = _dyn_mlp_module()
        store = ArtifactStore(tmp_path)
        store.put(_specialized(mod))
        store.put_profile(self._profile())
        assert len(store.keys()) == 1
        assert store.keys("prefix") == []
        assert len(store.keys("profile")) == 1

    def test_miss_is_silent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get_profile("0" * 64) is None
        assert store.rejects == 0

    def test_signature_mismatch_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.put_profile(self._profile())
        assert store.get_profile(key, expected_signature="f" * 64) is None
        assert store.rejects == 1

    def test_profile_filed_under_wrong_key_skipped(self, tmp_path):
        """A valid blob under the wrong filename is rejected by the
        recomputed-key check (same key⇄content discipline as .nmbl)."""
        store = ArtifactStore(tmp_path)
        key = store.put_profile(self._profile())
        wrong = "0" * len(key)
        store.blob_path("profile", key).rename(
            store.blob_path("profile", wrong)
        )
        assert store.get_profile(wrong) is None
        assert store.rejects == 1

    def test_malformed_shape_key_rejected_by_loader(self):
        blob = ShapeProfile(
            source_signature="a" * 64,
            platform_name="intel",
            hits={("not", "ints"): 1},
            scores={},
        ).save()
        with pytest.raises(SerializationError, match="malformed shape key"):
            ShapeProfile.load(blob)

    def test_overwrite_is_last_writer_wins(self, tmp_path):
        """One profile per (module, platform, format): a second
        simulation's snapshot replaces the first at the same key."""
        store = ArtifactStore(tmp_path)
        first = self._profile()
        key = store.put_profile(first)
        second = self._profile()
        second.hits = {(7, 16): 3}
        second.scores = {(7, 16): 0.5}
        assert store.put_profile(second) == key
        back = store.get_profile(key)
        assert back.hits == {(7, 16): 3}
        assert store.keys("profile") == [key]


# ---------------------------------------------------------------------------
# One envelope, one read path: damage to any file has one outcome
# ---------------------------------------------------------------------------

# The store's kind names, and the test ids (the kernel cache goes by its
# file name there).
_BLOB_KINDS = ("exe", "prefix", "profile", "kernels")
_KIND_IDS = ("exe", "prefix", "profile", "kernels.kc")


@functools.lru_cache(maxsize=None)
def _pristine(kind):
    """One real blob of *kind*, written through a store: ``(key, bytes)``
    (the kernel cache is the store's one unkeyed file: key ``None``)."""
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        mod = _dyn_mlp_module()
        key = None
        if kind == "exe":
            key = store.put(_specialized(mod))
        elif kind == "prefix":
            key = store.put_prefix(nimble.build_prefix(mod, intel_cpu()))
        elif kind == "profile":
            key = store.put_profile(TestProfileStore()._profile())
        else:
            cache = KernelCache()
            _specialized(mod, cache=cache)
            store.save_kernel_cache(cache)
        return key, store.blob_path(kind, key).read_bytes()


def _read_back(store, kind, key):
    """Through the public entry point; ``None`` is its miss/reject value."""
    if kind == "exe":
        return store.get(key)
    if kind == "prefix":
        return store.get_prefix(key)
    if kind == "profile":
        return store.get_profile(key)
    return store.load_kernel_cache(KernelCache()) or None


class TestStoreCorruption:
    """Every file in the store is one envelope read on one path, so for
    every kind a flipped byte, a truncation or a stale version has the
    same single outcome: the public read returns its miss value and the
    store logs exactly one reject — never an exception, never an object.
    (An executable used to hash only its identity, so a flip inside a
    weight loaded; ``kernels.kc`` had no digest at all.)"""

    @pytest.mark.parametrize("kind", _BLOB_KINDS, ids=_KIND_IDS)
    def test_undamaged_blob_reads_back(self, tmp_path, kind):
        key, blob = _pristine(kind)
        store = ArtifactStore(tmp_path)
        store.blob_path(kind, key).write_bytes(blob)
        assert _read_back(store, kind, key) is not None
        assert store.rejects == 0

    @pytest.mark.parametrize(
        ("kind", "damage"),
        [
            pytest.param(kind, damage, id=f"{kind_id}-{damage}")
            for kind, kind_id in zip(_BLOB_KINDS, _KIND_IDS)
            for damage in ("flip", "truncate", "version")
        ],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_damaged_blob_is_one_counted_reject(
        self, tmp_path_factory, kind, damage, data
    ):
        key, blob = _pristine(kind)
        blob = bytearray(blob)
        if damage == "flip":
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= data.draw(st.integers(1, 255))
            # The header field the byte sits in names the reject.
            word = "magic" if at < 4 else "version" if at < 8 else "digest"
        elif damage == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
            word = "truncated"
        else:
            (written,) = struct.unpack_from("<I", blob, 4)
            stale = data.draw(
                st.integers(0, 2**32 - 1).filter(lambda v: v != written)
            )
            struct.pack_into("<I", blob, 4, stale)
            word = "version"
        store = ArtifactStore(tmp_path_factory.mktemp("damaged"))
        store.blob_path(kind, key).write_bytes(bytes(blob))
        assert _read_back(store, kind, key) is None
        assert [name for name, _ in store.reject_log] == [key or "kernels.kc"]
        assert word in store.reject_log[0][1]

    @pytest.mark.parametrize("damage", ["flip", "truncate", "bare_pickle"])
    def test_a_sealed_blob_whose_kernels_do_not_inflate_is_one_counted_reject(
        self, tmp_path, monkeypatch, damage
    ):
        """The envelope vouches for bytes, not for what they mean: an
        executable whose deflated kernels section is damaged (a flipped
        byte, a cut stream, or the bare pickle a v8 writer put there)
        seals clean under its key, and its load is one counted reject."""
        import types
        import zlib

        def damaged(data):
            stream = bytearray(zlib.compress(data))
            if damage == "flip":
                stream[len(stream) // 2] ^= 0xFF
            elif damage == "truncate":
                del stream[len(stream) // 2:]
            else:
                stream = data
            return bytes(stream)

        exe = _specialized(_dyn_mlp_module())
        store = ArtifactStore(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(executable, "zlib",
                          types.SimpleNamespace(compress=damaged, decompress=zlib.decompress))
            key = store.put(exe)
        assert key == exe.content_hash()
        assert store.get(key) is None
        assert store.rejects == 1 and store.verify_rejects == 0
        assert "failed to deserialize: error" in store.reject_log[0][1]
        store.put(exe)
        assert store.get(key) is not None and store.rejects == 1

    @pytest.mark.parametrize(
        "decode",
        [
            lambda p: nimble.SpecializationPrefix.load(struct.pack("<2Q", len(p), 0) + p),
            ShapeProfile.load,
            lambda p: KernelCache().import_entries(p),
        ],
        ids=["prefix", "profile", "kernels"],
    )
    def test_a_sound_pickle_of_the_wrong_shape_is_a_serialization_error(self, decode):
        """One decode wrapper (``repro.ir.codec.decoding``) covers the
        unpacking too: a payload holding the wrong thing is a bad blob,
        never an unpacking or attribute error."""
        for payload in (codec.dumps((1, 2)), codec.dumps(([1], [2]))):
            with pytest.raises(SerializationError):
                decode(payload)


# ---------------------------------------------------------------------------
# Store GC: age pruning with refcount and in-flight guards
# ---------------------------------------------------------------------------


class TestStoreGC:
    """Property coverage of `repro.store.StoreGC`: the collector never
    touches a referenced or in-flight blob, respects the age policy,
    inventories (never deletes) malformed names, and a
    pruned-then-re-hot shape recompiles and re-persists cleanly."""

    _UNIVERSE = [
        (kind, f"{kind}-{i}")
        for i, kind in enumerate(
            ["exe", "prefix", "profile", "exe", "prefix", "profile", "exe", "exe"]
        )
    ]

    def _model(self, store_dir):
        from repro.fleet import FleetStoreView
        from repro.store import StoreGC

        store = ArtifactStore(store_dir)
        view = FleetStoreView(store)
        for t, (kind, key) in enumerate(self._UNIVERSE):
            view.record_put(kind, key, 100.0 * t, replica_id=0)
        return store, view, StoreGC

    def test_collector_validation(self, tmp_path):
        store, view, StoreGC = self._model(tmp_path)
        with pytest.raises(ValueError, match="max_age_us"):
            StoreGC(store, view, max_age_us=-1.0)
        with pytest.raises(TypeError, match="max_age_us"):
            StoreGC(store, view)  # the policy is required

    @given(
        referenced=st.sets(st.sampled_from(range(8)), max_size=8),
        in_flight=st.sets(st.sampled_from(range(8)), max_size=8),
        max_age_us=st.sampled_from([0.0, 250.0, math.inf]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_guards_and_policies_hold_for_any_protection_set(
        self, tmp_path_factory, referenced, in_flight, max_age_us
    ):
        store_dir = tmp_path_factory.mktemp("gc")
        store, view, StoreGC = self._model(store_dir)
        gc = StoreGC(store, view, max_age_us=max_age_us)
        referenced = {self._UNIVERSE[i] for i in referenced}
        in_flight = {self._UNIVERSE[i] for i in in_flight}
        protected = referenced | in_flight
        report = gc.collect(1000.0, referenced=referenced, in_flight=in_flight)
        assert report.examined == len(self._UNIVERSE)
        pruned = set(report.pruned)
        # The two absolute guards: protection always wins.
        assert pruned.isdisjoint(protected)
        for kind, key in protected:
            assert view.present(kind, key)
        live = set(view.inventory())
        assert live == set(self._UNIVERSE) - pruned
        if max_age_us == math.inf:
            assert not pruned  # nothing is older than forever
        # Every unprotected survivor is inside the age window: at 0 none
        # is, so only the guards keep anything.
        for entry in live - protected:
            assert 1000.0 - view.last_use_us(*entry) <= max_age_us
        if max_age_us == 0.0:
            assert live <= protected

    def test_age_policy_spares_recent_blobs(self, tmp_path):
        store, view, StoreGC = self._model(tmp_path)
        gc = StoreGC(store, view, max_age_us=450.0)
        report = gc.collect(1000.0)
        # Entries were put at 0,100,...,700: ages 1000..300; > 450 goes.
        assert set(report.pruned) == set(self._UNIVERSE[:6])
        assert report.kept_fresh == 2
        assert view.inventory() == sorted(self._UNIVERSE[6:])

    def test_in_flight_guard_is_independent_of_references(self, tmp_path):
        store, view, StoreGC = self._model(tmp_path)
        gc = StoreGC(store, view, max_age_us=0.0)
        hot = self._UNIVERSE[3]
        report = gc.collect(1000.0, in_flight={hot})
        assert report.kept_in_flight == 1
        assert hot not in report.pruned
        assert view.present(*hot)
        assert view.inventory() == [hot]

    def test_never_used_initial_blobs_are_infinitely_old(self, tmp_path):
        """A blob inherited from a previous process that nobody has
        touched has no age anchor: any age policy reclaims it, and the
        disk unlink really happens."""
        from repro.fleet import FleetStoreView
        from repro.store import StoreGC

        store = ArtifactStore(tmp_path)
        key = store.put_profile(
            ShapeProfile(
                source_signature="a" * 64,
                platform_name="intel",
                hits={(9, 1): 2},
                scores={(9, 1): 1.0},
            )
        )
        view = FleetStoreView(store)
        report = StoreGC(store, view, max_age_us=10_000_000.0).collect(0.0)
        assert report.pruned == [("profile", key)]
        assert report.missing_on_disk == 0
        assert not store.blob_path("profile", key).exists()
        assert not view.present("profile", key)

    def test_malformed_names_inventoried_never_deleted(self, tmp_path):
        from repro.fleet import FleetStoreView
        from repro.store import StoreGC

        store = ArtifactStore(tmp_path)
        junk = [
            store.artifacts_dir / "README.rogue",
            store.artifacts_dir / "deadbeef.nmblx",
        ]
        for path in junk:
            path.write_bytes(b"not an artifact")
        (store.artifacts_dir / ".tmp-123").write_bytes(
            b"in-flight writer, not junk"
        )
        view = FleetStoreView(store)
        assert store.malformed_names() == ["README.rogue", "deadbeef.nmblx"]
        report = StoreGC(store, view, max_age_us=0.0).collect(1000.0)
        assert report.malformed == 2
        for path in junk:
            assert path.exists()  # evidence, not garbage

    def test_counters_exclude_disk_dependent_state(self, tmp_path):
        """`missing_on_disk` depends on what earlier replays left on
        disk, so it must stay out of the replay-equality surface."""
        store, view, StoreGC = self._model(tmp_path)
        report = StoreGC(store, view, max_age_us=0.0).collect(1000.0)
        assert report.missing_on_disk == len(self._UNIVERSE)  # fake keys
        assert "missing_on_disk" not in report.counters()
        assert report.counters()["pruned"] == tuple(report.pruned)

    def test_pruned_then_rehot_recompiles_and_repersists(self, tmp_path):
        """GC reclaims a cold specialized executable; when its shape
        comes back, the replica must notice the blob is gone (fresh
        compile, no phantom restore) and re-persist it — reviving the
        store entry for the next consumer."""
        from repro.fleet import FleetConfig, FleetRouter
        from repro.serve import Request

        def payload(rows, seed=0):
            rng = np.random.RandomState(seed)
            return (rng.randn(rows, 8) * 0.1).astype(np.float32)

        def mlp():
            w = const(
                (np.random.RandomState(0).randn(8, 8) * 0.1).astype(np.float32)
            )
            x = Var("x", TensorType((Any(), 8), "float32"))
            return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))

        store_dir = str(tmp_path / "store")
        fast = dict(
            max_batch_size=2,
            max_delay_us=300.0,
            num_workers=1,
            specialize=True,
            specialize_threshold=2,
            specialize_compile_us=2000.0,
        )
        warm = InferenceServer(
            mlp(), intel_cpu(), ServeConfig(artifact_dir=store_dir, **fast)
        )
        warm.simulate(
            [
                Request(rid=i, arrival_us=i * 100.0, payload=payload(9, seed=i))
                for i in range(12)
            ]
        )
        exe_key = ArtifactStore(store_dir).keys()[0]

        # The shape goes quiet until 2000 µs; an aggressive collector
        # (every 500 µs, zero age tolerance) reclaims its blob first.
        router = FleetRouter(
            mlp(),
            intel_cpu(),
            ServeConfig(artifact_dir=store_dir, **fast),
            FleetConfig(num_replicas=1, gc_interval_us=500.0, gc_max_age_us=0.0),
        )
        trace = [
            Request(
                rid=i, arrival_us=2000.0 + i * 100.0, payload=payload(9, seed=i)
            )
            for i in range(12)
        ]
        report = router.simulate(trace)
        assert ("exe", exe_key) in report.gc_reports[0].pruned
        # Re-hot: recompiled from scratch, never "restored" from the
        # reclaimed memory...
        counters = report.counters()
        assert [r.specialize_restored for r in report.replica_reports] == [0]
        assert [r.specialize_fresh_compiles for r in report.replica_reports] == [1]
        assert [r.store_rejects for r in report.replica_reports] == [0]
        # ...and re-persisted: model and disk both hold the blob again.
        assert router.view.present("exe", exe_key)
        assert router.view.origin("exe", exe_key) == 0
        assert ArtifactStore(store_dir).keys() == [exe_key]
        # The whole dance replays bit-identically.
        replay = router.simulate(trace)
        assert replay.counters() == counters


# ---------------------------------------------------------------------------
# Constant chunks: a large weight is one file and one array, not one per blob
# ---------------------------------------------------------------------------


def _lstm_module(width=16):
    """An LSTM whose one weight matrix — (4 * width, 2 * width) float32,
    8 KiB at width 16 — is the only constant of CHUNK_MIN_BYTES or more."""
    from repro.models.lstm import LSTMWeights, build_lstm_module

    return build_lstm_module(LSTMWeights.create(width, width, num_layers=1, seed=0))


def _filled(root, mod=None, lengths=(5, 9), width=16):
    """A store holding the prefix of *mod* and one variant per length:
    ``(store, mod, prefix key, exe keys)``."""
    mod = mod or _lstm_module(width)
    store = ArtifactStore(root)
    cache = KernelCache()
    prefix = nimble.build_prefix(mod, intel_cpu())
    exes = [
        nimble.specialize(
            mod, intel_cpu(), shapes=[(n, width)], kernel_cache=cache, prefix=prefix
        )[0]
        for n in lengths
    ]
    return store, mod, store.put_prefix(prefix), [store.put(exe) for exe in exes]


def _weight(obj):
    """The one large array of an executable or of a prefix's module."""
    from repro.ir.visitor import ExprVisitor

    arrays = []
    if isinstance(obj, Executable):
        arrays = [c.numpy() for c in obj.constants]
    else:
        collect = ExprVisitor()
        collect.visit_constant = lambda node: arrays.append(node.data)
        for func in obj.module.functions.values():
            collect.visit(func)
    (big,) = {id(a): a for a in arrays if a.nbytes >= 4096}.values()
    return big


def _chunk_file(store):
    (name,) = store.chunk_names()
    return name, store.blob_path("const", name)


def _reseal(path, magic, version, mutate):
    """Rewrite the segment table of the blob at *path* through *mutate*
    (a list of ``(length, digest | None)`` in, the same out) and seal it
    again: a sound envelope around a table that lies."""
    blob = path.read_bytes()
    inline = bytes(envelope.open(blob, magic, version, "blob"))
    segments = []
    for length, digest in mutate(envelope.table(blob)[0]):
        if digest is None:
            segments.append(inline[:length])
            inline = inline[length:]
        else:
            segments.append((length, digest))
    path.write_bytes(
        envelope.seal(magic, version, *segments)
        + b"".join(s for s in segments if not isinstance(s, tuple))
    )


class TestConstantChunks:
    def test_one_chunk_per_model_named_by_every_blob(self, tmp_path):
        """Structure: two variants and the prefix name one file under
        constants/ (the weight; the 256-byte bias stays inline), and what
        is left per blob is bytecode, kernels and small constants."""
        store, mod, prefix_key, exe_keys = _filled(tmp_path)
        name, path = _chunk_file(store)
        assert path.stat().st_size == envelope.HEADER_SIZE + 8192
        for kind, key in [("prefix", prefix_key)] + [("exe", k) for k in exe_keys]:
            assert store.chunk_refs(kind, key) == [name]
            assert store.blob_path(kind, key).stat().st_size < 16 * 1024
        assert store.malformed_names() == []
        # Chunks are no entries of the inventory the view and GC model.
        assert {kind for kind, _ in store.inventory()} == {"exe", "prefix"}

    def test_executables_outside_a_store_stay_self_contained(self, tmp_path):
        store, _, _, exe_keys = _filled(tmp_path)
        restored = store.get(exe_keys[0])
        blob = restored.save()
        assert len(blob) > 8192
        assert Executable.load(blob).save() == blob

    def test_restored_blobs_share_one_aligned_read_only_array(self, tmp_path):
        """Two variants and the prefix restored through one store hold
        one copy of the weights. The array is aligned as np.empty aligns
        (a protocol-5 buffer left aliasing the payload at offset 40 made
        NumPy take another code path: last-ulp differences between
        tiers), and read-only: a VM run cannot change it under a
        sibling."""
        root = tmp_path / "store"
        _, mod, prefix_key, exe_keys = _filled(root)
        store = ArtifactStore(root)
        prefix = store.get_prefix(prefix_key)
        first, second = (store.get(key) for key in exe_keys)
        weights = [_weight(obj) for obj in (prefix, first, second)]
        for array in weights:
            assert np.shares_memory(array, weights[0])
            assert not array.flags.writeable
            assert array.ctypes.data % 16 == 0
        # Small constants are private, writable copies, as before.
        small = [c.numpy() for c in first.constants if c.numpy().nbytes < 4096]
        assert small and all(a.flags.writeable for a in small)
        before = weights[0].copy()
        x = np.random.RandomState(0).randn(5, 16).astype(np.float32)
        nimble.VirtualMachine(first).run(x)
        assert np.array_equal(weights[0], before)
        # Another store instance is another process: its own copy.
        other = _weight(ArtifactStore(root).get(exe_keys[0]))
        assert not np.shares_memory(other, weights[0])
        assert np.array_equal(other, weights[0])

    def test_a_damaged_chunk_is_rejected_then_healed_by_the_re_put(self, tmp_path):
        """'Written only if absent' must not keep a bad chunk for ever:
        the reader that rejected it remembers, and its re-put rewrites."""
        root = tmp_path / "store"
        store, mod, _, (key, _) = _filled(root)
        name, path = _chunk_file(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get(key, expected_signature=module_fingerprint(mod)) is None
        assert [k for k, _ in store.reject_log] == [key]
        assert name in store.reject_log[0][1] and "digest" in store.reject_log[0][1]
        # The caller's fallback: compile, serve, persist.
        fresh, _ = nimble.specialize(mod, intel_cpu(), shapes=[(5, 16)])
        x = np.random.RandomState(1).randn(5, 16).astype(np.float32)
        want = nimble.VirtualMachine(fresh).run(x).numpy()
        assert store.put(fresh) == key
        healed = ArtifactStore(root)
        restored = healed.get(key, expected_signature=module_fingerprint(mod))
        assert restored is not None and healed.rejects == 0
        assert np.array_equal(nimble.VirtualMachine(restored).run(x).numpy(), want)

    def test_an_undamaged_chunk_is_not_rewritten(self, tmp_path):
        store, mod, _, _ = _filled(tmp_path)
        _, path = _chunk_file(store)
        stamp = path.stat().st_mtime_ns
        store.put(nimble.specialize(mod, intel_cpu(), shapes=[(7, 16)])[0])
        assert path.stat().st_mtime_ns == stamp and len(store.chunk_names()) == 1

    @pytest.mark.parametrize(
        "damage", ["truncated", "altered", "missing", "renamed", "length", "overrun"]
    )
    @pytest.mark.parametrize("kind", ["exe", "prefix"])
    def test_chunk_damage_is_one_counted_reject(self, tmp_path, kind, damage):
        """The corruption matrix, one level down: whatever is wrong with
        a chunk, or with what a sealed table says of it, the read is a
        miss with one reject — never an exception, never an object."""
        store, mod, prefix_key, exe_keys = _filled(tmp_path)
        key = exe_keys[0] if kind == "exe" else prefix_key
        magic, version = (
            (b"NMBE", executable.VERSION) if kind == "exe"
            else (b"NMBP", nimble.PREFIX_VERSION)
        )
        name, path = _chunk_file(store)
        blob_path = store.blob_path(kind, key)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif damage == "altered":
            raw = bytearray(path.read_bytes())
            raw[envelope.HEADER_SIZE + 17] ^= 0x40
            path.write_bytes(bytes(raw))
        elif damage == "missing":
            path.unlink()
        elif damage == "renamed":
            # A sound chunk file under another digest's name.
            other = envelope.digest_of(b"\0" * 8192)
            store.blob_path("const", other.hex()).write_bytes(path.read_bytes())
            _reseal(blob_path, magic, version, lambda table: [
                (n, d and other) for n, d in table])
        elif damage == "length":
            _reseal(blob_path, magic, version, lambda table: [
                (n - 4 if d else n, d) for n, d in table])
        else:
            # The table promises more inline bytes than the blob holds.
            blob = blob_path.read_bytes()
            rest = bytearray(blob[envelope.HEADER_SIZE:])
            struct.pack_into("<Q", rest, 5, 1 << 40)
            blob_path.write_bytes(
                envelope.header(magic, version, envelope.digest_of(rest)) + rest
            )
        read = store.get if kind == "exe" else store.get_prefix
        assert read(key, expected_signature=module_fingerprint(mod)) is None
        assert [k for k, _ in store.reject_log] == [key]
        # The sibling that names the same chunk fails the same way, or
        # (table damage is per blob) reads back whole.
        sibling = store.get(exe_keys[1])
        assert (sibling is None) == (damage in ("truncated", "altered", "missing"))

    def test_unknown_names_under_constants_are_counted_never_deleted(self, tmp_path):
        from repro.fleet import FleetStoreView
        from repro.store import StoreGC

        store, _, _, _ = _filled(tmp_path)
        junk = [store.constants_dir / "notes.txt", store.constants_dir / "abc.nmblc"]
        for path in junk:
            path.write_bytes(b"not a chunk")
        (store.constants_dir / ".tmp-9").write_bytes(b"in-flight writer")
        assert store.malformed_names() == ["constants/abc.nmblc", "constants/notes.txt"]
        report = StoreGC(store, FleetStoreView(store), max_age_us=0.0).collect(0.0)
        assert report.malformed == 2
        assert all(path.exists() for path in junk)

    def test_a_store_of_the_previous_format_is_refused_at_open(self, tmp_path):
        """No migration and no second reader: STORE_FORMAT 2 blobs have
        no segment table."""
        ArtifactStore(tmp_path)
        (tmp_path / "STORE_FORMAT").write_text("2\n")
        with pytest.raises(SerializationError, match="format 2"):
            ArtifactStore(tmp_path)

    def test_serve_pass_store_has_one_chunk(self, tmp_path):
        """The golden scenario's shape (16 requests, 5 rows then 9, one
        cache slot) on an LSTM wide enough to have a chunk. CI's size
        step greps the printed line."""
        from repro.serve import Request

        config = ServeConfig(
            max_batch_size=2, max_delay_us=400.0, num_workers=2, specialize=True,
            specialize_threshold=2, specialize_compile_us=500.0,
            specialize_max_executables=1, specialize_decay_half_life_us=1000.0,
            artifact_dir=str(tmp_path),
        )
        trace = [
            Request(
                rid=i, arrival_us=i * 300.0,
                payload=(np.random.RandomState(i).randn(rows, 32) * 0.1).astype(np.float32),
            )
            for i, rows in enumerate([5] * 6 + [9] * 10)
        ]
        InferenceServer(_lstm_module(32), intel_cpu(), config).simulate(trace)
        store = ArtifactStore(tmp_path)
        (name,) = store.chunk_names()
        blobs = store.inventory()
        holders = [e for e in blobs if store.chunk_refs(*e)]
        assert sorted(kind for kind, _ in holders) == ["exe", "exe", "prefix"]
        assert all(store.chunk_refs(*e) == [name] for e in holders)
        assert all(store.blob_path(*e).stat().st_size < 16 * 1024 for e in blobs)
        on_disk = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
        chunk = store.blob_path("const", name).stat().st_size
        embedded = on_disk - chunk + len(holders) * (chunk - envelope.HEADER_SIZE)
        print(
            f"store after 16 requests: {len(blobs)} blobs, 1 chunk, "
            f"{on_disk} bytes on disk, {embedded} if every blob embedded its chunks"
        )
        assert embedded > 2 * on_disk


class TestChunkSweep:
    """`StoreGC.collect` unlinks the chunks no blob file names — decided
    from the disk, after the model's prunes."""

    def _collect(self, store, max_age_us=math.inf, used=()):
        """One collection at t=0 over a fresh view of *store*, in which
        the entries *used* were read at t=0 and everything else is
        never-used (infinitely old) initial inventory."""
        from repro.fleet import FleetStoreView
        from repro.store import StoreGC

        view = FleetStoreView(store)
        for kind, key in used:
            view.record_use(kind, key, 0.0)
        return StoreGC(store, view, max_age_us).collect(0.0)

    def test_a_chunk_lives_as_long_as_one_blob_names_it(self, tmp_path):
        store, mod, prefix_key, exe_keys = _filled(tmp_path)
        name, path = _chunk_file(store)
        # Every blob but one just-used executable is never-used initial
        # inventory: age 0 keeps that one, and it still names the chunk.
        report = self._collect(store, max_age_us=0.0, used=[("exe", exe_keys[1])])
        assert len(report.pruned) == 2 and report.chunks_swept == 0
        assert path.exists() and store.inventory() == [("exe", exe_keys[1])]
        assert store.get(exe_keys[1]) is not None and store.rejects == 0
        report = self._collect(store, max_age_us=0.0)
        assert report.chunks_swept == 1 and not path.exists()
        assert "chunks_swept" not in report.counters()
        # A re-put files the chunk again.
        store.put(nimble.specialize(mod, intel_cpu(), shapes=[(5, 16)])[0])
        assert store.chunk_names() == [name]

    def test_an_orphan_goes_and_a_policy_free_collection_still_sweeps(self, tmp_path):
        store, _, _, _ = _filled(tmp_path)
        orphan = store._file_chunk(memoryview(bytes(range(256)) * 32))
        assert len(store.chunk_names()) == 2
        report = self._collect(store)
        assert report.pruned == [] and report.chunks_swept == 1
        assert store.chunk_names() == [_chunk_file(store)[0]]
        assert orphan[1].hex() not in store.chunk_names()

    def test_a_blob_whose_table_does_not_parse_names_nothing(self, tmp_path):
        store, _, prefix_key, exe_keys = _filled(tmp_path)
        for kind, key in [("prefix", prefix_key)] + [("exe", k) for k in exe_keys]:
            store.blob_path(kind, key).write_bytes(b"NIMBLE-CHAOS" * 3)
            assert store.chunk_refs(kind, key) == []
        assert self._collect(store).chunks_swept == 1


class TestChunkedRoundTrip:
    """`save_chunks` / `load_chunks` are `save` / `load` cut in pieces."""

    @given(
        width=st.sampled_from([8, 32]),
        rows=st.integers(1, 6),
        batch=st.sampled_from([1, 2]),
        cuts=st.lists(st.integers(0, 40_000), max_size=4),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_executables(self, width, rows, batch, cuts):
        mod = _dyn_mlp_module(dim=width)
        exe = _specialized(mod, rows=rows, dim=width, batch=batch)
        blob = exe.save()
        assert b"".join(exe.save_chunks()) == blob
        whole = Executable.load(blob)
        edges = sorted({0, len(blob), *(c % len(blob) for c in cuts)})
        recut = [blob[a:b] for a, b in zip(edges, edges[1:])]
        x = np.random.RandomState(rows).randn(rows * batch, width).astype(np.float32)
        want = nimble.VirtualMachine(whole).run(x).numpy()
        for pieces in (exe.save_chunks(), recut):
            loaded = Executable.load_chunks(pieces)
            assert loaded.content_hash() == whole.content_hash()
            assert loaded.save() == blob
            assert np.array_equal(nimble.VirtualMachine(loaded).run(x).numpy(), want)

    @given(width=st.sampled_from([8, 32]), cuts=st.lists(st.integers(0, 40_000), max_size=4))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_prefixes(self, width, cuts):
        mod = _dyn_mlp_module(dim=width)
        prefix = nimble.build_prefix(mod, intel_cpu())
        blob = prefix.save()
        assert b"".join(prefix.save_chunks()) == blob
        edges = sorted({0, len(blob), *(c % len(blob) for c in cuts)})
        recut = [blob[a:b] for a, b in zip(edges, edges[1:])]
        x = np.random.RandomState(0).randn(3, width).astype(np.float32)
        outputs = []
        for loaded in (
            nimble.SpecializationPrefix.load(blob),
            nimble.SpecializationPrefix.load_chunks(prefix.save_chunks()),
            nimble.SpecializationPrefix.load_chunks(recut),
        ):
            assert loaded.store_key() == prefix.store_key()
            exe, _ = nimble.specialize(
                mod, intel_cpu(), shapes=[(3, width)], prefix=loaded
            )
            outputs.append(nimble.VirtualMachine(exe).run(x).numpy())
            assert all(
                c.numpy().ctypes.data % 16 == 0 for c in exe.constants
            )
        assert all(np.array_equal(out, outputs[0]) for out in outputs)
