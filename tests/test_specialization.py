"""Tiered shape specialization: the SpecializeShapes pass, the
nimble.specialize API, kernel-cache tier separation, serialization, the
serving-layer SpecializationManager, and tier routing."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache, prim_signature
from repro.core.typing import collect_shape_bindings, infer_types
from repro.core.typing.bind import batch_type, bind_any_dims
from repro.errors import CompilerError, ShapeGuardError, TypeInferenceError
from repro.hardware import calibration, intel_cpu, nvidia_gpu
from repro.ir import Any, Function, IRModule, TensorType, Var, const
from repro.ir.types import TupleType, has_any_dim
from repro.ir.printer import module_fingerprint
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_to_adt,
)
from repro.ops import api
from repro.passes import BatchSpecializeError, SpecializeBatch, SpecializeShapes
from repro.runtime.context import ExecutionContext
from repro.store import ArtifactStore, FleetStoreView
from repro.models import build_gram_module
from repro.serve import (
    Batch,
    InferenceServer,
    Request,
    ServeConfig,
    ShapeBucketer,
    SpecializationManager,
    Worker,
    long_tailed_traffic,
    lstm_traffic,
)
from repro.serve.events import GuardDeopt, StoreReject, VMRun, records_of
from repro.serve.policy import EVICTION_MARGIN, ShapePolicy
from repro.serve.profile import key_order
from repro.serve.report import ServeReport
from repro.serve.specialization import EXACT_BUCKET
from repro.vm.executable import Executable, entry_mismatch
from repro.vm.interpreter import VirtualMachine
from repro.vm.profiler import VMProfile
from repro.vm.tape import LaunchTape


def _dyn_mlp_module(dim=8, seed=0):
    w = const((np.random.RandomState(seed).randn(dim, dim) * 0.1).astype(np.float32))
    x = Var("x", TensorType((Any(), dim), "float32"))
    return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))


def _unbatchable_module():
    """(Any, 8) rows pooled as one NCHW image: ``nn.global_avg_pool2d``
    declares no batch rule, so the batch rewrite refuses the module."""
    x = Var("x", TensorType((Any(), 8), "float32"))
    image = api.reshape(api.relu(x), (1, -1, 2, 4))
    return IRModule.from_expr(Function([x], api.global_avg_pool2d(image)))


def _run(exe, *inputs, platform=None, numerics="full"):
    ctx = ExecutionContext(platform or intel_cpu(), numerics=numerics)
    vm = VirtualMachine(exe, ctx)
    out, latency = vm.run_with_latency(*inputs)
    return out, latency, vm


# ---------------------------------------------------------------------------
# Binding helpers
# ---------------------------------------------------------------------------


class TestBindHelpers:
    def test_collect_binds_any_and_checks_static(self):
        a = Any()
        ty = TensorType((a, 8), "float32")
        binding = collect_shape_bindings(ty, (12, 8))
        assert binding == {a.token: 12}

    def test_collect_rejects_static_mismatch(self):
        ty = TensorType((Any(), 8), "float32")
        with pytest.raises(TypeInferenceError, match="static dim"):
            collect_shape_bindings(ty, (12, 9))

    def test_collect_rejects_rank_mismatch(self):
        ty = TensorType((Any(), 8), "float32")
        with pytest.raises(TypeInferenceError, match="rank"):
            collect_shape_bindings(ty, (12,))

    def test_collect_rejects_conflicting_token_values(self):
        a = Any()
        ty = TupleType([TensorType((a, 4)), TensorType((a, 4))])
        with pytest.raises(TypeInferenceError, match="bound to both"):
            collect_shape_bindings(ty, [(3, 4), (5, 4)])

    def test_collect_through_tuple_and_none_skips(self):
        a, b = Any(), Any()
        ty = TupleType([TensorType((a, 4)), TensorType((b, 4))])
        binding = collect_shape_bindings(ty, [(3, 4), None])
        assert binding == {a.token: 3}

    def test_bind_substitutes_only_bound_tokens(self):
        a, b = Any(), Any()
        ty = TupleType([TensorType((a, b)), TensorType((4,))])
        out = bind_any_dims(ty, {a.token: 7})
        assert out.fields[0].shape[0] == 7
        assert isinstance(out.fields[0].shape[1], Any)
        assert out.fields[1] is ty.fields[1]  # untouched subtree shared


# ---------------------------------------------------------------------------
# The SpecializeShapes pass
# ---------------------------------------------------------------------------


class TestSpecializeShapesPass:
    def test_entry_types_become_static(self):
        mod = _dyn_mlp_module()
        out = SpecializeShapes(shapes=[(12, 8)])(mod)
        typed = infer_types(out)
        main = typed["main"]
        assert main.params[0].checked_type == TensorType((12, 8), "float32")
        assert not has_any_dim(main.body.checked_type)

    def test_original_module_untouched(self):
        mod = _dyn_mlp_module()
        typed = infer_types(mod)
        before = repr(typed["main"].params[0].type_annotation)
        SpecializeShapes(shapes=[(12, 8)])(mod)
        assert repr(typed["main"].params[0].type_annotation) == before
        assert has_any_dim(typed["main"].params[0].type_annotation)

    def test_binding_propagates_across_functions(self):
        """The LSTM shares its sequence Any token between main and the
        recursive loop function; binding it must specialize both."""
        mod = build_lstm_module(LSTMWeights.create(8, 8, seed=0))
        out = SpecializeShapes(shapes=[(10, 8)])(mod)
        typed = infer_types(out)
        loop = typed["lstm_loop"]
        x_param = loop.params[2]  # (t, n, x, ...)
        assert x_param.checked_type == TensorType((10, 8), "float32")

    def test_wrong_arity_rejected(self):
        with pytest.raises(CompilerError, match="entry parameters"):
            SpecializeShapes(shapes=[(12, 8), (1, 1)])(_dyn_mlp_module())

    def test_missing_entry_rejected(self):
        with pytest.raises(CompilerError, match="no entry"):
            SpecializeShapes(shapes=[(12, 8)], entry="nope")(_dyn_mlp_module())

    def test_bound_shapes_recorded(self):
        p = SpecializeShapes(shapes=[(12, 8)])
        p(_dyn_mlp_module())
        assert p.bound_shapes == (((12, 8)),)


# ---------------------------------------------------------------------------
# nimble.specialize: bit-identical outputs, overhead removal, round-trips
# ---------------------------------------------------------------------------


class TestSpecializeAPI:
    @pytest.mark.parametrize("rows", [5, 12, 24])
    def test_lstm_bit_identical_across_shapes(self, rows):
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        cache = KernelCache()
        dyn, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
        spec, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(rows, 8)], kernel_cache=cache
        )
        x = (np.random.RandomState(rows).randn(rows, 8) * 0.1).astype(np.float32)
        out_d, _, _ = _run(dyn, x)
        out_s, _, _ = _run(spec, x)
        assert np.array_equal(out_d.numpy(), out_s.numpy())
        assert np.allclose(out_s.numpy(), lstm_reference(x, weights), atol=1e-5)

    def test_bert_removes_shape_funcs_and_dynamic_allocs(self):
        config = BertConfig(hidden=32, num_layers=1, num_heads=2, ffn=64)
        weights = BertWeights.create(config, seed=0)
        mod = build_bert_module(weights)
        cache = KernelCache()
        dyn, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
        spec, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(24, 32)], kernel_cache=cache
        )
        x = (np.random.RandomState(0).randn(24, 32) * 0.1).astype(np.float32)
        out_d, lat_d, vm_d = _run(dyn, x)
        out_s, lat_s, vm_s = _run(spec, x)
        assert np.array_equal(out_d.numpy(), out_s.numpy())
        # The static tier pays no shape functions, fewer instructions,
        # fewer allocations, and strictly less end-to-end latency.
        assert vm_d.profile.shape_func_invocations > 0
        assert vm_s.profile.shape_func_invocations == 0
        assert vm_s.profile.dispatch_time_us < vm_d.profile.dispatch_time_us
        assert (
            vm_s.ctx.allocator.stats.total_allocs
            < vm_d.ctx.allocator.stats.total_allocs
        )
        assert lat_s < lat_d

    def test_tree_lstm_specialize_is_safe_on_adt_entry(self):
        """No Any dims in the TreeLSTM entry: specialization is an
        (ADT-preserving) identity and stays bit-identical."""
        from repro.data import sst_like_trees, embedding_table

        weights = TreeLSTMWeights.create(16, 8, seed=0)
        mod = build_tree_lstm_module(weights)
        cache = KernelCache()
        dyn, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
        spec, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[None], kernel_cache=cache
        )
        tree = sst_like_trees(1, seed=3)[0]
        adt = tree_to_adt(tree, embedding_table(dim=16, seed=0))
        out_d, _, _ = _run(dyn, adt)
        out_s, _, _ = _run(spec, adt)
        assert np.array_equal(out_d.numpy(), out_s.numpy())

    def test_specialized_marker_and_save_load_round_trip(self):
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        spec, _ = nimble.specialize(mod, intel_cpu(), shapes=[(9, 8)])
        assert spec.is_specialized
        assert spec.specialized_shapes == ((9, 8),)
        loaded = Executable.load(spec.save())
        assert loaded.specialized_shapes == ((9, 8),)
        x = (np.random.RandomState(4).randn(9, 8) * 0.1).astype(np.float32)
        out_a, _, _ = _run(spec, x)
        out_b, _, _ = _run(loaded, x)
        assert np.array_equal(out_a.numpy(), out_b.numpy())

    def test_dynamic_build_is_unmarked(self):
        exe, _ = nimble.build(_dyn_mlp_module(), intel_cpu())
        assert not exe.is_specialized
        assert Executable.load(exe.save()).specialized_shapes is None

    def test_kernel_cache_keeps_tiers_apart(self):
        """A specialized prim hashes structurally equal to its symbolic
        original; the cache key's shape signature must keep them apart
        (the symbolic kernel must never serve the static tier)."""
        mod = _dyn_mlp_module()
        cache = KernelCache()
        dyn, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
        n_dynamic = len(cache)
        spec, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(16, 8)], kernel_cache=cache
        )
        assert len(cache) > n_dynamic
        assert any(getattr(k, "symbolic", False) for k in dyn.kernels)
        assert not any(getattr(k, "symbolic", False) for k in spec.kernels)

    def test_prim_signature_distinguishes_static_from_symbolic(self):
        w = const(np.zeros((8, 8), np.float32))

        def prim(m):
            x = Var("x", TensorType((m, 8), "float32"))
            return Function(
                [x], api.dense(x, w), TensorType((m, 8), "float32"),
                {"primitive": True},
            )

        a = Any()
        assert prim_signature(prim(a)) != prim_signature(prim(16))
        assert prim_signature(prim(16)) != prim_signature(prim(32))

    def test_empty_shared_kernel_cache_is_not_discarded(self):
        """Regression: KernelCache defines __len__, so an empty cache is
        falsy — `or`-defaulting used to silently compile into a private
        cache and defeat sharing."""
        cache = KernelCache()
        nimble.build(_dyn_mlp_module(), intel_cpu(), kernel_cache=cache)
        assert len(cache) > 0


# ---------------------------------------------------------------------------
# The serving tier
# ---------------------------------------------------------------------------


def _lstm_server(threshold=3, compile_us=1000.0, **overrides):
    weights = LSTMWeights.create(8, 16, seed=0)
    mod = build_lstm_module(weights)
    config = ServeConfig(
        max_batch_size=4,
        max_delay_us=2000.0,
        num_workers=2,
        specialize=True,
        specialize_threshold=threshold,
        specialize_compile_us=compile_us,
        **overrides,
    )
    return InferenceServer(mod, intel_cpu(), config), weights


def _manager_for(
    mod, threshold, compile_us=100.0, kernel_cache=None, store=None,
    batch_cap=None, **knobs,
):
    """A manager over *mod*, built the way a server builds it: from a
    ServeConfig (*knobs* are its ``specialize_*`` fields, prefix dropped;
    *batch_cap* turns the batched tier on at that ``max_batch_size``)
    and, with a store, a view of it taken first."""
    config = ServeConfig(
        max_batch_size=8 if batch_cap is None else batch_cap,
        specialize=True,
        specialize_threshold=threshold,
        specialize_compile_us=compile_us,
        specialize_batch=batch_cap is not None,
        **{f"specialize_{name}": value for name, value in knobs.items()},
    )
    return SpecializationManager(
        mod,
        intel_cpu(),
        ShapeBucketer(infer_types(mod)["main"], granularity=8),
        KernelCache() if kernel_cache is None else kernel_cache,
        config,
        store=store,
        store_view=FleetStoreView(store) if store is not None else None,
    )


def _report(mgr):
    """The manager's simulation so far as the report a server builds
    from the same record list: what the pool charged is read there."""
    return ServeReport(
        records=mgr.pool.records,
        replica=mgr.replica_id,
        num_compile_lanes=mgr.config.specialize_compile_lanes,
    )


def _batch(*shapes, key=()):
    """A formed batch in bucket *key*: one zero payload per shape."""
    requests = [
        Request(rid=i, arrival_us=0.0, payload=np.zeros(s, np.float32))
        for i, s in enumerate(shapes)
    ]
    return Batch(key, requests, 0.0)


def _tier(mgr, at_us, *shapes):
    """The tier the manager picks at *at_us* for a batch of *shapes*."""
    return mgr.tier_for(_batch(*shapes), at_us)[0]


def _rejects(mgr):
    return [r for r in mgr.pool.records if type(r) is StoreReject]


def _replay(mgr):
    """Start the next simulation as a server's begin() does: the store
    model forgets what the last one wrote, then the manager resets."""
    mgr.planner.store_view.reset()
    mgr.reset()


def _mlp_manager(threshold=2, **kwargs):
    return _manager_for(_dyn_mlp_module(), threshold, **kwargs)


class TestSpecializationManager:
    def _manager(self, threshold=2, **kwargs):
        return _mlp_manager(threshold=threshold, **kwargs)

    def test_threshold_triggers_compile_on_background_lane(self):
        mgr = self._manager(threshold=2)
        mgr.observe((16,), 10.0)
        assert mgr.planner.num_executables == 0
        mgr.observe((16,), 20.0)
        assert mgr.planner.num_executables == 1
        (event,) = mgr.pool.events
        assert event.trigger_us == 20.0
        assert event.ready_us == pytest.approx(120.0)
        # Not routable until the compile lane finishes.
        assert _tier(mgr, 50.0, (16, 8)) == "dynamic"
        tier, exe, _ = mgr.tier_for(_batch((16, 8)), 120.0)
        assert tier == "specialized" and exe.specialized_shapes == ((16, 8),)

    def test_single_lane_serializes_compiles_through_queue(self):
        mgr = self._manager(threshold=1)
        mgr.observe((8,), 0.0)
        mgr.observe((16,), 0.0)
        # The lane is busy until 100 (prefix 60 + suffix 40), so the
        # second compile (suffix only) waits in the pending queue;
        # draining the pool binds it when the lane frees.
        assert [e.ready_us for e in mgr.pool.events] == [100.0]
        mgr.drain()
        assert [e.ready_us for e in mgr.pool.events] == [100.0, 140.0]
        assert [e.queue_us for e in mgr.pool.events] == [0.0, 100.0]
        assert _report(mgr).specialize_lane_busy_us == [140.0]

    def test_pending_compile_binds_at_lane_free_event(self):
        """A compile left pending by a busy lane starts at the lane-free
        time — not at the next observation — once any later observation
        (or drain) pumps the pool past it."""
        mgr = self._manager(threshold=1)
        mgr.observe((8,), 0.0)
        mgr.observe((16,), 10.0)
        mgr.observe((8,), 500.0)  # any arrival pumps: lane freed at 100
        assert [(e.key, e.start_us) for e in mgr.pool.events] == [
            ((8,), 0.0),
            ((16,), 100.0),
        ]

    def test_capacity_cap_stops_new_specializations(self):
        # All resident compiles are still in flight at the third trigger,
        # so even with eviction enabled nothing can be displaced.
        mgr = self._manager(threshold=1, max_executables=2)
        for v in (8, 16, 24):
            mgr.observe((v,), 0.0)
        assert mgr.planner.num_executables == 2
        assert len(mgr.policy.resident) == 2
        assert _tier(mgr, 1e9, (24, 8)) == "dynamic"

    def test_reset_preserves_compiled_cache_but_restarts_counters(self):
        mgr = self._manager(threshold=2)
        mgr.observe((16,), 0.0)
        mgr.observe((16,), 1.0)
        assert mgr.planner.num_executables == 1
        mgr.reset()
        assert mgr.planner.num_executables == 1
        assert mgr.policy.hits[(16,)] == 0
        assert _tier(mgr, 1e9, (16, 8)) == "dynamic"  # not hot again yet
        mgr.observe((16,), 5.0)
        mgr.observe((16,), 6.0)
        assert _tier(mgr, 106.0, (16, 8)) == "specialized"

    def test_static_model_never_specializes(self):
        x = Var("x", TensorType((4, 8), "float32"))
        mod = IRModule.from_expr(Function([x], api.relu(x)))
        mgr = _manager_for(mod, threshold=1, compile_us=1.0)
        mgr.observe((), 0.0)
        assert mgr.planner.num_executables == 0


class TestCompilePool:
    def test_two_lanes_overlap_independent_compiles(self):
        mgr = _mlp_manager(threshold=1, compile_lanes=2)
        mgr.observe((8,), 0.0)
        mgr.observe((16,), 0.0)
        assert [(e.lane, e.start_us, e.ready_us) for e in mgr.pool.events] == [
            (0, 0.0, 100.0),  # carries the once-per-simulation prefix
            (1, 0.0, 40.0),
        ]
        assert _report(mgr).specialize_lane_busy_us == [100.0, 40.0]

    def test_pending_queue_prioritizes_hotter_traffic(self):
        """The free lane picks the pending compile with the highest hit
        rate since trigger, recomputed at the lane-free event — not FIFO."""
        mgr = _mlp_manager(threshold=1)
        mgr.observe((8,), 0.0)    # occupies the lane until 100
        mgr.observe((16,), 10.0)  # pending, 1 hit
        mgr.observe((24,), 20.0)  # pending...
        mgr.observe((24,), 30.0)
        mgr.observe((24,), 40.0)  # ...but much hotter since its trigger
        mgr.drain()
        assert [e.key for e in mgr.pool.events] == [(8,), (24,), (16,)]

    def test_lane_assignment_is_deterministic(self):
        """Equal-priority pending compiles and simultaneously-free lanes
        bind by (trigger time, key) and (free time, lane id) — replays of
        the same observation sequence are bit-identical."""

        def run():
            mgr = _mlp_manager(threshold=1, compile_lanes=3)
            for t, v in [(0, 8), (0, 16), (5, 24), (5, 32), (9, 40)]:
                mgr.observe((v,), float(t))
            mgr.drain()
            return [(e.key, e.lane, e.start_us, e.ready_us) for e in mgr.pool.events]

        first = run()
        assert run() == first
        assert {lane for _, lane, _, _ in first} == {0, 1, 2}

    def test_compile_charge_equals_lane_busy_time(self):
        mgr = _mlp_manager(threshold=1, compile_lanes=2)
        for t, v in [(0, 8), (3, 16), (6, 24), (9, 32)]:
            mgr.observe((v,), float(t))
        mgr.drain()
        report = _report(mgr)
        assert report.specialize_compile_us == pytest.approx(
            sum(report.specialize_lane_busy_us)
        )
        assert report.specialize_compile_us == pytest.approx(220.0)  # 100 + 3 x 40


class TestRearmAndEviction:
    def test_starved_shape_rearms_and_recompiles_after_eviction(self):
        """Regression for the headline trigger bug: `observe` fired only
        on an exact threshold hit, so a shape whose trigger was swallowed
        by a full cache could never specialize. Now it stays armed and
        retries on every later hit, succeeding once eviction frees the
        slot."""
        mgr = _mlp_manager(
            threshold=2, max_executables=1, decay_half_life_us=1000.0
        )
        mgr.observe((8,), 0.0)
        mgr.observe((8,), 10.0)  # A triggers, compile ready at 110
        assert _tier(mgr, 110.0, (8, 8)) == "specialized"
        # B crosses the threshold while the cache is full (and A's compile
        # is still in flight): blocked. The old `!= threshold` trigger
        # would have starved B forever from this point on.
        mgr.observe((16,), 20.0)
        mgr.observe((16,), 30.0)
        assert mgr.pool.evictions == []
        assert len(mgr.policy.resident) == 1
        assert _tier(mgr, 1e9, (16, 8)) == "dynamic"
        # Five half-lives later A has gone cold; B's next hit — well past
        # the exact threshold — retries, evicts A, and compiles.
        mgr.observe((16,), 5000.0)
        assert mgr.policy.hits[(16,)] == 3  # the trigger fired on hit 3, not 2
        assert [e.key for e in mgr.pool.evictions] == [(8,)]
        (compile_b,) = [e for e in mgr.pool.events if e.key == (16,)]
        assert compile_b.trigger_us == 5000.0
        assert _tier(mgr, compile_b.ready_us, (16, 8)) == "specialized"
        assert _tier(mgr, 1e9, (8, 8)) == "dynamic"  # evicted: no longer routable

    def test_evicted_shape_rearms_and_recompiles(self):
        """An evicted shape's hit count still sits past the threshold, so
        when it heats back up it re-triggers; the artifact is memoised but
        the modeled compile cost is charged again."""
        mgr = _mlp_manager(
            threshold=2, max_executables=1, decay_half_life_us=1000.0
        )
        mgr.observe((8,), 0.0)
        mgr.observe((8,), 10.0)
        mgr.observe((16,), 20.0)
        mgr.observe((16,), 30.0)
        mgr.observe((16,), 5000.0)  # evicts A (as above)
        mgr.observe((8,), 5200.0)   # A warm again, but within the margin
        assert [e.key for e in mgr.pool.evictions] == [(8,)]
        mgr.observe((8,), 5210.0)   # past 2x B's decayed score: evicts B
        assert [e.key for e in mgr.pool.evictions] == [(8,), (16,)]
        assert [e.key for e in mgr.pool.events] == [(8,), (16,), (8,)]
        assert mgr.planner.num_executables == 2  # artifacts memoised, not re-built
        assert _report(mgr).specialize_compile_us == pytest.approx(180.0)  # 100 + 40 + 40

    def test_inflight_compile_is_never_evicted(self):
        mgr = _mlp_manager(
            threshold=1, max_executables=1, decay_half_life_us=1.0
        )
        mgr.observe((8,), 0.0)    # in flight until 100
        mgr.observe((16,), 50.0)  # hotter, but the victim is in flight
        assert mgr.pool.evictions == []
        assert len(mgr.policy.resident) == 1
        mgr.observe((16,), 200.0)  # A landed and went cold: evictable now
        assert [e.key for e in mgr.pool.evictions] == [(8,)]

    def test_eviction_requires_strictly_colder_victim(self):
        """At exactly the 2x eviction margin the incumbent stays: a
        challenger must be strictly more than twice as hot. The
        half-life is long enough that nothing decays, so scores are
        plain hit counts."""
        mgr = _mlp_manager(
            threshold=1, max_executables=1, decay_half_life_us=1e30
        )
        mgr.observe((8,), 0.0)     # A triggers, resident, ready at 100
        mgr.observe((8,), 0.0)     # A: score 2
        for _ in range(4):
            mgr.observe((16,), 100.0)  # B climbs to 4 == 2 x A: kept
        assert mgr.pool.evictions == []
        assert len(mgr.policy.resident) == 1
        mgr.observe((16,), 100.0)  # 5 > 2 x 2: strictly past the margin
        assert [e.key for e in mgr.pool.evictions] == [(8,)]

    def test_margin_blocks_comparable_heat_thrash(self):
        """The default eviction margin (2x) keeps an incumbent whose heat
        is comparable to the challenger's: a steady mix of hot shapes
        must not ping-pong the cache and throw away compile investment.
        Only a challenger more than twice as hot displaces."""
        mgr = _mlp_manager(threshold=1, max_executables=1)
        for t in (0.0, 1.0, 2.0):
            mgr.observe((8,), t)  # A: score ~3, compile lands at 100
        for t in (103.0, 104.0, 105.0, 106.0, 107.0):
            mgr.observe((16,), t)  # B climbs to ~5: hotter, but under 2x
        assert mgr.pool.evictions == []
        assert _tier(mgr, 107.0, (8, 8)) == "specialized"
        mgr.observe((16,), 108.0)  # score ~6 > 2 x 3: past the margin
        assert [e.key for e in mgr.pool.evictions] == [(8,)]


class TestPoolProperties:
    """Property-style invariants over randomized observation traces,
    checked at every lane count on the same trace."""

    _managers = {}

    @classmethod
    def _pool(cls, lanes):
        # Managers are cached across examples (sharing one kernel cache)
        # so the handful of distinct shapes compiles exactly once; reset()
        # restores per-simulation state between examples.
        if lanes not in cls._managers:
            if not cls._managers:
                cls._shared_cache = KernelCache()
            cls._managers[lanes] = _mlp_manager(
                threshold=2,
                max_executables=2,
                compile_lanes=lanes,
                decay_half_life_us=200.0,
                kernel_cache=cls._shared_cache,
            )
        mgr = cls._managers[lanes]
        mgr.reset()
        return mgr

    @staticmethod
    def _replay(mgr, trace):
        now = 0.0
        for idx, gap in trace:
            now += gap
            mgr.observe(((idx + 1) * 8,), now)
        mgr.drain()
        return (
            [(e.key, e.lane, e.trigger_us, e.start_us, e.ready_us) for e in mgr.pool.events],
            [(e.key, e.evicted_us, e.by_key) for e in mgr.pool.evictions],
        )

    @given(
        trace=st.lists(
            st.tuples(st.integers(0, 3), st.floats(0.0, 400.0)),
            min_size=4,
            max_size=40,
        ),
        lanes=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_replay_eviction_and_charge_invariants(self, trace, lanes):
        mgr = self._pool(lanes)
        first = self._replay(mgr, trace)
        events, evictions = first
        # (a) replaying one trace is bit-identical.
        mgr.reset()
        assert self._replay(mgr, trace) == first
        # (b) eviction never hits a shape with an in-flight compile: a
        # victim must have a compile fully landed by its eviction, and no
        # compile of it straddles the eviction instant. (A compile of the
        # same key *starting* exactly at the eviction time is the shape
        # legitimately re-triggering into the just-freed slot, so the
        # straddle check is strict.)
        for key, evicted_us, _ in evictions:
            landed = [e for e in events if e[0] == key and e[4] <= evicted_us]
            assert landed, "evicted a shape whose compile never landed"
            straddling = [
                e for e in events if e[0] == key and e[3] < evicted_us < e[4]
            ]
            assert not straddling
        # (c) total compile charge equals the sum of per-lane busy time.
        report = _report(mgr)
        assert report.specialize_compile_us == pytest.approx(
            sum(report.specialize_lane_busy_us)
        )
        assert len(report.specialize_lane_busy_us) == lanes
        # Residency never exceeds the cap.
        assert len(mgr.policy.resident) <= 2


# One kernel cache shared by every server in the compile-pool serving
# tests: they all compile the same LSTM module, so kernels memoise across
# configurations (the *modeled* compile cost is still charged per trigger).
_POOL_TEST_KERNELS = KernelCache()


class TestCompilePoolServing:
    """End-to-end acceptance for the compile pool + eviction on the
    long-tailed shape mix (ISSUE 3): starved shapes recover via eviction,
    a second lane strictly cuts compile-queue wait, and replays stay
    bit-identical under every setting."""

    _weights = LSTMWeights.create(8, 16, seed=0)

    def _server(self, lanes):
        mod = build_lstm_module(self._weights)
        config = ServeConfig(
            max_batch_size=4,
            max_delay_us=1500.0,
            num_workers=2,
            specialize=True,
            specialize_threshold=2,
            specialize_max_executables=4,
            # 6000 us per variant (the suffix share), +9000 us once.
            specialize_compile_us=15_000.0,
            specialize_compile_lanes=lanes,
            specialize_decay_half_life_us=3_000.0,
        )
        return InferenceServer(
            mod, intel_cpu(), config, kernel_cache=_POOL_TEST_KERNELS
        )

    @staticmethod
    def _trace(n=80):
        from repro.serve import long_tailed_traffic

        return long_tailed_traffic(
            n,
            input_size=8,
            mean_interarrival_us=300.0,
            hot_lengths=(5, 11, 17, 23, 29),
            tail_min=3,
            tail_max=32,
            seed=0,
        )

    def test_starved_hot_shape_specializes_after_eviction(self):
        """Regression for the starved-shape trace: once the four slots
        are taken, a shape that goes hot later — which a hard cap would
        block forever — gets specialized when eviction frees a slot."""
        server = self._server(1)
        report = server.simulate(self._trace())
        assert report.specialize_evictions > 0
        in_trigger_order = sorted(
            server.specializer.pool.events, key=lambda e: e.trigger_us
        )
        compiled = list(dict.fromkeys(e.key for e in in_trigger_order))
        starved = compiled[4:]
        assert starved, "eviction should specialize shapes past the cap"
        # Each recovered shape triggered at/after the eviction that could
        # have freed its slot — they were blocked until then.
        first_eviction = server.specializer.pool.evictions[0].evicted_us
        for key in starved:
            trigger = min(
                e.trigger_us for e in in_trigger_order if e.key == key
            )
            assert trigger >= first_eviction
        assert len(server.specializer.policy.resident) <= 4

    def test_second_lane_strictly_cuts_queue_wait(self):
        requests = self._trace()
        waits = {}
        for lanes in (1, 2):
            server = self._server(lanes)
            a = server.simulate(requests)
            b = server.simulate(requests)
            # Bit-identical replay under both settings.
            assert a.latencies_us == b.latencies_us
            assert [r.tier for r in a.responses] == [r.tier for r in b.responses]
            assert a.specialize_queue_waits_us == b.specialize_queue_waits_us
            assert a.specialize_lane_busy_us == b.specialize_lane_busy_us
            assert a.specialize_evictions == b.specialize_evictions
            assert len(a.specialize_lane_busy_us) == lanes
            waits[lanes] = a.mean_compile_queue_wait_us
        assert waits[1] > 0.0
        assert waits[2] < waits[1]

    def test_replay_bit_identical_under_any_lane_count(self):
        requests = self._trace(n=36)
        for lanes in (1, 2, 3):
            server = self._server(lanes)
            a = server.simulate(requests)
            b = server.simulate(requests)
            assert [
                (r.rid, r.latency_us, r.tier, r.worker_id, r.bucket_key)
                for r in a.responses
            ] == [
                (r.rid, r.latency_us, r.tier, r.worker_id, r.bucket_key)
                for r in b.responses
            ]
            assert a.batch_histogram == b.batch_histogram
            assert a.specialize_compile_us == b.specialize_compile_us


class TestTieredServing:
    def test_hot_bucket_gets_specialized_hits(self):
        server, _ = _lstm_server()
        requests = lstm_traffic(64, input_size=8, mean_interarrival_us=200.0, seed=0)
        report = server.simulate(requests)
        assert report.specialized_hits > 0
        assert 0.0 < report.specialized_hit_rate <= 1.0
        assert report.num_specialized_executables > 0
        assert report.specialize_compile_us > 0.0
        # Per-tier accounting: every response carries its tier and the
        # split adds back up.
        tiers = {r.tier for r in report.responses}
        assert tiers == {"dynamic", "specialized"}
        assert (
            len(report.tier_latencies_us("dynamic"))
            + len(report.tier_latencies_us("specialized"))
            == report.num_requests
        )

    def test_outputs_identical_to_untiered_server(self):
        """Tiering changes scheduling and dispatch, never numerics."""
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        requests = lstm_traffic(32, input_size=8, mean_interarrival_us=150.0, seed=1)
        tiered = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=4, max_delay_us=2000.0, num_workers=2,
                        numerics="full", specialize=True,
                        specialize_threshold=2, specialize_compile_us=500.0),
        )
        plain = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=4, max_delay_us=2000.0, num_workers=2,
                        numerics="full"),
        )
        a = tiered.simulate(requests)
        b = plain.simulate(requests)
        assert a.specialized_hits > 0
        for ra, rb in zip(a.responses, b.responses):
            assert ra.rid == rb.rid
            assert np.array_equal(ra.output.numpy(), rb.output.numpy())

    def test_replay_is_bit_stable(self):
        """The specialized-hit rate and the whole report reproduce exactly
        across replays of one trace (compiled executables are cached, hit
        counters reset)."""
        server, _ = _lstm_server()
        requests = lstm_traffic(48, input_size=8, mean_interarrival_us=200.0, seed=2)
        a = server.simulate(requests)
        b = server.simulate(requests)
        assert a.specialized_hits == b.specialized_hits > 0
        assert a.specialized_hit_rate == b.specialized_hit_rate
        assert a.latencies_us == b.latencies_us
        assert a.specialize_compile_us == b.specialize_compile_us
        assert a.batch_histogram == b.batch_histogram
        assert [r.tier for r in a.responses] == [r.tier for r in b.responses]

    def test_specialized_tier_pays_no_shape_funcs(self):
        server, _ = _lstm_server()
        requests = lstm_traffic(64, input_size=8, mean_interarrival_us=200.0, seed=0)
        report = server.simulate(requests)
        assert report.specialized_hits > 0
        specialized = report.tier_profile("specialized")
        assert specialized.shape_func_time_us == 0.0
        assert specialized.runs == report.specialized_hits
        assert report.tier_profile("dynamic").runs == (
            report.num_requests - report.specialized_hits
        )

    def test_tiering_off_keeps_everything_dynamic(self):
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        server = InferenceServer(
            mod, intel_cpu(), ServeConfig(max_batch_size=4, num_workers=2)
        )
        report = server.simulate(
            lstm_traffic(16, input_size=8, mean_interarrival_us=100.0, seed=0)
        )
        assert report.specialized_hits == 0
        assert report.specialized_hit_rate == 0.0
        assert all(r.tier == "dynamic" for r in report.responses)

    def test_report_format_shows_tiers(self):
        server, _ = _lstm_server()
        report = server.simulate(
            lstm_traffic(64, input_size=8, mean_interarrival_us=200.0, seed=0)
        )
        text = report.format("tiered")
        assert "specialized hit rate" in text
        assert "shape-func µs" in text

    def test_gpu_platform_tiering_is_deterministic(self):
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        config = ServeConfig(
            max_batch_size=4, max_delay_us=1000.0, num_workers=2,
            specialize=True, specialize_threshold=2,
            specialize_compile_us=800.0,
        )
        server = InferenceServer(mod, nvidia_gpu(), config)
        requests = lstm_traffic(32, input_size=8, mean_interarrival_us=150.0, seed=3)
        a = server.simulate(requests)
        b = server.simulate(requests)
        assert a.latencies_us == b.latencies_us
        assert a.specialized_hits == b.specialized_hits


# ---------------------------------------------------------------------------
# Batch-granularity specialization: the SpecializeBatch pass, batched
# executables, the (shape, batch)-variant cache, and the batched tier
# ---------------------------------------------------------------------------


class TestBatchType:
    def test_stacks_leading_dim_and_shares_scalars(self):
        ty = TupleType([TensorType((5, 8)), TensorType((), "int64")])
        out = batch_type(ty, 4)
        assert out.fields[0].shape == (20, 8)
        assert out.fields[1] is ty.fields[1]  # rank-0: shared, untouched

    def test_rejects_dynamic_leading_dim(self):
        with pytest.raises(TypeInferenceError, match="dynamic leading dim"):
            batch_type(TensorType((Any(), 8)), 2)


class TestSpecializeBatchPass:
    @staticmethod
    def _golden(name):
        import pathlib

        path = pathlib.Path(__file__).parent / "golden" / f"{name}.txt"
        return path.read_text()

    @staticmethod
    def _batched_module(family):
        if family == "lstm_batch":
            mod = build_lstm_module(
                LSTMWeights.create(input_size=8, hidden_size=4, num_layers=1, seed=0)
            )
            return SpecializeBatch(2)(SpecializeShapes(shapes=[(6, 8)])(mod))
        mod = build_bert_module(
            BertWeights.create(
                BertConfig(hidden=8, num_layers=1, num_heads=2, ffn=16), seed=0
            )
        )
        return SpecializeBatch(3)(SpecializeShapes(shapes=[(5, 8)])(mod))

    @pytest.mark.parametrize("family", ["lstm_batch", "bert_batch"])
    def test_batched_module_matches_golden(self, family):
        """The batch-rewritten module is stable text: static storage
        sizes, no shape functions, stacked entry signature, one
        nn.dense cut into members per member-wise GEMM site."""
        from repro.ir import pretty_module

        text = pretty_module(self._batched_module(family)) + "\n"
        assert text == self._golden(family)
        assert text.count("nn.dense(") == text.count(", batch=") > 0
        assert "vm.shape_of" not in text
        assert "?" not in text  # every dim is static

    def test_entry_signature_is_stacked(self):
        mod = self._batched_module("lstm_batch")
        typed = infer_types(mod)
        # member (6, 8) stacked 2x; member state (1, 4) stacked to (2, 4).
        assert typed["main"].params[0].checked_type == TensorType((12, 8), "float32")
        assert typed["main"].body.checked_type == TensorType((2, 4), "float32")

    def test_batch_one_is_identity(self):
        mod = SpecializeShapes(shapes=[(6, 8)])(_dyn_mlp_module())
        assert SpecializeBatch(1)(mod) is mod

    def test_requires_static_entry(self):
        with pytest.raises(BatchSpecializeError, match="fully static"):
            SpecializeBatch(2)(_dyn_mlp_module())

    def test_rejects_adt_entry(self):
        mod = build_tree_lstm_module(TreeLSTMWeights.create(16, 8, seed=0))
        with pytest.raises(BatchSpecializeError):
            SpecializeBatch(2)(mod)

    def test_rejects_unsupported_op(self):
        spec = SpecializeShapes(shapes=[(4, 8)])(_unbatchable_module())
        with pytest.raises(BatchSpecializeError, match="global_avg_pool2d"):
            SpecializeBatch(2)(spec)

    def test_marker_and_save_load_round_trip(self):
        """specialized_shapes stays in member terms; the batch lives in a
        separate marker that survives serialization (v3)."""
        mod = _dyn_mlp_module()
        exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[(8, 8)], batch=4)
        assert exe.specialized_shapes == ((8, 8),)
        assert exe.specialized_batch == 4
        assert exe.is_batch_specialized
        loaded = Executable.load(exe.save())
        assert loaded.specialized_shapes == ((8, 8),)
        assert loaded.specialized_batch == 4
        x = np.random.RandomState(0).randn(32, 8).astype(np.float32)
        ctx_a = ExecutionContext(intel_cpu(), numerics="full")
        ctx_b = ExecutionContext(intel_cpu(), numerics="full")
        out_a = VirtualMachine(exe, ctx_a).run(x)
        out_b = VirtualMachine(loaded, ctx_b).run(x)
        assert np.array_equal(out_a.numpy(), out_b.numpy())

    def test_member_build_is_unmarked(self):
        exe, _ = nimble.specialize(_dyn_mlp_module(), intel_cpu(), shapes=[(8, 8)])
        assert exe.specialized_batch is None
        assert not exe.is_batch_specialized
        assert Executable.load(exe.save()).specialized_batch is None


class TestWorkerBatchVariantVMs:
    def test_vm_cache_keys_include_the_batch_variant(self):
        """Regression: member (4, 8) batched 8x and member (8, 8) batched
        4x stack to the SAME entry signature (32, 8), so a VM cache keyed
        on specialized_shapes alone would reuse a stale VM across a
        batch-cap change — splitting outputs at the wrong granularity."""
        mod = _dyn_mlp_module()
        cache = KernelCache()
        dyn, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
        a, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], kernel_cache=cache, batch=8
        )
        b, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(8, 8)], kernel_cache=cache, batch=4
        )
        worker = Worker(0, dyn, intel_cpu())
        vm_a = worker._specialized_vm(a)
        vm_b = worker._specialized_vm(b)
        assert vm_a is not vm_b
        assert worker._specialized_vm(a) is vm_a  # stable across lookups
        # Each call is recorded under the tier it ran for: a stacked
        # bucket as one batched run carrying the bucket's rids, a
        # member-wise batch as one specialized run per member.
        member, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], kernel_cache=cache
        )
        rng = np.random.RandomState(0)
        requests = [
            Request(rid=i, arrival_us=0.0, payload=rng.randn(4, 8).astype(np.float32))
            for i in range(8)
        ]
        worker.run_batch(Batch((4, 8), requests, 0.0), 0.0, executable=a, tier="batched")
        worker.run_batch(
            Batch((4, 8), requests[:2], 0.0), 0.0, executable=member, tier="specialized"
        )
        assert [(r.tier, r.rids) for r in worker.records if type(r) is VMRun] == [
            ("batched", tuple(range(8))),
            ("specialized", (0,)),
            ("specialized", (1,)),
        ]


class TestBatcherCaps:
    def test_server_never_forms_hot_bucket_past_the_compiled_cap(self):
        """End to end: with the batched tier on, every exact (hot) bucket
        flushes at exactly the compiled batch size or smaller — a bucket
        larger than the kernel compiled for it could never execute."""
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        config = ServeConfig(
            max_batch_size=3, max_delay_us=3000.0, num_workers=2,
            specialize=True, specialize_threshold=2,
            specialize_compile_us=300.0, specialize_batch=True,
        )
        server = InferenceServer(mod, intel_cpu(), config)
        requests = long_tailed_traffic(
            72, input_size=8, mean_interarrival_us=150.0,
            hot_lengths=(7,), hot_fraction=0.8, tail_min=3, tail_max=16,
            seed=0,
        )
        report = server.simulate(requests)
        assert report.batched_hits > 0
        for r in report.responses:
            if r.bucket_key and r.bucket_key[0] == -1:
                assert r.batch_size <= 3
            if r.tier == "batched":
                assert r.batch_size == 3


def _batched_lstm_server(lanes=1, cache=4, kernel_cache=None, **overrides):
    weights = LSTMWeights.create(8, 16, seed=0)
    mod = build_lstm_module(weights)
    params = dict(
        max_batch_size=4,
        max_delay_us=1500.0,
        num_workers=2,
        specialize=True,
        specialize_threshold=2,
        specialize_max_executables=cache,
        specialize_compile_us=500.0,
        specialize_compile_lanes=lanes,
        specialize_decay_half_life_us=3_000.0,
        specialize_batch=True,
    )
    params.update(overrides)
    return InferenceServer(
        mod, intel_cpu(), ServeConfig(**params), kernel_cache=kernel_cache
    )


def _hot_heavy_trace(n=72, seed=0):
    return long_tailed_traffic(
        n, input_size=8, mean_interarrival_us=150.0,
        hot_lengths=(7, 11), hot_fraction=0.8, tail_min=3, tail_max=16,
        seed=seed,
    )


# Shared kernels across the batched-serving tests (same module everywhere).
_BATCH_TEST_KERNELS = KernelCache()


class TestBatchedManagerVariants:
    def test_trigger_compiles_both_variants_deterministically(self):
        mgr = _mlp_manager(threshold=1, batch_cap=4)
        mgr.observe((16,), 0.0)
        mgr.drain()
        assert [(e.key, e.batch) for e in mgr.pool.events] == [((16,), 1), ((16,), 4)]
        # Member variant binds the lane first (it also serves ragged
        # tails); both charged separately (prefix once).
        assert _report(mgr).specialize_compile_us == pytest.approx(140.0)
        assert mgr.planner.num_executables == 1   # one shape...
        assert mgr.planner.num_variants == 2      # ...two artifacts
        ready = mgr.pool.events[-1].ready_us
        tier, member, _ = mgr.tier_for(_batch((16, 8)), ready)
        assert tier == "specialized" and member.specialized_batch is None
        tier, batched, _ = mgr.tier_for(_batch(*[(16, 8)] * 4), ready)
        assert tier == "batched" and batched.specialized_batch == 4

    def test_member_routable_before_batched_lands(self):
        mgr = _mlp_manager(threshold=1, batch_cap=4)
        mgr.observe((16,), 0.0)
        mgr.drain()
        member_ready = mgr.pool.events[0].ready_us
        assert _tier(mgr, member_ready, (16, 8)) == "specialized"
        # A full bucket too: its batched variant is still compiling.
        assert _tier(mgr, member_ready, *[(16, 8)] * 4) == "specialized"

    def test_variants_evict_together_and_rearm(self):
        mgr = _mlp_manager(
            threshold=1, max_executables=1, batch_cap=2,
            decay_half_life_us=1000.0,
        )
        mgr.observe((8,), 0.0)
        mgr.drain()
        assert _tier(mgr, 1e5, (8, 8), (8, 8)) == "batched"
        for t in (5000.0, 5010.0, 5020.0):
            mgr.observe((16,), t)  # hotter after A decays: evicts A
        assert [e.key for e in mgr.pool.evictions] == [(8,)]
        assert _tier(mgr, 1e9, (8, 8)) == "dynamic"
        assert _tier(mgr, 1e9, (8, 8), (8, 8)) == "dynamic"
        # Re-arm: A's next hit re-triggers BOTH variants (artifacts are
        # memoised, compile cost recharged per variant).
        mgr.observe((8,), 50_000.0)
        mgr.drain()
        a_events = [(e.key, e.batch) for e in mgr.pool.events if e.key == (8,)]
        assert a_events == [((8,), 1), ((8,), 2), ((8,), 1), ((8,), 2)]
        assert mgr.planner.num_variants == 4  # two shapes x two variants, memoised

    def test_unbatchable_module_falls_back_member_wise(self):
        mgr = _manager_for(_unbatchable_module(), threshold=1, batch_cap=4)
        mgr.observe((16,), 0.0)
        mgr.drain()
        assert [(e.key, e.batch) for e in mgr.pool.events] == [((16,), 1)]
        assert _tier(mgr, 200.0, (16, 8)) == "specialized"
        assert _tier(mgr, 1e9, *[(16, 8)] * 4) == "specialized"
        # The probe is memoised: the next shape skips the batched attempt.
        mgr.observe((24,), 1000.0)
        mgr.drain()
        assert [(e.key, e.batch) for e in mgr.pool.events][-1] == ((24,), 1)


class TestTierFor:
    """The one routing decision, row by row, on a one-slot manager with
    the batched tier (max batch 2) and partial variants on, over
    ``x + c`` with x (Any, Any) and c (4, 1): (4, n) members stack, (1, n)
    members broadcast up along the stacked axis and cannot."""

    @staticmethod
    def _manager(store, threshold=3, **knobs):
        x = Var("x", TensorType((Any(), Any()), "float32"))
        c = const(np.ones((4, 1), np.float32))
        return _manager_for(
            IRModule.from_expr(Function([x], api.add(x, c))), threshold,
            store=store, batch_cap=2, max_executables=1, partial=True,
            decay_half_life_us=1000.0, **knobs,
        )

    def _check(self, mgr, rows):
        for what, shapes, key, at_us, tier, prearmed in rows:
            got, exe, pre = mgr.tier_for(_batch(*shapes, key=key), at_us)
            assert (got, pre) == (tier, prearmed), what
            if tier == "dynamic":
                assert exe is None, what
            else:
                # The routed tier and the executable's build agree.
                assert exe.is_batch_specialized == (tier == "batched"), what
                assert exe.is_partial == (tier == "partial"), what

    def test_ladder(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = self._manager(store, threshold=1)
        first.observe((4, 16), 0.0)
        first.drain()
        store.put_profile(first.profile_snapshot())
        # A restarted manager pre-arms (4, 16) at t=0 from the profile:
        # the member variant lands first, the batched one after it.
        mgr = self._manager(store, predictive=True)
        mgr.drain()
        member_ready, batched_ready = [e.ready_us for e in mgr.pool.events]
        hot = (4, 16)
        exact = mgr.bucket_key(np.zeros(hot, np.float32), batched_ready)
        assert exact == (EXACT_BUCKET, *hot)
        rounded = (8, 16)
        self._check(mgr, [
            # (what, member shapes, bucket key, at, tier, prearmed)
            ("nothing ready", [hot], rounded, 0.0, "dynamic", False),
            ("full exact bucket, batched variant still compiling",
             [hot] * 2, exact, member_ready, "specialized", True),
            ("full exact bucket", [hot] * 2, exact, batched_ready, "batched", True),
            ("ragged tail", [hot], exact, batched_ready, "specialized", True),
            ("full rounded bucket, one shape",
             [hot] * 2, rounded, batched_ready, "batched", True),
        ])
        # Late traffic agrees on 4 rows over three column counts: the
        # (4, None) partial variant takes the slot of the cold (4, 16).
        for t, cols in [(50_000.0, 8), (50_001.0, 24), (50_002.0, 32)]:
            mgr.observe((4, cols), t)
        mgr.drain()
        assert [e.key for e in mgr.pool.evictions] == [hot]
        ready = mgr.pool.events[-1].ready_us
        self._check(mgr, [
            ("mixed bucket, partial covers two of three",
             [(4, 8), (4, 40), (1, 16)], (8, 40), ready, "partial", False),
            ("no variant covers it", [(1, 16)], (8, 16), ready, "dynamic", False),
        ])
        # (1, 16) goes hot in turn; its probe finds it unbatchable, so it
        # compiles member-wise only and a full bucket of it runs there.
        for t in (200_000.0, 200_001.0, 200_002.0):
            mgr.observe((1, 16), t)
        mgr.drain()
        ready = mgr.pool.events[-1].ready_us
        assert [e.batch for e in mgr.pool.events if e.key == (1, 16)] == [1]
        assert _tier(mgr, ready, (1, 16), (1, 16)) == "specialized"


class TestBatchedServing:
    def test_full_hot_buckets_route_batched_as_one_vm_call(self):
        server = _batched_lstm_server(kernel_cache=_BATCH_TEST_KERNELS)
        report = server.simulate(_hot_heavy_trace())
        assert report.batched_hits > 0
        assert 0.0 < report.batched_hit_rate <= report.specialized_hit_rate
        # One VM run per batched bucket — the whole point of the tier.
        batched_batches = {
            (r.worker_id, r.dispatch_us)
            for r in report.responses
            if r.tier == "batched"
        }
        batched = report.tier_profile("batched")
        assert batched.runs == len(batched_batches)
        assert all(
            r.batch_size == server.config.batch_cap
            for r in report.responses
            if r.tier == "batched"
        )
        # Static tiers pay zero shape functions; the dynamic tier pays.
        assert batched.shape_func_time_us == 0.0
        assert report.tier_profile("specialized").shape_func_time_us == 0.0
        assert batched.gemm_invocations() > 0
        tiers = {r.tier for r in report.responses}
        assert "batched" in tiers and "dynamic" in tiers
        text = report.format("batched")
        assert "batched" in text

    def test_outputs_identical_to_untiered_server(self):
        """The batched tier changes kernel granularity and scheduling,
        never numerics: every response is bit-identical with the plain
        dynamic server's."""
        weights = LSTMWeights.create(8, 16, seed=0)
        mod = build_lstm_module(weights)
        requests = _hot_heavy_trace(60, seed=3)
        tiered = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=4, max_delay_us=1500.0, num_workers=2,
                        numerics="full", specialize=True,
                        specialize_threshold=2, specialize_compile_us=300.0,
                        specialize_batch=True),
        )
        plain = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=4, max_delay_us=1500.0, num_workers=2,
                        numerics="full"),
        )
        a = tiered.simulate(requests)
        b = plain.simulate(requests)
        assert a.batched_hits > 0
        for ra, rb in zip(a.responses, b.responses):
            assert ra.rid == rb.rid
            assert np.array_equal(ra.output.numpy(), rb.output.numpy())

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_replay_identity_per_lane_count_with_batch_variants(self, lanes):
        """Traces that trigger batch-specialized compiles (and evict
        batch-variant executables) replay bit-identically at every lane
        count — the variant queue, lane binding, eviction, and routing
        are all pure functions of the trace."""
        server = _batched_lstm_server(
            lanes=lanes, cache=2, kernel_cache=_BATCH_TEST_KERNELS
        )
        requests = _hot_heavy_trace(96, seed=1)
        a = server.simulate(requests)
        b = server.simulate(requests)
        assert a.batched_hits == b.batched_hits > 0
        assert a.specialize_evictions == b.specialize_evictions > 0
        assert any(e.batch > 1 for e in server.specializer.pool.events)
        assert a.latencies_us == b.latencies_us
        assert [r.tier for r in a.responses] == [r.tier for r in b.responses]
        assert [
            (r.rid, r.worker_id, r.bucket_key, r.batch_size)
            for r in a.responses
        ] == [
            (r.rid, r.worker_id, r.bucket_key, r.batch_size)
            for r in b.responses
        ]
        assert a.specialize_queue_waits_us == b.specialize_queue_waits_us
        assert a.specialize_lane_busy_us == b.specialize_lane_busy_us
        assert len(a.specialize_lane_busy_us) == lanes

    def test_batched_tier_off_keeps_member_routing(self):
        """specialize_batch=False reproduces the PR 2/3 behaviour: no
        batched responses, no batch-variant compiles."""
        server = _batched_lstm_server(
            kernel_cache=_BATCH_TEST_KERNELS, specialize_batch=False
        )
        report = server.simulate(_hot_heavy_trace())
        assert report.batched_hits == 0
        assert all(e.batch == 1 for e in server.specializer.pool.events)
        assert report.specialized_hit_rate > 0


def _replayed(runs) -> list:
    """Which of *runs* (`VMRun`s) a launch tape served: a replay runs no
    instruction."""
    return [not run.charges.instruction_counts for run in runs]


class TestTapeServedHits:
    """After a variant's first hit on a worker, its exact and batched
    hits replay the variant's launch tape (`repro.serve.worker`,
    `repro.vm.tape`): the payload copied in, the launches replayed, the
    outputs copied out. What a replay serves is what the VM serves, bit
    for bit."""

    @staticmethod
    def _mlp_worker(platform=intel_cpu, streams=1):
        """A full-numerics worker on the dynamic MLP, and its (4, 8)
        variant."""
        mod, cache = _dyn_mlp_module(), KernelCache()
        options = nimble.CompilerOptions(device_streams=streams)
        dyn, _ = nimble.build(mod, platform(), options=options, kernel_cache=cache)
        exact, _ = nimble.specialize(
            mod, platform(), shapes=[(4, 8)], options=options, kernel_cache=cache
        )
        return Worker(0, dyn, platform(), numerics="full"), exact

    @staticmethod
    def _requests(n, shape=(4, 8), seed=0, dtype=np.float32):
        rng = np.random.RandomState(seed)
        return [
            Request(rid=i, arrival_us=0.0, payload=rng.randn(*shape).astype(dtype))
            for i in range(n)
        ]

    def test_exact_and_batched_replays_equal_the_variant_and_the_dynamic_tier(self):
        server = _batched_lstm_server(kernel_cache=_BATCH_TEST_KERNELS, numerics="full")
        trace = _hot_heavy_trace()
        report = server.simulate(trace)
        payloads = {r.rid: r.payload for r in trace}
        served = {r.rid: r.output.numpy() for r in report.responses}
        executables = server.specializer.planner.executables
        dynamic = VirtualMachine(server.exe, ExecutionContext(intel_cpu(), "full"))
        runs = records_of(report.records, VMRun)
        for tier, batch in (("specialized", 1), ("batched", server.config.batch_cap)):
            replays = [r for r in runs if r.tier == tier and _replayed([r])[0]]
            assert replays, f"no {tier} hit was replayed"
            for run in replays:
                xs = [payloads[rid] for rid in run.rids]
                variant = executables[(server.bucketer.exact_key(xs[0]), batch)]
                stacked = _run(variant, np.concatenate(xs, axis=0))[0].numpy()
                for rid, x, want in zip(run.rids, xs, np.split(stacked, batch, axis=0)):
                    assert np.array_equal(served[rid], want)
                    assert np.array_equal(served[rid], dynamic.run(x).numpy())

    def test_back_to_back_replays_serve_their_own_payloads(self):
        """The first member runs on the VM and records the tape; the two
        after it replay with different payloads, so their outputs differ,
        and each is the VM's: no replay serves a stale input."""
        worker, exact = self._mlp_worker()
        requests = self._requests(3)
        responses = worker.run_batch(
            Batch((4, 8), requests, 0.0), 0.0, executable=exact, tier="specialized"
        )
        assert _replayed(r for r in worker.records if type(r) is VMRun) == [False, True, True]
        outputs = [r.output.numpy() for r in responses]
        assert not np.array_equal(outputs[1], outputs[2])
        for request, output in zip(requests, outputs):
            assert np.array_equal(output, _run(exact, request.payload)[0].numpy())
        worker.reset()

    def test_a_float64_payload_never_reaches_the_copy_in(self, monkeypatch):
        """A copy into the float32 bound input would cast a float64
        payload: the tape refuses it (`LaunchTape.mismatch`) and the VM
        serves it, as it serves it on every other tier."""
        worker, exact = self._mlp_worker()
        (first,) = self._requests(1)
        (wide,) = self._requests(1, seed=1, dtype=np.float64)
        worker.run_batch(Batch((4, 8), [first], 0.0), 0.0, executable=exact, tier="specialized")
        copied = []
        run = LaunchTape.run

        def spy(tape, *inputs, **kwargs):
            copied.extend(np.asarray(x).dtype for x in inputs)
            return run(tape, *inputs, **kwargs)

        monkeypatch.setattr(LaunchTape, "run", spy)
        (response,) = worker.run_batch(
            Batch((4, 8), [wide], 0.0), 0.0, executable=exact, tier="specialized"
        )
        assert copied == []
        assert _replayed(r for r in worker.records if type(r) is VMRun) == [False, False]
        assert np.array_equal(response.output.numpy(), _run(exact, wide.payload)[0].numpy())
        tape = LaunchTape(exact, first.payload)
        with pytest.raises(ShapeGuardError, match="float64"):
            tape.run(wide.payload)
        assert np.array_equal(tape.inputs[0], first.payload)

    def test_the_vm_run_law_holds_with_replays(self, vm_run_law):
        """One `VMRun`, counting one run, per replay as per VM call."""
        server, _ = _lstm_server(numerics="full")
        report = server.simulate(
            lstm_traffic(64, input_size=8, mean_interarrival_us=200.0, seed=0)
        )
        runs = [r for r in records_of(report.records, VMRun) if r.tier == "specialized"]
        assert any(_replayed(runs)) and not all(_replayed(runs))
        assert all(run.charges.runs == 1 for run in runs)
        assert vm_run_law(report) == []
        assert report.tier_profile("specialized").runs == report.specialized_hits

    def test_a_replay_rotates_streams_as_the_vm_does(self):
        """`stream_offset` moves a replay's launches as it moves a VM
        run's: the (4, 8) MLP on two GPU streams is one launch sequence
        with no stream event, so a tape records it."""
        worker, exact = self._mlp_worker(nvidia_gpu, streams=2)
        assert exact.device_streams == 2
        x = self._requests(1)[0].payload
        tape = LaunchTape(exact, x, ctx=ExecutionContext(nvidia_gpu(), "full"))
        _, _, vm = _run(exact, x, platform=nvidia_gpu())
        for offset in (1, 2):
            vm.profile, tape.profile = VMProfile(), VMProfile()
            vm.run(x, stream_offset=offset)
            tape.run(x, stream_offset=offset)
            assert tape.profile.stream_kernel_invocations == vm.profile.stream_kernel_invocations
            assert list(tape.profile.stream_kernel_invocations) == [offset % 2]

    @pytest.mark.parametrize("streams", [1, 2])
    def test_gpu_bert_members_pipeline(self, streams):
        """An exact BERT variant on `nvidia_gpu`: a batch's members run
        back to back with no synchronization between them, so three of
        them take less than three synchronized runs of one. On one
        stream the tape serves them after the first; on two the
        variant's stream events keep it on the VM. Either way each output
        is the VM's and the dynamic tier's."""
        config = BertConfig(hidden=16, num_layers=1, num_heads=2, ffn=32)
        mod, cache = build_bert_module(BertWeights.create(config, seed=0)), KernelCache()
        options = nimble.CompilerOptions(device_streams=streams)
        dyn, _ = nimble.build(mod, nvidia_gpu(), options=options, kernel_cache=cache)
        exact, _ = nimble.specialize(
            mod, nvidia_gpu(), shapes=[(6, 16)], options=options, kernel_cache=cache
        )
        worker = Worker(0, dyn, nvidia_gpu(), numerics="full")
        first, *members = self._requests(4, shape=(6, 16))
        worker.run_batch(Batch((6, 16), [first], 0.0), 0.0, executable=exact, tier="specialized")
        start = worker.free_at_us
        responses = worker.run_batch(
            Batch((6, 16), members, 0.0), start, executable=exact, tier="specialized"
        )
        replayed = _replayed(r for r in worker.records if type(r) is VMRun)
        assert replayed == [False] + [streams == 1] * 3
        alone = ExecutionContext(nvidia_gpu(), "full")
        if streams == 1:
            runner = LaunchTape(exact, first.payload, ctx=alone)
        else:
            runner = VirtualMachine(exact, alone)
        runner.run(first.payload)
        assert responses[0].finish_us - start < 3 * alone.elapsed_us
        for request, response in zip(members, responses):
            output = response.output.numpy()
            assert np.array_equal(output, _run(exact, request.payload, platform=nvidia_gpu())[0].numpy())
            assert np.array_equal(output, _run(dyn, request.payload, platform=nvidia_gpu())[0].numpy())


class TestHistoryDoesNotLeak:
    """A server that simulated one trace and then another reports
    exactly what a fresh server simulating only the second one reports:
    nothing per-simulation survives ``reset()``. Long-tailed traces over
    a two-slot cache with two lanes and the batched and partial tiers
    on: the LSTM (one ``Any`` dim) evicts and fills batched buckets, the
    Gram map (two) also synthesizes a partial variant."""

    _kernels = {}

    @staticmethod
    def _trace(model, hot, seed):
        return long_tailed_traffic(
            200, input_size=8 if model == "lstm" else 16,
            mean_interarrival_us=150.0, hot_lengths=hot, hot_fraction=0.6,
            tail_min=3, tail_max=16, seed=seed,
        )

    def _server(self, model):
        if model == "lstm":
            mod = build_lstm_module(LSTMWeights.create(8, 16, seed=0))
        else:
            mod = build_gram_module()
        return InferenceServer(
            mod, intel_cpu(),
            ServeConfig(
                max_batch_size=4, max_delay_us=1500.0, num_workers=2,
                specialize=True, specialize_threshold=2,
                specialize_max_executables=2, specialize_compile_us=500.0,
                specialize_compile_lanes=2,
                specialize_decay_half_life_us=3_000.0,
                specialize_batch=True, specialize_partial=True,
            ),
            kernel_cache=self._kernels.setdefault(model, KernelCache()),
        )

    @pytest.mark.parametrize("model", ["lstm", "gram"])
    def test_second_trace_equals_a_fresh_server(self, model):
        from repro.harness.scenario import same_simulation

        first = self._trace(model, (7, 11, 15), seed=1)
        second = self._trace(model, (5, 9, 13), seed=2)
        used = self._server(model)
        used.simulate(first)
        after = used.simulate(second)
        assert same_simulation(after, self._server(model).simulate(second))
        assert after.specialize_evictions > 0
        if model == "lstm":
            assert after.batched_hits > 0
        else:
            assert after.partial_hits > 0


class TestBatchRewriteSafety:
    """Fallback paths of the batch rewrite: anything it cannot express
    must surface as BatchSpecializeError (so the serving layer degrades
    member-wise) — never as silent wrong numerics, an ill-typed module,
    or a simulation-killing exception."""

    def test_rejects_rank0_entry_param(self):
        """A rank-0 entry param carries per-member data with no axis to
        stack along; treating it as shared would feed member 0's scalar
        to every member."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        s = Var("s", TensorType((), "float32"))
        mod = IRModule.from_expr(Function([x, s], api.multiply(x, s)))
        spec = SpecializeShapes(shapes=[(4, 8), ()])(mod)
        with pytest.raises(BatchSpecializeError, match="rank-0"):
            SpecializeBatch(2)(spec)

    def test_refuses_broadcast_up_along_stacked_axis(self):
        """A shared operand whose lead broadcasts the members *up*
        (shared (4, 8) against member (1, 8)) has no stacked equivalent;
        tiling it would emit an ill-typed op. It must refuse with
        BatchSpecializeError, not leak a TypeInferenceError."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        c = const(np.ones((4, 8), np.float32))
        mod = IRModule.from_expr(Function([x], api.add(x, c)))
        spec = SpecializeShapes(shapes=[(1, 8)])(mod)
        with pytest.raises(BatchSpecializeError, match="stacked axis"):
            SpecializeBatch(2)(spec)

    def test_equal_lead_shared_operand_tiles_bit_identically(self):
        """The legitimate tiling case — shared lead == member lead, no
        axis-0 broadcast member-wise — still batches, bit-identically."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        c = const(
            (np.random.RandomState(3).randn(4, 8) * 0.1).astype(np.float32)
        )
        mod = IRModule.from_expr(Function([x], api.add(x, c)))
        cache = KernelCache()
        member, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], kernel_cache=cache
        )
        batched, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], kernel_cache=cache, batch=2
        )
        rng = np.random.RandomState(5)
        xs = [rng.randn(4, 8).astype(np.float32) for _ in range(2)]
        outs_m = [_run(member, v)[0].numpy() for v in xs]
        stacked, _, _ = _run(batched, np.concatenate(xs, axis=0))
        parts = np.split(stacked.numpy(), 2, axis=0)
        for m, b in zip(outs_m, parts):
            assert np.array_equal(m, b)

    def test_manager_probe_absorbs_non_batch_rewrite_errors(self, monkeypatch):
        """Any compile error from the *batched* variant — not just
        BatchSpecializeError — marks the module unbatchable and keeps
        serving member-wise; it must never abort the simulation."""
        mgr = _mlp_manager(threshold=1, batch_cap=4)
        real = nimble.specialize

        def broken_batched(*args, **kwargs):
            if kwargs.get("batch", 1) > 1:
                raise TypeInferenceError("rewrite gap surfacing late")
            return real(*args, **kwargs)

        monkeypatch.setattr(nimble, "specialize", broken_batched)
        mgr.observe((16,), 0.0)
        mgr.drain()
        assert [(e.key, e.batch) for e in mgr.pool.events] == [((16,), 1)]
        assert _tier(mgr, 1e9, (16, 8)) == "specialized"
        # Hot, but no batched variant: a full bucket runs member-wise.
        assert _tier(mgr, 1e9, *[(16, 8)] * 4) == "specialized"

    def test_unbatchable_module_keeps_full_member_batches(self):
        """Once the probe rules the module out, hot buckets still fill
        to the configured max batch size and run member-wise."""
        mod = _unbatchable_module()
        config = ServeConfig(
            max_batch_size=4, max_delay_us=5000.0, num_workers=1,
            specialize=True, specialize_threshold=2,
            specialize_compile_us=100.0, specialize_batch=True,
        )
        server = InferenceServer(mod, intel_cpu(), config)
        rng = np.random.RandomState(0)
        requests = [
            Request(
                rid=i, arrival_us=100.0 * (i + 1),
                payload=rng.randn(7, 8).astype(np.float32),
            )
            for i in range(24)
        ]
        report = server.simulate(requests)
        assert report.batched_hits == 0
        hot_sizes = {
            r.batch_size
            for r in report.responses
            if r.bucket_key and r.bucket_key[0] == -1
        }
        assert max(hot_sizes) == 4  # full member batches, not the dead cap

    def test_rejects_rank0_entry_output(self):
        """A rank-0 output leaf compiles fine but has no axis for the
        worker to split back into members — refuse at rewrite time."""
        from repro.ir import Tuple as IRTuple

        x = Var("x", TensorType((Any(), 8), "float32"))
        scalar = const(np.float32(2.0))
        mod = IRModule.from_expr(
            Function([x], IRTuple([api.relu(x), api.tanh(scalar)]))
        )
        spec = SpecializeShapes(shapes=[(4, 8)])(mod)
        with pytest.raises(BatchSpecializeError, match="rank-0"):
            SpecializeBatch(2)(spec)

    def test_batchability_is_tracked_per_shape(self):
        """A shape whose batched rewrite fails must not disable the tier
        for shapes that batch fine — and eviction must leave no stale
        batched ready-time behind for unbatchable shapes."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        c = const(np.ones((4, 8), np.float32))
        mod = IRModule.from_expr(Function([x], api.add(x, c)))
        mgr = _manager_for(mod, threshold=1, batch_cap=2)
        # (1,): member-legal broadcast-up, no stacked equivalent.
        mgr.observe((1,), 0.0)
        mgr.drain()
        assert [e.batch for e in mgr.pool.events] == [1]
        # (4,): lead matches the constant — batches fine, even after the
        # other shape's probe failed.
        mgr.observe((4,), 1000.0)
        mgr.drain()
        batched_ready = [e for e in mgr.pool.events if e.batch == 2]
        assert [e.key for e in batched_ready] == [(4,)]
        assert _tier(mgr, batched_ready[0].ready_us, (4, 8), (4, 8)) == "batched"
        assert _tier(mgr, 1e9, (1, 8), (1, 8)) == "specialized"

    @pytest.mark.parametrize("index", [-1, -3, 0, 2])
    def test_axis0_take_wraps_negative_indices_per_member(self, index):
        """take's negative-index convention wraps within the *member*;
        the batched offset-gather must normalize before adding member
        offsets, or member i silently receives another member's row."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        row = api.reshape(
            api.take(x, const(np.int64(index)), axis=0), (1, 8)
        )
        mod = IRModule.from_expr(Function([x], api.relu(row)))
        cache = KernelCache()
        member, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(3, 8)], kernel_cache=cache
        )
        batched, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(3, 8)], kernel_cache=cache, batch=2
        )
        rng = np.random.RandomState(9)
        xs = [rng.randn(3, 8).astype(np.float32) for _ in range(2)]
        outs_m = [_run(member, v)[0].numpy() for v in xs]
        stacked, _, _ = _run(batched, np.concatenate(xs, axis=0))
        parts = np.split(stacked.numpy(), 2, axis=0)
        for m, b in zip(outs_m, parts):
            assert np.array_equal(m, b)


# ---------------------------------------------------------------------------
# Staged specialization: the shape-independent prefix + shape-binding suffix
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=False)
def fresh_prefix_cache():
    nimble.clear_prefix_cache()
    yield
    nimble.clear_prefix_cache()


class TestStagedCompile:
    """nimble.build_prefix / compile_prefix / specialize(prefix=...):
    a shared prefix must be indistinguishable from a per-call one —
    same artifact key, bitwise-identical outputs."""

    def _lstm(self):
        return build_lstm_module(LSTMWeights.create(8, 16, seed=0))

    def test_prefix_suffix_matches_monolithic_key_and_output(
        self, fresh_prefix_cache
    ):
        mod = self._lstm()
        cache = KernelCache()
        mono, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(10, 8)], kernel_cache=cache
        )
        prefix, origin = nimble.compile_prefix(mod, intel_cpu())
        assert origin == "built"
        staged, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(10, 8)], kernel_cache=cache,
            prefix=prefix,
        )
        assert staged.content_hash() == mono.content_hash()
        assert staged.specialized_shapes == mono.specialized_shapes
        x = np.random.RandomState(1).randn(10, 8).astype(np.float32)
        out_m, _, _ = _run(mono, x)
        out_s, _, _ = _run(staged, x)
        assert np.array_equal(out_m.numpy(), out_s.numpy())

    def test_member_and_batched_variants_share_one_prefix(
        self, fresh_prefix_cache
    ):
        mod = self._lstm()
        cache = KernelCache()
        prefix, _ = nimble.compile_prefix(mod, intel_cpu())
        for batch in (1, 3):
            mono, _ = nimble.specialize(
                mod, intel_cpu(), shapes=[(6, 8)], kernel_cache=cache,
                batch=batch,
            )
            staged, _ = nimble.specialize(
                mod, intel_cpu(), shapes=[(6, 8)], kernel_cache=cache,
                batch=batch, prefix=prefix,
            )
            assert staged.content_hash() == mono.content_hash()

    def test_pickled_prefix_round_trip_produces_same_key(
        self, fresh_prefix_cache
    ):
        """A prefix that went through save()/load() — another process's
        prefix, token ints and all — must compile to the same artifact."""
        mod = self._lstm()
        cache = KernelCache()
        prefix, _ = nimble.compile_prefix(mod, intel_cpu())
        loaded = nimble.SpecializationPrefix.load(prefix.save())
        assert loaded.store_key() == prefix.store_key()
        mono, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(7, 8)], kernel_cache=cache
        )
        staged, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(7, 8)], kernel_cache=cache,
            prefix=loaded,
        )
        assert staged.content_hash() == mono.content_hash()
        x = np.random.RandomState(2).randn(7, 8).astype(np.float32)
        assert np.array_equal(
            _run(mono, x)[0].numpy(), _run(staged, x)[0].numpy()
        )

    @pytest.mark.parametrize("streams", [None, 2], ids=["intel_cpu", "nvidia_gpu_s2"])
    def test_store_restored_prefix_and_variant_match_fresh_compiles_bitwise(
        self, fresh_prefix_cache, tmp_path, streams
    ):
        """What comes back from a store shares the store's one array of
        each large constant instead of owning a copy. That array must be
        aligned as ``np.empty`` aligns: a zero-copy view of the file's
        bytes (offset 40 behind the envelope) is a correct float32
        array that NumPy reduces along another code path, and the
        specialized tier then differs from the dynamic one in the last
        ulp. So: restored prefix -> specialize, and restored variant,
        against compiles that never saw a store — bitwise."""
        from repro.vm.compiler import CompilerOptions

        platform = nvidia_gpu() if streams else intel_cpu()
        options = CompilerOptions(device_streams=streams) if streams else None
        mod = build_lstm_module(LSTMWeights.create(32, 32, seed=0))
        fresh, _ = nimble.specialize(mod, platform, shapes=[(6, 32)], options=options)
        dynamic, _ = nimble.build(mod, platform, options=options)
        store = ArtifactStore(tmp_path)
        store.put_prefix(nimble.compile_prefix(mod, platform)[0])
        store.put(fresh)
        store = ArtifactStore(tmp_path)  # a new process: nothing cached
        prefix = store.get_prefix(nimble.prefix_store_key(module_fingerprint(mod), platform.name))
        restored = store.get(fresh.content_hash())
        staged, _ = nimble.specialize(
            mod, platform, shapes=[(6, 32)], options=options, prefix=prefix
        )
        assert store.rejects == 0 and staged.content_hash() == fresh.content_hash()
        big = [c.numpy() for c in restored.constants + staged.constants if c.nbytes >= 4096]
        assert len(big) == 2 and np.shares_memory(*big)
        assert not big[0].flags.writeable and big[0].ctypes.data % 16 == 0
        x = (np.random.RandomState(3).randn(6, 32) * 0.5).astype(np.float32)
        want = _run(fresh, x, platform=platform)[0].numpy()
        assert np.array_equal(_run(dynamic, x, platform=platform)[0].numpy(), want)
        assert np.array_equal(_run(restored, x, platform=platform)[0].numpy(), want)
        assert np.array_equal(_run(staged, x, platform=platform)[0].numpy(), want)

    def test_prefix_for_wrong_module_or_platform_rejected(
        self, fresh_prefix_cache
    ):
        mod = self._lstm()
        other = build_lstm_module(LSTMWeights.create(8, 16, seed=1))
        prefix, _ = nimble.compile_prefix(mod, intel_cpu())
        with pytest.raises(CompilerError, match="built from module"):
            nimble.specialize(other, intel_cpu(), shapes=[(5, 8)], prefix=prefix)
        with pytest.raises(CompilerError, match="platform"):
            nimble.specialize(mod, nvidia_gpu(), shapes=[(5, 8)], prefix=prefix)

    def test_compile_prefix_origin_ladder(self, fresh_prefix_cache):
        """built -> memory (same process) -> built (cache bypassed)."""
        mod = self._lstm()
        first, origin = nimble.compile_prefix(mod, intel_cpu())
        assert origin == "built"
        again, origin = nimble.compile_prefix(mod, intel_cpu())
        assert origin == "memory" and again is first
        fresh, origin = nimble.compile_prefix(mod, intel_cpu(), use_cache=False)
        assert origin == "built" and fresh is not first

    def test_failed_prefix_build_poisons_no_cache(
        self, fresh_prefix_cache, monkeypatch
    ):
        """Satellite: an exception mid-prefix-construction must leave
        the in-process cache untouched — the next call rebuilds from
        scratch instead of reusing a partial result."""
        mod = self._lstm()

        class Boom(RuntimeError):
            pass

        class ExplodingLift:
            name = "LambdaLift"

            def __call__(self, m):
                raise Boom("mid-prefix fault")

            def run(self, m):
                raise Boom("mid-prefix fault")

        monkeypatch.setattr(nimble, "LambdaLift", ExplodingLift)
        with pytest.raises(Boom):
            nimble.compile_prefix(mod, intel_cpu())
        monkeypatch.undo()
        # The in-process cache must be empty: the retry rebuilds.
        prefix, origin = nimble.compile_prefix(mod, intel_cpu())
        assert origin == "built"
        # And the rebuilt prefix actually works.
        staged, _ = nimble.specialize(
            mod, intel_cpu(), shapes=[(4, 8)], prefix=prefix
        )
        assert staged.specialized_shapes == ((4, 8),)


class TestOnePipeline:
    """Every specialization resumes from a prefix: a per-call one
    (``prefix=None``) and a shared one are the same compile, byte for
    byte, and nothing but ``specialize`` labels an executable static."""

    @pytest.mark.parametrize("batch", [1, 4], ids=["member", "batch4"])
    def test_per_call_and_shared_prefix_save_the_same_bytes(self, batch):
        def saved(shared):
            mod = build_lstm_module(LSTMWeights.create(12, 16, seed=0))
            prefix = nimble.build_prefix(mod, intel_cpu()) if shared else None
            exe, _ = nimble.specialize(
                mod, intel_cpu(), shapes=[(7, 12)], batch=batch, prefix=prefix
            )
            return exe.save()

        assert saved(shared=False) == saved(shared=True)

    def test_specialization_markers_are_not_options(self):
        from repro.vm.compiler import CompilerOptions

        with pytest.raises(TypeError):
            CompilerOptions(specialized_shapes=((8, 8),))
        with pytest.raises(TypeError):
            CompilerOptions(specialized_batch=4)
        exe, _ = nimble.build(_dyn_mlp_module(), intel_cpu())
        assert exe.specialized_shapes is None and exe.specialized_batch is None


class TestSpecializeShapesReuse:
    def test_raising_run_clears_stale_bound_shapes(self):
        """Satellite regression: a reused SpecializeShapes instance whose
        second run raises must not keep reporting the previous module's
        bound_shapes through the side channel."""
        p = SpecializeShapes(shapes=[(12, 8)])
        p(_dyn_mlp_module())
        assert p.bound_shapes == ((12, 8),)
        with pytest.raises(CompilerError, match="no entry"):
            p(IRModule())  # no main: raises after reset, before rebinding
        assert p.bound_shapes is None


class TestTupleEntryKeyAgreement:
    """Satellite: bound_entry_shapes (the store-key path, computed
    without compiling) must agree with the marker the compiled
    executable carries, including on tuple-typed entry params."""

    def _tuple_mod(self):
        from repro.ir import TupleGetItem

        a = Any()
        t = Var(
            "t",
            TupleType(
                [TensorType((a, 8), "float32"), TensorType((a, 8), "float32")]
            ),
        )
        body = api.relu(api.add(TupleGetItem(t, 0), TupleGetItem(t, 1)))
        return IRModule.from_expr(Function([t], body))

    def test_marker_and_store_key_agree_on_tuple_params(self):
        from repro.core.typing import collect_shape_bindings
        from repro.passes import bound_entry_shapes
        from repro.vm.executable import artifact_key

        mod = self._tuple_mod()
        spec = ((6, 8), (6, 8))
        binding = {}
        collect_shape_bindings(
            mod["main"].params[0].type_annotation, spec, binding, what="t"
        )
        predicted = bound_entry_shapes(mod["main"], binding)
        exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[spec])
        assert exe.specialized_shapes == predicted
        fp = module_fingerprint(mod)
        assert artifact_key(fp, "intel", predicted, None) == artifact_key(
            fp, "intel", exe.specialized_shapes, None
        )

    def test_partial_binding_keeps_unbound_dims_dynamic_in_both(self):
        from repro.passes import bound_entry_shapes

        mod = self._tuple_mod()
        # Empty binding: everything stays dynamic; both paths must agree
        # the marker is all-None dims, not crash or drift.
        predicted = bound_entry_shapes(mod["main"], {})
        assert predicted == (((None, 8), (None, 8)),)


class TestStagedManager:
    def _manager(self, threshold=2, **kwargs):
        return _mlp_manager(threshold=threshold, **kwargs)

    def test_prefix_charged_once_then_suffix_only(self):
        nimble.clear_prefix_cache()
        mgr = self._manager()  # compile_us=100 override
        mgr.observe((16,), 0.0)
        mgr.observe((16,), 10.0)
        mgr.observe((24,), 20.0)
        mgr.observe((24,), 30.0)
        mgr.drain()
        events = mgr.pool.events
        assert len(events) == 2
        # First fresh compile carries prefix (60%) + suffix (40%) of the
        # 100 µs override; the second pays the suffix share only.
        assert events[0].prefix_us == pytest.approx(60.0)
        assert events[0].compile_us == pytest.approx(100.0)
        assert events[1].prefix_us == 0.0
        assert events[1].compile_us == pytest.approx(40.0)
        report = _report(mgr)
        assert report.specialize_prefix_us == pytest.approx(60.0)
        assert report.specialize_suffix_us == pytest.approx(80.0)
        assert report.specialize_compile_us == pytest.approx(140.0)
        # Lane-busy invariant holds with the split.
        assert sum(report.specialize_lane_busy_us) == pytest.approx(
            report.specialize_compile_us
        )

    def test_staged_replay_is_bit_identical(self):
        nimble.clear_prefix_cache()
        mgr = self._manager()

        def run():
            mgr.reset()
            for t, key in enumerate(((16,), (16,), (24,), (24,), (32,), (32,))):
                mgr.observe(key, float(t * 10))
            mgr.drain()
            return (
                [(e.key, e.compile_us, e.prefix_us, e.lane) for e in mgr.pool.events],
                _report(mgr).specialize_compile_us,
            )

        first = run()
        second = run()
        assert first == second
        # The prefix recharges each simulation (the model restarts), but
        # only once per simulation.
        assert sum(1 for e in mgr.pool.events if e.prefix_us > 0) == 1

    def test_warm_restart_restores_prefix_from_store(self, tmp_path, monkeypatch):
        monkeypatch.setitem(calibration.RESTORE_BASE_US, "intel", 5.0)
        nimble.clear_prefix_cache()
        store = ArtifactStore(tmp_path)
        cache = KernelCache()
        first = _mlp_manager(threshold=2, kernel_cache=cache, store=store)
        first.observe((16,), 0.0)
        first.observe((16,), 10.0)
        first.drain()
        assert _report(first).specialize_prefix_us == pytest.approx(60.0)
        assert store.keys("prefix")  # prefix persisted alongside artifacts
        # "Restart": a new manager over the same store. The old shape
        # restores wholesale (no prefix needed); a NEW shape compiles
        # fresh but pays only the prefix *restore* charge.
        nimble.clear_prefix_cache()
        second = _mlp_manager(threshold=2, kernel_cache=cache, store=store)
        second.observe((16,), 0.0)
        second.observe((16,), 10.0)
        second.observe((24,), 20.0)
        second.observe((24,), 30.0)
        second.drain()
        restored = [e for e in second.pool.events if e.restored]
        fresh = [e for e in second.pool.events if not e.restored]
        assert [e.key for e in restored] == [(16,)]
        assert [e.key for e in fresh] == [(24,)]
        assert restored[0].prefix_us == 0.0
        # Fresh compile under a store-warm prefix: restore charge (5)
        # plus the suffix share (40) — not the full 60 µs prefix build.
        assert fresh[0].prefix_us == pytest.approx(5.0)
        assert fresh[0].compile_us == pytest.approx(45.0)

    def test_corrupt_prefix_blob_rejected_rebuilt_and_replayed(self, tmp_path):
        nimble.clear_prefix_cache()
        store = ArtifactStore(tmp_path)
        cache = KernelCache()
        first = _mlp_manager(
            threshold=2, kernel_cache=cache, store=store
        )
        first.observe((16,), 0.0)
        first.observe((16,), 10.0)
        first.drain()
        (pkey,) = store.keys("prefix")
        path = store.blob_path("prefix", pkey)
        path.write_bytes(path.read_bytes()[:-9])
        nimble.clear_prefix_cache()
        second = _mlp_manager(
            threshold=2, kernel_cache=cache, store=store
        )

        def run():
            _replay(second)
            second.observe((24,), 0.0)
            second.observe((24,), 10.0)
            second.drain()
            return len(_rejects(second)), _report(second).specialize_prefix_us

        rejects1, prefix_us1 = run()
        assert rejects1 >= 1  # the bad blob is visible, not silent
        assert prefix_us1 == pytest.approx(60.0)  # full rebuild charge
        # Replays re-count the reject without re-reading the (healed)
        # file — bit-identical accounting.
        assert run() == (rejects1, prefix_us1)
        # And the rebuild healed the store for the *next* process.
        nimble.clear_prefix_cache()
        assert store.get_prefix(pkey) is not None


# ---------------------------------------------------------------------------
# Decayed-score arithmetic (pinned)
# ---------------------------------------------------------------------------


HALF_LIFE_US = 100_000.0  # the manager's decay_half_life_us default


def _policy(threshold=100, **knobs):
    """A bare shape policy: no module, no kernel cache, no compiles."""
    return ShapePolicy(
        ServeConfig(
            specialize=True,
            specialize_threshold=threshold,
            **{f"specialize_{name}": value for name, value in knobs.items()},
        )
    )


class TestScoreDecayPinned:
    """Hand-computed half-life arithmetic. 0.5**1 and 0.5**2 are exact
    in binary floating point, so these assert equality, not approx: any
    drift in how decay is anchored or compounded is a real change."""

    def test_decay_anchors_at_last_bump_and_folds_on_observe(self):
        policy = _policy()
        key = (16,)
        policy.observe(key, 0.0)
        assert policy.score(key, 0.0) == 1.0
        # A *reading* one half-life later halves; it does not re-anchor.
        assert policy.score(key, HALF_LIFE_US) == 0.5
        assert policy.score(key, HALF_LIFE_US) == 0.5
        # A *bump* folds the decayed value and adds one: 1*0.5 + 1.
        policy.observe(key, HALF_LIFE_US)
        assert policy.score(key, HALF_LIFE_US) == 1.5
        assert policy.score(key, 2 * HALF_LIFE_US) == 0.75

    def test_same_microsecond_reobserves_add_exactly_one_each(self):
        """Regression: decay anchored at the last *hit* (instead of the
        last bump) double-counts same-timestamp hits; anchoring at the
        bump makes N same-microsecond observes worth exactly +N."""
        policy = _policy()
        key = (16,)
        policy.observe(key, 0.0)
        policy.observe(key, HALF_LIFE_US)        # 1.5
        assert policy.score(key, 2 * HALF_LIFE_US) == 0.75
        policy.observe(key, 2 * HALF_LIFE_US)    # 0.75 + 1
        assert policy.score(key, 2 * HALF_LIFE_US) == 1.75
        policy.observe(key, 2 * HALF_LIFE_US)    # 1.75 + 1
        assert policy.score(key, 2 * HALF_LIFE_US) == 2.75

    def test_reading_before_the_anchor_clamps_instead_of_inflating(self):
        """Regression: a negative age (reading at a timestamp before the
        anchor — same-microsecond queries, or the t=0 eviction scan over
        predictively seeded scores) must clamp to the raw value, never
        inflate it through a negative exponent."""
        policy = _policy()
        key = (16,)
        policy.observe(key, 2 * HALF_LIFE_US)
        assert policy.score(key, 0.0) == 1.0          # NOT 1.0 * 0.5**-2 == 4.0
        assert policy.score(key, HALF_LIFE_US) == 1.0
        assert policy.score(key, 3 * HALF_LIFE_US) == 0.5

    def test_unseen_key_scores_zero(self):
        assert _policy().score((64,), 123.0) == 0.0


class TestShapePolicy:
    """The policy alone, driven the way the manager drives it: every
    observation of an armed shape asks for a slot. A shape counts as in
    flight from its admission until its compile lands ``compile_us``
    later — the pool's part, modeled here by a dict."""

    @given(
        trace=st.lists(
            st.tuples(
                st.integers(0, 4), st.one_of(st.just(0.0), st.floats(0.0, 300.0))
            ),
            min_size=1,
            max_size=80,
        ),
        capacity=st.integers(1, 3),
        compile_us=st.sampled_from([0.0, 50.0, 400.0]),
        # 1e30: nothing decays, so scores are hit counts and tie often.
        half_life_us=st.sampled_from([200.0, 1e30]),
    )
    # Two residents tied on score, one challenger past the margin: the
    # victim is the least recently hit, then the least in key order.
    @example([(0, 1.0), (0, 1.0), (1, 1.0), (1, 1.0)] + [(2, 1.0)] * 5, 2, 0.0, 1e30)
    @example([(0, 1.0), (1, 0.0), (0, 0.0), (1, 0.0)] + [(2, 1.0)] * 5, 2, 0.0, 1e30)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_eviction_choice_and_rearm(self, trace, capacity, compile_us, half_life_us):
        policy = _policy(
            threshold=2, max_executables=capacity, decay_half_life_us=half_life_us
        )
        lands_at = {}
        now = 0.0
        blocked = set()
        for idx, gap in trace:
            now += gap
            key = ((idx + 1) * 8,)
            hit, partial = policy.observe(key, now)
            assert hit == [key] and partial is None  # partial is off
            # An armed shape retries on every later hit.
            assert (key in blocked) <= policy.armed(key)
            if not policy.armed(key):
                continue
            in_flight = lambda k: lands_at[k] > now
            resident = set(policy.resident)
            evictable = [k for k in resident if not in_flight(k)]
            admitted, victim = policy.admit(key, now, in_flight)
            if len(resident) < capacity:
                assert (admitted, victim) == (True, None)
            elif victim is not None:
                # Never in flight; minimal (score, last hit, key order).
                assert victim in evictable and not in_flight(victim)
                order = lambda k: (
                    policy.score(k, now), policy.last_hit_us[k], key_order(k)
                )
                assert order(victim) == min(order(k) for k in evictable)
                assert policy.score(key, now) > EVICTION_MARGIN * policy.score(
                    victim, now
                )
                assert policy.resident == resident - {victim} | {key}
                assert policy.armed(victim)  # re-arms by itself
            else:
                # Refused: nothing evictable, or the coldest is within
                # the margin. The cache is untouched and the shape armed.
                assert not admitted and policy.resident == resident
                assert not evictable or policy.score(
                    key, now
                ) <= EVICTION_MARGIN * min(policy.score(k, now) for k in evictable)
                assert policy.armed(key)
            if admitted:
                lands_at[key] = now + compile_us
                blocked.discard(key)
            else:
                blocked.add(key)
            assert len(policy.resident) <= capacity


# ---------------------------------------------------------------------------
# Predictive pre-arming from the persisted shape profile
# ---------------------------------------------------------------------------


class TestPredictivePreArm:
    def _first_run(self, store):
        """Simulation one: three shapes go hot, executables and the
        shape profile land in the store."""
        first = _mlp_manager(threshold=1, store=store, max_executables=4)
        for t, v in [(0.0, 8), (10.0, 8), (20.0, 16), (30.0, 24)]:
            first.observe((v,), t)
        first.drain()
        store.put_profile(first.profile_snapshot())
        return first

    def _warm(self, store, max_executables=4, **kwargs):
        """A restarted (fresh-process) manager over the same store. Its
        threshold is high, so predictive pre-arming is the only way
        anything can trigger."""
        return _mlp_manager(
            threshold=100, store=store, max_executables=max_executables,
            predictive=True, **kwargs,
        )

    def test_pre_arms_historical_top_k_at_time_zero(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._first_run(store)
        warm = self._warm(store)
        assert warm.policy.prearmed == {(8,), (16,), (24,)}
        assert all(e.trigger_us == 0.0 for e in warm.pool.events)
        # Restores, not fresh compiles: the artifacts are in the store.
        warm.drain()
        report = _report(warm)
        assert report.predictive_compiles == 3
        assert report.specialize_fresh_compiles == 0
        assert report.specialize_restored == 3
        # Routable without a single observation ever reaching this
        # manager — the whole point of pre-arming.
        ready = max(e.ready_us for e in warm.pool.events)
        tier, _, prearmed = warm.tier_for(_batch((8, 8)), ready)
        assert (tier, prearmed) == ("specialized", True)

    def test_hottest_profile_key_gets_the_first_lane(self, tmp_path):
        """Lane binding follows profile rank (hottest first), not the
        pending queue's lexicographic tie-break: at t=0 every pre-arm
        job ties on hits and trigger time, so pumping once per trigger
        is what keeps the order honest."""
        store = ArtifactStore(tmp_path)
        first = self._first_run(store)
        profile = store.get_profile(
            first.profile_snapshot().store_key()
        )
        warm = self._warm(store)
        armed_order = [e.key for e in warm.pool.events]
        assert armed_order == list(profile.top_keys(len(armed_order)))

    def test_pre_armed_entries_carry_a_last_hit_time(self, tmp_path):
        """Regression: eviction sorts score ties by last-hit time, and a
        predictively pre-armed entry has never been observed — before
        the fix its lookup fell back to -inf, making the freshly armed
        hot set the unconditional eviction victim. The trigger now seeds
        last-hit at trigger time."""
        store = ArtifactStore(tmp_path)
        self._first_run(store)
        warm = self._warm(store)
        assert warm.policy.prearmed  # non-degenerate
        for key in warm.policy.prearmed:
            assert warm.policy.last_hit_us[key] == 0.0

    def test_top_k_caps_the_pre_armed_set(self, tmp_path):
        """K is the cache size: pre-arming more could only evict."""
        store = ArtifactStore(tmp_path)
        first = self._first_run(store)
        profile = store.get_profile(first.profile_snapshot().store_key())
        warm = self._warm(store, max_executables=1)
        assert _report(warm).predictive_compiles == 1
        assert {e.key for e in warm.pool.events} == set(profile.top_keys(1))

    def test_reset_replays_bit_identically(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._first_run(store)
        warm = self._warm(store)

        def snapshot():
            warm.drain()
            return (
                _report(warm).predictive_compiles,
                sorted(warm.policy.prearmed),
                [(e.key, e.lane, e.start_us, e.ready_us, e.restored)
                 for e in warm.pool.events],
                len(_rejects(warm)),
            )

        one = snapshot()
        _replay(warm)
        assert snapshot() == one

    def test_profile_is_frozen_at_construction(self, tmp_path):
        """A manager constructed against an empty store stays cold even
        after a profile appears on disk — replays N of a simulation must
        see what replay 1 saw."""
        store = ArtifactStore(tmp_path)
        warm = self._warm(store)  # no profile on disk yet
        assert _report(warm).predictive_compiles == 0
        self._first_run(store)    # profile lands *after* construction
        _replay(warm)
        assert _report(warm).predictive_compiles == 0
        assert warm.pool.events == []

    def test_corrupt_profile_rejected_and_recounted_each_reset(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = self._first_run(store)
        key = first.profile_snapshot().store_key()
        path = store.blob_path("profile", key)
        path.write_bytes(path.read_bytes()[:12])
        warm = self._warm(store)
        assert _report(warm).predictive_compiles == 0
        assert [(r.kind, r.key, r.verify) for r in _rejects(warm)] == [
            ("profile", key, False)
        ]
        # Memoised reject: replays re-count without re-reading the
        # (possibly since-healed) file — accounting is bit-identical.
        _replay(warm)
        assert len(_rejects(warm)) == 1

    def test_non_predictive_manager_ignores_the_profile(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._first_run(store)
        plain = _mlp_manager(threshold=100, store=store, max_executables=4)
        assert plain.pool.records == []


# ---------------------------------------------------------------------------
# Partial-variant synthesis and routing
# ---------------------------------------------------------------------------


def _gram_manager(threshold=4, **kwargs):
    return _manager_for(build_gram_module(), threshold, **kwargs)


class TestPartialSynthesis:
    def test_stable_dim_plus_long_tail_synthesizes_partial_variant(self):
        """Three distinct row counts over one stable feature width, with
        threshold total hits: the manager binds the stable dim, leaves
        the row dim None, and the variant then covers row counts it has
        NEVER seen."""
        mgr = _gram_manager(threshold=4, partial=True)
        for t, rows in [(0.0, 9), (10.0, 9), (20.0, 25), (30.0, 41)]:
            mgr.observe((rows, 16), t)
        mgr.drain()
        ready = max(e.ready_us for e in mgr.pool.events)
        tier, exe, _ = mgr.tier_for(_batch((57, 16)), ready)
        assert tier == "partial"
        assert exe.specialized_shapes == ((None, 16),)
        assert exe.is_partial
        assert entry_mismatch(
            exe.entry_contract, (np.zeros((57, 16), dtype=np.float32),)
        ) is None

    def test_no_partial_without_a_stable_dim(self):
        mgr = _gram_manager(threshold=3, partial=True)
        for t, key in [(0.0, (9, 16)), (10.0, (25, 8)), (20.0, (41, 32))]:
            mgr.observe(key, t)
        mgr.drain()
        assert _tier(mgr, 1e9, (9, 16)) == "dynamic"
        assert all(None not in e.key for e in mgr.pool.events)

    def test_family_must_span_min_shapes(self):
        """Two exact shapes are not a family — exact specialization
        already covers them; min_shapes=3 holds the variant back until a
        third distinct shape appears."""
        mgr = _gram_manager(threshold=2, partial=True)
        for t, rows in [(0.0, 9), (10.0, 9), (20.0, 25), (30.0, 25)]:
            mgr.observe((rows, 16), t)
        assert not any(None in e.key for e in mgr.pool.events)
        mgr.observe((41, 16), 40.0)
        mgr.drain()
        assert any(e.key == (None, 16) for e in mgr.pool.events)

    def test_partial_off_by_default(self):
        mgr = _gram_manager(threshold=2)
        for t, rows in [(0.0, 9), (5.0, 25), (10.0, 41), (15.0, 9)]:
            mgr.observe((rows, 16), t)
        mgr.drain()
        assert all(None not in e.key for e in mgr.pool.events)

    def test_partial_variant_never_enters_the_batched_tier(self):
        """A partial variant's members differ in shape, so axis-0
        stacking is ill-defined: the batched tier must refuse partial
        keys even when batching is on."""
        mgr = _gram_manager(
            threshold=4, partial=True, batch_cap=4,
        )
        # An exact shape nobody has probed yet would compile both ways...
        assert mgr.planner.variant_batches((9, 16)) == (1, 4)
        for t, rows in [(0.0, 9), (10.0, 9), (20.0, 25), (30.0, 41)]:
            mgr.observe((rows, 16), t)
        mgr.drain()
        # ...but the family's partial variant compiles member-wise only,
        # so even a full bucket of one family shape runs it member-wise.
        assert [(e.key, e.batch) for e in mgr.pool.events] == [((None, 16), 1)]
        assert _tier(mgr, mgr.pool.events[-1].ready_us, *[(9, 16)] * 4) == "partial"

    def test_routing_picks_the_widest_cover_deterministically(self):
        mgr = _gram_manager(threshold=4, partial=True)
        for t, rows in [(0.0, 9), (10.0, 9), (20.0, 25), (30.0, 41)]:
            mgr.observe((rows, 16), t)
        mgr.drain()
        ready = max(e.ready_us for e in mgr.pool.events)
        # No member matches -> no partial routing.
        assert _tier(mgr, ready, (9, 8), (25, 32)) == "dynamic"
        # Mixed batch: the variant covering more members wins.
        tier, exe, _ = mgr.tier_for(_batch((9, 16), (25, 16), (9, 8)), ready)
        assert tier == "partial" and exe.specialized_shapes == ((None, 16),)


class TestGuardDeopt:
    def test_guard_rejected_member_deopts_to_dynamic_and_is_counted(self):
        """A batch routed to a partial variant with one non-matching
        member: the worker re-runs that member on the dynamic VM,
        reports its tier as "dynamic", counts the deopt — and the
        deopted output is bitwise the dynamic tier's."""
        mod = build_gram_module()
        platform = intel_cpu()
        cache = KernelCache()
        dyn, _ = nimble.build(mod, platform, kernel_cache=cache)
        part, _ = nimble.specialize(
            mod, platform, shapes=[(None, 16)], kernel_cache=cache
        )
        rng = np.random.RandomState(0)
        ok = (rng.randn(5, 16) * 0.2).astype(np.float32)
        bad = (rng.randn(5, 8) * 0.2).astype(np.float32)
        worker = Worker(0, dyn, platform, numerics="full")
        batch = Batch(
            key=(0, 16),
            requests=[
                Request(rid=0, arrival_us=0.0, payload=ok),
                Request(rid=1, arrival_us=0.0, payload=bad),
            ],
            formed_us=0.0,
        )
        responses = worker.run_batch(
            batch, 0.0, executable=part, tier="partial"
        )
        assert [r.tier for r in responses] == ["partial", "dynamic"]
        (deopt,) = [r for r in worker.records if type(r) is GuardDeopt]
        assert deopt.rid == 1
        runs = [(r.tier, r.rids) for r in worker.records if type(r) is VMRun]
        assert runs == [("partial", (0,)), ("dynamic", (1,))]
        assert "16" in deopt.reason and "8" in deopt.reason
        ref_vm = VirtualMachine(
            dyn, ExecutionContext(platform, numerics="full")
        )
        for r, x in zip(responses, (ok, bad)):
            assert np.array_equal(r.output.numpy(), ref_vm.run(x).numpy())

    def test_matching_batch_takes_the_partial_tier_without_deopts(self):
        mod = build_gram_module()
        platform = intel_cpu()
        cache = KernelCache()
        dyn, _ = nimble.build(mod, platform, kernel_cache=cache)
        part, _ = nimble.specialize(
            mod, platform, shapes=[(None, 16)], kernel_cache=cache
        )
        rng = np.random.RandomState(1)
        members = [
            (rng.randn(rows, 16) * 0.2).astype(np.float32)
            for rows in (3, 7, 11)
        ]
        worker = Worker(0, dyn, platform, numerics="full")
        batch = Batch(
            key=(0, 16),
            requests=[
                Request(rid=i, arrival_us=0.0, payload=x)
                for i, x in enumerate(members)
            ],
            formed_us=0.0,
        )
        responses = worker.run_batch(
            batch, 0.0, executable=part, tier="partial"
        )
        assert [r.tier for r in responses] == ["partial"] * 3
        assert not any(type(r) is GuardDeopt for r in worker.records)
