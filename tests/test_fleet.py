"""The fleet layer: routed replicas over one shared artifact store.

Chaos + differential battery for ``repro.fleet``:

- unit coverage of the admission bucket, the store view model, and
  config validation;
- routing behavior (affinity stickiness vs load balancing, admission
  shedding at the door);
- the chaos suite — replica stalls, cross-replica blob corruption, GC
  racing an in-flight restore, tenant bursts tripping admission — each
  asserting bit-identical replay and fully drained allocators;
- the differential contract: a fleet of any replica count computes
  bitwise the same outputs as one standalone ``InferenceServer``, and a
  one-replica fleet replays its exact event sequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.kernels import KernelCache
from repro.fleet import (
    CorruptBlob,
    FleetConfig,
    FleetReport,
    FleetRouter,
    FleetStoreView,
    ReplicaStall,
    ROUTING_POLICIES,
    TenantSpec,
    TokenBucket,
)
from repro.hardware import calibration, intel_cpu
from repro.ir import Any, Function, IRModule, TensorType, Var, const
from repro.ops import api
from repro.serve import (
    InferenceServer,
    Request,
    ServeConfig,
    multi_tenant_traffic,
)
from repro.serve.events import Dispatch, Shed
from repro.serve.report import ServeReport
from repro.store import ArtifactStore


def _mlp(dim=8, seed=0):
    """main(x: Tensor[(Any, dim)]): one dense + relu — a fast dynamic model."""
    w = const((np.random.RandomState(seed).randn(dim, dim) * 0.1).astype(np.float32))
    x = Var("x", TensorType((Any(), dim), "float32"))
    return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))


def _payload(rows, dim=8, seed=0):
    return (np.random.RandomState(seed).randn(rows, dim) * 0.1).astype(np.float32)


def _hot_trace(n=24, rows=9, gap_us=100.0, start_us=0.0, tenant="default", dim=8):
    """n arrivals of one exact shape, evenly spaced — the affinity magnet."""
    return [
        Request(
            rid=i,
            arrival_us=start_us + i * gap_us,
            payload=_payload(rows, dim=dim, seed=i),
            tenant=tenant,
        )
        for i in range(n)
    ]


# Fast per-replica serving knobs shared by most tests: tiny batches, one
# worker, near-instant specialization trigger.
_FAST = dict(
    max_batch_size=2,
    max_delay_us=300.0,
    num_workers=1,
    specialize=True,
    specialize_threshold=2,
    specialize_compile_us=2000.0,
)


def _outputs(report):
    return {r.rid: r.output.numpy() for r in report.responses}


def _assert_drained(router):
    for replica in router.replicas:
        for worker in replica.workers:
            assert worker.ctx.allocator.live_bytes == 0


def _assert_replays(router, requests, chaos=()):
    """Simulate twice; the replay must be bit-identical (counters and
    response payloads). Returns the first report."""
    first = router.simulate(requests, chaos=chaos)
    second = router.simulate(requests, chaos=chaos)
    assert first.counters() == second.counters()
    a, b = _outputs(first), _outputs(second)
    assert a.keys() == b.keys()
    for rid in a:
        assert np.array_equal(a[rid], b[rid])
    return first


# ---------------------------------------------------------------------------
# Tenancy: specs and the admission bucket
# ---------------------------------------------------------------------------


class TestTenancy:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="deadline_us"):
            TenantSpec("t", deadline_us=0.0)
        with pytest.raises(ValueError, match="rate_per_s"):
            TenantSpec("t", rate_per_s=-1.0)
        with pytest.raises(ValueError, match="burst"):
            TenantSpec("t", burst=0)

    def test_unlimited_rate_always_admits(self):
        bucket = TokenBucket(TenantSpec("t"))
        assert all(bucket.admit(i * 10.0) for i in range(1000))

    def test_burst_capacity_then_shed(self):
        # rate 0: nothing refills, only the initial burst gets through.
        bucket = TokenBucket(TenantSpec("t", rate_per_s=0.0, burst=3))
        assert [bucket.admit(0.0) for _ in range(5)] == [
            True, True, True, False, False,
        ]

    def test_refill_on_virtual_time(self):
        # 1 token per 1000 µs. Burst of 1: back-to-back sheds, spaced admits.
        bucket = TokenBucket(TenantSpec("t", rate_per_s=1000.0, burst=1))
        assert bucket.admit(0.0)
        assert not bucket.admit(1.0)
        assert not bucket.admit(999.0)  # 0.998 tokens: still short
        assert bucket.admit(2000.0)

    def test_reset_restores_the_full_burst(self):
        bucket = TokenBucket(TenantSpec("t", rate_per_s=0.0, burst=2))
        assert bucket.admit(0.0) and bucket.admit(0.0)
        assert not bucket.admit(0.0)
        bucket.reset()
        assert bucket.admit(0.0) and bucket.admit(0.0)


# ---------------------------------------------------------------------------
# The shared store model
# ---------------------------------------------------------------------------


class TestFleetStoreView:
    def test_initial_inventory_is_frozen_at_construction(self, tmp_path):
        store = ArtifactStore(tmp_path)
        from repro.serve.profile import ShapeProfile

        key = store.put_profile(
            ShapeProfile(
                source_signature="a" * 64,
                platform_name="intel",
                hits={(9, 1): 2},
                scores={(9, 1): 1.0},
            )
        )
        view = FleetStoreView(store)
        assert view.present("profile", key)
        # A disk write made BEHIND the model is invisible: the view is
        # the decision surface, record_put is the only way in.
        later = ShapeProfile(
            source_signature="b" * 64,
            platform_name="intel",
            hits={(25, 1): 2},
            scores={(25, 1): 1.0},
        )
        other = store.put_profile(later)
        assert other != key
        assert not view.present("profile", other)

    def test_put_prune_revive_cycle(self, tmp_path):
        view = FleetStoreView(ArtifactStore(tmp_path))
        assert not view.present("exe", "k1")
        view.record_put("exe", "k1", 100.0, replica_id=1)
        assert view.present("exe", "k1")
        assert view.origin("exe", "k1") == 1
        view.record_prune("exe", "k1", 200.0)
        assert not view.present("exe", "k1")
        assert view.origin("exe", "k1") is None
        view.record_put("exe", "k1", 300.0, replica_id=0)
        assert view.present("exe", "k1")
        assert view.origin("exe", "k1") == 0

    def test_init_entries_have_no_origin_and_prune_sticks(self, tmp_path):
        store = ArtifactStore(tmp_path)
        from repro.serve.profile import ShapeProfile

        key = store.put_profile(
            ShapeProfile(
                source_signature="a" * 64,
                platform_name="intel",
                hits={(9, 1): 2},
                scores={(9, 1): 1.0},
            )
        )
        view = FleetStoreView(store)
        assert view.origin("profile", key) is None
        view.record_prune("profile", key, 50.0)
        assert not view.present("profile", key)
        # reset() restores the frozen initial inventory for the next replay.
        view.reset()
        assert view.present("profile", key)
        assert view.last_use_us("profile", key) is None

    def test_last_use_is_monotonic(self, tmp_path):
        view = FleetStoreView(ArtifactStore(tmp_path))
        view.record_put("exe", "k", 100.0, replica_id=0)
        view.record_use("exe", "k", 500.0)
        assert view.last_use_us("exe", "k") == 500.0
        view.record_use("exe", "k", 300.0)  # stale reader: no rewind
        assert view.last_use_us("exe", "k") == 500.0

    def test_inventory_is_sorted_and_mergeable(self, tmp_path):
        view = FleetStoreView(ArtifactStore(tmp_path))
        view.record_put("profile", "p", 1.0, 0)
        view.record_put("exe", "b", 2.0, 0)
        view.record_put("exe", "a", 3.0, 1)
        assert view.inventory() == [("exe", "a"), ("exe", "b"), ("profile", "p")]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestFleetConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="num_replicas"):
            FleetConfig(num_replicas=0)
        with pytest.raises(ValueError, match="routing"):
            FleetConfig(routing="sticky")
        with pytest.raises(ValueError, match="gc_interval_us"):
            FleetConfig(gc_interval_us=0.0)
        assert set(ROUTING_POLICIES) == {"affinity", "least_loaded", "random"}

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            FleetRouter(
                _mlp(),
                intel_cpu(),
                ServeConfig(),
                tenants=[TenantSpec("a"), TenantSpec("a")],
            )


# ---------------------------------------------------------------------------
# Routing and admission
# ---------------------------------------------------------------------------


class TestFleetRouting:
    def test_one_replica_fleet_replays_the_single_server(self):
        """The degenerate fleet is the single server: same responses,
        same finish times, same tiers, same latencies — the router's
        event loop adds nothing to the timeline."""
        trace = _hot_trace(24) + [
            Request(rid=24 + i, arrival_us=i * 250.0, payload=_payload(25, seed=i))
            for i in range(12)
        ]
        cache = KernelCache()
        single = InferenceServer(
            _mlp(), intel_cpu(), ServeConfig(**_FAST), kernel_cache=cache
        ).simulate(trace)
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=1),
            kernel_cache=cache,
        )
        fleet = router.simulate(trace)
        assert [r.rid for r in fleet.responses] == [r.rid for r in single.responses]
        assert [r.finish_us for r in fleet.responses] == [
            r.finish_us for r in single.responses
        ]
        assert [r.tier for r in fleet.responses] == [
            r.tier for r in single.responses
        ]
        for a, b in zip(fleet.responses, single.responses):
            assert np.array_equal(a.output.numpy(), b.output.numpy())
        assert fleet.routed == [len(trace)]
        assert fleet.rejected == 0
        _assert_drained(router)

    def test_an_empty_shared_kernel_cache_is_kept_and_filled(self):
        """An empty KernelCache is falsy (it has __len__): the router
        must keep the caller's instance, not swap in a private one."""
        cache = KernelCache()
        router = FleetRouter(
            _mlp(), intel_cpu(), ServeConfig(**_FAST), kernel_cache=cache
        )
        assert router.kernel_cache is cache
        assert all(r.kernel_cache is cache for r in router.replicas)
        assert len(cache) > 0

    def test_store_backed_one_replica_fleet_replays_the_single_server(
        self, tmp_path
    ):
        """Over an artifact store the two must still agree — cold, then
        restarted warm, then replayed — on every tier, finish time and
        compile/restore/eviction count. The one-slot cache makes the
        9-row shape lose its slot and come back, so "persisted by me,
        then evicted" restores alongside warm-start restores."""
        trace, at = [], 0.0
        for rows, count in ((9, 10), (25, 14), (9, 10), (41, 10)):
            for _ in range(count):
                rid = len(trace)
                trace.append(
                    Request(rid=rid, arrival_us=at, payload=_payload(rows, seed=rid))
                )
                at += 400.0
        knobs = dict(
            _FAST,
            specialize_max_executables=1,
            specialize_decay_half_life_us=1000.0,
        )

        def facts(report):
            return (
                [(r.rid, r.tier, r.finish_us) for r in report.responses],
                report.specialize_restored,
                report.specialize_fresh_compiles,
                report.specialize_evictions,
                report.specialize_compile_us,
                report.store_rejects,
            )

        for phase in ("cold", "warm"):
            single = InferenceServer(
                _mlp(),
                intel_cpu(),
                ServeConfig(artifact_dir=str(tmp_path / "single"), **knobs),
            )
            router = FleetRouter(
                _mlp(),
                intel_cpu(),
                ServeConfig(artifact_dir=str(tmp_path / "fleet"), **knobs),
                FleetConfig(num_replicas=1),
            )
            alone = single.simulate(trace)
            fleet = router.simulate(trace).replica_reports[0]
            assert facts(alone) == facts(fleet), phase
            assert facts(single.simulate(trace)) == facts(alone), phase
            assert alone.specialize_evictions >= 1
            assert alone.specialize_restored >= 1
            if phase == "cold":
                assert alone.specialize_fresh_compiles >= 1
            else:
                assert alone.specialize_fresh_compiles == 0
            _assert_drained(router)

    def test_affinity_sticks_to_the_specializing_replica(self):
        """Once a replica owns a shape (compiling or ready), affinity
        keeps routing that shape to it even when a sibling is idle —
        where least-loaded drains to the idle sibling instead."""
        trace = _hot_trace(24)
        # Replica 0 triggers the shape at its second observation
        # (200 µs); the stall lands just after, while the compile is in
        # flight.
        stall = [ReplicaStall(at_us=250.0, replica_id=0, duration_us=8000.0)]

        def run(routing):
            router = FleetRouter(
                _mlp(),
                intel_cpu(),
                ServeConfig(**_FAST),
                FleetConfig(num_replicas=2, routing=routing),
            )
            report = router.simulate(trace, chaos=stall)
            _assert_drained(router)
            return report

        affinity, balanced = run("affinity"), run("least_loaded")
        # Affinity still owns the placement through the stall...
        assert affinity.routed == [23, 1]
        assert affinity.affinity_hits == 21
        assert affinity.affinity_rate == affinity.affinity_hits / 24
        # ...while least-loaded detours to the idle sibling.
        assert balanced.routed[1] > balanced.routed[0]
        assert balanced.affinity_hits == 0

    def test_random_routing_spreads_and_replays(self):
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=2, routing="random", random_seed=0),
        )
        report = _assert_replays(router, _hot_trace(24))
        assert sum(report.routed) == 24
        assert all(n > 0 for n in report.routed)
        _assert_drained(router)

    def test_admission_sheds_the_burst_not_the_steady_tenant(self):
        """A bursty tenant over budget sheds its own excess; rejected
        requests are counted at the door and never appear in any
        replica's responses (or queues)."""
        steady = _hot_trace(12, gap_us=400.0, tenant="steady")
        burst = [
            Request(
                rid=100 + i,
                arrival_us=1000.0 + i,
                payload=_payload(9, seed=i),
                tenant="bursty",
            )
            for i in range(8)
        ]
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=2),
            tenants=[
                TenantSpec("steady", deadline_us=50_000.0),
                TenantSpec("bursty", rate_per_s=0.0, burst=3),
            ],
        )
        report = _assert_replays(router, steady + burst)
        assert report.tenants["steady"].rejected == 0
        assert report.tenants["steady"].admitted == 12
        assert report.tenants["bursty"].admitted == 3
        assert report.tenants["bursty"].rejected == 5
        assert report.rejected_rids == (103, 104, 105, 106, 107)
        served = {r.rid for r in report.responses}
        assert served.isdisjoint(report.rejected_rids)
        assert len(served) == report.admitted == sum(report.routed)
        assert report.tenants["steady"].slo_attainment == 1.0
        _assert_drained(router)


# ---------------------------------------------------------------------------
# Chaos
# ---------------------------------------------------------------------------


class TestFleetPersistence:
    def test_one_kernel_cache_write_and_one_merged_profile(self, tmp_path, monkeypatch):
        """A fleet writes what its replicas share once per simulation:
        kernels.kc once (one KernelCache — not once per replica), and a
        profile whose hits are the sum of every replica's snapshot (not
        the last replica's own traffic)."""
        from repro.serve.specialization import merged_profile

        writes = []
        save = ArtifactStore.save_kernel_cache
        monkeypatch.setattr(ArtifactStore, "save_kernel_cache",
                            lambda store, cache: writes.append(cache) or save(store, cache))
        router = FleetRouter(
            _mlp(), intel_cpu(), ServeConfig(artifact_dir=str(tmp_path), **_FAST),
            FleetConfig(num_replicas=3, routing="least_loaded"))
        trace = [
            Request(rid=i, arrival_us=i * 40.0, payload=_payload(rows, seed=i))
            for i, rows in enumerate([9, 17, 25, 9, 17, 9] * 4)
        ]
        router.simulate(trace)
        assert writes == [router.kernel_cache]
        managers = [r.specializer for r in router.replicas]
        snapshots = [m.profile_snapshot() for m in managers]
        assert sum(1 for s in snapshots if s.hits) >= 2  # the traffic was spread
        stored = ArtifactStore(str(tmp_path)).get_profile(snapshots[0].store_key())
        summed = {}
        for snapshot in snapshots:
            for key, n in snapshot.hits.items():
                summed[key] = summed.get(key, 0) + n
        assert stored.hits == summed
        assert sum(summed.values()) == len(trace)
        assert stored.scores == merged_profile(managers).scores
        router.simulate(trace)
        assert len(writes) == 2


class TestFleetChaos:
    def test_stall_redirects_traffic_and_replays(self):
        """A stalled replica's backlog steers least-loaded routing to
        the healthy sibling; the fault is an input, so the whole run —
        stall included — replays bit-identically."""
        trace = _hot_trace(24)
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=2, routing="least_loaded"),
        )
        calm = router.simulate(trace)
        stall = [ReplicaStall(at_us=50.0, replica_id=0, duration_us=10_000.0)]
        stormy = _assert_replays(router, trace, chaos=stall)
        assert stormy.chaos_stalls == 1
        assert stormy.routed[0] < calm.routed[0]
        assert stormy.routed[1] > calm.routed[1]
        # Nothing is lost to the stall — it is latency, not failure.
        assert len(stormy.responses) == len(trace)
        _assert_drained(router)

    def test_corrupt_blob_rejected_by_sibling_never_crashes(self, tmp_path):
        """Replica 1 compiles and persists the hot shape; the blob rots
        on disk before replica 0's restore attempt. The reader must
        reject-and-count and fall back to a fresh compile — outputs
        stay bitwise correct and the run replays exactly."""
        trace = _hot_trace(24)
        fleet = FleetConfig(num_replicas=2, routing="random", random_seed=0)

        clean_router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(artifact_dir=str(tmp_path / "clean"), **_FAST),
            fleet,
        )
        clean = clean_router.simulate(trace)
        # Baseline: the sibling warm-restores the other replica's compile.
        assert clean.total_fleet_restores == 1
        assert clean.store_rejects == 0

        # Same trace, same seed, fresh store — but the blob rots between
        # the compiler's put (200 µs) and the sibling's restore (300 µs).
        chaos = [CorruptBlob(at_us=250.0, kind="exe", shapes=((9, 8),))]
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(artifact_dir=str(tmp_path / "hot"), **_FAST),
            fleet,
        )
        report = _assert_replays(router, trace, chaos=chaos)
        assert report.chaos_corruptions == 1
        assert [r.store_rejects for r in report.replica_reports] == [1, 0]
        assert report.total_fleet_restores == 0
        # Both replicas end up compiling fresh; nobody crashed.
        assert [r.specialize_fresh_compiles for r in report.replica_reports] == [1, 1]
        assert len(report.responses) == len(trace)
        single = InferenceServer(_mlp(), intel_cpu(), ServeConfig(**_FAST)).simulate(
            trace
        )
        outs = _outputs(report)
        for r in single.responses:
            assert np.array_equal(outs[r.rid], r.output.numpy())
        _assert_drained(router)

    def test_corrupt_chunk_rejected_recompiled_healed_and_replayed(self, tmp_path):
        """The same rot one level down: the executable's blob is sound,
        the weight chunk it names is not. The sibling's restore is a
        counted reject and a fresh compile whose re-put rewrites the
        chunk; the run — reject counts included — replays exactly, and
        a faultless fleet over the healed store restores cleanly."""
        from repro.harness.scenario import same_simulation

        trace = _hot_trace(24, dim=32)
        fleet = FleetConfig(num_replicas=2, routing="random", random_seed=0)
        config = ServeConfig(artifact_dir=str(tmp_path), **_FAST)
        router = FleetRouter(_mlp(32), intel_cpu(), config, fleet)
        chaos = [CorruptBlob(at_us=250.0, kind="const", shapes=((9, 32),))]
        report = router.simulate(trace, chaos=chaos)
        assert same_simulation(report, router.simulate(trace, chaos=chaos))
        assert report.chaos_corruptions == 1
        assert [r.store_rejects for r in report.replica_reports] == [1, 0]
        assert [r.specialize_fresh_compiles for r in report.replica_reports] == [1, 1]
        assert report.total_fleet_restores == 0
        (name,) = router.store.chunk_names()
        assert name in router.replicas[0].store.reject_log[0][1]
        single = InferenceServer(_mlp(32), intel_cpu(), ServeConfig(**_FAST)).simulate(
            trace
        )
        outs = _outputs(report)
        for r in single.responses:
            assert np.array_equal(outs[r.rid], r.output.numpy())
        _assert_drained(router)
        # The replay's chaos left the chunk bad again, and replica 0 —
        # its reject memoised, replay-stable — did not read it a second
        # time, so did not rewrite it. The next process's readers
        # reject, rebuild and re-put; the one after that starts warm.
        restarted = FleetRouter(_mlp(32), intel_cpu(), config, fleet).simulate(trace)
        assert restarted.store_rejects > 0
        healed = FleetRouter(_mlp(32), intel_cpu(), config, fleet).simulate(trace)
        assert healed.store_rejects == 0
        assert sum(r.specialize_restored for r in healed.replica_reports) > 0

    def test_corrupting_a_chunk_nothing_names_is_a_counted_noop(self, tmp_path):
        """The 8-wide model has no constant large enough to be a chunk."""
        router = FleetRouter(
            _mlp(), intel_cpu(), ServeConfig(artifact_dir=str(tmp_path), **_FAST),
            FleetConfig(num_replicas=1),
        )
        chaos = [CorruptBlob(at_us=2000.0, kind="const")]
        assert router.simulate(_hot_trace(24), chaos=chaos).chaos_noops == 1

    def test_a_named_variant_is_corrupted_and_one_the_store_lacks_is_a_noop(self, tmp_path):
        """The victim is the variant the event names, found by its key
        whatever the format version makes of it."""
        counts = []
        for name, shapes in (("hot", ((9, 8),)), ("absent", ((41, 8),))):
            router = FleetRouter(
                _mlp(), intel_cpu(), ServeConfig(artifact_dir=str(tmp_path / name), **_FAST),
                FleetConfig(num_replicas=1),
            )
            report = router.simulate(
                _hot_trace(24), chaos=[CorruptBlob(at_us=2000.0, shapes=shapes)])
            counts.append((report.chaos_corruptions, report.chaos_noops))
        assert counts == [(1, 0), (0, 1)]
        with pytest.raises(ValueError, match="no shapes"):
            CorruptBlob(at_us=0.0, kind="prefix", shapes=((9, 8),))

    def test_corrupting_an_empty_store_is_a_counted_noop(self):
        router = FleetRouter(
            _mlp(), intel_cpu(), ServeConfig(**_FAST), FleetConfig(num_replicas=1)
        )
        report = router.simulate(_hot_trace(4), chaos=[CorruptBlob(at_us=10.0)])
        assert report.chaos_noops == 1
        assert report.chaos_corruptions == 0

    def test_gc_racing_a_restore_keeps_the_in_flight_blob(self, tmp_path, monkeypatch):
        """An aggressive collector (max_age 0: everything unguarded is
        prunable at every tick) fires mid-restore. The in-flight blob
        must survive every tick and the restore must complete; the cold
        sibling blob is reclaimed."""
        monkeypatch.setitem(calibration.RESTORE_BASE_US, "intel", 5000.0)
        store_dir = str(tmp_path / "store")
        warm_cfg = ServeConfig(artifact_dir=store_dir, **_FAST)
        # Warm the store with two hot shapes (two exe blobs + a profile).
        warm = InferenceServer(_mlp(), intel_cpu(), warm_cfg)
        extra = [
            Request(rid=100 + i, arrival_us=50.0 + i * 100.0, payload=_payload(25, seed=i))
            for i in range(12)
        ]
        warm.simulate(_hot_trace(12) + extra)
        assert len(ArtifactStore(store_dir).keys()) == 2

        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(artifact_dir=store_dir, **_FAST),
            FleetConfig(
                num_replicas=1,
                gc_interval_us=1000.0,
                gc_max_age_us=0.0,
            ),
        )
        report = _assert_replays(router, _hot_trace(80))
        # The slow restore (trigger ~100 µs, ready ~5100 µs) overlaps
        # several 1000 µs GC ticks — the in-flight guard held each time.
        assert sum(g.kept_in_flight for g in report.gc_reports) >= 3
        assert [r.specialize_restored for r in report.replica_reports] == [1]
        assert report.specialized_hits > 0
        # The shape nobody asked for this run was pruned...
        pruned = {entry for g in report.gc_reports for entry in g.pruned}
        assert any(kind == "exe" for kind, _ in pruned)
        # ...but never the restored one: it still serves and its blob is
        # still modeled present.
        restored_keys = {
            e for r in router.replicas for e in r.referenced_store_keys()
            if e[0] == "exe"
        }
        assert restored_keys.isdisjoint(pruned)
        assert report.gc_kept_referenced > 0
        _assert_drained(router)


    def test_chunk_sweep_never_strands_a_blob(self, tmp_path, monkeypatch):
        """The same race on a model with a weight chunk. Every tick
        prunes what it may and then sweeps constants/ — and never takes
        the chunk from under the in-flight restore, a surviving blob, or
        the blob the re-hot shape wrote earlier in the simulation: no
        read is ever rejected, and whatever is on disk at the end reads
        back whole in a new process."""
        monkeypatch.setitem(calibration.RESTORE_BASE_US, "intel", 5000.0)
        store_dir = str(tmp_path / "store")
        config = ServeConfig(artifact_dir=store_dir, **_FAST)
        extra = [
            Request(
                rid=100 + i, arrival_us=50.0 + i * 100.0,
                payload=_payload(25, dim=32, seed=i),
            )
            for i in range(12)
        ]
        InferenceServer(_mlp(32), intel_cpu(), config).simulate(
            _hot_trace(12, dim=32) + extra
        )
        (name,) = ArtifactStore(store_dir).chunk_names()
        router = FleetRouter(
            _mlp(32), intel_cpu(), config,
            FleetConfig(num_replicas=1, gc_interval_us=1000.0, gc_max_age_us=0.0),
        )
        # The 9-row shape restores (slowly) under the collector; the
        # 25-row one is pruned cold, then comes back and is re-put.
        late = [
            Request(
                rid=200 + i, arrival_us=9000.0 + i * 100.0,
                payload=_payload(25, dim=32, seed=i),
            )
            for i in range(12)
        ]
        report = _assert_replays(router, _hot_trace(80, dim=32) + late)
        assert sum(g.kept_in_flight for g in report.gc_reports) >= 3
        assert any(kind == "exe" for g in report.gc_reports for kind, _ in g.pruned)
        assert report.store_rejects == 0
        assert [r.specialize_restored for r in report.replica_reports] == [1]
        assert [r.specialize_fresh_compiles for r in report.replica_reports] == [1]
        fresh = ArtifactStore(store_dir)
        assert fresh.chunk_names() == [name]
        assert len(fresh.keys()) >= 1
        assert all(fresh.get(key) is not None for key in fresh.keys())
        assert fresh.rejects == 0
        _assert_drained(router)


# ---------------------------------------------------------------------------
# Determinism: replay and fleet-vs-single differential
# ---------------------------------------------------------------------------


def _fleet_fuzz(test):
    """Replica count × routing × seed × tenant mix, ten fixed examples."""
    fuzzed = given(
        replicas=st.sampled_from([1, 2, 4]),
        routing=st.sampled_from(["affinity", "least_loaded", "random"]),
        seed=st.integers(min_value=0, max_value=3),
        mix=st.sampled_from(
            [
                (("steady", 3), ("bursty", 1)),
                (("a", 1), ("b", 1)),
                (("solo", 1),),
            ]
        ),
    )(test)
    return settings(max_examples=10, deadline=None, derandomize=True)(fuzzed)


def _fuzz_trace(mix, seed):
    return multi_tenant_traffic(
        n=30,
        input_size=8,
        mean_interarrival_us=150.0,
        tenant_mix=mix,
        burst_every=10,
        burst_size=3,
        hot_lengths=(9, 25),
        seed=seed,
    )


class TestFleetDeterminism:
    def test_replay_identical_across_replica_counts_with_gc(self, tmp_path):
        """The hard invariant: any replica count, admission on, store GC
        on — two simulations agree on every counter and every byte, and
        all replica counts compute the same responses."""
        trace = multi_tenant_traffic(
            n=48,
            input_size=8,
            mean_interarrival_us=200.0,
            tenant_mix=(("steady", 3), ("spiky", 1)),
            burst_every=16,
            burst_size=4,
            hot_lengths=(9, 25),
            seed=3,
        )
        cache = KernelCache()
        outputs_by_count = {}
        for count in (1, 2, 4):
            router = FleetRouter(
                _mlp(),
                intel_cpu(),
                ServeConfig(
                    artifact_dir=str(tmp_path / f"store{count}"), **_FAST
                ),
                FleetConfig(
                    num_replicas=count,
                    gc_interval_us=2000.0,
                    gc_max_age_us=3000.0,
                ),
                kernel_cache=cache,
            )
            report = _assert_replays(router, trace)
            assert report.rejected == 0
            outputs_by_count[count] = _outputs(report)
            _assert_drained(router)
        single = InferenceServer(
            _mlp(), intel_cpu(), ServeConfig(**_FAST), kernel_cache=cache
        ).simulate(trace)
        reference = {r.rid: r.output.numpy() for r in single.responses}
        for count, outs in outputs_by_count.items():
            assert outs.keys() == reference.keys()
            for rid, out in outs.items():
                assert np.array_equal(out, reference[rid])

    @_fleet_fuzz
    def test_fleet_is_differentially_equal_to_one_server(
        self, replicas, routing, seed, mix
    ):
        """Fuzzed over (replica count × routing × tenant mix × seed):
        however the router scatters a trace, every response is bitwise
        the response one standalone server computes, and the fleet's
        counters replay exactly."""
        trace = _fuzz_trace(mix, seed)
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=replicas, routing=routing, random_seed=seed),
            kernel_cache=_SHARED_CACHE,
        )
        report = _assert_replays(router, trace)
        single = InferenceServer(
            _mlp(), intel_cpu(), ServeConfig(**_FAST), kernel_cache=_SHARED_CACHE
        ).simulate(trace)
        outs = _outputs(report)
        reference = {r.rid: r.output.numpy() for r in single.responses}
        assert outs.keys() == reference.keys()
        for rid, out in outs.items():
            assert np.array_equal(out, reference[rid])
        assert sum(report.routed) == len(trace)
        _assert_drained(router)


    @_fleet_fuzz
    def test_the_record_list_accounts_for_the_whole_simulation(
        self, vm_run_law, replicas, routing, seed, mix
    ):
        """The same fuzz, read through the record list (the last tenant
        of the mix is rate-limited, so its bursts are shed): the report
        is a function of (records, responses, sizes) and nothing else;
        the `VMRun` law holds on every replica; every request is
        refused once or dispatched once;
        a worker never runs two batches at a time; a replay appends the
        same records in the same order."""
        trace = _fuzz_trace(mix, seed)
        router = FleetRouter(
            _mlp(),
            intel_cpu(),
            ServeConfig(**_FAST),
            FleetConfig(num_replicas=replicas, routing=routing, random_seed=seed),
            tenants=(TenantSpec(mix[-1][0], rate_per_s=4000.0, burst=2),),
            kernel_cache=_SHARED_CACHE,
        )
        report = router.simulate(trace)
        records = list(report.records)

        rebuilt = FleetReport(
            replica_reports=[
                ServeReport(
                    responses=r.responses,
                    records=records,
                    replica=r.replica,
                    num_workers=r.num_workers,
                    num_compile_lanes=r.num_compile_lanes,
                    device_streams=r.device_streams,
                )
                for r in report.replica_reports
            ],
            routing=report.routing,
            records=records,
            deadlines_us=report.deadlines_us,
        )
        assert rebuilt.counters() == report.counters()
        for replica in report.replica_reports:
            assert vm_run_law(replica) == []

        dispatches = [r for r in records if type(r) is Dispatch]
        seen = [r.rid for r in records if type(r) is Shed]
        seen += [rid for d in dispatches for rid in d.rids]
        assert sorted(seen) == sorted(r.rid for r in trace)
        assert sum(d.size for d in dispatches) == len(report.responses)
        assert {d.cause for d in dispatches} <= {"size", "deadline", "drain"}
        assert all(d.size == _FAST["max_batch_size"] for d in dispatches if d.cause == "size")
        by_worker = {}
        for d in dispatches:
            by_worker.setdefault((d.replica, d.worker), []).append(d)
        for ran in by_worker.values():
            assert all(a.finish_us <= b.begin_us for a, b in zip(ran, ran[1:]))

        assert list(router.simulate(trace).records) == records


# ---------------------------------------------------------------------------
# The referee: counters() of a whole fleet simulation, as recorded at the
# commit before FleetReport became folds over the record list
# ---------------------------------------------------------------------------


def _referee_fleet(artifact_dir):
    """A restarted 2-replica affinity fleet with one cache slot per
    replica, over a store a lone server filled: two tenants (one
    rate-limited, with a burst that trips admission), a stall, a
    corrupted warm blob, periodic age-based GC."""
    config = ServeConfig(
        artifact_dir=artifact_dir,
        specialize_max_executables=1,
        specialize_decay_half_life_us=500.0,
        **_FAST,
    )
    trace = []
    for rows, count in ((9, 6), (25, 6), (41, 6), (9, 8), (25, 6)):
        for _ in range(count):
            rid = len(trace)
            trace.append(
                Request(
                    rid=rid,
                    arrival_us=rid * 250.0,
                    payload=_payload(rows, seed=rid),
                    tenant="gold" if rid % 3 else "bulk",
                )
            )
    InferenceServer(_mlp(), intel_cpu(), config).simulate(trace)
    trace += [
        Request(
            rid=100 + i, arrival_us=3000.0 + i, payload=_payload(9, seed=i), tenant="bulk"
        )
        for i in range(6)
    ]
    router = FleetRouter(
        _mlp(),
        intel_cpu(),
        config,
        FleetConfig(num_replicas=2, gc_interval_us=2500.0, gc_max_age_us=3000.0),
        tenants=(
            TenantSpec("gold", deadline_us=5000.0),
            TenantSpec("bulk", deadline_us=20000.0, rate_per_s=2000.0, burst=3),
        ),
    )
    chaos = (
        ReplicaStall(at_us=1500.0, replica_id=0, duration_us=2000.0),
        # The (25, 8) variant's blob, named, whatever its key.
        CorruptBlob(at_us=100.0, kind="exe", shapes=((25, 8),)),
    )
    return router, trace, chaos


class TestRefereeCounters:
    """Every field of a fleet report and of its replica reports, key
    for key. The literal was recorded from `pinned(report.counters())`
    while the router still wrote nine of them into the report as the
    simulation ran; the folds have to reproduce it bit for bit. (The
    dynamic tier's clock — `tenants`, `responses`, `worker_busy_us`,
    `profile_dynamic` — was re-recorded when `_mlp`, whose output has
    its input's symbolic shape, stopped running a shape function:
    worker 0 busy 119.8 -> 86.2 us; every count and routing field stayed.
    The `profile_*` digests moved once more, in the last bits of float
    fields, when the tier profiles became folds over `VMRun` records.
    The same clock fields moved when the compiler stopped emitting
    bookkeeping instructions; every count and routing field stayed.
    Executable format v7 moved every store key: the `gc` digest moved
    with the pruned key's name alone — the same (41, 8) blob at the same
    collections — and the chaos corruption, which then picked its victim
    by position in key order, names the (25, 8) variant since. The clock
    fields — `tenants`, `responses`, `worker_busy_us`,
    `profile_specialized` — moved when builds began picking each
    kernel's schedule, and the `gc` digest with the pruned key's name at
    executable format v8; every count and routing field stayed. The
    first replica's `specialize_suffix_us`, an empty fold, reads 0.0
    instead of the int 0 since every float fold starts at 0.0. The same
    clock fields moved when a static hit after its variant's first
    began replaying the variant's launch tape; every count and routing
    field stayed. Executable format v9, which deflates the kernels
    section, moved the `gc` digest once more with the pruned key's name;
    nothing else moved, since `_mlp` has no split.)"""

    RESTARTED_AFFINITY_FLEET = {
        "routing": "affinity",
        "routed": (17, 17),
        "affinity_hits": 23,
        "rejected_rids": (102, 103, 104, 105),
        "fleet_restores": (0, 0),
        "tenants": "sha256:4db3d65eddc77f80",
        "replicas": (
            {
                "responses": "sha256:3053f73d8ea04210",
                "worker_busy_us": ("0x1.36a1970c435f4p+6",),
                "worker_batches": (10,),
                "profile_dynamic": "sha256:c3018e083cd3bb88",
                "profile_specialized": "sha256:8d24d468a4b3df10",
                "profile_batched": "sha256:c2d0ebbfdae3b84b",
                "profile_partial": "sha256:c2d0ebbfdae3b84b",
                "specialize_compile_us": "0x1.4a00000000000p+8",
                "num_specialized_executables": 1,
                "num_resident_executables": 1,
                "specialize_lane_busy_us": ("0x1.4a00000000000p+8",),
                "specialize_queue_waits_us": ("0x0.0p+0",),
                "specialize_evictions": 0,
                "specialize_pool_span_us": "0x1.4a00000000000p+8",
                "specialize_restored": 1,
                "specialize_fresh_compiles": 0,
                "specialize_restore_us": "0x1.4a00000000000p+8",
                "store_rejects": 0,
                "verify_rejects": 0,
                "specialize_prefix_us": "0x0.0p+0",
                "specialize_suffix_us": "0x0.0p+0",
                "guard_deopts": 0,
                "predictive_compiles": 0,
                "predictive_hits": 0,
                "device_streams": 1,
            },
            {
                "responses": "sha256:26390f80b8f94c18",
                "worker_busy_us": ("0x1.9acbd77b69928p+6",),
                "worker_batches": (10,),
                "profile_dynamic": "sha256:c9238d05282bb23b",
                "profile_specialized": "sha256:5c6657891ac7d8b3",
                "profile_batched": "sha256:c2d0ebbfdae3b84b",
                "profile_partial": "sha256:c2d0ebbfdae3b84b",
                "specialize_compile_us": "0x1.16c0000000000p+11",
                "num_specialized_executables": 2,
                "num_resident_executables": 1,
                "specialize_lane_busy_us": ("0x1.16c0000000000p+11",),
                "specialize_queue_waits_us": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
                "specialize_evictions": 2,
                "specialize_pool_span_us": "0x1.3d80000000000p+12",
                "specialize_restored": 1,
                "specialize_fresh_compiles": 2,
                "specialize_restore_us": "0x1.4a00000000000p+8",
                "store_rejects": 1,
                "verify_rejects": 0,
                "specialize_prefix_us": "0x1.2c00000000000p+8",
                "specialize_suffix_us": "0x1.9000000000000p+10",
                "guard_deopts": 0,
                "predictive_compiles": 0,
                "predictive_hits": 0,
                "device_streams": 1,
            },
        ),
        "gc": "sha256:b215495c5321fa7b",
        "chaos": (1, 1, 0),
    }

    def test_restarted_affinity_fleet(self, tmp_path, pinned):
        router, trace, chaos = _referee_fleet(str(tmp_path))
        report = router.simulate(trace, chaos=chaos)
        assert report.rejected == 4 and report.gc_pruned == 2
        assert report.store_rejects == 1 and report.chaos_corruptions == 1
        assert pinned(report.counters()) == self.RESTARTED_AFFINITY_FLEET
        replay = router.simulate(trace, chaos=chaos)
        assert pinned(replay.counters()) == pinned(report.counters())
        _assert_drained(router)


# One kernel cache across hypothesis examples: codegen runs once, and
# the repo-wide invariant (the cache never changes modeled charges or
# outputs) keeps the differential honest.
_SHARED_CACHE = KernelCache()
