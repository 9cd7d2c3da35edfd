"""The serving layer: shape bucketing, deadline batching, worker-pool
scheduling, report statistics, determinism, and leak-freedom."""

import dataclasses
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import repro.serve
from repro.codegen.kernels import KernelInvocation
from repro.core.typing import infer_types
from repro.errors import VMError
from repro.hardware import intel_cpu, nvidia_gpu
from repro.ir import Any, Function, IRModule, TensorType, TupleGetItem, Var, const
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.ops import api
from repro.serve import (
    Batcher,
    InferenceServer,
    Request,
    Response,
    ServeConfig,
    ShapeBucketer,
    lstm_traffic,
    poisson_arrivals,
)
from repro.serve.events import Dispatch, VMRun
from repro.serve.report import _COUNTED, _RESPONSE_NOT_COUNTED, ServeReport
from repro.utils.reporting import percentile
from repro.vm.profiler import VMProfile


def test_serving_does_not_import_the_experiment_harness():
    """`import repro.serve` / `repro.fleet` in a fresh interpreter must
    not execute the experiment harness (1.4k lines of studies) or the
    baselines it compares against."""
    probe = (
        "import sys, repro.serve, repro.fleet; "
        "print([m for m in sys.modules "
        "if m.startswith(('repro.harness', 'repro.baselines'))])"
    )
    src = str(Path(repro.serve.__file__).resolve().parents[2])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _dyn_mlp_module(dim=8, seed=0):
    """main(x: Tensor[(Any, dim)]): one dense + relu — a fast dynamic model."""
    w = const((np.random.RandomState(seed).randn(dim, dim) * 0.1).astype(np.float32))
    x = Var("x", TensorType((Any(), dim), "float32"))
    return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))


def _typed_main(mod):
    return infer_types(mod)["main"]


def _payload(rows, dim=8, seed=0):
    return (np.random.RandomState(seed).randn(rows, dim) * 0.1).astype(np.float32)


def _requests(rows_list, dim=8, gap_us=100.0):
    return [
        Request(rid=i, arrival_us=i * gap_us, payload=_payload(rows, dim, seed=i))
        for i, rows in enumerate(rows_list)
    ]


class TestShapeBucketer:
    def test_lengths_round_up_to_shared_bucket(self):
        b = ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity=8)
        assert b.dynamic_dims == [(0, (), 0)]
        assert b.key(_payload(9)) == (16,)
        assert b.key(_payload(16)) == (16,)
        assert b.key(_payload(17)) == (24,)

    def test_granularity_one_keeps_exact_shapes(self):
        b = ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity=1)
        assert b.key(_payload(9)) == (9,)
        assert b.key(_payload(10)) == (10,)

    def test_static_model_has_single_bucket(self):
        x = Var("x", TensorType((4, 8), "float32"))
        mod = IRModule.from_expr(Function([x], api.relu(x)))
        b = ShapeBucketer(_typed_main(mod), granularity=8)
        assert b.dynamic_dims == []
        assert b.key(_payload(4)) == ()

    def test_independent_dynamic_dims_get_separate_components(self):
        x = Var("x", TensorType((Any(), 4), "float32"))
        y = Var("y", TensorType((Any(), 4), "float32"))
        mod = IRModule.from_expr(Function([x, y], api.concatenate([x, y], axis=0)))
        b = ShapeBucketer(_typed_main(mod), granularity=4)
        assert len(b.dynamic_dims) == 2
        key = b.key((_payload(3, 4), _payload(9, 4)))
        assert key == (4, 12)

    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError):
            ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity=0)

    def test_tuple_typed_entry_dims_are_not_dropped(self):
        """Regression: a dynamic dim that only occurs inside a tuple-typed
        parameter used to be silently dropped from the bucket key, letting
        different dynamic shapes batch together."""
        from repro.ir.types import TupleType

        a, b = Any(), Any()
        pair_ty = TupleType(
            [TensorType((a, 4), "float32"), TensorType((b, 4), "float32")]
        )
        p = Var("p", pair_ty)
        body = api.concatenate(
            [TupleGetItem(p, 0), TupleGetItem(p, 1)], axis=0
        )
        mod = IRModule.from_expr(Function([p], body))
        bucketer = ShapeBucketer(_typed_main(mod), granularity=4)
        # Both tuple-field dims contribute key components through paths.
        assert bucketer.dynamic_dims == [(0, (0,), 0), (0, (1,), 0)]
        key = bucketer.key(((_payload(3, 4), _payload(9, 4)),))
        assert key == (4, 12)
        assert bucketer.exact_key(((_payload(3, 4), _payload(9, 4)),)) == (3, 9)
        # Different tuple shapes land in different buckets.
        other = bucketer.key(((_payload(9, 4), _payload(9, 4)),))
        assert other != key

    def test_tuple_path_on_non_tuple_payload_raises(self):
        from repro.ir.types import TupleType

        pair_ty = TupleType([TensorType((Any(), 4), "float32")])
        p = Var("p", pair_ty)
        mod = IRModule.from_expr(Function([p], api.relu(TupleGetItem(p, 0))))
        bucketer = ShapeBucketer(_typed_main(mod), granularity=4)
        with pytest.raises(ValueError, match="tuple-structured"):
            bucketer.key((_payload(3, 4),))

    def test_exact_key_is_unrounded(self):
        b = ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity=8)
        assert b.exact_key(_payload(9)) == (9,)
        assert b.key(_payload(9)) == (16,)

    def test_round_key_is_the_single_rounding_path(self):
        """`key` must be exactly `round_key(exact_key(...))` — the server's
        specialization-aware bucket key reuses `round_key`, so the two
        rounding paths cannot drift."""
        b = ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity=8)
        assert b.round_key((9,)) == (16,)
        assert b.round_key((16,)) == (16,)
        for rows in (1, 7, 8, 9, 31):
            assert b.key(_payload(rows)) == b.round_key(b.exact_key(_payload(rows)))


class TestBatcher:
    def _batcher(self, max_batch=3, max_delay=500.0, granularity=8):
        bucketer = ShapeBucketer(_typed_main(_dyn_mlp_module()), granularity)
        return Batcher(bucketer, max_batch_size=max_batch, max_delay_us=max_delay)

    def test_full_bucket_flushes_immediately(self):
        batcher = self._batcher(max_batch=2)
        assert batcher.add(Request(0, 0.0, _payload(8)), 0.0) is None
        batch = batcher.add(Request(1, 10.0, _payload(8)), 10.0)
        assert batch is not None and len(batch) == 2
        assert batcher.pending == 0

    def test_deadline_tracks_oldest_request(self):
        batcher = self._batcher(max_delay=500.0)
        assert batcher.next_deadline() is None
        batcher.add(Request(0, 100.0, _payload(8)), 100.0)
        batcher.add(Request(1, 150.0, _payload(24)), 150.0)
        assert batcher.next_deadline() == pytest.approx(600.0)
        assert batcher.flush_due(599.0) == []
        due = batcher.flush_due(600.0)
        assert len(due) == 1 and due[0].requests[0].rid == 0
        assert batcher.pending == 1  # the other bucket still waits

    def test_different_buckets_never_mix(self):
        batcher = self._batcher(max_batch=8)
        for i, rows in enumerate([5, 20, 6, 21, 7, 22]):
            batcher.add(Request(i, float(i), _payload(rows)), float(i))
        batches = batcher.flush_all(100.0)
        assert sorted(len(b) for b in batches) == [3, 3]
        for batch in batches:
            keys = {batcher.bucketer.key(r.payload) for r in batch.requests}
            assert keys == {batch.key}

    def test_key_fn_receives_the_virtual_time_explicitly(self):
        """The key_fn contract is key_fn(payload, now_us): time-dependent
        keying (the specialization tier's hot-bucket promotion) gets the
        clock threaded through the call, not smuggled via hidden server
        state."""
        bucketer = ShapeBucketer(_typed_main(_dyn_mlp_module()), 8)
        seen = []

        def key_fn(payload, now_us):
            seen.append(now_us)
            return ("late",) if now_us >= 100.0 else ("early",)

        batcher = Batcher(bucketer, max_batch_size=8, key_fn=key_fn)
        batcher.add(Request(0, 0.0, _payload(8)), 10.0)
        batcher.add(Request(1, 20.0, _payload(8)), 150.0)
        assert seen == [10.0, 150.0]
        keys = {batch.key for batch in batcher.flush_all(200.0)}
        assert keys == {("early",), ("late",)}

    def test_default_key_fn_ignores_time(self):
        bucketer = ShapeBucketer(_typed_main(_dyn_mlp_module()), 8)
        batcher = Batcher(bucketer, max_batch_size=8)
        batcher.add(Request(0, 0.0, _payload(9)), 0.0)
        batcher.add(Request(1, 10.0, _payload(10)), 1e9)
        (batch,) = batcher.flush_all(1e9)
        assert batch.key == (16,)
        assert len(batch) == 2

    def test_flush_all_drains_everything(self):
        batcher = self._batcher()
        for i in range(5):
            batcher.add(Request(i, float(i), _payload(8 + 8 * i)), float(i))
        assert batcher.pending > 0
        batcher.flush_all(10.0)
        assert batcher.pending == 0 and batcher.next_deadline() is None


class TestServeConfig:
    def test_serial_accepts_pass_through_knobs(self):
        config = ServeConfig.serial(numerics="full", bucket_granularity=4)
        assert config.max_batch_size == 1
        assert config.numerics == "full"
        assert config.bucket_granularity == 4

    def test_serial_overrides_win_for_serial_defaults(self):
        """Regression: overriding max_batch_size/max_delay_us/num_workers
        used to raise TypeError('got multiple values')."""
        config = ServeConfig.serial(num_workers=3, max_delay_us=50.0)
        assert config.num_workers == 3
        assert config.max_delay_us == 50.0
        assert config.max_batch_size == 1  # untouched serial default

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("num_workers", 0),
            ("specialize_threshold", 0),
            ("specialize_compile_lanes", 0),
            ("specialize_decay_half_life_us", 0.0),
        ],
    )
    def test_bad_values_are_rejected_at_construction(self, field, bad):
        """Not when a server later builds its manager from the config."""
        with pytest.raises(ValueError, match=field):
            ServeConfig(specialize=True, specialize_batch=True, **{field: bad})


class TestInferenceServer:
    def test_deadline_bounds_queueing_delay(self):
        """A lone request flushes exactly at arrival + max_delay."""
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=8, max_delay_us=700.0, num_workers=1),
        )
        report = server.simulate([Request(0, arrival_us=50.0, payload=_payload(9))])
        (resp,) = report.responses
        assert resp.dispatch_us == pytest.approx(750.0)
        assert resp.queue_us == pytest.approx(700.0)
        assert resp.finish_us > resp.dispatch_us

    def test_worker_pool_fairness(self):
        """Back-to-back batches spread across the pool via earliest-free."""
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=50.0, num_workers=2),
        )
        report = server.simulate(_requests([8] * 12, gap_us=1.0))
        assert report.num_batches == 6
        assert all(b >= 2 for b in report.worker_batches)
        busy = report.worker_busy_us
        assert max(busy) < 2.0 * min(busy)  # no worker starves

    def test_single_worker_serializes(self):
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=1, max_delay_us=0.0, num_workers=1),
        )
        report = server.simulate(_requests([8, 8, 8], gap_us=0.5))
        # Batches run in order on one worker: dispatches never overlap.
        spans = sorted((r.dispatch_us, r.finish_us) for r in report.responses)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_outputs_match_direct_execution(self):
        """Serving changes scheduling, never numerics."""
        import repro.nimble as nimble
        from repro.runtime.context import ExecutionContext
        from repro.vm.interpreter import VirtualMachine

        mod = _dyn_mlp_module()
        requests = _requests([5, 9, 9, 17, 5], gap_us=10.0)
        server = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=100.0, num_workers=2,
                        numerics="full"),
        )
        report = server.simulate(requests)
        exe, _ = nimble.build(mod, intel_cpu())
        vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
        for req, resp in zip(requests, report.responses):
            assert resp.rid == req.rid
            expect = vm.run(req.payload)
            assert np.array_equal(resp.output.numpy(), expect.numpy())

    def test_lstm_outputs_match_reference(self):
        weights = LSTMWeights.create(input_size=8, hidden_size=8, seed=0)
        mod = build_lstm_module(weights)
        requests = lstm_traffic(4, input_size=8, mean_interarrival_us=100.0, seed=1)
        server = InferenceServer(
            mod, intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=500.0, numerics="full"),
        )
        report = server.simulate(requests)
        for req, resp in zip(requests, report.responses):
            expect = lstm_reference(req.payload, weights)
            assert np.allclose(resp.output.numpy(), expect, atol=1e-5)

    def test_simulation_is_deterministic(self):
        def run():
            server = InferenceServer(
                _dyn_mlp_module(), nvidia_gpu(),
                ServeConfig(max_batch_size=4, max_delay_us=300.0, num_workers=2),
            )
            return server.simulate(_requests([5, 9, 17, 9, 5, 33, 9, 5], gap_us=20.0))

        a, b = run(), run()
        assert a.latencies_us == b.latencies_us
        assert a.throughput_rps == b.throughput_rps
        assert a.worker_busy_us == b.worker_busy_us
        assert a.batch_histogram == b.batch_histogram

    def test_repeated_simulate_is_independent(self):
        """Each simulate() is a cold-start replay: no clock, pool, busy-time
        or profile state bleeds from one simulation into the next."""
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=100.0, num_workers=2),
        )
        trace = _requests([5, 9, 17, 9], gap_us=10.0)
        a, b = server.simulate(trace), server.simulate(trace)
        assert a.latencies_us == b.latencies_us
        assert a.worker_busy_us == b.worker_busy_us
        assert a.profile.runs == b.profile.runs == len(trace)

    def test_infinite_delay_flushes_on_size_only(self):
        """max_delay_us=inf: buckets flush when full; partial buckets drain
        at shutdown instead of waiting for a deadline that never fires."""
        import math

        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=math.inf, num_workers=1),
        )
        report = server.simulate(_requests([8, 8, 8], gap_us=10.0))
        assert report.num_requests == 3
        assert report.batch_histogram == {1: 1, 2: 1}
        # The leftover singleton drains at the last event, not at infinity.
        assert all(math.isfinite(r.finish_us) for r in report.responses)

    def test_empty_trace_reports_cleanly(self):
        server = InferenceServer(_dyn_mlp_module(), intel_cpu(), ServeConfig())
        report = server.simulate([])
        assert report.num_requests == 0
        assert report.throughput_rps == 0.0
        assert report.p50_us == 0.0
        assert "requests" in report.format()

    def test_batched_beats_serial_dispatch(self):
        weights = LSTMWeights.create(input_size=16, hidden_size=32, seed=0)
        mod = build_lstm_module(weights)
        requests = lstm_traffic(12, input_size=16, mean_interarrival_us=20.0, seed=0)

        def throughput(config):
            server = InferenceServer(mod, nvidia_gpu(), config)
            return server.simulate(requests).throughput_rps

        serial = throughput(ServeConfig.serial())
        batched = throughput(
            ServeConfig(max_batch_size=4, max_delay_us=2000.0, num_workers=4)
        )
        assert batched > 1.5 * serial

    def test_no_buffer_leaks_after_serving(self):
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=3, max_delay_us=100.0, num_workers=2),
        )
        server.simulate(_requests([5, 9, 17, 9, 5, 33], gap_us=10.0))
        for worker in server.workers:
            assert worker.ctx.allocator.live_bytes == 0

    def test_profile_aggregates_across_workers(self):
        server = InferenceServer(
            _dyn_mlp_module(), intel_cpu(),
            ServeConfig(max_batch_size=2, max_delay_us=50.0, num_workers=2),
        )
        report = server.simulate(_requests([8] * 6, gap_us=1.0))
        assert report.profile.runs == 6
        assert report.profile.kernel_invocations >= 6
        runs = [r for r in report.records if type(r) is VMRun]
        per_worker = [sum(1 for r in runs if r.worker == w) for w in range(2)]
        assert per_worker == [
            sum(d.size for d in report.records if type(d) is Dispatch and d.worker == w)
            for w in range(2)
        ]
        assert sum(per_worker) == report.profile.runs

    def test_vm_run_is_not_reentrant(self):
        server = InferenceServer(_dyn_mlp_module(), intel_cpu(), ServeConfig())
        vm = server.workers[0].vm
        vm._running = True
        try:
            with pytest.raises(VMError, match="re-entrant"):
                vm.run(_payload(4))
        finally:
            vm._running = False
        assert vm.run(_payload(4)).shape == (4, 8)


class TestReportStatistics:
    def _report(self):
        responses = []
        rid = 0
        # Two batches of 2 (latencies 100, 200, 300, 400) + one singleton (500).
        for batch_size, lats in ((2, (100.0, 200.0)), (2, (300.0, 400.0)), (1, (500.0,))):
            for lat in lats:
                responses.append(
                    Response(
                        rid=rid, output=None, arrival_us=100.0 * rid,
                        dispatch_us=100.0 * rid + 10.0,
                        finish_us=100.0 * rid + lat,
                        bucket_key=(8,), batch_size=batch_size, worker_id=rid % 2,
                    )
                )
                rid += 1
        # Worker 0 ran two batches (100 + 200 µs busy), worker 1 one.
        records = [
            Dispatch(0, worker, begin, finish, "dynamic", rids, (8,), "size", False)
            for worker, begin, finish, rids in (
                (0, 10.0, 110.0, (0, 1)),
                (1, 210.0, 410.0, (2, 3)),
                (0, 410.0, 610.0, (4,)),
            )
        ]
        return ServeReport(responses=responses, records=records, num_workers=2)

    def test_percentiles_and_means(self):
        report = self._report()
        assert report.latencies_us == [100.0, 200.0, 300.0, 400.0, 500.0]
        assert report.p50_us == pytest.approx(300.0)
        assert report.p99_us == pytest.approx(496.0)
        assert report.mean_latency_us == pytest.approx(300.0)
        assert report.max_latency_us == pytest.approx(500.0)

    def test_throughput_over_span(self):
        report = self._report()
        # First arrival 0, last finish 400*1 + 500 = 900.
        assert report.span_us == pytest.approx(900.0)
        assert report.throughput_rps == pytest.approx(5 / 900.0 * 1e6)

    def test_batch_histogram_counts_batches(self):
        report = self._report()
        assert report.batch_histogram == {1: 1, 2: 2}
        assert report.num_batches == 3
        assert report.mean_batch_size == pytest.approx(5 / 3)

    def test_format_renders_tables(self):
        text = self._report().format("unit test")
        assert "unit test" in text
        assert "throughput (req/s)" in text
        assert "Batch-size histogram" in text
        assert "Workers" in text

    # Public names that are a statistic of counted ones (a ratio, a
    # percentile, a merge, a selection), not a fold of their own.
    STATISTICS = {
        "num_requests", "num_batches", "batch_histogram", "mean_batch_size",
        "bucket_keys", "specialized_hits", "specialized_hit_rate", "batched_hits",
        "batched_hit_rate", "partial_hits", "partial_hit_rate",
        "compile_lane_utilization", "mean_compile_queue_wait_us", "profile",
        "stream_busy_us", "stream_utilization", "latencies_us", "span_us",
        "throughput_rps", "p50_us", "p99_us", "mean_latency_us", "max_latency_us",
        "worker_utilization",
    }
    # What a report is given rather than computes: the list and the sizes.
    GIVEN = {"records", "replica", "num_workers", "num_compile_lanes"}

    def test_counters_cover_every_field(self):
        """`counters()` is what a replay check compares, so it must
        leave nothing out: every stored field and every property of the
        report is counted, given, or a declared statistic of counted
        ones — a fold added later fails here until it is placed. The one
        thing left out of a response — its output array, which replay
        checks compare bitwise — is named in one tuple."""
        counters = self._report().counters()
        assert tuple(counters) == _COUNTED + tuple(
            f"profile_{tier}" for tier in ("dynamic", "specialized", "batched", "partial")
        )
        public = {f.name for f in dataclasses.fields(ServeReport)} | {
            name
            for name, member in vars(ServeReport).items()
            if isinstance(member, property) and not name.startswith("_")
        }
        assert public == set(_COUNTED) | self.GIVEN | self.STATISTICS
        assert _RESPONSE_NOT_COUNTED == ("output",)
        counted = [
            f.name for f in dataclasses.fields(Response) if f.name != "output"
        ]
        first = self._report().responses[0]
        assert counters["responses"][0] == tuple(getattr(first, n) for n in counted)
        # A tier profile is compared whole: VMProfile equality is field
        # by field, so one extra kernel launch is a difference.
        assert counters["profile_dynamic"] == VMProfile()
        busier = self._report()
        charges = VMProfile()
        charges.record_launches([(KernelInvocation(1.0, "generated", 1), None, 0)])
        busier.records.append(VMRun(10.0, 0, 0, "dynamic", (0,), charges))
        assert busier.counters() != counters
        assert counters["worker_busy_us"] == [300.0, 200.0]

    def test_counters_agree_across_fresh_servers_and_see_one_microsecond(self):
        """Two servers built from scratch agree on every counter over
        one trace; moving a single arrival by 1 µs is visible."""
        config = ServeConfig(
            max_batch_size=4, max_delay_us=300.0, specialize=True,
            specialize_threshold=2, specialize_compile_us=200.0,
        )
        trace = _requests([9, 9, 12, 9, 20, 9, 12, 9, 9, 30, 9, 12, 9, 9, 20, 9])

        def counters(requests):
            server = InferenceServer(_dyn_mlp_module(), intel_cpu(), config)
            return server.simulate(requests).counters()

        first = counters(trace)
        assert first["num_specialized_executables"] > 0
        assert counters(trace) == first
        moved = list(trace)
        moved[5] = dataclasses.replace(moved[5], arrival_us=moved[5].arrival_us + 1.0)
        assert counters(moved) != first

    def test_float_folds_read_float_when_nothing_compiled(self):
        """Every report property annotated ``float`` returns a float on a
        simulation that compiled nothing: an empty fold starts at 0.0,
        not at ``sum()``'s int 0 (recorded study values compare types)."""
        from repro.fleet import FleetConfig, FleetRouter

        config = ServeConfig(max_batch_size=4)
        trace = _requests([9, 12, 9, 20])
        reports = (
            InferenceServer(_dyn_mlp_module(), intel_cpu(), config).simulate(trace),
            FleetRouter(_dyn_mlp_module(), intel_cpu(), config, FleetConfig()).simulate(trace),
        )
        for report in reports:
            floats = [
                name
                for name, member in vars(type(report)).items()
                if isinstance(member, property)
                and typing.get_type_hints(member.fget).get("return") is float
            ]
            assert "specialize_compile_us" in floats
            for name in floats:
                assert type(getattr(report, name)) is float, (type(report).__name__, name)

    def test_percentile_function(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == pytest.approx(50.5)
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


# ---------------------------------------------------------------------------
# The referee: counters() of whole simulations, as recorded at the commit
# before ServeReport became folds over the record list
# ---------------------------------------------------------------------------


def _toy_lstm():
    return build_lstm_module(LSTMWeights.create(input_size=8, hidden_size=8, seed=0))


def _phased_lstm_trace(phases, gap_us=300.0):
    """`count` arrivals of each `length` in turn, evenly spaced."""
    trace = []
    for length, count in phases:
        for _ in range(count):
            rid = len(trace)
            x = (np.random.RandomState(rid).randn(length, 8) * 0.1).astype(np.float32)
            trace.append(Request(rid=rid, arrival_us=rid * gap_us, payload=x))
    return trace


_REFEREE_KNOBS = dict(
    max_batch_size=2, max_delay_us=400.0, num_workers=2, specialize=True,
    specialize_threshold=2, specialize_compile_us=500.0,
)


def _one_slot_server(platform, artifact_dir, device_streams=1):
    """Batched tier over a store with one cache slot: the 5-row shape
    loses its slot to the 9-row one and takes it back, so the trace
    forces two evictions and two same-simulation restores."""
    config = ServeConfig(
        **_REFEREE_KNOBS, specialize_batch=True, specialize_max_executables=1,
        specialize_decay_half_life_us=1000.0, artifact_dir=artifact_dir,
        device_streams=device_streams,
    )
    trace = _phased_lstm_trace(((5, 6), (9, 8), (5, 6)))
    return InferenceServer(_toy_lstm(), platform, config), trace


def _predictive_restart_over_a_damaged_store(artifact_dir):
    """A cold process fills the store; then the 5-row executable is
    truncated, the 9-row one is replaced by a mutant that fails static
    verification, and the prefix and kernel-cache blobs are overwritten
    with junk — the four store-reject sites. Returns the restarted,
    predictive server."""
    from repro.analysis.mutate import OPERATORS
    from repro.store import ArtifactStore

    config = ServeConfig(
        **_REFEREE_KNOBS, specialize_max_executables=3,
        specialize_predictive=True, artifact_dir=artifact_dir,
    )
    trace = _phased_lstm_trace(((5, 5), (9, 5), (13, 4), (5, 2)))
    InferenceServer(_toy_lstm(), intel_cpu(), config).simulate(trace)
    store = ArtifactStore(artifact_dir)
    by_length = {store.get(k).specialized_shapes[0][0]: k for k in store.keys()}
    truncated = store.blob_path("exe", by_length[5])
    truncated.write_bytes(truncated.read_bytes()[:50])
    store.put(OPERATORS["undefine_register"](store.get(by_length[9])))
    (prefix,) = [key for kind, key in store.inventory() if kind == "prefix"]
    store.blob_path("prefix", prefix).write_bytes(b"junk")
    store.kernel_cache_path.write_bytes(b"junk")
    return InferenceServer(_toy_lstm(), intel_cpu(), config), trace


class TestRefereeCounters:
    """Every report field of three whole simulations, key for key. The
    literals were recorded from `pinned(report.counters())` while each
    field was still a stored number copied out of the server, the
    workers and the manager; a fold has to reproduce them bit for bit.
    They were re-recorded once, when the LSTM cell's split and both
    state updates became one kernel: modeled times, the suffix compile
    and restore charges (fewer kernels a blob) and, on the two-stream
    GPU, the worker split of the batches (7 / 5 -> 6 / 6) moved; every
    other count held. The `profile_*` digests were re-recorded again
    when the tier profiles became folds over `VMRun` records: each run
    now sums its own charges before the fold adds them, which moves the
    last bits of some float fields; every count held. The modeled
    times and the profiles moved again when a tail call began handing
    its frame to the callee, and once more when the compiler stopped
    emitting bookkeeping instructions (fewer instructions a run, so
    less dispatch); every count held. The `profile_batched` digests
    moved when the batched GEMM became `nn.dense` with `batch`: only
    the `kernel_counts` keys (`fused_nn.batch_dense+...` ->
    `fused_nn.dense+...`) changed, every field's value held bit for
    bit. The modeled times and the profiles moved again when exact and
    batched variants began running linked (`repro.vm.link`): fewer
    instructions, launches and allocations a specialized or batched run;
    the dynamic tier ran the same instructions and launches, and its
    `alloc_time_us` moved with what the linked runs leave in the pools
    the worker's tiers share. Every count held. The responses, worker
    busy times and the dynamic, specialized and batched profiles moved
    again when builds began picking each kernel's schedule (a static
    kernel's tile divides its rows); every count and every
    specialization charge held."""

    ONE_SLOT_CPU = {
        "responses": "sha256:534afb77aeb5ede0",
        "worker_busy_us": ("0x1.0ae0eb679f962p+9", "0x1.fe31d61f2ba64p+8"),
        "worker_batches": (6, 6),
        "profile_dynamic": "sha256:e49235c2412cd393",
        "profile_specialized": "sha256:d337413b38527baf",
        "profile_batched": "sha256:7dfaf3ca3a4fb7b5",
        "profile_partial": "sha256:c2d0ebbfdae3b84b",
        "specialize_compile_us": "0x1.0540000000000p+11",
        "num_specialized_executables": 2,
        "num_resident_executables": 1,
        "specialize_lane_busy_us": ("0x1.0540000000000p+11",),
        "specialize_queue_waits_us": (
            "0x0.0p+0",
            "0x1.f400000000000p+8",
            "0x0.0p+0",
            "0x1.9000000000000p+7",
            "0x0.0p+0",
            "0x1.e000000000000p+8",
        ),
        "specialize_evictions": 2,
        "specialize_pool_span_us": "0x1.7ca0000000000p+12",
        "specialize_restored": 2,
        "specialize_fresh_compiles": 4,
        "specialize_restore_us": "0x1.ef00000000000p+9",
        "store_rejects": 0,
        "verify_rejects": 0,
        "specialize_prefix_us": "0x1.2c00000000000p+8",
        "specialize_suffix_us": "0x1.9000000000000p+9",
        "guard_deopts": 0,
        "predictive_compiles": 0,
        "predictive_hits": 0,
        "device_streams": 1,
    }

    ONE_SLOT_GPU_TWO_STREAMS = {
        "responses": "sha256:e98725133d326cf8",
        "worker_busy_us": ("0x1.4831180383852p+10", "0x1.2ee07348c2b10p+10"),
        "worker_batches": (6, 6),
        "profile_dynamic": "sha256:81bab2759c4f0f08",
        "profile_specialized": "sha256:0d07c92180ccb6cf",
        "profile_batched": "sha256:9d290eec52a1cfe0",
        "profile_partial": "sha256:c2d0ebbfdae3b84b",
        "specialize_compile_us": "0x1.19e0000000000p+11",
        "num_specialized_executables": 2,
        "num_resident_executables": 1,
        "specialize_lane_busy_us": ("0x1.19e0000000000p+11",),
        "specialize_queue_waits_us": (
            "0x0.0p+0",
            "0x1.f400000000000p+8",
            "0x0.0p+0",
            "0x1.9000000000000p+7",
            "0x0.0p+0",
            "0x1.1800000000000p+9",
        ),
        "specialize_evictions": 2,
        "specialize_pool_span_us": "0x1.86f0000000000p+12",
        "specialize_restored": 2,
        "specialize_fresh_compiles": 4,
        "specialize_restore_us": "0x1.20c0000000000p+10",
        "store_rejects": 0,
        "verify_rejects": 0,
        "specialize_prefix_us": "0x1.2c00000000000p+8",
        "specialize_suffix_us": "0x1.9000000000000p+9",
        "guard_deopts": 0,
        "predictive_compiles": 0,
        "predictive_hits": 0,
        "device_streams": 2,
    }

    PREDICTIVE_RESTART_DAMAGED_STORE = {
        "responses": "sha256:0d1a2634c0bb327f",
        "worker_busy_us": ("0x1.dd4e38fac7d9cp+8", "0x1.92b1179bd050cp+8"),
        "worker_batches": (5, 4),
        "profile_dynamic": "sha256:b6a5d8f8fa355e62",
        "profile_specialized": "sha256:d6a32dcadf128283",
        "profile_batched": "sha256:c2d0ebbfdae3b84b",
        "profile_partial": "sha256:c2d0ebbfdae3b84b",
        "specialize_compile_us": "0x1.2700000000000p+10",
        "num_specialized_executables": 3,
        "num_resident_executables": 3,
        "specialize_lane_busy_us": ("0x1.2700000000000p+10",),
        "specialize_queue_waits_us": (
            "0x0.0p+0",
            "0x1.f400000000000p+8",
            "0x1.5e00000000000p+9",
        ),
        "specialize_evictions": 0,
        "specialize_pool_span_us": "0x1.2700000000000p+10",
        "specialize_restored": 1,
        "specialize_fresh_compiles": 2,
        "specialize_restore_us": "0x1.e000000000000p+8",
        "store_rejects": 4,
        "verify_rejects": 1,
        "specialize_prefix_us": "0x1.2c00000000000p+8",
        "specialize_suffix_us": "0x1.9000000000000p+8",
        "guard_deopts": 0,
        "predictive_compiles": 3,
        "predictive_hits": 14,
        "device_streams": 1,
    }

    def test_one_slot_cache_on_cpu(self, tmp_path, pinned, vm_run_law):
        server, trace = _one_slot_server(intel_cpu(), str(tmp_path))
        report = server.simulate(trace)
        assert report.specialize_evictions == 2 and report.specialize_restored == 2
        assert vm_run_law(report) == []
        assert pinned(report.counters()) == self.ONE_SLOT_CPU

    def test_one_slot_cache_on_two_stream_gpu(self, tmp_path, pinned, vm_run_law):
        server, trace = _one_slot_server(nvidia_gpu(), str(tmp_path), device_streams=2)
        report = server.simulate(trace)
        assert report.device_streams == 2
        assert vm_run_law(report) == []
        assert pinned(report.counters()) == self.ONE_SLOT_GPU_TWO_STREAMS

    def test_predictive_restart_over_a_damaged_store(self, tmp_path, pinned, vm_run_law):
        server, trace = _predictive_restart_over_a_damaged_store(str(tmp_path))
        report = server.simulate(trace)
        assert (report.store_rejects, report.verify_rejects) == (4, 1)
        assert vm_run_law(report) == []
        assert report.predictive_compiles == 3 and report.predictive_hits > 0
        assert pinned(report.counters()) == self.PREDICTIVE_RESTART_DAMAGED_STORE
        assert pinned(server.simulate(trace).counters()) == pinned(report.counters())


def _golden_scenario(artifact_dir):
    """16 toy-LSTM requests over a store with one cache slot: the 5-row
    shape goes hot, then the 9-row one evicts it."""
    config = ServeConfig(
        **_REFEREE_KNOBS, specialize_max_executables=1,
        specialize_decay_half_life_us=1000.0, artifact_dir=artifact_dir,
    )
    server = InferenceServer(_toy_lstm(), intel_cpu(), config)
    return server, _phased_lstm_trace(((5, 6), (9, 10)))


def test_the_vm_run_law_finds_each_broken_list(tmp_path, vm_run_law):
    """Each clause of the `VMRun` law can fail: a run dropped,
    duplicated, relabelled, cut out of its bucket, or counting two runs
    is a finding on a list that otherwise holds."""
    server, trace = _one_slot_server(intel_cpu(), str(tmp_path))
    report = server.simulate(trace)
    assert vm_run_law(report) == []
    records = list(report.records)
    runs = [i for i, r in enumerate(records) if type(r) is VMRun]
    member = next(i for i in runs if records[i].tier != "batched")
    stacked = next(i for i in runs if records[i].tier == "batched")
    twice = VMProfile(runs=2)

    def broken(i, *replacement):
        return dataclasses.replace(
            report, records=records[:i] + list(replacement) + records[i + 1:]
        )

    for mutant in (
        broken(member),
        broken(member, records[member], records[member]),
        broken(member, records[member]._replace(tier="partial")),
        broken(stacked, records[stacked]._replace(rids=records[stacked].rids[:1])),
        broken(member, records[member]._replace(charges=twice)),
    ):
        assert vm_run_law(mutant) != []


def test_record_list_matches_golden(tmp_path):
    """The whole record list of one small simulation, one `repr` per
    line: the clock is virtual, so the file is exact — any change to
    what is recorded, when, or in which order shows up as a diff of
    tests/golden/records_lstm.txt. (CI also runs this under two
    PYTHONHASHSEED values: a set iterated into a record would differ.)"""
    server, trace = _golden_scenario(str(tmp_path))
    report = server.simulate(trace)
    assert report.specialize_evictions == 1
    print(f"records per request: {len(report.records) / len(trace):.2f}")
    golden = Path(__file__).parent / "golden" / "records_lstm.txt"
    assert [repr(r) for r in report.records] == golden.read_text().splitlines()


class TestTraffic:
    def test_poisson_arrivals_monotone_and_seeded(self):
        a = poisson_arrivals(20, 100.0, seed=3)
        b = poisson_arrivals(20, 100.0, seed=3)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))
        assert poisson_arrivals(20, 100.0, seed=4) != a

    def test_lstm_traffic_shapes_follow_mrpc(self):
        from repro.data.mrpc import MAX_LENGTH, MIN_LENGTH

        requests = lstm_traffic(16, input_size=8, seed=0)
        assert [r.rid for r in requests] == list(range(16))
        for req in requests:
            assert MIN_LENGTH <= req.payload.shape[0] <= MAX_LENGTH
            assert req.payload.shape[1] == 8
