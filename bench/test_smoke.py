"""Tier-1 guard for the repo benchmark.

Runs all four workloads in-process at ``--smoke`` size, so a change
that breaks the benchmark's use of a public API fails tier-1 in that
change, not in the next benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import HOST_METRICS, WORKLOADS, compare, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure_all(out_dir, trace):
    return {
        name: harness.measure(name, size="smoke", seconds=0, trace=trace, out_dir=out_dir)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _measure_all(tmp_path_factory.mktemp("bench-traced"), trace=True)


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return _measure_all(tmp_path_factory.mktemp("bench-again"), trace=False)


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_exactly_the_declared_metrics_come_out(traced):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name, result in traced.items():
        assert set(result["end_to_end"]) == end_to_end, name
        assert set(result["per_layer"]) == per_layer, name
        assert all(row["value"] != 0 for row in result["end_to_end"].values()), name


def test_checks_pass(traced):
    for name, result in traced.items():
        assert result["correct"], (name, result["messages"])
        assert result["output_mismatches"] == 0
        assert result["outputs_compared"] > 0
        assert result["raised"] == 0, (name, result["notes"])
        assert result["notes"] == [], name


def test_two_runs_agree_on_the_virtual_clock(traced, again):
    for name in WORKLOADS:
        a, b = traced[name], again[name]
        assert a["modeled_digest"] == b["modeled_digest"], name
        for metric, row in a["end_to_end"].items():
            other = b["end_to_end"][metric]["value"]
            if metric == "artifact_bytes":
                # Exact between two fresh processes only: Any tokens are
                # a process-global counter (ROADMAP aim 3), so the second
                # run in this process pickles numbers with more digits.
                assert row["value"] == pytest.approx(other, rel=1e-3), name
            elif metric not in HOST_METRICS:
                assert row["value"] == other, (name, metric)


def test_compare_flags_a_virtual_metric_that_moved(traced, capsys):
    result = {"workloads": traced}
    assert compare.compare(result, result, SPEC) == 0
    moved = json.loads(json.dumps(result))
    moved["workloads"]["vm_single"]["end_to_end"]["modeled_latency_p50_us"]["value"] += 1e-6
    assert compare.compare(result, moved, SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_each_workload_reaches_the_path_it_exists_for(traced):
    layer = {name: result["per_layer"] for name, result in traced.items()}
    assert layer["compile_cold"]["vm.executable.load.calls"] > 0
    assert layer["compile_cold"]["vm.interpreter.run.calls"] == 0
    assert layer["vm_single"]["nimble.build.calls"] == 0
    assert layer["vm_single"]["codegen.invoke_cost.calls"] > 0
    assert layer["serve_tiered"]["store.put.calls"] > 0
    assert layer["serve_tiered"]["serve.specialization.variants_compiled"] > 0
    assert layer["fleet_restart"]["store.get.calls"] > 0
    assert layer["fleet_restart"]["serve.specialization.variants_restored"] > 0
    for name, metrics in layer.items():
        assert abs(metrics["host.self_sum_share"] - 1.0) < 0.01, name
