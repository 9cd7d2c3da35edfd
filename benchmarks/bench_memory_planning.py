"""§6.3 memory study: planning's effect on allocations + footprint vs the
fully-static planner on CV models."""

import pytest

from repro.harness import format_table
from repro.harness.experiments import memory_footprint_vs_static, memory_planning_study


@pytest.mark.paper
def test_memory_planning_bert(modeled):
    r = modeled("memory_planning_study", memory_planning_study)
    print()
    print(
        format_table(
            "§6.3 memory planning — BERT seq-128 on Intel "
            "(paper: -47% allocations, 2.0 ms -> 0.5 ms)",
            [
                ["buffer allocations", r["allocs_unplanned"], r["allocs_planned"],
                 f"-{100 * r['alloc_reduction']:.0f}%"],
                ["alloc latency (ms)", r["alloc_latency_unplanned_ms"],
                 r["alloc_latency_planned_ms"], ""],
            ],
            ["metric", "unplanned", "planned", "delta"],
            floatfmt="{:.2f}",
        )
    )
    assert r["alloc_reduction"] > 0.35
    assert r["alloc_latency_planned_ms"] < r["alloc_latency_unplanned_ms"] * 0.5


@pytest.mark.paper
def test_memory_footprint_cv_models(modeled):
    r = modeled("memory_footprint_vs_static", memory_footprint_vs_static)
    rows = [
        [name, row["static_bytes"] / 1e6, row["nimble_bytes"] / 1e6, row["overhead_pct"]]
        for name, row in r.items()
    ]
    print()
    print(
        format_table(
            "§6.3 footprint — Nimble vs static plan, MB (paper: <= 8% extra)",
            rows,
            ["model", "static MB", "nimble MB", "overhead %"],
            floatfmt="{:.2f}",
        )
    )
    for name, row in r.items():
        assert row["overhead_pct"] < 60.0, (name, row)
