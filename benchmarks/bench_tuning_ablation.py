"""§4.5 ablation: the schedule a build gives a symbolic dense vs naively
reusing the static 64-row best at every row count and a per-row-count
oracle."""

import pytest

from repro.harness import format_table
from repro.harness.experiments import tuning_ablation


@pytest.mark.paper
def test_tuning_ablation(modeled):
    r = modeled("tuning_ablation", tuning_ablation)
    print()
    print(
        format_table(
            "§4.5 symbolic tuning ablation — dense 768x768, ARM, shapes 1..256",
            [
                ["naive (static 64-row best)", r["naive_us"], r["naive_vs_oracle"]],
                ["the build's schedule", r["symbolic_workflow_us"], r["workflow_vs_oracle"]],
                ["per-row-count oracle", r["oracle_us"], 1.0],
            ],
            ["strategy", "total µs", "vs oracle"],
            floatfmt="{:.2f}",
        )
    )
    # The workflow is at least as good as naive reuse and close to oracle.
    assert r["symbolic_workflow_us"] <= r["naive_us"] * 1.0001
    assert r["workflow_vs_oracle"] < 1.25
