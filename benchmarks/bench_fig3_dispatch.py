"""Figure 3: symbolic vs static codegen for 3 BERT dense ops on ARM,
varying the number of dispatched residue kernels."""

import pytest

from repro.harness import figure3_dispatch, format_table

PAPER_NO_DISPATCH = {"dense1": 142.0, "dense2": 204.0, "dense3": 145.0}

LEVELS = ("static", "dispatch/8", "dispatch/4", "dispatch/2", "no dispatch")


@pytest.mark.paper
def test_figure3_dispatch(modeled):
    results = modeled("figure3_dispatch", figure3_dispatch)
    rows = []
    for dense, row in results.items():
        rows.append([dense] + [row[l] for l in LEVELS] + [PAPER_NO_DISPATCH[dense]])
    print()
    print(
        format_table(
            "Figure 3 — relative latency %, ARM (static = 100)",
            rows,
            ["dense"] + list(LEVELS) + ["paper:no-dispatch"],
        )
    )
    for dense, row in results.items():
        # Full dispatch is near-static (paper: "nearly identical").
        assert row["dispatch/8"] < 112.0
        # Monotone degradation as kernels are removed.
        assert row["dispatch/8"] <= row["dispatch/4"] <= row["dispatch/2"] <= row["no dispatch"]
    # dense2 (the 3072-wide FFN) degrades the most (paper: +104% vs +42/45%).
    assert results["dense2"]["no dispatch"] > results["dense1"]["no dispatch"] + 20
    assert results["dense2"]["no dispatch"] > results["dense3"]["no dispatch"] + 20
