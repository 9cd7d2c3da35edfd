"""Table 2: Tree-LSTM inference latency (µs/token) on Intel and ARM."""

import pytest

from repro.harness import format_table, table2_tree_lstm
from repro.harness.paper import TABLE2_TREE_LSTM as PAPER


@pytest.mark.paper
def test_table2_tree_lstm(modeled):
    results = modeled("table2_tree_lstm", lambda: table2_tree_lstm(num_trees=8))
    rows = []
    for platform in ("intel", "arm"):
        m = results[platform]
        p = PAPER[platform]
        rows.append(
            [platform, m["nimble"], m["pytorch"], m["tf_fold"],
             p["nimble"], p["pytorch"], p["tf_fold"]]
        )
    print()
    print(
        format_table(
            "Table 2 — Tree-LSTM µs/token (measured | paper)",
            rows,
            ["platform", "nimble", "pytorch", "tf_fold",
             "paper:nimble", "paper:pytorch", "paper:fold"],
        )
    )
    # Paper's findings: Nimble ~17x over PyTorch on Intel, ~5x over Fold;
    # Fold unavailable on ARM.
    intel = results["intel"]
    assert intel["pytorch"] / intel["nimble"] > 8.0
    assert intel["tf_fold"] / intel["nimble"] > 2.0
    assert results["arm"]["tf_fold"] is None
    assert results["arm"]["pytorch"] / results["arm"]["nimble"] > 8.0
