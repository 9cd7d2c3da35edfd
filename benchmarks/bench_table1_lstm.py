"""Table 1: LSTM inference latency (µs/token) across systems/platforms."""

import pytest

from repro.harness import format_table, table1_lstm
from repro.harness.paper import TABLE1_LSTM as PAPER

SYSTEMS = ("nimble", "pytorch", "mxnet", "tensorflow")


@pytest.mark.paper
def test_table1_lstm(modeled):
    results = modeled("table1_lstm", lambda: table1_lstm(num_sentences=6))
    rows = []
    for layers in (1, 2):
        for platform in ("intel", "nvidia", "arm"):
            measured = results[layers][platform]
            paper = PAPER[layers][platform]
            rows.append(
                [f"{layers}L/{platform}"]
                + [measured[s] for s in SYSTEMS]
                + [f"{paper[s]:.1f}" for s in SYSTEMS]
            )
    print()
    print(
        format_table(
            "Table 1 — LSTM µs/token (measured | paper)",
            rows,
            ["config"] + [f"{s}" for s in SYSTEMS] + [f"paper:{s}" for s in SYSTEMS],
        )
    )
    # The paper's ordering must hold on every platform.
    for layers in (1, 2):
        for platform in ("intel", "nvidia", "arm"):
            m = results[layers][platform]
            assert m["nimble"] == min(m.values()), (layers, platform, m)
    # Headline: ~20x over MXNet on ARM (paper: 20.3x on 1 layer).
    arm = results[1]["arm"]
    assert arm["mxnet"] / arm["nimble"] > 8.0
