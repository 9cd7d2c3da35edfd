"""Table 1: LSTM inference latency (µs/token) across systems/platforms."""

import pytest

from repro.harness import format_table, table1_lstm

PAPER = {
    1: {
        "intel": {"nimble": 47.8, "pytorch": 79.3, "mxnet": 212.9, "tensorflow": 301.4},
        "nvidia": {"nimble": 93.0, "pytorch": 110.3, "mxnet": 135.7, "tensorflow": 304.7},
        "arm": {"nimble": 182.2, "pytorch": 1729.5, "mxnet": 3695.9, "tensorflow": 978.3},
    },
    2: {
        "intel": {"nimble": 97.2, "pytorch": 158.1, "mxnet": 401.7, "tensorflow": 687.3},
        "nvidia": {"nimble": 150.9, "pytorch": 214.6, "mxnet": 223.8, "tensorflow": 406.9},
        "arm": {"nimble": 686.4, "pytorch": 3378.1, "mxnet": 7768.0, "tensorflow": 2192.8},
    },
}

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
