"""Warm server restarts from the persistent artifact store.

Not a paper table — this extends the reproduction with the deployment
half of the paper's bet: compilation cost is paid once and *amortized*,
which only holds if the artifacts outlive the process. The study
(``harness.restart_study``) runs a hot-shape-concentrated traffic mix on
a server with ``artifact_dir`` set, drops the server (the "crash"),
constructs a fresh one against the same store, and replays the identical
trace:

- the warm server restores every specialized executable from disk
  (zero fresh compiles) at the modeled deserialize cost, so its total
  lane charge is **< 12%** of the cold run's compile charge;
- it reaches at least the cold run's specialized hit rate, and its
  first specialized hit lands earlier (no compile wall to wait behind);
- outputs are bit-identical across cold and warm — the store changes
  when the static tiers come online, never what they compute;
- both runs replay deterministically (the warm-restorable key set is
  frozen per server, so simulation N sees what simulation 1 saw).

CI runs this file and fails on any assertion.
"""

import pytest

from repro.harness import format_table, restart_study

ROW_METRICS = (
    "specialized_hits",
    "specialized_hit_rate",
    "compile_charge_us",
    "fresh_compiles",
    "restored",
    "restore_us",
    "store_rejects",
    "first_specialized_hit_us",
)


@pytest.mark.paper
def test_warm_restart(modeled, tmp_path):
    results = modeled(
        "restart_study", lambda: restart_study(artifact_dir=str(tmp_path / "store"))
    )
    cold, warm, summary = results["cold"], results["warm"], results["summary"]
    print()
    print(
        format_table(
            "Cold vs warm restart against one artifact store (virtual µs)",
            [[m, cold[m], warm[m]] for m in ROW_METRICS],
            ["metric", "cold", "warm"],
        )
    )
    print(
        f"charge ratio {summary['warm_cold_charge_ratio']:.4f}, "
        f"first-hit speedup {summary['first_hit_speedup']:.2f}x, "
        f"bit_identical={bool(summary['bit_identical'])}, "
        f"deterministic={bool(summary['deterministic'])}"
    )
    # Headline: the warm restart compiles NOTHING — every specialized
    # executable restores from the store — and its total lane charge
    # (three 450 µs deserializes: 300 µs + 30 µs for each of a blob's
    # five kernels, six before each LSTM layer's gate GEMM and gate
    # math became one kernel) is under 12% of the cold start's compile
    # charge (three 3200 µs suffixes + one 4800 µs prefix).
    assert warm["fresh_compiles"] == 0.0
    assert warm["restored"] > 0
    assert warm["compile_charge_us"] == pytest.approx(1350.0)
    assert summary["warm_cold_charge_ratio"] < 0.12
    # The warm server reaches its pre-restart specialized steady state:
    # at least the cold run's hit rate, with the first specialized hit
    # landing strictly earlier (no compile wall).
    assert summary["hit_rate_recovered"] == 1.0
    assert warm["first_specialized_hit_us"] < cold["first_specialized_hit_us"]
    # The cold baseline is non-degenerate (it did reach steady state and
    # did pay real compiles), nothing was rejected, and the store never
    # changes the computation — outputs bitwise equal, replays stable.
    assert cold["specialized_hits"] > 0
    assert cold["fresh_compiles"] > 0
    assert warm["store_rejects"] == 0.0
    assert summary["bit_identical"] == 1.0
    assert summary["deterministic"] == 1.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
