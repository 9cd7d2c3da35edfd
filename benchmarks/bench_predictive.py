"""Profile-guided predictive specialization + guarded partial shapes.

Not a paper table — this extends the reproduction past reactive
specialization. The study (``harness.predictive_study``) runs a
long-tailed traffic mix (a few hot row counts, a wide tail, stable
feature width) through the weight-free two-``Any``-dim gram model twice
against one artifact store:

- the **cold** server specializes reactively and covers the tail with a
  synthesized *partial* variant (feature dim bound, row dim left
  ``Any``, entry-guarded per batch member), then snapshots its shape
  profile (``.nmblprof``) into the store;
- the **warm** server pre-arms its historical top-K at virtual time 0,
  so its first specialized hit lands at least **2×** earlier than the
  cold run's (in practice far more: the pre-arm happens before the
  first request even arrives);
- one partial variant serves at least **3 distinct exact shapes**, with
  every guard deopt counted (zero here — routing only sends matching
  members) and outputs bit-identical across cold and warm despite the
  runs' different tier sequences;
- both runs replay deterministically (the profile is frozen at manager
  construction, never re-read mid-run).

CI runs this file and fails on any assertion.
"""

import pytest

from repro.harness import format_table, predictive_study

ROW_METRICS = (
    "specialized_hits",
    "specialized_hit_rate",
    "partial_hits",
    "partial_shapes_covered",
    "guard_deopts",
    "predictive_compiles",
    "predictive_hits",
    "compile_charge_us",
    "restored",
    "first_specialized_hit_us",
)


@pytest.mark.paper
def test_predictive_specialization(modeled, tmp_path):
    results = modeled(
        "predictive_study",
        lambda: predictive_study(artifact_dir=str(tmp_path / "store")),
    )
    cold, warm, summary = results["cold"], results["warm"], results["summary"]
    print()
    print(
        format_table(
            "Reactive vs predictive specialization, one store (virtual µs)",
            [[m, cold[m], warm[m]] for m in ROW_METRICS],
            ["metric", "cold", "warm"],
        )
    )
    print(
        f"first-hit speedup {summary['first_hit_speedup']:.2f}x, "
        f"predictive {summary['predictive_compiles']:.0f} pre-arms / "
        f"{summary['predictive_hits']:.0f} hits, "
        f"partial covers {summary['partial_shapes_covered']:.0f} shapes, "
        f"deopts={summary['guard_deopts']:.0f}, "
        f"bit_identical={bool(summary['bit_identical'])}, "
        f"deterministic={bool(summary['deterministic'])}"
    )
    # Headline 1: the restarted (warm) server's first specialized hit
    # lands at least 2x earlier than the cold server's — its hot set was
    # pre-armed from the persisted shape profile at virtual time 0.
    assert warm["predictive_compiles"] > 0
    assert warm["predictive_hits"] > 0
    assert summary["first_hit_speedup"] >= 2.0
    # Headline 2: one guarded partial variant covers a whole family of
    # exact shapes — at least 3 distinct row counts served on the
    # "partial" tier — and no member ever computed a wrong answer: every
    # guard miss would deopt (counted), and outputs stay bitwise
    # identical across the two runs' different tier mixes.
    assert summary["partial_shapes_covered"] >= 3.0
    assert cold["partial_hits"] > 0
    assert summary["bit_identical"] == 1.0
    # The cold baseline is non-degenerate and nothing was predictively
    # armed there (empty store on construction); replays are stable.
    assert cold["predictive_compiles"] == 0.0
    assert cold["specialized_hits"] > 0
    assert summary["deterministic"] == 1.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
