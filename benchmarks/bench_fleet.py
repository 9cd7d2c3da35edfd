"""Fleet serving: shape-affinity routing over a shared artifact store.

Not a paper table — this extends the reproduction to fleet scale, where
the paper's compile-once economics must hold per *fleet*, not per
replica. The study (``harness.fleet_study``) serves one multi-tenant
trace through ``repro.fleet`` under three routing policies plus a
warm-fleet restart and a replica-count sweep, and asserts the layer's
three claims:

- **affinity concentrates specialization**: more hot shapes than any
  one replica's executable cache can hold, so random placement thrashes
  eviction while affinity pins each tenant's hot shape to one replica —
  ≥1.5× the fleet-wide specialized hit rate at no extra fresh suffix
  charge (the shared store already deduplicates compiles; each replica
  that compiles at all pays the shape-independent prefix once);
- **one replica's compile warms the whole fleet**: a fresh fleet over
  the populated store restores instead of compiling, and its first
  specialized hit lands strictly earlier than the cold fleet's;
- **determinism survives the fleet**: per-tenant admission control
  trips under bursts, store GC prunes mid-run, and still every
  configuration replays bit-identically — and any replica count
  computes bitwise the outputs of one standalone server.

CI runs this file and fails on any assertion.
"""

import pytest

from repro.harness import fleet_study, format_table

ROW_METRICS = (
    "admitted",
    "rejected",
    "affinity_rate",
    "specialized_hit_rate",
    "compile_charge_us",
    "suffix_charge_us",
    "fleet_restores",
    "store_rejects",
    "gc_pruned",
    "gc_kept_referenced",
    "first_specialized_hit_us",
    "p50_us",
    "p99_us",
    "deterministic",
)


@pytest.mark.paper
def test_fleet_routing_and_shared_store(modeled):
    results = modeled("fleet_study", fleet_study)
    summary = results["summary"]
    policies = ("affinity", "random", "least_loaded", "warm", "gc")
    print()
    print(
        format_table(
            "One multi-tenant trace, five fleet configurations (virtual µs)",
            [[m] + [results[p][m] for p in policies] for m in ROW_METRICS],
            ["metric", *policies],
        )
    )
    print(
        f"affinity/random hit ratio {summary['affinity_random_hit_ratio']:.2f}x "
        f"at charge ratio {summary['affinity_random_charge_ratio']:.3f} "
        f"(suffix {summary['affinity_random_suffix_ratio']:.3f}), "
        f"warm first-hit speedup {summary['warm_first_hit_speedup']:.2f}x, "
        f"sweep_deterministic={bool(summary['replica_sweep_deterministic'])}, "
        f"single_server_match={bool(summary['single_server_match'])}"
    )

    affinity, random_run = results["affinity"], results["random"]
    # Headline: affinity routing concentrates the specialized tier —
    # ≥1.5× random placement's hit rate without compiling any hot shape
    # more often for it: equal fresh suffix charge. (The whole charge
    # also counts one prefix per replica that compiles; affinity spreads
    # the four hot shapes over all four replicas, so it may pay one
    # prefix more than random placement does.)
    assert summary["affinity_random_hit_ratio"] >= 1.5
    assert summary["affinity_random_suffix_ratio"] <= 1.05
    # The shared store warms siblings mid-run: placement-blind routing
    # leans on cross-replica restores (affinity needs none — each shape
    # stays where it compiled, which is the point), and a warm fleet's
    # first specialized hit beats the cold fleet's.
    assert random_run["fleet_restores"] > 0
    assert affinity["fleet_restores"] == 0.0
    assert results["warm"]["first_specialized_hit_us"] < affinity[
        "first_specialized_hit_us"
    ]
    assert summary["warm_earlier"] == 1.0
    # Admission control actually bound: the bursty tenant was shed at
    # the door in every configuration (counted, never queued).
    assert summary["admission_tripped"] == 1.0
    # Store GC: under drifted traffic the retired shape's blob is
    # age-pruned while the refcount guard keeps every live one, with
    # zero store rejects along the way.
    assert summary["gc_exercised"] == 1.0
    assert results["gc"]["gc_pruned"] > 0
    assert results["gc"]["gc_kept_referenced"] > 0
    assert affinity["store_rejects"] == 0.0
    # The determinism contract: every configuration replays
    # bit-identically (counters and outputs), the replica-count sweep
    # {1, 2, 4} replays with GC enabled, and every count computes
    # bitwise the single-server outputs.
    assert summary["deterministic"] == 1.0
    assert summary["replica_sweep_deterministic"] == 1.0
    assert summary["single_server_match"] == 1.0
    # Baselines are non-degenerate: random still specializes (just
    # worse) and the affinity run served the lion's share statically.
    assert random_run["specialized_hit_rate"] > 0.0
    assert affinity["specialized_hit_rate"] > 0.5


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
