"""Serving: shape-bucketed batched dispatch vs one-request-at-a-time.

Not a paper table — this extends the reproduction toward the serving
regime the paper motivates (§1: dynamic models behind production traffic).
LSTM and BERT traffic mixes draw sentence lengths from the MRPC
distribution (``data/mrpc.py``); arrivals are a seeded Poisson process.
All numbers are virtual microseconds, so throughput and tail latency are
bit-reproducible — the study itself re-runs the batched simulation from a
fresh server and verifies it reproduces identical numbers.
"""

import pytest

from repro.harness import format_table, serving_study, tape_serving_study
from repro.models.bert import BertConfig

SYSTEMS = ("serial", "batched")
METRICS = ("throughput_rps", "p50_us", "p99_us", "mean_batch_size")


def _rows(name, result):
    out = []
    for system in SYSTEMS:
        row = result[system]
        out.append([f"{name}/{system}"] + [row[m] for m in METRICS])
    return out


@pytest.mark.paper
def test_serving_throughput(modeled):
    def study():
        lstm = serving_study(
            model="lstm",
            num_requests=32,
            platform_name="nvidia",
            num_workers=4,
            max_batch_size=8,
            max_delay_us=4000.0,
            mean_interarrival_us=50.0,
            seed=0,
        )
        bert = serving_study(
            model="bert",
            num_requests=24,
            platform_name="nvidia",
            num_workers=4,
            max_batch_size=8,
            max_delay_us=2000.0,
            mean_interarrival_us=50.0,
            bucket_granularity=16,
            bert_config=BertConfig(hidden=256, num_layers=4, num_heads=4, ffn=1024),
            seed=0,
        )
        return {"lstm": lstm, "bert": bert}

    results = modeled("serving_study", study)
    rows = _rows("lstm", results["lstm"]) + _rows("bert", results["bert"])
    print()
    print(
        format_table(
            "Serving — batched vs serial dispatch (virtual time)",
            rows,
            ["mix"] + list(METRICS),
        )
    )
    for name in ("lstm", "bert"):
        summary = results[name]["summary"]
        print(
            f"{name}: {summary['throughput_speedup']:.2f}x throughput, "
            f"deterministic={bool(summary['deterministic'])}"
        )
    # Headline: batching the LSTM mix at least doubles serial throughput,
    # and the numbers are reproducible.
    assert results["lstm"]["summary"]["throughput_speedup"] >= 2.0
    assert results["lstm"]["summary"]["deterministic"] == 1.0
    assert results["bert"]["summary"]["throughput_speedup"] >= 1.5
    assert results["bert"]["summary"]["deterministic"] == 1.0
    # Batching must not explode tail latency versus the saturated serial
    # queue — the deadline caps queueing delay.
    assert results["lstm"]["batched"]["p99_us"] <= results["lstm"]["serial"]["p99_us"]



@pytest.mark.paper
def test_static_hits_replay_their_tape(modeled):
    """Static-tier hits after a variant's first on a worker replay the
    variant's launch tape: for every exact and batched variant of small
    BERT on `intel_cpu`, the median replay serves in less time than the
    first hit, which the VM serves (and which records the tape)."""
    row = modeled("tape_serving_study", tape_serving_study)["serving"]
    first = {k[len("first_hit_us_"):]: v for k, v in row.items() if k.startswith("first_hit_us_")}
    replay = {k[len("replay_p50_us_"):]: v for k, v in row.items() if k.startswith("replay_p50_us_")}
    print()
    print(
        format_table(
            "Static hits — first hit (VM) vs median replay (launch tape), virtual µs",
            [[variant, first[variant], replay.get(variant, float("nan"))] for variant in first],
            ["variant", "first_hit_us", "replay_p50_us"],
        )
    )
    assert row["deterministic"] == 1.0
    assert {variant.split("_")[0] for variant in first} == {"specialized", "batched"}
    assert replay.keys() == first.keys()
    for variant, first_us in first.items():
        assert replay[variant] < first_us, variant

if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
