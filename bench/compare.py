"""Referee two result files of the benchmark.

    python3 bench/compare.py A.json B.json      (A = parent, B = change)

One row per (metric, workload): ``better``, ``same``, ``worse`` or
``unresolved``. Exits non-zero on any ``worse`` or on a differing
``modeled_digest``.

Host-clock metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``) are
compared by their medians against the bound ``BENCHMARK.json`` gives
them. When the spread of either side's samples (quartile distance over
median) is wider than the bound the row is ``unresolved`` — unless every
sample of the change beats every sample of the parent.

Every other metric is modeled time or an exact count: for one seed it
must be *equal*. Any difference is reported as ``better`` or ``worse``
by the metric's direction, whatever its size; BENCHMARK.json's bound on
those metrics only exists to absorb the driver's seed-to-seed variation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)  # run as a script: make `bench` importable

from bench import HOST_METRICS  # noqa: E402


def spread(samples) -> float:
    if not samples or len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge_host(a: dict, b: dict, bound: float) -> str:
    """All host metrics are better when lower."""
    a_samples = a.get("samples") or [a["value"]]
    b_samples = b.get("samples") or [b["value"]]
    if min(len(a_samples), len(b_samples)) >= 3 and max(b_samples) < min(a_samples):
        return "better"
    if max(spread(a_samples), spread(b_samples)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def judge_exact(a: float, b: float, lower_is_better: bool) -> str:
    if a == b:
        return "same"
    return "better" if (b < a) == lower_is_better else "worse"


def compare(a: dict, b: dict, spec: dict) -> int:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    print(f"{'workload':<15}{'metric':<50}{'A':>16}{'B':>16}  verdict")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        rows = [(name, row, rb["end_to_end"][name], True)
                for name, row in ra["end_to_end"].items()]
        if ra.get("per_layer") and rb.get("per_layer"):
            rows += [(name, {"value": value}, {"value": rb["per_layer"][name]}, False)
                     for name, value in sorted(ra["per_layer"].items())]
        for name, row_a, row_b, gates in rows:
            lower = declared[name]["better"] == "lower"
            if name in HOST_METRICS:
                verdict = judge_host(row_a, row_b, declared[name]["bound"])
            elif declared[name]["unit"] == "s" or name.startswith("host."):
                # Per-layer host seconds of a single traced pass: shown,
                # never judged — one sample resolves nothing.
                verdict = "-"
            else:
                verdict = judge_exact(row_a["value"], row_b["value"], lower)
            if verdict == "worse" and gates:
                bad += 1
            print(f"{workload:<15}{name:<50}{row_a['value']:>16.6g}{row_b['value']:>16.6g}  {verdict}")
        for key in ("failed_share", "output_mismatches"):
            verdict = judge_exact(ra[key], rb[key], True)
            bad += verdict == "worse"
            print(f"{workload:<15}{key:<50}{ra[key]:>16.6g}{rb[key]:>16.6g}  {verdict}")
        same = ra["modeled_digest"] == rb["modeled_digest"]
        bad += not same
        print(f"{workload:<15}{'modeled_digest':<50}{ra['modeled_digest'][:12]:>16}"
              f"{rb['modeled_digest'][:12]:>16}  {'same' if same else 'differs'}")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    with open(argv[0]) as fa, open(argv[1]) as fb, open(ROOT / "BENCHMARK.json") as fs:
        bad = compare(json.load(fa), json.load(fb), json.load(fs))
    print(f"{bad} row(s) worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
