"""The repo benchmark: one command, four workloads, two clocks.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace [0|1]] [--smoke] [--out F]

Each workload runs in its own fresh, single-threaded subprocess, one
after another. For every workload the command prints each metric by
name with its unit and clock, checks outputs, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. It exits non-zero if
any output differs from its reference. See bench/README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    # Run as a script, sys.path[0] is bench/: point it at the repo root,
    # so that `bench` imports and bench/trace.py can never shadow the
    # standard library's trace module.
    sys.path[0] = str(ROOT)

from bench import HOST_METRICS, WORKLOADS  # noqa: E402

OUT = HERE / "out"
# A child that runs longer than this is hung: the contract allows 180 s.
CHILD_TIMEOUT_S = 170

# One thread everywhere (the box has 2 cores and BLAS would take both),
# and a fixed hash seed so set and dict orders repeat. A fixed mmap
# threshold: glibc otherwise raises it as big blocks are freed, and
# whether a weight matrix then lands in the heap or in a mapping of its
# own moved vm_single's peak_rss_mb by 7-12% between runs of one commit.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "1048576",
}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced pass and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass: exercises every code path in seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: bench/out/results.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args) -> int:
    """Measure one workload in this (fresh) process; the result goes to
    ``--out`` as JSON."""
    sys.path.insert(1, str(ROOT / "src"))
    from bench import harness

    result = harness.measure(
        args.workload, seed=args.seed, size="smoke" if args.smoke else "bench",
        seconds=args.seconds, trace=bool(args.trace),
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


def spawn(workload: str, args) -> dict:
    result_file = OUT / f"result-{workload}.json"
    result_file.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(result_file),
    ] + (["--smoke"] if args.smoke else [])
    # subprocess.run kills the child and waits for it if the timeout hits.
    done = subprocess.run(command, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not result_file.exists():
        raise SystemExit(f"bench: workload {workload} failed (exit {done.returncode})")
    with open(result_file) as f:
        return json.load(f)


def report(result: dict, spec: dict, traced: bool) -> dict:
    """Print one workload's metrics; returns its contract JSON object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']}  [{result['loop']}]")
    print(f"   seed {result['seed']}, size {result['size']}, {result['passes']} timed "
          f"pass(es), {result['attempted']} ops per pass")
    for name, row in result["end_to_end"].items():
        detail = "host clock" if name in HOST_METRICS else "virtual clock / exact"
        if "samples" in row:
            detail += f", median of {len(row['samples'])}"
            if "q1" in row:
                detail += f" (q1 {row['q1']:.4f}, q3 {row['q3']:.4f})"
        if name.startswith("modeled_latency"):
            detail += f", {result['modeled_ops']} ops"
            if name.endswith("p90_us"):
                detail += f" ({result['modeled_ops'] // 10} beyond it)"
        print(f"   {name:<26}{row['value']:>18.6f} {units.get(name, ''):<6} {detail}")
    print(f"   {'failed_share':<26}{result['failed_share']:>18.6f}        "
          f"{result['raised']} raised + {result['refused']} refused of "
          f"{result['attempted']} attempted")
    print(f"   {'output_mismatches':<26}{result['output_mismatches']:>18d}        "
          f"{result['outputs_compared']} comparisons")
    print(f"   modeled_digest {result['modeled_digest']}")
    for line in result["messages"] + result["notes"]:
        print(f"   ! {line}")
    if traced:
        for name, value in sorted(result["per_layer"].items()):
            print(f"   {name:<52}{value:>18.6f} {units.get(name, '')}")
    rows = result["per_layer"] if traced else {
        name: row["value"] for name, row in result["end_to_end"].items()
    }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        # Raised operations. Requests the fleet's admission control
        # refuses on purpose are in failed_share and slo_goodput_share.
        "failed": result["raised"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rows.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    spec = declared()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    OUT.mkdir(parents=True, exist_ok=True)
    # Two workloads timing themselves on one box at once measure each
    # other: refuse rather than report noise.
    with open(OUT / ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit("bench: another benchmark run holds bench/out/.lock")
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        lines = []
        for name in names:
            results[name] = spawn(name, args)
            lines.append(report(results[name], spec, bool(args.trace)))
        out = args.out or OUT / "results.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as f:
            json.dump({"seed": args.seed, "smoke": args.smoke, "workloads": results},
                      f, indent=1, sort_keys=True)
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
