"""Measure one workload in this process.

``measure`` is what the runner's subprocess calls and what
``bench/test_smoke.py`` calls in-process: set the workload up
(``setup_repeats`` times, for a median), run identical timed passes for
``seconds`` (never fewer than ``min_passes``), check the outputs once,
and — when asked — repeat one pass under ``bench.trace`` for the
per-layer numbers. End-to-end numbers always come from the untraced
passes.

Two clocks. *host* metrics are seconds (or MiB) of this Python process
and are medians with their samples kept; every other metric is either
modeled microseconds of ``repro.runtime.clock`` or an exact count, is
identical in every pass, and must be bit-equal between two runs of one
commit at one seed.

Host seconds are *gauged*: this box changes speed by ±20% for tens of
seconds at a time (identical vm_single passes took 2.4-3.7 s; CPU time
tracked wall time, so the core itself slows down), which no number of
passes inside the time cap averages away. ``SpeedGauge`` interleaves a
fixed 1 ms spin with the measured work and scales the measured seconds
by how much slower than ``SPIN_REFERENCE_S`` the spins ran. Over 20
passes that took the quartile spread from 22% to 3%. The raw seconds
and the speed of every sample are kept in the result file.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from bench import trace as tracing
from bench import workloads

OUT = Path(__file__).resolve().parent / "out"

# One spin on this box at rest.
SPIN_REFERENCE_S = 0.00095
# At most one spin per interval: ~5% of the measured time.
SPIN_INTERVAL_S = 0.02


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 1, 2.0


def _spin(n: int = 8000) -> float:
    """A fixed piece of interpreter-bound work: attribute, dict and list
    traffic like the VM's dispatch loop, no allocation to speak of."""
    cell, table, slots, acc = _Cell(), {}, [0] * 16, 0.0
    for i in range(n):
        cell.a = i
        table[i & 63] = cell.b
        slots[i & 15] = i
        acc += table[i & 63] * cell.a
        if i & 7 == 0:
            acc = float(len(slots))
    return acc


class SpeedGauge:
    """How fast the box is running while something is being timed.

    ``tick`` is called wherever the measured work offers a boundary (by
    the closed-loop workloads after every op, and after every
    ``Worker.run_batch``); it spins at most once per
    ``SPIN_INTERVAL_S``. ``timed`` brackets a call with a burst of spins,
    subtracts the time spent spinning, and returns the raw seconds and
    the speed (1.0 = the reference, 0.8 = the box ran 20% slower)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0
        # Set for the traced pass: a spin is then a span of its own, so
        # its time is not billed to the layer it interrupted.
        self.tracer = None

    def _spin_once(self) -> None:
        tracer = self.tracer
        span = tracer.begin("bench.gauge", "spin") if tracer and tracer.inside_span else None
        begin = time.perf_counter()
        _spin()
        end = time.perf_counter()
        if span is not None:
            tracer.end(span)
        self.samples.append(end - begin)
        self._next = end + SPIN_INTERVAL_S

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self._spin_once()

    def burst(self, n: int = 10) -> None:
        for _ in range(n):
            self._spin_once()

    def timed(self, fn):
        self.samples = []
        self.burst()
        lead = sum(self.samples)
        begin = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - begin
        raw_s = elapsed - (sum(self.samples) - lead)
        self.burst()
        speed = SPIN_REFERENCE_S / statistics.fmean(self.samples)
        return result, raw_s, speed


@contextmanager
def ticking_after_batches(gauge: SpeedGauge):
    """The open-loop workloads are one opaque ``simulate`` call: give
    the gauge its boundary by ticking after every ``Worker.run_batch``."""
    from repro.serve.worker import Worker

    original = Worker.run_batch

    def run_batch(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            gauge.tick()

    Worker.run_batch = run_batch
    try:
        yield
    finally:
        Worker.run_batch = original


def _median_row(timings: List[tuple]) -> Dict[str, object]:
    """(raw seconds, speed) pairs -> the gauged median and its samples."""
    samples = [raw_s * speed for raw_s, speed in timings]
    row: Dict[str, object] = {
        "value": statistics.median(samples),
        "samples": samples,
        "raw_s": [raw_s for raw_s, _ in timings],
        "speed": [speed for _, speed in timings],
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        row.update(q1=q1, q3=q3)
    return row


def measure(
    name: str,
    seed: int = 0,
    size: str = "bench",
    seconds: float = 8.0,
    trace: bool = False,
    out_dir: Path = OUT,
) -> Dict[str, object]:
    spec = workloads.SIZES[size]
    notes: List[str] = []
    out_dir = Path(out_dir)
    gauge = SpeedGauge()

    def fresh():
        return workloads.WORKLOADS[name](seed, size, out_dir / f"tmp-{name}", notes, gauge)

    workload = fresh()
    try:
        with ticking_after_batches(gauge):
            setups: List[tuple] = []
            for repeat in range(spec["setup_repeats"]):
                if repeat:
                    # Drop what the last set-up made before making it
                    # again: two live copies would be the memory peak.
                    workload = fresh()
                gc.collect()
                setups.append(gauge.timed(workload.setup)[1:])

            passes: List[workloads.PassResult] = []
            walls: List[tuple] = []
            started = time.perf_counter()
            while len(walls) < spec["min_passes"] or time.perf_counter() - started < seconds:
                if passes:
                    # Only the last pass's reports and executables are
                    # checked; holding two passes' worth doubles peak memory.
                    passes[-1].payload = None
                workload.prepare_pass()
                gc.collect()
                result, raw_s, speed = gauge.timed(workload.run_pass)
                passes.append(result)
                walls.append((raw_s, speed))
            first, last = passes[0], passes[-1]
            # Read before the check, whose full-numerics VMs, blobs and
            # reference outputs are the benchmark's memory, not the
            # program's, and would be the peak on vm_single.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            workload.layers_wanted = trace
            begin = time.perf_counter()
            check = workload.check(first, last)
            check_s = time.perf_counter() - begin

            per_layer: Optional[Dict[str, float]] = None
            if trace:
                per_layer = _traced_pass(workload, gauge, passes, walls, check, out_dir)
                per_layer["check.busy_s"] = check_s
    finally:
        workload.close()

    # `check` completed the first pass's result; see bench.workloads.
    latencies = [latency for _, _, latency in first.ops]
    failed = first.raised + first.refused
    end_to_end = {
        "setup_s": _median_row(setups),
        "wall_s": _median_row(walls),
        "peak_rss_mb": {"value": peak_rss_mb},
        "modeled_latency_p50_us": {"value": workloads.percentile(latencies, 50) if latencies else 0.0},
        "modeled_latency_p90_us": {"value": workloads.percentile(latencies, 90) if latencies else 0.0},
        "modeled_throughput_rps": {"value": first.modeled_throughput_rps},
        "slo_goodput_share": {"value": first.slo_met / (first.slo_of or first.attempted)},
        "artifact_bytes": {"value": first.artifact_bytes},
    }
    if per_layer is not None:
        per_layer["check.failed_share"] = failed / first.attempted
    return {
        "workload": name,
        "loop": workload.loop,
        "seed": seed,
        "size": size,
        "passes": len(walls),
        "attempted": first.attempted,
        "raised": first.raised,
        "refused": first.refused,
        "failed_share": failed / first.attempted,
        "modeled_ops": len(latencies),
        "outputs_compared": check.compared,
        "output_mismatches": check.mismatches,
        "correct": check.mismatches == 0,
        "messages": check.messages,
        "modeled_digest": workloads.modeled_digest(first, check),
        "notes": notes,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _traced_pass(workload, gauge, passes, walls, check, out_dir: Path) -> Dict[str, float]:
    """One more pass with the wrappers of ``bench.trace`` installed.
    Its per-layer seconds are raw, not gauged: ``host.machine_speed``
    says how fast the box ran meanwhile."""
    first = passes[0]
    tracer = tracing.Tracer()
    workload.prepare_pass()
    gc.collect()
    tracer.install()
    workload.tracer = gauge.tracer = tracer

    def traced_pass():
        with tracer.span(tracing.ROOT_LAYER, "pass"):
            return workload.run_pass()

    try:
        traced, raw_s, speed = gauge.timed(traced_pass)
    finally:
        workload.tracer = gauge.tracer = None
        tracer.uninstall()
    check.expect(
        (traced.attempted, traced.raised, traced.refused)
        == (first.attempted, first.raised, first.refused)
        and (not traced.ops or traced.ops == first.ops),
        "the traced pass disagrees with the untraced passes on the virtual clock",
    )

    metrics = dict.fromkeys(workloads.FACT_NAMES, 0.0)
    metrics.update(first.facts)
    for key in metrics:
        if key.endswith(".wall_s"):
            # Host seconds the workload itself took per model: median
            # over the untraced passes, like wall_s.
            metrics[key] = statistics.median(p.facts.get(key, 0.0) for p in passes)
    metrics.update(tracer.metrics())
    run_s = metrics["vm.interpreter.run.busy_s"]
    metrics["vm.interpreter.instr_per_s"] = (
        metrics["vm.interpreter.instructions"] / run_s if run_s else 0.0
    )
    untraced = statistics.median(raw * spd for raw, spd in walls)
    metrics["host.trace_overhead_share"] = (raw_s * speed - untraced) / untraced
    metrics["host.machine_speed"] = speed
    metrics["check.outputs_compared"] = float(check.compared)
    metrics["check.output_mismatches"] = float(check.mismatches)

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{workload.name}.json", "w") as out:
        json.dump({"workload": workload.name, "seed": workload.seed, "machine_speed": speed,
                   **tracer.dump()}, out)
    return metrics
