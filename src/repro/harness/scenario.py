"""The scenario runner under the serving studies.

A serving study is a trace, a :class:`~repro.serve.ServeConfig` and a
few variants of how the server (or fleet) in front of them is built.
Each study is declared as a :class:`Study` and run by one driver,
:func:`run_study`. Everything the studies share lives here once: the run
step — build fresh, simulate, replay, compare — with its one definition
of "deterministic", the table of measures a row reads off a run, and
the scratch root the variants' stores live under.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import tempfile
from collections import defaultdict
from operator import attrgetter
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.codegen.kernels import KernelCache
from repro.fleet import FleetConfig, FleetReport, FleetRouter, TenantSpec
from repro.hardware import Platform, platform_by_name
from repro.ir import IRModule
from repro.serve import InferenceServer, Request, ServeConfig, ServeReport
from repro.serve.events import Dispatch, VMRun
from repro.utils.reporting import percentile

Report = Union[ServeReport, FleetReport]
# A trace as a function of its seed, called as ``trace(seed=...)``.
Trace = Callable[..., Sequence[Request]]


class Run(NamedTuple):
    """What one run step produced: the first simulation's report,
    whether the replay on the same server reproduced it, and the trace
    it served."""

    report: Report
    deterministic: bool
    trace: Sequence[Request]


def outputs_equal(report: Report, reference: Report, served_only: bool = False) -> bool:
    """Every response output bitwise equal, rid for rid. With
    *served_only* the rids *report* never served are not held against it
    (a fleet sheds some at admission; a lone server serves them all)."""
    want = {r.rid: r.output.numpy() for r in reference.responses}
    got = {r.rid: r.output.numpy() for r in report.responses}
    same_rids = got.keys() <= want.keys() if served_only else got.keys() == want.keys()
    return same_rids and all(np.array_equal(out, want[rid]) for rid, out in got.items())


def same_simulation(report: Report, other: Report) -> bool:
    """The one definition of "deterministic": every report field equal
    (``counters()`` walks them all), the two record lists equal, and
    every output bitwise equal."""
    return (
        report.counters() == other.counters()
        and report.records == other.records
        and outputs_equal(report, other)
    )


def run_scenario(
    mod: IRModule,
    platform: Platform,
    trace: Sequence[Request],
    config: ServeConfig,
    *,
    artifact_dir: Optional[str] = None,
    fleet: Optional[FleetConfig] = None,
    tenants: Sequence[TenantSpec] = (),
    kernel_cache: Optional[KernelCache] = None,
) -> Run:
    """Build a brand-new server — or, with *fleet*, a router over fresh
    replicas — simulate *trace*, replay it on the same object, compare.

    Everything a process restart loses is rebuilt per call (kernel cache
    unless one is shared in, VMs, specialization manager); only the
    store under *artifact_dir* persists between calls.
    """
    if artifact_dir is not None:
        config = dataclasses.replace(config, artifact_dir=artifact_dir)
    if fleet is None:
        server = InferenceServer(mod, platform, config, kernel_cache=kernel_cache)
    else:
        server = FleetRouter(
            mod, platform, config, fleet, tenants, kernel_cache=kernel_cache
        )
    report = server.simulate(trace)
    return Run(report, same_simulation(report, server.simulate(trace)), trace)


def first_static_finish_us(report: Report) -> float:
    """When the first response served by a static tier finished (``inf``
    if none ever was)."""
    return min(
        (r.finish_us for r in report.responses if r.tier != "dynamic"),
        default=math.inf,
    )


def speedup(before: float, after: float) -> float:
    """``before / after``, except that two equal readings are "no
    change": inf/inf (neither run ever hit a static tier — a degenerate
    configuration) would be NaN and poison downstream arithmetic."""
    return 1.0 if before == after else before / after


def _latency_percentile_us(report: Report, q: float) -> float:
    latencies = [r.latency_us for r in report.responses]
    return percentile(latencies, q) if latencies else 0.0


def _partial_shapes_covered(run: Run) -> int:
    """Distinct exact row counts the guarded-partial tier served."""
    partial = {r.rid for r in run.report.responses if r.tier == "partial"}
    return len({np.shape(q.payload)[0] for q in run.trace if q.rid in partial})


def _static_calls(run: Run) -> Dict[str, List[Tuple[float, bool]]]:
    """Each exact or batched variant's calls, in order, as (service µs,
    replayed): a call serves from its start to the next call's start on
    its worker, or to its batch's finish; a replay (`LaunchTape.run`)
    runs no instruction. A variant is named by its tier and its member
    shape, e.g. ``batched_12x64``."""
    shapes = {r.rid: np.shape(r.payload) for r in run.trace}
    calls: Dict[str, List[Tuple[float, bool]]] = defaultdict(list)
    open_calls: Dict[tuple, Tuple[Optional[str], float, bool]] = {}

    def close(worker: tuple, end_us: float) -> None:
        if worker in open_calls:
            variant, start_us, replayed = open_calls.pop(worker)
            if variant is not None:
                calls[variant].append((end_us - start_us, replayed))

    for record in run.report.records:
        if type(record) is VMRun:
            worker = (record.replica, record.worker)
            close(worker, record.at_us)
            variant = None
            if record.tier in ("specialized", "batched"):
                shape = "x".join(map(str, shapes[record.rids[0]]))
                variant = f"{record.tier}_{shape}"
            open_calls[worker] = (variant, record.at_us, not record.charges.instruction_counts)
        elif type(record) is Dispatch:
            close((record.replica, record.worker), record.finish_us)
    return calls


def _first_hit_service_us(run: Run) -> Dict[str, float]:
    """Per variant, the service µs of its first call: the VM's."""
    return {
        f"first_hit_us_{variant}": next(us for us, replayed in calls if not replayed)
        for variant, calls in sorted(_static_calls(run).items())
    }


def _replay_service_p50_us(run: Run) -> Dict[str, float]:
    """Per variant with a replayed call, the median service µs of its
    replays."""
    replays = {
        variant: [us for us, replayed in calls if replayed]
        for variant, calls in sorted(_static_calls(run).items())
    }
    return {
        f"replay_p50_us_{variant}": percentile(service, 50.0)
        for variant, service in replays.items()
        if service
    }


# Every measure a study row may name, and how it is read off a run. A
# measure that reads a dict (``lane_util``) puts each of its keys in the
# row; the rest are cast to float.
MEASURES: Dict[str, Callable[[Run], object]] = {
    **{
        name: attrgetter(f"report.{name}")
        for name in (
            "throughput_rps", "mean_latency_us", "mean_batch_size", "num_batches",
            "span_us", "specialized_hits", "specialized_hit_rate",
            "num_specialized_executables", "batched_hits", "batched_hit_rate",
            "partial_hits", "guard_deopts", "predictive_compiles", "predictive_hits",
            "store_rejects", "admitted", "rejected", "affinity_rate", "gc_pruned",
            "gc_kept_referenced",
        )
    },
    "deterministic": attrgetter("deterministic"),
    "p50_us": lambda run: _latency_percentile_us(run.report, 50.0),
    "p99_us": lambda run: _latency_percentile_us(run.report, 99.0),
    "p50_us_dynamic": lambda run: run.report.tier_latency_percentile_us("dynamic", 50.0),
    "p50_us_specialized": lambda run: run.report.tier_latency_percentile_us(
        "specialized", 50.0
    ),
    "p50_us_batched": lambda run: run.report.tier_latency_percentile_us("batched", 50.0),
    "compile_us": attrgetter("report.specialize_compile_us"),
    "compile_charge_us": attrgetter("report.specialize_compile_us"),
    "compiles": lambda run: len(run.report.specialize_queue_waits_us),
    "evictions": attrgetter("report.specialize_evictions"),
    "mean_queue_wait_us": attrgetter("report.mean_compile_queue_wait_us"),
    "p99_queue_wait_us": lambda run: run.report.compile_queue_wait_percentile_us(99.0),
    "lane_util": lambda run: {
        f"lane{i}_util": util
        for i, util in enumerate(run.report.compile_lane_utilization)
    },
    "batched_batches": lambda run: run.report.tier_profile("batched").runs,
    "batched_shape_func_us": lambda run: run.report.tier_profile(
        "batched"
    ).shape_func_time_us,
    "fresh_compiles": attrgetter("report.specialize_fresh_compiles"),
    "restored": attrgetter("report.specialize_restored"),
    "restore_us": attrgetter("report.specialize_restore_us"),
    "first_specialized_hit_us": lambda run: first_static_finish_us(run.report),
    "partial_shapes_covered": _partial_shapes_covered,
    # A fleet's fresh per-variant compile charge, without the
    # once-per-replica prefix: what compiling each hot shape once costs.
    "suffix_charge_us": lambda run: sum(
        r.specialize_suffix_us for r in run.report.replica_reports
    ),
    "fleet_restores": attrgetter("report.total_fleet_restores"),
    "slo_attainment_steady": lambda run: run.report.tenants["steady"].slo_attainment,
    "slo_attainment_bursty": lambda run: run.report.tenants["bursty"].slo_attainment,
    "first_hit_service_us": _first_hit_service_us,
    "replay_service_p50_us": _replay_service_p50_us,
}


class Variant(NamedTuple):
    """One named run of a study: how its server differs from the
    study's. *store* names the store directory it shares with every
    other variant naming it (``None``: in memory); *kernel_cache* names
    a kernel cache it shares likewise (``None``: its own); *trace*
    replaces the study's trace. A variant that is not *reported* runs
    for the summary only and has no row."""

    name: str
    changes: Mapping[str, object] = {}
    store: Optional[str] = None
    fleet: Optional[FleetConfig] = None
    tenants: Sequence[TenantSpec] = ()
    kernel_cache: Optional[str] = None
    trace: Optional[Trace] = None
    reported: bool = True


class Study(NamedTuple):
    """A serving study as data: model, platform, traffic, base config,
    variants in the order they run, the measures of a row, and the
    summary over the named runs."""

    module: Callable[[], IRModule]
    platform: str
    trace: Trace
    config: ServeConfig
    variants: Tuple[Variant, ...]
    row: Tuple[str, ...]
    summary: Optional[Callable[[Dict[str, Run]], Dict[str, object]]] = None


def _row_of(run: Run, measures: Sequence[str]) -> Dict[str, float]:
    """*run*'s value of each measure, as a float."""
    row: Dict[str, float] = {}
    for name in measures:
        value = MEASURES[name](run)
        row.update(value if isinstance(value, dict) else {name: float(value)})
    return row


def run_study(
    study: Study, artifact_dir: Optional[str] = None, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Run *study*'s variants in order over the trace of *seed*:
    ``{variant: row, ..., "summary": {...}}`` for its reported variants.

    A variant's store is ``<root>/<store>``. The root is a caller's
    *artifact_dir*, used and kept, or else one the study owns, made
    only when a variant names a store and removed on the way out even
    on error — repeated harness runs must not pile up blob directories
    in /tmp.
    """
    if artifact_dir is None and any(v.store is not None for v in study.variants):
        owned = tempfile.mkdtemp(prefix="nimble-study-")
        try:
            return run_study(study, owned, seed)
        finally:
            shutil.rmtree(owned, ignore_errors=True)
    mod, platform = study.module(), platform_by_name(study.platform)
    trace = study.trace(seed=seed)
    caches = {v.kernel_cache: KernelCache() for v in study.variants if v.kernel_cache}
    runs = {
        v.name: run_scenario(
            mod,
            platform,
            trace if v.trace is None else v.trace(seed=seed),
            dataclasses.replace(study.config, **v.changes),
            artifact_dir=None if v.store is None else os.path.join(artifact_dir, v.store),
            fleet=v.fleet,
            tenants=v.tenants,
            kernel_cache=caches.get(v.kernel_cache),
        )
        for v in study.variants
    }
    result = {v.name: _row_of(runs[v.name], study.row) for v in study.variants if v.reported}
    if study.summary is not None:
        result["summary"] = {k: float(x) for k, x in study.summary(runs).items()}
    return result
