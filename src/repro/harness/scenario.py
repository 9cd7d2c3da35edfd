"""The scenario runner under the serving studies.

A serving study is a trace, a :class:`~repro.serve.ServeConfig` and a
few variants of how the server (or fleet) in front of them is built.
Everything those studies repeat lives here once: the run step — build
fresh, simulate, replay, compare — with its one definition of
"deterministic", the measures derived from a report, and the scratch
artifact store.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.kernels import KernelCache
from repro.fleet import FleetConfig, FleetReport, FleetRouter, TenantSpec
from repro.hardware import Platform
from repro.ir import IRModule
from repro.serve import InferenceServer, Request, ServeConfig, ServeReport

Report = Union[ServeReport, FleetReport]


class Run(NamedTuple):
    """What one run step produced: the first simulation's report and
    whether the replay on the same server reproduced it."""

    report: Report
    deterministic: bool


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
    return Run(report, same_simulation(report, server.simulate(trace)))


@contextmanager
def scratch_store(artifact_dir: Optional[str] = None) -> Iterator[str]:
    """The store directory a study runs against. A caller-given one is
    used and kept; otherwise the study owns a temporary one, removed on
    the way out even on error — repeated harness runs must not pile up
    blob directories in /tmp."""
    if artifact_dir is not None:
        yield artifact_dir
        return
    owned = tempfile.mkdtemp(prefix="nimble-study-")
    try:
        yield owned
    finally:
        shutil.rmtree(owned, ignore_errors=True)


def cold_then_warm(
    mod: IRModule,
    platform: Platform,
    trace: Sequence[Request],
    config: ServeConfig,
    artifact_dir: Optional[str] = None,
) -> Tuple[Run, Run]:
    """A process restart: two brand-new servers, one after the other,
    over one store — the second starts over whatever the first left."""
    with scratch_store(artifact_dir) as store:
        cold = run_scenario(mod, platform, trace, config, artifact_dir=store)
        warm = run_scenario(mod, platform, trace, config, artifact_dir=store)
    return cold, warm


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
