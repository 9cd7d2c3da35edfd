"""Shared fixtures for the test suite."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.hardware import arm_cpu, intel_cpu, nvidia_gpu


@pytest.fixture
def rng():
    return np.random.RandomState(0)


@pytest.fixture(params=["intel", "nvidia", "arm"])
def any_platform(request):
    return {"intel": intel_cpu, "nvidia": nvidia_gpu, "arm": arm_cpu}[request.param]()


@pytest.fixture
def intel():
    return intel_cpu()


@pytest.fixture
def nvidia():
    return nvidia_gpu()


@pytest.fixture
def arm():
    return arm_cpu()


def _frozen(value):
    """A report value as a literal a source file can hold exactly:
    floats as ``float.hex``, mappings and dataclasses as sorted pairs."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _frozen(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value):
        return _frozen(
            {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        )
    return value


def _pinned(counters):
    """``counters()`` key for key, each value frozen; a value whose
    literal runs past 200 characters (responses, tier profiles, tenant
    latencies) is pinned by the digest of that literal instead."""
    out = {}
    for key, value in counters.items():
        if key == "replicas":
            out[key] = tuple(_pinned(replica) for replica in value)
            continue
        literal = _frozen(value)
        text = repr(literal)
        if len(text) > 200:
            literal = "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]
        out[key] = literal
    return out


@pytest.fixture
def pinned():
    """The form whole-simulation ``counters()`` are recorded in (see
    ``TestRefereeCounters`` in test_serve.py and test_fleet.py)."""
    return _pinned


def _vm_run_findings(report):
    """The `VMRun` law of one replica's report, as findings (empty when
    it holds): every dispatched rid is in exactly one `VMRun`, on its
    `Dispatch`'s worker and under its response's tier; a batched run
    carries its `Dispatch`'s full rids, any other run one rid; and the
    report's profile counts one run per `VMRun`."""
    from repro.serve.events import Dispatch, VMRun, records_of

    runs = records_of(report.records, VMRun, report.replica)
    owner = {
        rid: d
        for d in records_of(report.records, Dispatch, report.replica)
        for rid in d.rids
    }
    tier = {r.rid: r.tier for r in report.responses}
    findings = []
    calls = Counter(rid for run in runs for rid in run.rids)
    for run in runs:
        for rid in run.rids:
            if rid not in owner:
                findings.append(f"rid {rid} ran without a Dispatch")
                continue
            if run.worker != owner[rid].worker:
                findings.append(f"rid {rid} ran off its Dispatch's worker")
            if run.tier != tier[rid]:
                findings.append(f"rid {rid} ran {run.tier}, responded {tier[rid]}")
        if run.tier == "batched":
            if run.rids[0] in owner and owner[run.rids[0]].rids != run.rids:
                findings.append(f"batched run {run.rids} is not its bucket")
        elif len(run.rids) != 1:
            findings.append(f"{run.tier} run {run.rids} is not one member")
    for rid in owner:
        if calls[rid] != 1:
            findings.append(f"rid {rid} is in {calls[rid]} VMRuns")
    if report.profile.runs != len(runs):
        findings.append(f"profile counts {report.profile.runs} runs of {len(runs)}")
    return findings


@pytest.fixture(scope="session")
def vm_run_law():
    """`_vm_run_findings`, for tests (session-scoped, so Hypothesis
    tests can take it)."""
    return _vm_run_findings
