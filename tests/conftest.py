"""Shared fixtures for the test suite."""

import dataclasses
import hashlib

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
