"""Benchmark configuration: each benchmark regenerates one paper artifact.

The measured quantity (pytest-benchmark) is the wall time of the whole
simulation; the *reported science* is the virtual-microsecond tables each
benchmark prints, which mirror the paper's Tables 1–4 / Figure 3 / §6.3.

Every study result is also a row of ``BENCH_modeled.json``: the virtual
clock makes each study a pure function, so the checked-in file is the
trajectory of every modeled number and a session fails when a result
differs from it. ``--record-modeled`` rewrites the file instead. One row
is derived, not run: ``paper_fidelity`` (``repro.harness.paper``), the
distance of Tables 1–4 and the §6.3 allocation reduction from the paper,
recomputed whenever a session runs one of the studies it reads.
"""

import json
import math
from pathlib import Path

import pytest

from repro.harness.paper import SOURCES, paper_fidelity

MODELED_PATH = Path(__file__).with_name("BENCH_modeled.json")
# Another box may link another libm (`math.log2` in the schedule cost
# model, `0.5 ** x` in the hotness score): floats compare at this
# relative tolerance, everything else exactly.
FLOAT_REL_TOL = 1e-9


def pytest_configure(config):
    config.addinivalue_line("markers", "paper: regenerates a paper table/figure")


def pytest_addoption(parser):
    parser.addoption(
        "--record-modeled",
        action="store_true",
        help="rewrite benchmarks/BENCH_modeled.json from this session's "
        "study results instead of comparing against it",
    )


def _differences(expected, actual, path=""):
    """Paths at which two JSON values differ (floats at FLOAT_REL_TOL)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = [
            f"{path}/{key}: only in the {'file' if key in expected else 'run'}"
            for key in sorted(expected.keys() ^ actual.keys())
        ]
        for key in sorted(expected.keys() & actual.keys()):
            out += _differences(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        same = math.isclose(expected, actual, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{path}: file {expected!r}, run {actual!r}"]


@pytest.fixture(scope="session")
def _modeled_session(request):
    """The session's study results by name; checked (or written) once
    the last benchmark is done."""
    recorded = {}
    yield recorded
    # What the file holds is what JSON holds: int keys become strings.
    recorded = json.loads(json.dumps(recorded))
    whole_directory = {p.name for p in MODELED_PATH.parent.glob("bench_*.py")} <= {
        item.path.name for item in request.session.items
    }
    on_file = json.loads(MODELED_PATH.read_text()) if MODELED_PATH.exists() else {}
    current = {**on_file, **recorded}
    if any(name in recorded for name in SOURCES) and all(name in current for name in SOURCES):
        recorded["paper_fidelity"] = paper_fidelity(current)
    if request.config.getoption("--record-modeled"):
        # A one-file run refreshes its own studies and keeps the rest.
        merged = recorded if whole_directory else {**on_file, **recorded}
        MODELED_PATH.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        return
    problems = []
    for name, result in sorted(recorded.items()):
        if name in on_file:
            problems += _differences(on_file[name], result, name)
        else:
            problems.append(f"{name}: recorded by this run, not in the file")
    if whole_directory:
        problems += [
            f"{name}: in the file, recorded by no benchmark"
            for name in sorted(on_file.keys() - recorded.keys())
        ]
    if problems:
        pytest.fail(
            f"{MODELED_PATH.name} differs from this run (re-record with "
            "--record-modeled if the change is meant):\n  " + "\n  ".join(problems),
            pytrace=False,
        )


@pytest.fixture
def modeled(benchmark, _modeled_session):
    """``modeled(name, study)``: run *study* once under pytest-benchmark,
    remember its result as the *name* row of BENCH_modeled.json, return it."""

    def run(name, study):
        result = benchmark.pedantic(study, rounds=1, iterations=1)
        _modeled_session[name] = result
        return result

    return run
