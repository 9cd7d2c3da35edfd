"""The paper's published numbers and how far the modeled ones are from them.

Tables 1–4 of the evaluation (µs/token and ms, keyed like the study rows
of ``benchmarks/BENCH_modeled.json``) and the §6.3 allocation reduction.
The benchmarks print each table beside its study; :func:`paper_fidelity`
turns the pair into a recorded number: the log ratio
``ln(modeled / paper)`` of every published cell, and the geometric-mean
error ``exp(mean |ln ratio|)`` per table, over every cell, and over the
Nimble and Table 4 cells (the numbers of the compiler and VM themselves).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

TABLE1_LSTM = {
    1: {
        "intel": {"nimble": 47.8, "pytorch": 79.3, "mxnet": 212.9, "tensorflow": 301.4},
        "nvidia": {"nimble": 93.0, "pytorch": 110.3, "mxnet": 135.7, "tensorflow": 304.7},
        "arm": {"nimble": 182.2, "pytorch": 1729.5, "mxnet": 3695.9, "tensorflow": 978.3},
    },
    2: {
        "intel": {"nimble": 97.2, "pytorch": 158.1, "mxnet": 401.7, "tensorflow": 687.3},
        "nvidia": {"nimble": 150.9, "pytorch": 214.6, "mxnet": 223.8, "tensorflow": 406.9},
        "arm": {"nimble": 686.4, "pytorch": 3378.1, "mxnet": 7768.0, "tensorflow": 2192.8},
    },
}

TABLE2_TREE_LSTM = {
    "intel": {"nimble": 40.3, "pytorch": 701.6, "tf_fold": 209.9},
    "arm": {"nimble": 86.3, "pytorch": 1717.1, "tf_fold": None},  # Fold has no ARM build
}

TABLE3_BERT = {
    "intel": {"nimble": 307.0, "pytorch": 479.5, "mxnet": 455.8, "tensorflow": 768.7},
    "nvidia": {"nimble": 95.2, "pytorch": 220.4, "mxnet": 152.9, "tensorflow": 125.2},
    "arm": {"nimble": 2862.6, "pytorch": 11851.2, "mxnet": 8628.0, "tensorflow": 2995.4},
}

TABLE4_OVERHEAD = {
    "intel": {"tvm_ms": 19.38, "nimble_ms": 24.32, "kernel_ms": 21.06, "others_ms": 3.26},
    "arm": {"tvm_ms": 223.50, "nimble_ms": 237.41, "kernel_ms": 228.59, "others_ms": 8.82},
    "nvidia": {"tvm_ms": 5.58, "nimble_ms": 5.86, "kernel_ms": 5.60, "others_ms": 0.26},
}

# §6.3: memory planning removes 47% of BERT's buffer allocations.
ALLOC_REDUCTION = 0.47

TABLES = {
    "table1_lstm": TABLE1_LSTM,
    "table2_tree_lstm": TABLE2_TREE_LSTM,
    "table3_bert": TABLE3_BERT,
    "table4_overhead": TABLE4_OVERHEAD,
}

# The study rows paper_fidelity reads.
SOURCES = tuple(TABLES) + ("memory_planning_study",)


def _cells(paper: dict, modeled: dict, path: str) -> Iterator[Tuple[str, float, float]]:
    """(path, paper value, modeled value) of every published cell. The
    modeled rows are JSON-shaped: integer keys are strings."""
    for key, value in paper.items():
        here = f"{path}/{key}"
        if isinstance(value, dict):
            yield from _cells(value, modeled[str(key)], here)
        elif value is not None:
            yield here, value, modeled[str(key)]


def _error(log_ratios) -> float:
    return math.exp(sum(abs(r) for r in log_ratios) / len(log_ratios))


def paper_fidelity(results: Dict[str, dict]) -> dict:
    """The ``paper_fidelity`` row of ``BENCH_modeled.json`` from the
    study rows in *results* (JSON-shaped, as the file holds them)."""
    cells = {
        path: math.log(modeled / paper)
        for study, table in TABLES.items()
        for path, paper, modeled in _cells(table, results[study], study)
    }
    own = [r for path, r in cells.items()
           if path.endswith("/nimble") or path.startswith("table4_overhead/")]
    return {
        "cells": cells,
        "tables": {
            study: _error([r for path, r in cells.items() if path.startswith(study + "/")])
            for study in TABLES
        },
        "overall": _error(list(cells.values())),
        "nimble_and_table4": _error(own),
        "alloc_reduction": math.log(
            results["memory_planning_study"]["alloc_reduction"] / ALLOC_REDUCTION
        ),
    }
