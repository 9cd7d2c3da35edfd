"""Baseline deep-learning frameworks (§6.1's comparison systems).

Each baseline reproduces the *mechanism* the paper identifies as its
overhead source, executing the same numerics on the same hardware model.
Every one runs the model's own IR module through :mod:`repro.evaluator`
— no baseline holds a copy of a model; only the cost of each construct
is theirs, as class data from :mod:`repro.baselines.overhead`:

* :class:`EagerFramework` (PyTorch-style, define-by-run): per-operator
  Python dispatch, no fusion, vendor-library kernels; dynamic data
  structures traversed in host Python (a charge per ``Match``);
* :class:`GraphFramework` (TensorFlow-style, define-then-run): per-op
  graph scheduling, and Switch/Merge/Enter/Exit/NextIteration/LoopCond
  control-flow primitives per loop variable on each ``If`` of the
  model's recursive loop;
* :class:`HybridFramework` (MXNet-style): symbolic graph with a `foreach`
  loop operator, engine dispatch per op;
* :class:`FoldFramework` (TensorFlow Fold): dynamic batching by tree
  height — the tree function's clause evaluated once per level on
  stacked rows — paying per-input graph construction/compilation.
"""

from repro.baselines.base import BaselineResult, OpExecutor
from repro.baselines.eager import EagerFramework
from repro.baselines.graph_framework import GraphFramework
from repro.baselines.hybrid import HybridFramework
from repro.baselines.fold import FoldFramework

__all__ = [
    "BaselineResult",
    "OpExecutor",
    "EagerFramework",
    "GraphFramework",
    "HybridFramework",
    "FoldFramework",
]
