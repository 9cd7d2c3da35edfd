"""Baseline deep-learning frameworks (§6.1's comparison systems).

Each baseline reproduces the *mechanism* the paper identifies as its
overhead source, executing the same numerics on the same hardware model.
Eager, hybrid and TensorFlow's BERT run the model's own IR module through
:mod:`repro.evaluator`; only the cost of each construct is theirs:

* :class:`EagerFramework` (PyTorch-style, define-by-run): per-operator
  Python dispatch, no fusion, vendor-library kernels; dynamic data
  structures traversed in host Python;
* :class:`GraphFramework` (TensorFlow-style, define-then-run): a dataflow
  graph executor with Switch/Merge/Enter/Exit/NextIteration control-flow
  primitives and per-node scheduling cost;
* :class:`HybridFramework` (MXNet-style): symbolic graph with a `foreach`
  loop operator, engine dispatch per op;
* :class:`FoldFramework` (TensorFlow Fold): dynamic batching by tree
  depth, paying per-input graph construction/compilation.
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
