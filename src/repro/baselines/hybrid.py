"""MXNet-style hybrid symbolic framework.

A define-then-run engine with explicit loop operators (``foreach`` /
``while_loop``, §2.1). It runs the model's IR module through the
evaluator with per-op engine dispatch, a session charge per input, and
one ``foreach`` iteration's scheduling per ``If`` that takes its body.
Cannot express per-input data structures, so Tree-LSTM is unsupported —
matching the paper's availability matrix. ARM performance suffers from
weak BLAS coverage (the library profile), which is where Nimble's 20.3×
Table 1 speedup comes from.
"""

from __future__ import annotations

from repro.baselines import overhead
from repro.baselines.base import Framework
from repro.ir import If


class HybridFramework(Framework):
    name = "mxnet"
    models = ("lstm", "bert")
    op_us = overhead.HYBRID_OP_US
    session_us = overhead.SESSION_RUN_US
    construct_us = {If: overhead.HYBRID_LOOP_ITER_US}
