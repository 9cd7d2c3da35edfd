"""TensorFlow-style dataflow-graph framework with control-flow primitives.

Dynamic control flow in a define-then-run graph requires the
Switch/Merge/Enter/Exit/NextIteration machinery of Yu et al. (EuroSys'18,
§2.1/§7): every loop variable passes through a primitive chain on every
iteration, and each primitive is a scheduled graph node — the overhead
the paper blames for TF's LSTM latency (Table 1). The framework runs the
model's IR module through the evaluator with per-op scheduling and a
session charge per input. The recursive function the model's loop
compiles to is the while loop: an ``If`` that takes its body is one
iteration, paying Merge, Switch and NextIteration per loop variable plus
one LoopCond; the ``If`` that does not is the loop's Enter and Exit per
variable. The loop variables are the guarded function's parameters.
"""

from __future__ import annotations

from repro.baselines import overhead
from repro.baselines.base import Framework
from repro.ir import If


class GraphFramework(Framework):
    name = "tensorflow"
    models = ("lstm", "bert")
    op_us = overhead.GRAPH_NODE_US
    session_us = overhead.SESSION_RUN_US
    construct_us = {If: overhead.CONTROL_PRIMITIVE_US}
    loop_variable_primitives = (3, 2)
