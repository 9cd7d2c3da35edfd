"""PyTorch-style eager (define-by-run) framework.

Every operator is dispatched from host Python as it executes: flexible,
but "eagerly executing each computation in isolation ... substantially
limits optimization, i.e. no operator fusion" (§2.1). It runs the
model's IR module through the evaluator, one framework op per op call.
Dynamic data structures are traversed in Python, which is why Tree-LSTM
is so expensive here (Table 2): each ``Match`` on a tree node pays
Python recursion + tensor bookkeeping on top of its tiny kernels.
"""

from __future__ import annotations

from repro.baselines import overhead
from repro.baselines.base import Framework
from repro.ir import Match


class EagerFramework(Framework):
    name = "pytorch"
    models = ("lstm", "tree_lstm", "bert")
    op_us = overhead.EAGER_OP_US
    construct_us = {Match: overhead.EAGER_TREE_NODE_US}
