"""TensorFlow Fold-style dynamic batching (§2.1, §7).

Fold analyzes each input's structure, groups operations that can execute
together (here: tree nodes at the same height), and emits a batched graph
for the underlying engine. Batching amortizes per-op overhead beautifully
— but the analysis/graph construction re-runs **per input**, which is why
the paper measures Fold 5.2× slower than Nimble on Intel despite being
3.3× faster than eager PyTorch (Table 2).

Here the batched graph is the model's own tree function: per level, its
``Match`` clause for that level's constructor is evaluated once on the
row-stacked fields of the level's nodes. The paper reports Fold on Intel
only, so its cost tables — and ``supports`` — name only that platform.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines import overhead
from repro.baselines.base import Framework, OpExecutor
from repro.evaluator import ADT, evaluate
from repro.ir import IRModule, Match


class FoldFramework(Framework):
    name = "tf_fold"
    models = ("tree_lstm",)
    op_us = overhead.GRAPH_NODE_US
    session_us = overhead.FOLD_COMPILE_PER_INPUT_US
    level_us = overhead.FOLD_LEVEL_US

    def supports(self, model: str) -> bool:
        pname = self.platform.name
        return super().supports(model) and pname in self.session_us and pname in self.level_us

    def _evaluate(self, mod: IRModule, tree, ex: OpExecutor, charge) -> object:
        """Dynamic batching: one evaluation of the tree function per level
        of *tree* (a ``tree_to_adt`` value). A call of the tree function
        on a child, and ``main``'s call on the root, read the rows a lower
        level computed."""
        by_level = mod.shallow_copy()
        by_level["main"] = next(f for f in mod.functions.values() if isinstance(f.body, Match))
        states = {}

        def rows(_, args):
            (nodes,) = args
            return tuple(map(np.concatenate, zip(*(states[id(n)] for n in nodes))))

        for level in _levels(tree):
            ex.ctx.clock.host_advance(self.level_us[self.platform.name])
            value = evaluate(by_level, _stack(level), call=ex.call, answer=rows)
            for row, node in enumerate(level):
                states[id(node)] = tuple(v[row : row + 1] for v in value)
        return evaluate(mod, tree, call=ex.call, answer=lambda _, args: states[id(tree)])


class _Rows(tuple):
    """Subtrees whose states a lower level computed, one row each."""


def _levels(tree) -> List[list]:
    """*tree*'s nodes grouped by height above the leaves, each level in
    post-order (as ``Tree.nodes_by_depth`` groups a dataset tree)."""
    levels: List[list] = []

    def height(node) -> int:
        subtrees = [f for f in node.fields if hasattr(f, "fields")]
        h = 1 + max(map(height, subtrees)) if subtrees else 0
        while len(levels) <= h:
            levels.append([])
        levels[h].append(node)
        return h

    height(tree)
    return levels


def _stack(level: list) -> ADT:
    """The level as one value of its constructor: each tensor field the
    nodes' tensors stacked by row, each subtree field their subtrees."""
    (tag,) = {node.tag for node in level}
    fields = [
        _Rows(column) if hasattr(column[0], "fields") else np.concatenate([f.data for f in column])
        for column in zip(*(node.fields for node in level))
    ]
    return ADT(tag, fields)
