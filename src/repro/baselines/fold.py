"""TensorFlow Fold-style dynamic batching (§2.1, §7).

Fold analyzes each input's structure, groups operations that can execute
together (here: tree nodes at the same height), and emits a batched graph
for the underlying engine. Batching amortizes per-op overhead beautifully
— but the analysis/graph construction re-runs **per input**, which is why
the paper measures Fold 5.2× slower than Nimble on Intel despite being
3.3× faster than eager PyTorch (Table 2). Fold did not build on ARM in
the paper; `supports` reflects that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines import overhead
from repro.baselines.base import BaselineResult, Framework, OpExecutor
from repro.data.trees import Tree
from repro.models.tree_lstm import TreeLSTMWeights


class FoldFramework(Framework):
    name = "tf_fold"
    op_us = overhead.GRAPH_NODE_US

    def supports(self, model: str) -> bool:
        if self.platform.name == "arm":
            return False  # "TensorFlow Fold was not built successfully on ARM"
        return model == "tree_lstm"

    def run_tree_lstm(
        self, trees: List[Tree], embeddings: np.ndarray, weights: TreeLSTMWeights
    ) -> BaselineResult:
        ctx = self.make_context()
        ex = self._executor(ctx)
        compile_us = overhead.FOLD_COMPILE_PER_INPUT_US[self.platform.name]
        level_us = overhead.FOLD_LEVEL_US[self.platform.name]
        outputs = []
        for tree in trees:
            # Per-input structural analysis + graph construction + handoff.
            ctx.clock.host_advance(compile_us)
            h, _ = self._run_batched(ex, tree, embeddings, weights, level_us)
            outputs.append(h)
        return BaselineResult(self.name, self.platform.name, ctx.elapsed_us, outputs)

    def _run_batched(
        self,
        ex: OpExecutor,
        tree: Tree,
        embeddings: np.ndarray,
        weights: TreeLSTMWeights,
        level_us: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dynamic batching: one batched cell evaluation per tree level."""
        levels = tree.nodes_by_depth()
        states: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        clock = ex.ctx.clock

        # Level 0: all leaves in one batch.
        leaves = levels[0]
        clock.host_advance(level_us)
        x = np.concatenate(
            [embeddings[n.token_id : n.token_id + 1] for n in leaves], axis=0
        ).astype(np.float32)
        pre = ex.bias_add(ex.dense(x, weights.w_leaf), weights.b_leaf)
        i, o, u = ex.split(pre, 3, axis=1)
        c = ex.multiply(ex.sigmoid(i), ex.tanh(u))
        h = ex.multiply(ex.sigmoid(o), ex.tanh(c))
        for row, node in enumerate(leaves):
            states[id(node)] = (h[row : row + 1], c[row : row + 1])

        # Internal levels: batch every node whose children are ready.
        for level in levels[1:]:
            if not level:
                continue
            clock.host_advance(level_us)
            hl = np.concatenate([states[id(n.left)][0] for n in level], axis=0)
            cl = np.concatenate([states[id(n.left)][1] for n in level], axis=0)
            hr = np.concatenate([states[id(n.right)][0] for n in level], axis=0)
            cr = np.concatenate([states[id(n.right)][1] for n in level], axis=0)
            hsum = ex.add(hl, hr)
            pre = ex.bias_add(ex.dense(hsum, weights.u_iou), weights.b_iou)
            i, o, u = ex.split(pre, 3, axis=1)
            fl = ex.sigmoid(ex.bias_add(ex.dense(hl, weights.u_f), weights.b_f))
            fr = ex.sigmoid(ex.bias_add(ex.dense(hr, weights.u_f), weights.b_f))
            c = ex.add(
                ex.multiply(ex.sigmoid(i), ex.tanh(u)),
                ex.add(ex.multiply(fl, cl), ex.multiply(fr, cr)),
            )
            h = ex.multiply(ex.sigmoid(o), ex.tanh(c))
            for row, node in enumerate(level):
                states[id(node)] = (
                    np.asarray(h)[row : row + 1],
                    np.asarray(c)[row : row + 1],
                )
        return states[id(tree)]
