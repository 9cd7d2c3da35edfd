"""Dynamic data structures: Tree-LSTM sentiment evaluation over a treebank.

Each input is a *different* binary parse tree — a per-input model topology
that static graph compilers cannot express. Nimble represents the tree as
an algebraic data type, evaluation as a recursive `match`, and the VM
executes it with GetTag/GetField + recursion (§5). This example runs an
SST-like treebank through the compiled model and compares against the
eager NumPy reference, then shows the latency gap against a PyTorch-style
eager framework (Table 2's experiment in miniature).

Run:  python examples/sentiment_treebank.py
"""

import numpy as np

import repro.nimble as nimble
from repro.baselines import EagerFramework
from repro.data import embedding_table, sst_like_trees
from repro.hardware import intel_cpu
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_lstm_reference,
    tree_to_adt,
)
from repro.runtime.context import ExecutionContext
from repro.vm.interpreter import VirtualMachine


def main():
    platform = intel_cpu()
    weights = TreeLSTMWeights.create(input_size=300, hidden_size=150, seed=0)
    embeddings = embedding_table(vocab_size=8192, dim=300, seed=1)
    trees = sst_like_trees(8, seed=2)

    mod = build_tree_lstm_module(weights)
    exe, _ = nimble.build(mod, platform)
    ctx = ExecutionContext(platform)
    vm = VirtualMachine(exe, ctx)

    print("tree    leaves  depth   root-h[0]   matches-ref")
    total_tokens = 0
    for i, tree in enumerate(trees):
        out = vm.run(tree_to_adt(tree, embeddings))
        ref_h, _ = tree_lstm_reference(tree, embeddings, weights)
        ok = np.allclose(out.numpy(), ref_h, atol=1e-4)
        print(f"{i:4d}  {tree.num_leaves():7d} {tree.depth():6d} "
              f"{out.numpy()[0, 0]:11.5f}   {ok}")
        total_tokens += tree.num_leaves()

    nimble_us = ctx.elapsed_us / total_tokens
    eager = EagerFramework(platform).run(mod, [tree_to_adt(t, embeddings) for t in trees])
    eager_us = eager.total_us / total_tokens
    print(f"\nNimble : {nimble_us:8.1f} us/token")
    print(f"PyTorch-style eager: {eager_us:8.1f} us/token "
          f"({eager_us / nimble_us:.1f}x slower — Python recursion "
          f"builds the graph per node)")


if __name__ == "__main__":
    main()
