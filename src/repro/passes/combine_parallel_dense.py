"""Combine parallel dense layers into one GEMM (Relay's
``CombineParallelDense`` in its concatenate-then-split mode).

Two or more ``bias_add(nn.dense(x, Wᵢ), bᵢ)`` of one let-chain that read
the same ``x`` become one dense over the row-stacked weights, one
``bias_add`` over the stacked biases and a ``split`` whose projections
rebind the old variables — BERT's Q, K and V projections::

    let %d = nn.dense(%x, [Wq; Wk; Wv], sections=(n, 2n))
    let %b = nn.bias_add(%d, [bq; bk; bv])
    let %s = split(%b, 3, axis=-1)
    let %q = %s.0  let %k = %s.1  let %v = %s.2

A branch qualifies when its weight (2-D) and bias (1-D, one entry per
weight row) are constants of one dtype, its dense carries no attributes,
and the dense is read only by its ``bias_add``, on the last axis. Branches
combine when they share ``x``, the reduction dim and the dtype. The
rewrite sits where the first branch's dense was: it reads only ``x`` and
constants, and every projection it binds is read after that point.

``sections`` makes the stacked dense compute each branch's rows as its own
GEMM (``repro.ops.nn``), so outputs stay bitwise those of the separate
layers while the cost model prices one GEMM. The pass reads constants,
never ``checked_type``. ``repro.nimble`` runs it only on platforms with
one device queue: on a GPU the stream scheduler overlaps the sibling
kernels instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple as PyTuple

import numpy as np

from repro.ir.analysis import iter_nodes
from repro.ir.expr import Call, Constant, Expr, Let, TupleGetItem, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.visitor import ExprMutator
from repro.passes.pass_manager import Pass
from repro.tensor.ndarray import NDArray

Binding = PyTuple[Var, Expr]


def _op_call(value: Expr, name: str) -> bool:
    return isinstance(value, Call) and isinstance(value.op, Op) and value.op.name == name


class _Combiner(ExprMutator):
    def visit_let(self, let: Let) -> Expr:
        lets: List[Let] = []
        node: Expr = let
        while isinstance(node, Let):
            lets.append(node)
            node = node.body
        bindings = [(n.var, self.visit(n.value)) for n in lets]
        tail = self.visit(node)
        combined = self._combine(bindings, tail)
        if combined is bindings and tail is node and all(
                value is n.value for (_, value), n in zip(bindings, lets)):
            return let
        out = tail
        for var, value in reversed(combined):
            out = Let(var, value, out)
        return out

    def _combine(self, bindings: List[Binding], tail: Expr) -> List[Binding]:
        """The chain with every group of parallel branches rewritten."""
        readers: Dict[Var, List[int]] = {}
        for i, root in enumerate([v for _, v in bindings] + [tail]):
            for sub in iter_nodes(root):
                if isinstance(sub, Var):
                    readers.setdefault(sub, []).append(i)
        # (x, reduction dim, dtype) -> the (dense, bias_add) indices of its branches
        groups: Dict[tuple, List[PyTuple[int, int]]] = {}
        for i, (var, value) in enumerate(bindings):
            users = readers.get(var, [])
            if len(users) != 1 or users[0] == len(bindings):
                continue
            j = users[0]
            if _branch(value, bindings[j][1], var):
                x, weight = value.args  # type: ignore[union-attr]
                key = (x, weight.data.shape[1], weight.data.dtype)
                groups.setdefault(key, []).append((i, j))
        rewrites: Dict[int, List[Binding]] = {}
        dropped = set()
        for branches in groups.values():
            if len(branches) < 2:
                continue
            rewrites[branches[0][0]] = _stacked(bindings, branches)
            dropped.update(k for pair in branches for k in pair)
        if not rewrites:
            return bindings
        out: List[Binding] = []
        for i, binding in enumerate(bindings):
            out.extend(rewrites.get(i, ()))
            if i not in dropped:
                out.append(binding)
        return out


def _branch(dense: Expr, bias_add: Expr, dense_var: Var) -> bool:
    """Is ``bias_add(dense)`` one branch: constant weight and bias of one
    dtype, the dense's only reader the bias_add's data, on the last axis?"""
    if not (_op_call(dense, "nn.dense") and _op_call(bias_add, "nn.bias_add")):
        return False
    x, weight = dense.args  # type: ignore[union-attr]
    data, bias = bias_add.args  # type: ignore[union-attr]
    return (
        isinstance(x, Var) and not dense.attrs  # type: ignore[union-attr]
        and isinstance(weight, Constant) and weight.data.ndim == 2
        and data is dense_var and bias_add.attrs.get("axis", -1) == -1  # type: ignore[union-attr]
        and isinstance(bias, Constant) and bias.data.shape == weight.data.shape[:1]
        and bias.data.dtype == weight.data.dtype
    )


def _stacked(bindings: List[Binding], branches: List[PyTuple[int, int]]) -> List[Binding]:
    """The bindings of one combined group: the stacked dense, its bias_add,
    the split and one projection per old ``bias_add`` variable."""
    weights = [bindings[i][1].args[1].data for i, _ in branches]  # type: ignore[union-attr]
    biases = [bindings[j][1].args[1].data for _, j in branches]  # type: ignore[union-attr]
    rows = [w.shape[0] for w in weights]
    cuts = tuple(int(c) for c in np.cumsum(rows[:-1]))
    x = bindings[branches[0][0]][1].args[0]  # type: ignore[union-attr]
    dense = Call(Op.get("nn.dense"), [x, Constant(NDArray(np.concatenate(weights)))],
                 {"sections": cuts})
    d, b, s = Var("dense_stacked"), Var("bias_stacked"), Var("split_stacked")
    bias_add = Call(Op.get("nn.bias_add"), [d, Constant(NDArray(np.concatenate(biases)))],
                    {"axis": -1})
    sections = len(rows) if len(set(rows)) == 1 else cuts
    split = Call(Op.get("split"), [b], {"indices_or_sections": sections, "axis": -1})
    return [(d, dense), (b, bias_add), (s, split)] + [
        (bindings[j][0], TupleGetItem(s, k)) for k, (_, j) in enumerate(branches)
    ]


class CombineParallelDense(Pass):
    name = "CombineParallelDense"
    reads_types = False

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            out.functions[gv] = _Combiner().visit(func)
        return out
