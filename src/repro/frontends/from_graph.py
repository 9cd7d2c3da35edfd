"""Convert a framework-style dataflow graph into a Nimble IR module.

Input: a :class:`Graph` — the define-then-run format of TensorFlow-style
frameworks, with ``OpNode``/``ConstNode``/``WhileLoop`` nodes (the latter
standing in for TensorFlow's Switch/Merge/Enter/Exit/NextIteration
machinery).

Output: an :class:`IRModule` whose ``main`` mirrors the graph; each
``WhileLoop`` becomes a module-level *recursive function* over the loop
variables — Nimble's native encoding of dynamic control flow — with the
loop condition inlined as the recursion guard.

The converter needs input types (frameworks carry placeholder shapes);
dynamic dimensions are declared with ``Any``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CompilerError
from repro.ir import (
    Call,
    Constant,
    Expr,
    Function,
    If,
    IRModule,
    Op,
    ScopeBuilder,
    TensorType,
    Tuple as IRTuple,
    TupleGetItem,
    Type,
    Var,
)
from repro.tensor.ndarray import array as make_array
from repro.utils.naming import NameSupply


# --------------------------------------------------------------------------
# Graph structure
# --------------------------------------------------------------------------


@dataclass
class OpNode:
    """A plain kernel node: op name + attrs, inputs by value index."""

    op_name: str
    input_ids: List[int]
    attrs: dict = field(default_factory=dict)
    output_id: int = -1


@dataclass
class ConstNode:
    value: np.ndarray
    output_id: int = -1


@dataclass
class WhileLoop:
    """A TF-style while loop: condition + body sub-graphs over loop vars."""

    loop_var_ids: List[int]  # value ids of the loop variables (inputs)
    cond: "Graph"
    body: "Graph"
    output_ids: List[int] = field(default_factory=list)


@dataclass
class Graph:
    """A straight-line dataflow graph (loops nest via WhileLoop nodes)."""

    num_inputs: int
    nodes: List[object] = field(default_factory=list)
    num_values: int = 0
    output_ids: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.num_values = self.num_inputs

    def new_value(self) -> int:
        vid = self.num_values
        self.num_values += 1
        return vid

    def add_op(self, op_name: str, input_ids: List[int], attrs: Optional[dict] = None) -> int:
        node = OpNode(op_name, list(input_ids), attrs or {})
        node.output_id = self.new_value()
        self.nodes.append(node)
        return node.output_id

    def add_const(self, value: np.ndarray) -> int:
        node = ConstNode(np.asarray(value))
        node.output_id = self.new_value()
        self.nodes.append(node)
        return node.output_id

    def add_while(self, loop_var_ids: List[int], cond: "Graph", body: "Graph") -> List[int]:
        loop = WhileLoop(list(loop_var_ids), cond, body)
        loop.output_ids = [self.new_value() for _ in loop_var_ids]
        self.nodes.append(loop)
        return loop.output_ids


# --------------------------------------------------------------------------
# Conversion
# --------------------------------------------------------------------------


def from_graph(
    graph: Graph,
    input_types: Sequence[Type],
    mod: IRModule = None,
    name: str = "main",
    _names: NameSupply = None,
) -> IRModule:
    """Convert *graph* (with the given placeholder types) to an IRModule."""
    mod = mod if mod is not None else IRModule()
    names = _names or NameSupply()
    if len(input_types) != graph.num_inputs:
        raise CompilerError(
            f"graph has {graph.num_inputs} inputs, got {len(input_types)} types"
        )

    from repro.core.typing import infer_expr_type

    params = [Var(names.fresh("in"), ty) for ty in input_types]
    sb = ScopeBuilder(names)
    values: Dict[int, Expr] = {i: p for i, p in enumerate(params)}

    for node in graph.nodes:
        if isinstance(node, ConstNode):
            values[node.output_id] = Constant(make_array(node.value))
        elif isinstance(node, OpNode):
            call = Call(
                Op.get(node.op_name),
                [values[i] for i in node.input_ids],
                dict(node.attrs),
            )
            # Types are needed eagerly: a WhileLoop's state signature is
            # derived from the types of the expressions feeding it.
            ty = infer_expr_type(call, mod)
            var = sb.let(node.op_name.split(".")[-1], call)
            var.checked_type = ty
            values[node.output_id] = var
        elif isinstance(node, WhileLoop):
            results = _convert_while(node, values, mod, sb, names)
            for vid, expr in zip(node.output_ids, results):
                values[vid] = expr
        else:  # pragma: no cover - exhaustive
            raise CompilerError(f"cannot convert graph node {type(node).__name__}")

    if len(graph.output_ids) == 1:
        body = sb.get(values[graph.output_ids[0]])
    else:
        body = sb.get(IRTuple([values[i] for i in graph.output_ids]))
    mod[name] = Function(params, body)
    return mod


def _convert_while(
    loop: WhileLoop,
    values: Dict[int, Expr],
    mod: IRModule,
    sb: ScopeBuilder,
    names: NameSupply,
) -> List[Expr]:
    """One WhileLoop → a recursive global function over the loop state."""
    from repro.core.typing import infer_expr_type
    from repro.ir.types import TupleType

    state_exprs = [values[i] for i in loop.loop_var_ids]
    state_types: List[Type] = []
    for expr in state_exprs:
        ty = expr.checked_type
        if ty is None:
            ty = infer_expr_type(expr, mod)
        state_types.append(ty)

    gv = mod.get_global_var(names.fresh("while_loop"))
    loop_params = [Var(names.fresh("s"), ty) for ty in state_types]

    # Condition sub-module: inline its dataflow over the loop params.
    cond_expr, cond_sb = _inline_subgraph(loop.cond, loop_params, names)
    body_exprs, body_sb = _inline_subgraph_multi(loop.body, loop_params, names)

    ret_ty = TupleType(state_types)
    recurse = body_sb.get(Call(gv, body_exprs))
    loop_body = cond_sb.get(
        If(cond_expr, recurse, IRTuple(list(loop_params)))
    )
    mod[gv] = Function(loop_params, loop_body, ret_ty)

    result = sb.let("loop_out", Call(gv, state_exprs))
    return [sb.let(f"lv{i}", TupleGetItem(result, i)) for i in range(len(state_exprs))]


def _inline_subgraph(graph: Graph, params: Sequence[Var], names: NameSupply):
    """Inline a single-output subgraph over *params*; returns (atom, builder)."""
    exprs, sb = _inline_subgraph_multi(graph, params, names)
    return exprs[0], sb


def _inline_subgraph_multi(graph: Graph, params: Sequence[Var], names: NameSupply):
    if graph.num_inputs != len(params):
        raise CompilerError("subgraph arity mismatch during conversion")
    sb = ScopeBuilder(names)
    values: Dict[int, Expr] = {i: p for i, p in enumerate(params)}
    for node in graph.nodes:
        if isinstance(node, ConstNode):
            values[node.output_id] = Constant(make_array(node.value))
        elif isinstance(node, OpNode):
            call = Call(
                Op.get(node.op_name),
                [values[i] for i in node.input_ids],
                dict(node.attrs),
            )
            values[node.output_id] = sb.let(node.op_name.split(".")[-1], call)
        elif isinstance(node, WhileLoop):
            raise CompilerError("nested while loops are not supported by the converter")
        else:  # pragma: no cover
            raise CompilerError(f"cannot convert {type(node).__name__}")
    return [values[i] for i in graph.output_ids], sb
