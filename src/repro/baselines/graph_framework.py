"""TensorFlow-style dataflow-graph framework with control-flow primitives.

Dynamic control flow in a define-then-run graph requires the
Switch/Merge/Enter/Exit/NextIteration machinery of Yu et al. (EuroSys'18,
§2.1/§7): every loop variable passes through a primitive chain on every
iteration, and each primitive is a scheduled graph node. This module
implements a miniature executor for such graphs — plain op nodes run
through the shared :class:`OpExecutor`; a ``WhileLoop`` node executes its
condition and body subgraphs per iteration and charges the per-primitive
scheduling cost for the loop-variable plumbing, which is exactly the
overhead the paper blames for TF's LSTM latency (Table 1). BERT has no
control flow: it runs the model's IR module through the evaluator with
per-node scheduling and a session charge per input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines import overhead
from repro.baselines.base import BaselineResult, Framework, OpExecutor
from repro.errors import NimbleError
from repro.models.lstm import LSTMWeights


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
    """A TF-style while loop: condition + body sub-graphs over loop vars.

    Per iteration, every loop variable flows through Merge → Switch →
    (body) → NextIteration, plus one LoopCond evaluation; on exit each
    variable passes Exit. Each of these is a scheduled control primitive.
    """

    loop_var_ids: List[int]  # value ids of the loop variables (inputs)
    cond: "Graph"
    body: "Graph"
    output_ids: List[int] = field(default_factory=list)

    def primitives_per_iteration(self) -> int:
        # Merge + Switch + NextIteration per variable, + LoopCond.
        return 3 * len(self.loop_var_ids) + 1

    def exit_primitives(self) -> int:
        # Enter at loop entry + Exit at loop exit, per variable.
        return 2 * len(self.loop_var_ids)


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


class GraphExecutor:
    """Runs a Graph against an OpExecutor, charging per-node scheduling
    and per-primitive control-flow costs."""

    def __init__(self, ex: OpExecutor, platform_name: str) -> None:
        self.ex = ex
        self.node_us = overhead.GRAPH_NODE_US[platform_name]
        self.primitive_us = overhead.CONTROL_PRIMITIVE_US[platform_name]

    def run(self, graph: Graph, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(inputs) != graph.num_inputs:
            raise NimbleError(
                f"graph expects {graph.num_inputs} inputs, got {len(inputs)}"
            )
        values: List[Optional[np.ndarray]] = [None] * graph.num_values
        for i, arr in enumerate(inputs):
            values[i] = np.asarray(arr)
        clock = self.ex.ctx.clock
        for node in graph.nodes:
            clock.host_advance(self.node_us)
            if isinstance(node, ConstNode):
                values[node.output_id] = node.value
            elif isinstance(node, OpNode):
                result = self.ex.call(
                    node.op_name, [values[i] for i in node.input_ids], node.attrs
                )
                values[node.output_id] = np.asarray(result)
            elif isinstance(node, WhileLoop):
                outs = self._run_while(node, [values[i] for i in node.loop_var_ids])
                for vid, out in zip(node.output_ids, outs):
                    values[vid] = out
            else:  # pragma: no cover - exhaustive
                raise NimbleError(f"unknown graph node {type(node).__name__}")
        return [values[i] for i in graph.output_ids]

    def _run_while(self, loop: WhileLoop, state: List[np.ndarray]) -> List[np.ndarray]:
        clock = self.ex.ctx.clock
        clock.host_advance(self.primitive_us * loop.exit_primitives())
        per_iter = self.primitive_us * loop.primitives_per_iteration()
        while True:
            cond_out = self.run(loop.cond, state)
            if not bool(np.asarray(cond_out[0]).reshape(()).item()):
                return state
            clock.host_advance(per_iter)
            state = [np.asarray(v) for v in self.run(loop.body, state)]


# --------------------------------------------------------------------------
# The framework
# --------------------------------------------------------------------------


class GraphFramework(Framework):
    name = "tensorflow"
    models = ("lstm", "bert")
    op_us = overhead.GRAPH_NODE_US
    session_us = overhead.SESSION_RUN_US

    # --------------------------------------------------------------- LSTM graph
    @staticmethod
    def build_lstm_graph(weights: LSTMWeights) -> Graph:
        """while_loop over timesteps; loop vars: t, n, x, (h, c) per layer."""
        hidden = weights.hidden_size
        n_layers = weights.num_layers
        num_loop_vars = 3 + 2 * n_layers

        cond = Graph(num_inputs=num_loop_vars)
        cond.output_ids = [cond.add_op("less", [0, 1])]

        body = Graph(num_inputs=num_loop_vars)
        # x_t = reshape(take(x, t, axis=0), (1, I))
        row = body.add_op("take", [2, 0], {"axis": 0})
        x_t = body.add_op("reshape", [row], {"newshape": (1, weights.input_size)})
        layer_in = x_t
        new_states: List[int] = []
        for li, layer in enumerate(weights.layers):
            h_id, c_id = 3 + 2 * li, 4 + 2 * li
            w_id = body.add_const(layer.w)
            b_id = body.add_const(layer.b)
            xh = body.add_op("concatenate", [layer_in, h_id], {"axis": 1})
            gates = body.add_op("nn.bias_add", [body.add_op("nn.dense", [xh, w_id]), b_id])
            parts = []
            for gi in range(4):
                parts.append(
                    body.add_op(
                        "strided_slice",
                        [gates],
                        {"begin": (0, gi * hidden), "end": (1, (gi + 1) * hidden)},
                    )
                )
            i_g = body.add_op("sigmoid", [parts[0]])
            f_g = body.add_op("sigmoid", [parts[1]])
            g_g = body.add_op("tanh", [parts[2]])
            o_g = body.add_op("sigmoid", [parts[3]])
            fc = body.add_op("multiply", [f_g, c_id])
            ig = body.add_op("multiply", [i_g, g_g])
            c_new = body.add_op("add", [fc, ig])
            th = body.add_op("tanh", [c_new])
            h_new = body.add_op("multiply", [o_g, th])
            new_states.extend([h_new, c_new])
            layer_in = h_new
        one = body.add_const(np.asarray(1, dtype=np.int64))
        t_next = body.add_op("add", [0, one])
        body.output_ids = [t_next, 1, 2] + new_states

        graph = Graph(num_inputs=2)  # (n, x)
        t0 = graph.add_const(np.asarray(0, dtype=np.int64))
        zeros = []
        for _ in range(2 * n_layers):
            zeros.append(graph.add_op("zeros", [], {"shape": (1, hidden), "dtype": "float32"}))
        outs = graph.add_while([t0, 0, 1] + zeros, cond, body)
        graph.output_ids = [outs[3 + 2 * (n_layers - 1)]]  # top-layer h
        return graph

    def run_lstm(self, sentences: List[np.ndarray], weights: LSTMWeights) -> BaselineResult:
        ctx = self.make_context()
        executor = GraphExecutor(self._executor(ctx), self.platform.name)
        graph = self.build_lstm_graph(weights)
        session_us = self.session_us[self.platform.name]
        outputs = []
        for sent in sentences:
            ctx.clock.host_advance(session_us)
            (out,) = executor.run(graph, [np.asarray(sent.shape[0], dtype=np.int64), sent])
            outputs.append(out)
        return BaselineResult(self.name, self.platform.name, ctx.elapsed_us, outputs)
