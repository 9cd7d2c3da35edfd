"""Frontend conversion: framework graphs -> Nimble IR -> VM execution."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.baselines import GraphFramework
from repro.errors import CompilerError
from repro.evaluator import evaluate
from repro.frontends import Graph, from_graph
from repro.hardware import intel_cpu
from repro.ir import Any, TensorType, scalar_type
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.vm.interpreter import VirtualMachine


def _lstm_graph(weights: LSTMWeights) -> Graph:
    """The stacked LSTM as a TensorFlow-style graph: a while loop over
    timesteps whose loop variables are t, n, x and each layer's (h, c)."""
    hidden = weights.hidden_size
    n_layers = weights.num_layers
    num_loop_vars = 3 + 2 * n_layers

    cond = Graph(num_inputs=num_loop_vars)
    cond.output_ids = [cond.add_op("less", [0, 1])]

    body = Graph(num_inputs=num_loop_vars)
    # x_t = reshape(take(x, t, axis=0), (1, I))
    row = body.add_op("take", [2, 0], {"axis": 0})
    layer_in = body.add_op("reshape", [row], {"newshape": (1, weights.input_size)})
    new_states = []
    for li, layer in enumerate(weights.layers):
        h_id, c_id = 3 + 2 * li, 4 + 2 * li
        xh = body.add_op("concatenate", [layer_in, h_id], {"axis": 1})
        dense = body.add_op("nn.dense", [xh, body.add_const(layer.w)])
        gates = body.add_op("nn.bias_add", [dense, body.add_const(layer.b)])
        i_g, f_g, g_g, o_g = (
            body.add_op(
                act,
                [body.add_op("strided_slice", [gates],
                             {"begin": (0, gi * hidden), "end": (1, (gi + 1) * hidden)})],
            )
            for gi, act in enumerate(("sigmoid", "sigmoid", "tanh", "sigmoid"))
        )
        fc = body.add_op("multiply", [f_g, c_id])
        ig = body.add_op("multiply", [i_g, g_g])
        c_new = body.add_op("add", [fc, ig])
        h_new = body.add_op("multiply", [o_g, body.add_op("tanh", [c_new])])
        new_states.extend([h_new, c_new])
        layer_in = h_new
    t_next = body.add_op("add", [0, body.add_const(np.asarray(1, dtype=np.int64))])
    body.output_ids = [t_next, 1, 2] + new_states

    graph = Graph(num_inputs=2)  # (n, x)
    t0 = graph.add_const(np.asarray(0, dtype=np.int64))
    zeros = [graph.add_op("zeros", [], {"shape": (1, hidden), "dtype": "float32"})
             for _ in range(2 * n_layers)]
    outs = graph.add_while([t0, 0, 1] + zeros, cond, body)
    graph.output_ids = [outs[3 + 2 * (n_layers - 1)]]  # top-layer h
    return graph


class TestStraightLineConversion:
    def test_simple_dataflow_graph(self):
        g = Graph(num_inputs=2)
        s = g.add_op("add", [0, 1])
        g.output_ids = [g.add_op("tanh", [s])]
        mod = from_graph(g, [TensorType((3,)), TensorType((3,))])
        exe, _ = nimble.build(mod, intel_cpu())
        a, b = np.float32([1, 2, 3]), np.float32([4, 5, 6])
        out = VirtualMachine(exe).run(a, b)
        assert np.allclose(out.numpy(), np.tanh(a + b), atol=1e-6)

    def test_constants_converted(self):
        g = Graph(num_inputs=1)
        c = g.add_const(np.float32([10, 20]))
        g.output_ids = [g.add_op("multiply", [0, c])]
        mod = from_graph(g, [TensorType((2,))])
        exe, _ = nimble.build(mod, intel_cpu())
        out = VirtualMachine(exe).run(np.float32([1, 2]))
        assert out.numpy().tolist() == [10, 40]

    def test_multi_output_graph(self):
        g = Graph(num_inputs=1)
        a = g.add_op("tanh", [0])
        b = g.add_op("exp", [0])
        g.output_ids = [a, b]
        mod = from_graph(g, [TensorType((2,))])
        exe, _ = nimble.build(mod, intel_cpu())
        out = VirtualMachine(exe).run(np.float32([0.5, 1.0]))
        assert isinstance(out, tuple) and len(out) == 2

    def test_input_arity_checked(self):
        g = Graph(num_inputs=2)
        g.output_ids = [g.add_op("add", [0, 1])]
        with pytest.raises(CompilerError):
            from_graph(g, [TensorType((2,))])


class TestWhileLoopConversion:
    def _counter_graph(self):
        """while (i < n) { i = i + 1; acc = acc + x }"""
        cond = Graph(num_inputs=3)
        cond.output_ids = [cond.add_op("less", [0, 1])]
        body = Graph(num_inputs=3)
        one = body.add_const(np.asarray(1, np.int64))
        i_next = body.add_op("add", [0, one])
        body.output_ids = [i_next, 1, 2]

        g = Graph(num_inputs=1)  # n
        zero = g.add_const(np.asarray(0, np.int64))
        x = g.add_const(np.float32([1.0, 2.0]))
        outs = g.add_while([zero, 0, x], cond, body)
        g.output_ids = [outs[0]]
        return g

    def test_loop_becomes_recursive_function(self):
        g = self._counter_graph()
        mod = from_graph(g, [scalar_type("int64")])
        assert any(gv.name_hint.startswith("while_loop") for gv in mod.functions)

    def test_loop_executes(self):
        g = self._counter_graph()
        mod = from_graph(g, [scalar_type("int64")])
        exe, _ = nimble.build(mod, intel_cpu())
        out = VirtualMachine(exe).run(np.int64(5))
        assert out.numpy().item() == 5

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tf_lstm_graph_evaluates_like_the_reference(self, layers):
        """The while loop's semantics, read off the converted module by the
        evaluator: one body per step, the zero states, top-layer h out."""
        w = LSTMWeights.create(12, 10, layers)
        mod = from_graph(
            _lstm_graph(w), [scalar_type("int64"), TensorType((Any(), 12), "float32")]
        )
        x = np.random.RandomState(0).randn(5, 12).astype(np.float32)
        out = evaluate(mod, np.asarray(5, np.int64), x)
        assert np.allclose(out, lstm_reference(x, w), atol=1e-5)

    def test_tf_lstm_graph_converts_and_matches(self):
        """The flagship path: the TF-style LSTM while-loop graph imports
        into Nimble IR, compiles, and matches the eager reference."""
        w = LSTMWeights.create(12, 10, 1)
        mod = from_graph(
            _lstm_graph(w),
            [scalar_type("int64"), TensorType((Any(), 12), "float32")],
        )
        exe, _ = nimble.build(mod, intel_cpu())
        vm = VirtualMachine(exe)
        x = np.random.RandomState(0).randn(5, 12).astype(np.float32)
        out = vm.run(np.asarray(5, np.int64), x)
        assert np.allclose(out.numpy(), lstm_reference(x, w), atol=1e-4)

    def test_converted_model_faster_than_source_framework(self):
        """Import the TF graph, compile with Nimble, and beat the TF-style
        framework running the same LSTM (Table 1's story end to end)."""
        from repro.runtime.context import ExecutionContext

        w = LSTMWeights.create(300, 512, 1)
        mod = from_graph(
            _lstm_graph(w), [scalar_type("int64"), TensorType((Any(), 300), "float32")]
        )
        exe, _ = nimble.build(mod, intel_cpu())
        ctx = ExecutionContext(intel_cpu(), numerics="lite")
        vm = VirtualMachine(exe, ctx)
        x = np.zeros((20, 300), np.float32)
        vm.run(np.asarray(20, np.int64), x)
        nimble_us = ctx.elapsed_us

        fw = GraphFramework(intel_cpu(), numerics="lite")
        tf_us = fw.run(build_lstm_module(w), [x]).total_us
        assert nimble_us < tf_us / 2
