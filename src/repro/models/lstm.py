"""LSTM — the dynamic-control-flow model of Table 1.

The sequence length is dynamic (``Tensor[(Any, input_size)]``) and the
recurrence compiles to a recursive IR function guarded by ``If`` — exactly
the construct static graph compilers cannot express. The paper's
configuration: input 300, hidden 512, 1 or 2 layers, batch 1.

Gate layout follows the cuDNN/PyTorch convention ``[i, f, g, o]`` with a
single fused ``W @ [x; h]`` GEMM per layer per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.ir import (
    Any,
    Call,
    Constant,
    Function,
    If,
    IRModule,
    Op,
    ScopeBuilder,
    TensorType,
    Tuple as IRTuple,
    TupleGetItem,
    Var,
    const,
)
from repro.ops import api
from repro.tensor.ndarray import array as make_array


@dataclass
class LSTMLayerWeights:
    w: np.ndarray  # (4H, I+H) fused gate weights
    b: np.ndarray  # (4H,)


@dataclass
class LSTMWeights:
    input_size: int
    hidden_size: int
    layers: List[LSTMLayerWeights]

    @staticmethod
    def create(input_size: int = 300, hidden_size: int = 512, num_layers: int = 1,
               seed: int = 0) -> "LSTMWeights":
        rng = np.random.RandomState(seed)
        layers = []
        in_dim = input_size
        scale = 0.08
        for _ in range(num_layers):
            layers.append(
                LSTMLayerWeights(
                    w=rng.uniform(-scale, scale, (4 * hidden_size, in_dim + hidden_size)).astype(np.float32),
                    b=rng.uniform(-scale, scale, (4 * hidden_size,)).astype(np.float32),
                )
            )
            in_dim = hidden_size
        return LSTMWeights(input_size, hidden_size, layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def _cell(sb: ScopeBuilder, x, h, c, weights: LSTMLayerWeights, hidden: int, tag: str):
    """One LSTM cell step in IR; returns (h', c') vars."""
    xh = sb.let(f"xh{tag}", api.concatenate([x, h], axis=1))
    gates = sb.let(f"gates{tag}", api.dense(xh, Constant(make_array(weights.w))))
    gates_b = sb.let(f"gatesb{tag}", api.bias_add(gates, Constant(make_array(weights.b))))
    parts = sb.let(f"parts{tag}", api.split(gates_b, 4, axis=1))
    i = sb.let(f"i{tag}", api.sigmoid(TupleGetItem(parts, 0)))
    f = sb.let(f"f{tag}", api.sigmoid(TupleGetItem(parts, 1)))
    g = sb.let(f"g{tag}", api.tanh(TupleGetItem(parts, 2)))
    o = sb.let(f"o{tag}", api.sigmoid(TupleGetItem(parts, 3)))
    c_new = sb.let(
        f"c{tag}", api.add(api.multiply(f, c), api.multiply(i, g))
    )
    h_new = sb.let(f"h{tag}", api.multiply(o, api.tanh(c_new)))
    return h_new, c_new


def build_lstm_module(weights: LSTMWeights) -> IRModule:
    """Module with ``main(x: Tensor[(Any, I)]) -> Tensor[(1, H)]``: runs the
    stacked LSTM over a dynamic-length sequence, returning the last hidden
    state of the top layer."""
    input_size, hidden = weights.input_size, weights.hidden_size
    num_layers = weights.num_layers
    mod = IRModule()
    loop_gv = mod.get_global_var("lstm_loop")

    seq_ty = TensorType((Any(), input_size), "float32")
    state_ty = TensorType((1, hidden), "float32")
    idx_ty = TensorType((), "int64")

    # State tuple: (h_0, c_0, ..., h_{L-1}, c_{L-1})
    state_tuple_ty_fields = [state_ty] * (2 * num_layers)
    from repro.ir.types import TupleType

    states_ty = TupleType(state_tuple_ty_fields)

    # -- loop(t, n, x, h0, c0, ...) -> states tuple ------------------------
    t = Var("t", idx_ty)
    n = Var("n", idx_ty)
    x_seq = Var("x", seq_ty)
    state_vars: List[Var] = []
    for layer in range(num_layers):
        state_vars.append(Var(f"h{layer}", state_ty))
        state_vars.append(Var(f"c{layer}", state_ty))

    sb = ScopeBuilder()
    cond = sb.let("cond", api.less(t, n))

    # True branch: one timestep over all layers, then recurse.
    tb = ScopeBuilder()
    # x_t = x[t] as (1, I): take row then reshape.
    row = tb.let("row", api.take(x_seq, t, axis=0))
    x_t = tb.let("x_t", api.reshape(row, (1, input_size)))
    layer_in = x_t
    new_states: List[Var] = []
    for layer in range(num_layers):
        h_var, c_var = state_vars[2 * layer], state_vars[2 * layer + 1]
        h_new, c_new = _cell(tb, layer_in, h_var, c_var, weights.layers[layer], hidden, f"_l{layer}")
        new_states.extend([h_new, c_new])
        layer_in = h_new
    t_next = tb.let("t_next", api.add(t, const(np.int64(1), "int64")))
    recurse = tb.get(Call(loop_gv, [t_next, n, x_seq] + new_states))

    # False branch: return the current states.
    false_branch = IRTuple(state_vars)

    loop_body = sb.get(If(cond, recurse, false_branch))
    mod[loop_gv] = Function([t, n, x_seq] + state_vars, loop_body, states_ty)

    # -- main(x) ----------------------------------------------------------------
    x_main = Var("x", seq_ty)
    mb = ScopeBuilder()
    shape = mb.let("xshape", Call(Op.get("vm.shape_of"), [x_main]))
    n_val = mb.let("n", api.take(shape, const(np.int64(0), "int64")))
    zero_states: List[Var] = []
    for layer in range(num_layers):
        zero_states.append(mb.let(f"h0_{layer}", api.zeros((1, hidden), "float32")))
        zero_states.append(mb.let(f"c0_{layer}", api.zeros((1, hidden), "float32")))
    final = mb.let(
        "final", Call(loop_gv, [const(np.int64(0), "int64"), n_val, x_main] + zero_states)
    )
    # Return the last hidden state of the top layer.
    top_h = mb.let("top_h", TupleGetItem(final, 2 * (num_layers - 1)))
    mod["main"] = Function([x_main], mb.get(top_h), state_ty)
    return mod


# ---------------------------------------------------------------------------
# NumPy reference (shared weights; the baselines run the module above)
# ---------------------------------------------------------------------------


def lstm_cell_reference(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LSTMLayerWeights, hidden: int
) -> Tuple[np.ndarray, np.ndarray]:
    xh = np.concatenate([x, h], axis=1)
    gates = xh @ layer.w.T + layer.b
    i, f, g, o = np.split(gates, 4, axis=1)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    c_new = sig(f) * c + sig(i) * np.tanh(g)
    h_new = sig(o) * np.tanh(c_new)
    return h_new.astype(np.float32), c_new.astype(np.float32)


def lstm_reference(x_seq: np.ndarray, weights: LSTMWeights) -> np.ndarray:
    """Run the stacked LSTM eagerly; returns the final top-layer hidden."""
    hidden = weights.hidden_size
    states = [
        (np.zeros((1, hidden), np.float32), np.zeros((1, hidden), np.float32))
        for _ in weights.layers
    ]
    for t in range(x_seq.shape[0]):
        layer_in = x_seq[t : t + 1]
        for li, layer in enumerate(weights.layers):
            h, c = states[li]
            h, c = lstm_cell_reference(layer_in, h, c, layer, hidden)
            states[li] = (h, c)
            layer_in = h
    return states[-1][0]
