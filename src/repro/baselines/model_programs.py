"""Op-by-op model programs shared by the baseline frameworks.

These mirror the NumPy references in :mod:`repro.models` but route every
operator through an :class:`OpExecutor`, so each framework's dispatch and
kernel costs accrue exactly once per op — the op *stream* is the model's;
the *cost* is the framework's.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.base import OpExecutor
from repro.models.bert import BertWeights
from repro.models.lstm import LSTMWeights
from repro.models.tree_lstm import TreeLSTMWeights


def lstm_step_ops(
    ex: OpExecutor,
    x_t: np.ndarray,
    states: List[Tuple[np.ndarray, np.ndarray]],
    weights: LSTMWeights,
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """One timestep across all layers; 11 ops per layer (no fusion)."""
    layer_in = x_t
    new_states = []
    for (h, c), layer in zip(states, weights.layers):
        xh = ex.concat([layer_in, h], axis=1)
        gates = ex.bias_add(ex.dense(xh, layer.w), layer.b)
        i, f, g, o = ex.split(gates, 4, axis=1)
        c_new = ex.add(
            ex.multiply(ex.sigmoid(f), c),
            ex.multiply(ex.sigmoid(i), ex.tanh(g)),
        )
        h_new = ex.multiply(ex.sigmoid(o), ex.tanh(c_new))
        new_states.append((h_new, c_new))
        layer_in = h_new
    return layer_in, new_states


def run_lstm_ops(ex: OpExecutor, x_seq: np.ndarray, weights: LSTMWeights) -> np.ndarray:
    hidden = weights.hidden_size
    states = [
        (np.zeros((1, hidden), np.float32), np.zeros((1, hidden), np.float32))
        for _ in weights.layers
    ]
    out = states[-1][0]
    for t in range(x_seq.shape[0]):
        out, states = lstm_step_ops(ex, x_seq[t : t + 1], states, weights)
    return out


def tree_lstm_node_ops(
    ex: OpExecutor,
    weights: TreeLSTMWeights,
    x: np.ndarray = None,
    left: Tuple[np.ndarray, np.ndarray] = None,
    right: Tuple[np.ndarray, np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One Tree-LSTM cell: leaf (x given) or internal (children given)."""
    if x is not None:
        pre = ex.bias_add(ex.dense(x, weights.w_leaf), weights.b_leaf)
        i, o, u = ex.split(pre, 3, axis=1)
        c = ex.multiply(ex.sigmoid(i), ex.tanh(u))
        h = ex.multiply(ex.sigmoid(o), ex.tanh(c))
        return h, c
    (hl, cl), (hr, cr) = left, right
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
    return h, c


def run_bert_ops(ex: OpExecutor, x: np.ndarray, weights: BertWeights) -> np.ndarray:
    cfg = weights.config
    heads, hd, h = cfg.num_heads, cfg.head_dim, cfg.hidden
    for lw in weights.layers:
        q = ex.bias_add(ex.dense(x, lw.wq), lw.bq)
        k = ex.bias_add(ex.dense(x, lw.wk), lw.bk)
        v = ex.bias_add(ex.dense(x, lw.wv), lw.bv)
        qh = ex.transpose(ex.reshape(q, (-1, heads, hd)), (1, 0, 2))
        kh = ex.transpose(ex.reshape(k, (-1, heads, hd)), (1, 0, 2))
        vh = ex.transpose(ex.reshape(v, (-1, heads, hd)), (1, 0, 2))
        scores = ex.batch_matmul(qh, kh)
        scaled = ex.multiply(scores, np.float32(1.0 / np.sqrt(hd)))
        probs = ex.softmax(scaled, axis=-1)
        vt = ex.transpose(vh, (0, 2, 1))
        ctx = ex.batch_matmul(probs, vt)
        merged = ex.reshape(ex.transpose(ctx, (1, 0, 2)), (-1, h))
        attn = ex.bias_add(ex.dense(merged, lw.wo), lw.bo)
        x = ex.layer_norm(ex.add(x, attn), lw.ln1_g, lw.ln1_b, cfg.layer_norm_eps)
        ff = ex.bias_add(
            ex.dense(ex.gelu(ex.bias_add(ex.dense(x, lw.w1), lw.b1)), lw.w2), lw.b2
        )
        x = ex.layer_norm(ex.add(x, ff), lw.ln2_g, lw.ln2_b, cfg.layer_norm_eps)
    return x
