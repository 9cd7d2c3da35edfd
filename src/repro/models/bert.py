"""BERT — the dynamic-shape model of Tables 3 and 4.

BERT-base encoder (12 layers, hidden 768, 12 heads, FFN 3072) over a
dynamic sequence length: ``main(x: Tensor[(Any, 768)])``. Every dense
kernel therefore compiles symbolically (§4.5) — these are exactly the
three dense shapes Figure 3 dissects: 768→768 (QKV/projection), 768→3072
and 3072→768 (FFN).

Attention uses ``nn.batch_matmul`` over per-head reshapes. On CPU builds
(one device queue) ``CombineParallelDense`` runs Q, K and V as one GEMM
over their stacked weights, section by section so outputs are bitwise
those of three, and fusion makes the split and the three head reshapes
one kernel; on a GPU the three stay separate kernels the stream scheduler
overlaps. The builder is configurable so tests can use a 2-layer /
64-hidden instance while the benchmarks build the paper's full BERT-base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.ir import (
    Any,
    Constant,
    Function,
    IRModule,
    ScopeBuilder,
    TensorType,
    Var,
)
from repro.ops import api
from repro.tensor.ndarray import array as make_array


@dataclass(frozen=True)
class BertConfig:
    hidden: int = 768
    num_layers: int = 12
    num_heads: int = 12
    ffn: int = 3072
    layer_norm_eps: float = 1e-12

    @property
    def head_dim(self) -> int:
        return self.hidden // self.num_heads


@dataclass
class BertLayerWeights:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w1: np.ndarray  # (ffn, hidden)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, ffn)
    b2: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class BertWeights:
    config: BertConfig
    layers: List[BertLayerWeights]

    @staticmethod
    def create(config: BertConfig = BertConfig(), seed: int = 0) -> "BertWeights":
        rng = np.random.RandomState(seed)
        h, f = config.hidden, config.ffn
        s = 0.02
        u = lambda *shape: (rng.randn(*shape) * s).astype(np.float32)
        layers = [
            BertLayerWeights(
                wq=u(h, h), bq=u(h), wk=u(h, h), bk=u(h), wv=u(h, h), bv=u(h),
                wo=u(h, h), bo=u(h),
                ln1_g=np.ones(h, np.float32), ln1_b=np.zeros(h, np.float32),
                w1=u(f, h), b1=u(f), w2=u(h, f), b2=u(h),
                ln2_g=np.ones(h, np.float32), ln2_b=np.zeros(h, np.float32),
            )
            for _ in range(config.num_layers)
        ]
        return BertWeights(config, layers)


def _attention(sb: ScopeBuilder, x, lw: BertLayerWeights, cfg: BertConfig, tag: str):
    C = lambda a: Constant(make_array(a))
    heads, hd, h = cfg.num_heads, cfg.head_dim, cfg.hidden
    q = sb.let(f"q{tag}", api.bias_add(api.dense(x, C(lw.wq)), C(lw.bq)))
    k = sb.let(f"k{tag}", api.bias_add(api.dense(x, C(lw.wk)), C(lw.bk)))
    v = sb.let(f"v{tag}", api.bias_add(api.dense(x, C(lw.wv)), C(lw.bv)))
    # (L, H) -> (heads, L, hd)
    qh = sb.let(f"qh{tag}", api.transpose(api.reshape(q, (-1, heads, hd)), (1, 0, 2)))
    kh = sb.let(f"kh{tag}", api.transpose(api.reshape(k, (-1, heads, hd)), (1, 0, 2)))
    vh = sb.let(f"vh{tag}", api.transpose(api.reshape(v, (-1, heads, hd)), (1, 0, 2)))
    # scores: (heads, L, L) = qh @ kh^T  (batch_matmul's rhs is (b, N, K))
    scores = sb.let(f"scores{tag}", api.batch_matmul(qh, kh))
    scaled = sb.let(
        f"scaled{tag}", api.multiply(scores, Constant(make_array(np.float32(1.0 / np.sqrt(hd)))))
    )
    probs = sb.let(f"probs{tag}", api.softmax(scaled, axis=-1))
    # context: (heads, L, hd) = probs @ vh  -> rhs must be (b, hd, L)
    vt = sb.let(f"vt{tag}", api.transpose(vh, (0, 2, 1)))
    ctx = sb.let(f"ctx{tag}", api.batch_matmul(probs, vt))
    # (heads, L, hd) -> (L, H)
    merged = sb.let(
        f"merged{tag}", api.reshape(api.transpose(ctx, (1, 0, 2)), (-1, h))
    )
    out = sb.let(f"attn_out{tag}", api.bias_add(api.dense(merged, C(lw.wo)), C(lw.bo)))
    return out


def build_bert_module(weights: BertWeights) -> IRModule:
    """``main(x: Tensor[(Any, hidden)]) -> Tensor[(Any, hidden)]``."""
    cfg = weights.config
    C = lambda a: Constant(make_array(a))
    seq_any = Any()
    x_in = Var("x", TensorType((seq_any, cfg.hidden), "float32"))
    sb = ScopeBuilder()
    x = x_in
    for li, lw in enumerate(weights.layers):
        attn = _attention(sb, x, lw, cfg, f"_l{li}")
        res1 = sb.let(f"res1_l{li}", api.add(x, attn))
        ln1 = sb.let(
            f"ln1_l{li}",
            api.layer_norm(res1, C(lw.ln1_g), C(lw.ln1_b), epsilon=cfg.layer_norm_eps),
        )
        ff1 = sb.let(
            f"ff1_l{li}",
            api.gelu(api.bias_add(api.dense(ln1, C(lw.w1)), C(lw.b1))),
        )
        ff2 = sb.let(
            f"ff2_l{li}", api.bias_add(api.dense(ff1, C(lw.w2)), C(lw.b2))
        )
        res2 = sb.let(f"res2_l{li}", api.add(ln1, ff2))
        x = sb.let(
            f"ln2_l{li}",
            api.layer_norm(res2, C(lw.ln2_g), C(lw.ln2_b), epsilon=cfg.layer_norm_eps),
        )
    mod = IRModule()
    mod["main"] = Function(
        [x_in], sb.get(x), TensorType((Any(), cfg.hidden), "float32")
    )
    return mod


# ---------------------------------------------------------------------------
# NumPy reference
# ---------------------------------------------------------------------------


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * g + b


def _gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def bert_reference(x: np.ndarray, weights: BertWeights) -> np.ndarray:
    cfg = weights.config
    heads, hd, h = cfg.num_heads, cfg.head_dim, cfg.hidden
    for lw in weights.layers:
        q = x @ lw.wq.T + lw.bq
        k = x @ lw.wk.T + lw.bk
        v = x @ lw.wv.T + lw.bv
        L = x.shape[0]
        qh = q.reshape(L, heads, hd).transpose(1, 0, 2)
        kh = k.reshape(L, heads, hd).transpose(1, 0, 2)
        vh = v.reshape(L, heads, hd).transpose(1, 0, 2)
        scores = (qh @ kh.transpose(0, 2, 1)) / np.sqrt(hd)
        probs = _softmax(scores, axis=-1)
        ctx = probs @ vh
        merged = ctx.transpose(1, 0, 2).reshape(L, h)
        attn = merged @ lw.wo.T + lw.bo
        x = _layer_norm(x + attn, lw.ln1_g, lw.ln1_b, cfg.layer_norm_eps)
        ff = _gelu(x @ lw.w1.T + lw.b1) @ lw.w2.T + lw.b2
        x = _layer_norm(x + ff, lw.ln2_g, lw.ln2_b, cfg.layer_norm_eps)
    return x.astype(np.float32)
