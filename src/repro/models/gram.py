"""A weight-free two-dynamic-dim model: the partial-shape workhorse.

``main(x: Tensor[(Any, Any)]) = softmax(dense(relu(x), relu(x)))`` — a
Gram-matrix similarity map (every row of the activated input scored
against every other, normalized per row). Structurally it is the
smallest model whose entry carries **two independent** ``Any`` tokens:
the paper's evaluation models (LSTM, BERT) bake their feature width into
the weights, so type inference pins it and only sequence length stays
dynamic — which makes them unable to exercise *partial* specialization,
where some dims bind and others stay ``Any``. Here both the row count
(e.g. sequence length, long-tailed in traffic) and the column count
(e.g. feature width, stable in traffic) are free, so a partial binding
of the stable column dim leaves a genuinely dynamic row dim behind —
exactly the guarded-partial-tier shape
(:mod:`repro.serve.specialization`).

Weight-free also means fingerprint-stable: no RNG seed plumbing, and two
processes building it agree on every store key.
"""

from __future__ import annotations

from repro.ir import Function, IRModule, ScopeBuilder, TensorType, Var
from repro.ir.types import Any
from repro.ops import api


def build_gram_module() -> IRModule:
    """``softmax(dense(relu(x), relu(x)), axis=-1)`` over a fully
    dynamic rank-2 input — rows *and* columns are ``Any``."""
    x = Var("x", TensorType((Any(), Any()), "float32"))
    sb = ScopeBuilder()
    h = sb.let("h", api.relu(x))
    g = sb.let("g", api.dense(h, h))
    y = sb.let("y", api.softmax(g, axis=-1))
    mod = IRModule()
    mod["main"] = Function([x], sb.get(y))
    return mod
