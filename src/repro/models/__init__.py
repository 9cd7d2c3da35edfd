"""The evaluation models of §6.1.

* :mod:`repro.models.lstm` — LSTM (dynamic control flow), in=300 hid=512;
* :mod:`repro.models.tree_lstm` — Tree-LSTM (dynamic data structure),
  in=300 hid=150;
* :mod:`repro.models.bert` — BERT-base (dynamic shape), hidden 768;
* :mod:`repro.models.vision` — static CV models for the §6.3 memory study;
* :mod:`repro.models.gram` — weight-free two-``Any``-dim Gram map, the
  partial-specialization workhorse (both row and column dims dynamic).

Every model provides an IR builder producing a module for the Nimble
pipeline; the three paper models also provide a NumPy eager reference
over the *same* weights, which doubles as the computation baselines
execute op-by-op.
"""

from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_lstm_reference,
    tree_to_adt,
)
from repro.models.bert import BertConfig, BertWeights, build_bert_module, bert_reference
from repro.models.gram import build_gram_module
from repro.models.vision import (
    build_mobilenet_like,
    build_resnet_like,
    build_squeezenet_like,
    build_vgg_like,
)

__all__ = [
    "LSTMWeights",
    "build_lstm_module",
    "lstm_reference",
    "TreeLSTMWeights",
    "build_tree_lstm_module",
    "tree_lstm_reference",
    "tree_to_adt",
    "BertConfig",
    "BertWeights",
    "build_bert_module",
    "bert_reference",
    "build_resnet_like",
    "build_mobilenet_like",
    "build_vgg_like",
    "build_squeezenet_like",
    "build_gram_module",
]
