"""Synthetic datasets standing in for MRPC and SST (§6.1).

Only the *length and topology distributions* of the inputs affect
inference latency, so seeded synthetic corpora with matching
distributions preserve the experiments' behavior (see DESIGN.md).
"""

from repro.data.trees import Tree
from repro.data.mrpc import mrpc_like_lengths
from repro.data.sst import sst_like_trees
from repro.data.vocab import embedding_table

__all__ = [
    "Tree",
    "mrpc_like_lengths",
    "sst_like_trees",
    "embedding_table",
]
