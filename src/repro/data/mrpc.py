"""Synthetic MRPC-like corpus.

The Microsoft Research Paraphrase Corpus supplies the variable-length
inputs for the LSTM and BERT rows of Tables 1 and 3. Its sentence-length
distribution is roughly normal with mean ≈ 21 tokens and a 7–40 range
(after tokenization); we sample lengths from that distribution with a
fixed seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

MEAN_LENGTH = 21.0
STD_LENGTH = 6.5
MIN_LENGTH = 7
MAX_LENGTH = 40


def mrpc_like_lengths(n: int, seed: int = 0) -> List[int]:
    """Sentence lengths matching the MRPC distribution."""
    rng = np.random.RandomState(seed)
    raw = rng.normal(MEAN_LENGTH, STD_LENGTH, size=n)
    return [int(x) for x in np.clip(np.round(raw), MIN_LENGTH, MAX_LENGTH)]
