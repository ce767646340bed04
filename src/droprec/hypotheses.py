"""Candidate gap labels and training-instance construction.

Every position between adjacent tokens, plus the sentence start and end,
is a candidate gap: a sentence of n tokens yields n + 1 of them, the rows
of its `context_embedding` matrix.  Gap detection trains on binary
instances (one positive per annotation, a seeded sample of the
unannotated gaps as negatives); pronoun generation trains on one
multi-class instance per annotated gap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, context_embedding
from .rng import SplitMix64

# Binary class indices for gap detection.
NOT_DROPPED = 0
DROPPED = 1


class Instance(NamedTuple):
    """One training example: a gap's feature row and its class index."""

    feature: np.ndarray
    label: int


def gap_labels(corpus: Corpus) -> np.ndarray:
    """Label-set index of each gap's annotation, or -1 where there is none,
    for the rows of `context_embedding(corpus.sentences, ...)`."""
    starts = np.cumsum([0] + [len(sent.tokens) + 1 for sent in corpus.sentences]).tolist()
    labels = np.full(starts[-1], -1, dtype=np.intp)
    for start, sent in zip(starts, corpus.sentences):
        for gap, tag in sent.annotations:
            labels[start + gap] = corpus.label_set.index_of(tag)
    return labels


def build_dpi_instances(
    corpus: Corpus,
    table: EmbeddingTable,
    window: int,
    negative_rate: float = 1.0,
    seed: int = 0,
) -> list[Instance]:
    """Binary gap-detection instances for a whole corpus.

    Every annotated gap becomes a positive.  Unannotated gaps are
    negatives, downsampled to round(negative_rate * count) by shuffling
    the full negative list with SplitMix64(seed) and keeping a prefix.
    Output order is sentence order then gap order, positives and
    negatives interleaved as they occur.
    """
    if not 0.0 < negative_rate <= 1.0:
        raise ValueError(f"negative_rate must be in (0, 1], got {negative_rate}")
    dropped = gap_labels(corpus) >= 0
    negatives = np.flatnonzero(~dropped).tolist()
    if negative_rate < 1.0:
        SplitMix64(seed).shuffle(negatives)
    kept = dropped.copy()
    kept[negatives[: int(len(negatives) * negative_rate + 0.5)]] = True  # round half up
    features = context_embedding(corpus.sentences, window, table)
    return [Instance(features[row], int(dropped[row])) for row in np.flatnonzero(kept).tolist()]


def build_dpg_instances(corpus: Corpus, table: EmbeddingTable, window: int) -> list[Instance]:
    """One pronoun-generation instance per annotated gap, in sentence then gap order."""
    labels = gap_labels(corpus)
    features = context_embedding(corpus.sentences, window, table)
    return [Instance(features[row], int(labels[row])) for row in np.flatnonzero(labels >= 0)]
