"""Candidate gap labels and training-instance construction.

Every position between adjacent tokens, plus the sentence start and end,
is a candidate gap: a sentence of n tokens yields n + 1 of them, the rows
of its `context_embedding` matrix.  Gap detection trains on one binary
instance per gap (positive where annotated); pronoun generation trains
on one multi-class instance per annotated gap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, context_embedding

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


def build_dpi_instances(corpus: Corpus, table: EmbeddingTable, window: int) -> list[Instance]:
    """One gap-detection instance per gap, in sentence then gap order:
    DROPPED where the gap is annotated, NOT_DROPPED elsewhere."""
    labels = gap_labels(corpus).tolist()
    features = context_embedding(corpus.sentences, window, table)
    return [Instance(row, DROPPED if label >= 0 else NOT_DROPPED)
            for row, label in zip(features, labels)]


def build_dpg_instances(corpus: Corpus, table: EmbeddingTable, window: int) -> list[Instance]:
    """One pronoun-generation instance per annotated gap, in sentence then gap order."""
    labels = gap_labels(corpus)
    features = context_embedding(corpus.sentences, window, table)
    return [Instance(features[row], int(labels[row])) for row in np.flatnonzero(labels >= 0)]
