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

from .corpus import AnnotatedSentence, Corpus
from .embeddings import EmbeddingTable, context_embedding
from .rng import SplitMix64

# Binary class indices for gap detection.
NOT_DROPPED = 0
DROPPED = 1


class Instance(NamedTuple):
    """One training example: a gap's feature row and its class index."""

    feature: np.ndarray
    label: int


def gap_labels(sentence: AnnotatedSentence) -> np.ndarray:
    """DROPPED at every annotated gap and NOT_DROPPED elsewhere, in gap order."""
    labels = np.full(len(sentence.tokens) + 1, NOT_DROPPED)
    labels[[gap for gap, _ in sentence.annotations]] = DROPPED
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
    labels = [gap_labels(sent).tolist() for sent in corpus.sentences]
    kept = None
    if negative_rate < 1.0:
        negatives = [
            (si, gap)
            for si, sent_labels in enumerate(labels)
            for gap, label in enumerate(sent_labels)
            if label == NOT_DROPPED
        ]
        SplitMix64(seed).shuffle(negatives)
        kept = set(negatives[: int(len(negatives) * negative_rate + 0.5)])  # round half up

    instances = []
    for si, (sent, sent_labels) in enumerate(zip(corpus.sentences, labels)):
        features = context_embedding(sent, window, table)
        for gap, label in enumerate(sent_labels):
            if label == DROPPED or kept is None or (si, gap) in kept:
                instances.append(Instance(features[gap], label))
    return instances


def build_dpg_instances(corpus: Corpus, table: EmbeddingTable, window: int) -> list[Instance]:
    """One pronoun-generation instance per annotation, at its gold gap."""
    instances = []
    for sent in corpus.sentences:
        if sent.annotations:
            features = context_embedding(sent, window, table)
            for gap, tag in sent.annotations:
                instances.append(Instance(features[gap], corpus.label_set.index_of(tag)))
    return instances
