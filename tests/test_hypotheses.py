import numpy as np
import pytest

from droprec.corpus import ACTUAL10, FULL14, AnnotatedSentence, Corpus, CorpusError
from droprec.embeddings import EmbeddingTable, context_embedding, deterministic_fallback_table
from droprec.hypotheses import (
    DROPPED,
    NOT_DROPPED,
    build_dpg_instances,
    build_dpi_instances,
    gap_labels,
)


def sent_of(n, annotations=()):
    return AnnotatedSentence(tuple(f"t{i}" for i in range(n)), tuple(annotations))


def table_for(corpus, dim=4, seed=0):
    vocab = sorted({tok for s in corpus.sentences for tok in s.tokens})
    return deterministic_fallback_table(vocab, dim, seed)


def index_table(n=50):
    """Embeds t{i} as the scalar i + 1, so with window 1 the first feature
    of gap g's row is g (its left neighbour, or zero padding at gap 0)."""
    return EmbeddingTable.from_vectors(1, {f"t{i}": np.array([i + 1.0]) for i in range(n)})


def gap_index_of(feature):
    return int(feature[0])


def test_five_tokens_six_hypotheses():
    assert len(context_embedding((sent_of(5),), 1, index_table())) == 6


def test_single_token_two_hypotheses():
    rows = context_embedding((sent_of(1),), 1, index_table())
    assert [gap_index_of(row) for row in rows] == [0, 1]


def test_twelve_tokens_match_loop_oracle():
    sent = sent_of(12)
    expected = [gap for gap in range(len(sent.tokens) + 1)]
    got = [gap_index_of(row) for row in context_embedding((sent,), 1, index_table())]
    assert got == expected
    assert all(a < b for a, b in zip(got, got[1:]))


def test_hypotheses_carry_features_when_table_given():
    corpus = Corpus(FULL14, (sent_of(3),))
    table = table_for(corpus)
    features = context_embedding(corpus.sentences, 2, table)
    assert len(features) == 4
    assert features[0].shape == (2 * 2 * table.dim,)


def test_gap_labels_mark_annotated_gaps():
    labels = gap_labels(Corpus(FULL14, (sent_of(3, [(1, "wo"), (3, "ni")]),))) >= 0
    assert labels.astype(int).tolist() == [NOT_DROPPED, DROPPED, NOT_DROPPED, DROPPED]


def test_gap_labels_follow_the_rows_of_a_corpus_matrix():
    corpus = Corpus(FULL14, (
        sent_of(2, [(0, "ni")]),
        sent_of(1),
        sent_of(3, [(3, "wo"), (1, "ta_m")]),
    ))
    labels = gap_labels(corpus)
    assert len(labels) == len(context_embedding(corpus.sentences, 1, index_table()))
    ni, wo, ta_m = (FULL14.index_of(tag) for tag in ("ni", "wo", "ta_m"))
    assert labels.tolist() == [ni, -1, -1] + [-1, -1] + [-1, ta_m, -1, wo]


def test_empty_sentence_is_unconstructible():
    with pytest.raises(CorpusError):
        AnnotatedSentence(())


# --- gap-detection instances -------------------------------------------------


def test_rate_one_keeps_every_gap():
    corpus = Corpus(
        FULL14,
        (sent_of(3, [(1, "wo")]), sent_of(2, [(0, "ni"), (2, "ta_m")])),
    )
    table = table_for(corpus)
    instances = build_dpi_instances(corpus, table, window=1)
    total_gaps = sum(len(s.tokens) + 1 for s in corpus.sentences)
    assert len(instances) == total_gaps
    assert sum(i.label == DROPPED for i in instances) == 3
    assert sum(i.label == NOT_DROPPED for i in instances) == total_gaps - 3


def test_dpi_instances_follow_gap_order():
    corpus = Corpus(FULL14, (sent_of(2, [(0, "ni")]), sent_of(3, [(3, "wo")])))
    instances = build_dpi_instances(corpus, index_table(), window=1)
    assert [gap_index_of(i.feature) for i in instances] == [0, 1, 2, 0, 1, 2, 3]
    assert [i.label for i in instances] == [DROPPED] + [NOT_DROPPED] * 5 + [DROPPED]


def test_no_annotations_means_no_positives():
    corpus = Corpus(FULL14, (sent_of(4), sent_of(2)))
    instances = build_dpi_instances(corpus, table_for(corpus), window=1)
    assert sum(i.label == DROPPED for i in instances) == 0


def test_positive_count_equals_annotation_count():
    sents = tuple(sent_of(5, [(i % 6, "wo")]) for i in range(8))
    corpus = Corpus(FULL14, sents)
    instances = build_dpi_instances(corpus, table_for(corpus), window=2)
    assert sum(i.label == DROPPED for i in instances) == corpus.total_annotations() == 8


# --- generation instances ------------------------------------------------------


def test_dpg_label_is_class_index():
    corpus = Corpus(FULL14, (sent_of(2, [(1, "ta_n")]),))
    (inst,) = build_dpg_instances(corpus, table_for(corpus), window=1)
    assert inst.label == FULL14.index_of("ta_n") == 8


def test_dpg_instances_follow_gap_order():
    corpus = Corpus(FULL14, (sent_of(2, [(0, "ni")]), sent_of(3, [(3, "wo"), (1, "ta_m")])))
    instances = build_dpg_instances(corpus, index_table(), window=1)
    assert [gap_index_of(inst.feature) for inst in instances] == [0, 1, 3]
    assert [inst.label for inst in instances] == [
        FULL14.index_of(tag) for tag in ("ni", "ta_m", "wo")
    ]


def test_dpg_one_instance_per_annotation():
    sents = (
        sent_of(4, [(0, "wo"), (2, "ni")]),
        sent_of(1),
        sent_of(3, [(3, "event")]),
    )
    corpus = Corpus(FULL14, sents)
    instances = build_dpg_instances(corpus, table_for(corpus), window=1)
    assert len(instances) == corpus.total_annotations() == 3


def test_dpg_actual10_labels_below_ten():
    sents = tuple(sent_of(3, [(1, tag)]) for tag in ACTUAL10.labels)
    corpus = Corpus(ACTUAL10, sents)
    instances = build_dpg_instances(corpus, table_for(corpus), window=1)
    assert len(instances) == 10
    assert all(0 <= inst.label < 10 for inst in instances)
