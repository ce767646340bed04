from collections import Counter

import pytest

from droprec.corpus import ACTUAL10, FULL14, CorpusError, load_corpus, save_corpus
from droprec.synth import (
    GrammarError,
    Template,
    TemplateGrammar,
    builtin_grammar,
    generate_corpus,
)

UNIFORM14 = {tag: 1.0 / 14.0 for tag in FULL14.labels}


def simple_grammar(drop_rate, dist=None):
    return TemplateGrammar(
        (Template(("{w}", "{slot}", "{w}")),),
        dist or UNIFORM14,
        drop_rate=drop_rate,
        vocab=("red", "green", "blue"),
    )


def test_drop_rate_zero_yields_no_annotations():
    corpus = generate_corpus(simple_grammar(0.0), 200, seed=1)
    assert corpus.total_annotations() == 0


def test_drop_rate_one_annotates_every_slot():
    corpus = generate_corpus(simple_grammar(1.0), 200, seed=1)
    assert corpus.total_annotations() == 200  # one slot per template


def test_label_frequencies_match_distribution():
    dist = {"wo": 0.5, "ni": 0.3, "ta_n": 0.2}
    corpus = generate_corpus(simple_grammar(1.0, dist), 10_000, seed=5)
    counts = Counter(tag for s in corpus.sentences for _, tag in s.annotations)
    for tag, prob in dist.items():
        assert abs(counts[tag] / 10_000 - prob) <= 0.02


def test_generation_is_deterministic(tmp_path):
    g = builtin_grammar("separable")
    a = generate_corpus(g, 300, seed=42)
    b = generate_corpus(g, 300, seed=42)
    assert a == b
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(a, pa)
    save_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generated_corpus_survives_validation(tmp_path):
    for profile in ("separable", "ontonotes-like", "zhidao-like"):
        corpus = generate_corpus(builtin_grammar(profile), 150, seed=3)
        path = tmp_path / f"{profile}.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus


# --- built-in profiles -------------------------------------------------------


def test_zhidao_profile_distribution():
    g = builtin_grammar("zhidao-like")
    assert g.label_set() is ACTUAL10
    # reference share of first-person singular, renormalized over the
    # nine nonzero classes
    assert abs(g.slot_label_dist["wo"] - 0.3149) <= 0.01
    assert "tamen_f" not in g.slot_label_dist  # zero-frequency class excluded
    assert abs(sum(g.slot_label_dist.values()) - 1.0) <= 1e-9


def test_ontonotes_profile_distribution():
    g = builtin_grammar("ontonotes-like")
    assert g.label_set() is FULL14
    assert len(g.slot_label_dist) == 14
    assert abs(g.slot_label_dist["ta_n"] - 0.1956) <= 0.01
    assert abs(sum(g.slot_label_dist.values()) - 1.0) <= 1e-9


def test_ontonotes_frequencies_track_distribution():
    g = builtin_grammar("ontonotes-like")
    corpus = generate_corpus(g, 10_000, seed=77)
    counts = Counter(tag for s in corpus.sentences for _, tag in s.annotations)
    total = sum(counts.values())
    for tag, prob in g.slot_label_dist.items():
        assert abs(counts[tag] / total - prob) <= 0.02


def test_separable_profile_is_uniform_and_always_drops():
    g = builtin_grammar("separable")
    assert g.drop_rate == 1.0
    assert g.label_set() is FULL14
    corpus = generate_corpus(g, 400, seed=9)
    assert corpus.total_annotations() == 400


def test_unknown_profile_rejected():
    with pytest.raises(GrammarError, match="unknown profile"):
        builtin_grammar("mystery")


# --- validation ----------------------------------------------------------------


def test_empty_grammar_rejected():
    with pytest.raises(GrammarError, match="no templates"):
        TemplateGrammar((), UNIFORM14, 0.5, ("a",))


def test_distribution_must_sum_to_one():
    with pytest.raises(GrammarError, match="sums to"):
        simple_grammar(0.5, {"wo": 0.5, "ni": 0.2})


def test_unknown_tags_rejected():
    with pytest.raises(GrammarError, match="unknown tag"):
        simple_grammar(0.5, {"bogus": 1.0})
    with pytest.raises(GrammarError, match="pins unknown tag"):
        TemplateGrammar((Template(("a", "{slot:bogus}")),), {}, 0.5, ("a",))


def test_all_slot_template_rejected():
    with pytest.raises(GrammarError, match="non-slot atom"):
        TemplateGrammar((Template(("{slot}",)),), UNIFORM14, 0.5, ("a",))


def test_adjacent_dropped_slots_rejected():
    g = TemplateGrammar(
        (Template(("left", "{slot:wo}", "{slot:ni}", "right")),),
        {}, drop_rate=1.0, vocab=(),
    )
    with pytest.raises(CorpusError, match="two adjacent slots"):
        generate_corpus(g, 5, seed=0)


def test_drop_rate_bounds():
    with pytest.raises(GrammarError, match="drop_rate"):
        simple_grammar(1.5)
