import math
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


@pytest.mark.parametrize("prob", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_distribution_weights_must_be_positive_and_finite(prob):
    # NaN compares false, with 0 and in the sum-to-one check alike
    with pytest.raises(GrammarError, match=r"must be in \(0, inf\)"):
        simple_grammar(0.5, {"wo": prob, "ni": 1.0})


@pytest.mark.parametrize("weights", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                     (1e308, 1e308)])  # the last pair sums to inf
def test_template_weights_must_be_positive_with_a_finite_sum(weights):
    with pytest.raises(GrammarError, match="finite sum"):
        TemplateGrammar(tuple(Template(("a",), w) for w in weights), {}, 0.5, ("a",))


@pytest.mark.parametrize("name", ["full_14", "FULL14", "", 14])
def test_unknown_label_set_name_rejected(name):
    with pytest.raises(GrammarError, match="unknown label set"):
        TemplateGrammar((Template(("a",)),), {}, 0.5, ("a",), label_set_name=name)


@pytest.mark.parametrize("templates, dist", [
    ((Template(("a", "{slot:event}")),), {}),
    ((Template(("a", "{slot}")),), {"wo": 0.5, "event": 0.5}),
], ids=["pinned", "distribution"])
def test_a_tag_the_named_label_set_excludes_is_rejected_at_construction(templates, dist):
    with pytest.raises(GrammarError, match="tag 'event' not allowed by label set 'actual10'"):
        TemplateGrammar(templates, dist, 1.0, ("a",), label_set_name="actual10")
    grammar = TemplateGrammar(templates, dist, 1.0, ("a",), label_set_name="full14")
    assert generate_corpus(grammar, 3, seed=0).label_set.name == "full14"


def test_unknown_tags_rejected():
    with pytest.raises(GrammarError, match="unknown tag"):
        simple_grammar(0.5, {"bogus": 1.0})
    with pytest.raises(GrammarError, match="pins unknown tag"):
        TemplateGrammar((Template(("a", "{slot:bogus}")),), {}, 0.5, ("a",))


def test_all_slot_template_rejected():
    with pytest.raises(GrammarError, match="non-slot atom"):
        TemplateGrammar((Template(("{slot}",)),), UNIFORM14, 0.5, ("a",))


def test_adjacent_dropped_slots_rejected():
    # at any drop_rate > 0 some seed drops both slots into one gap
    for drop_rate in (1.0, 0.3):
        with pytest.raises(GrammarError, match="two adjacent slots"):
            TemplateGrammar(
                (Template(("left", "{slot:wo}", "{slot:ni}", "right")),),
                {}, drop_rate=drop_rate, vocab=(),
            )


def test_adjacent_slots_that_never_drop_are_allowed():
    g = TemplateGrammar((Template(("left", "{slot:wo}", "{slot:ni}", "right")),),
                        {}, drop_rate=0.0, vocab=())
    assert generate_corpus(g, 3, seed=1).sentences[0].tokens == ("left", "我", "你", "right")


@pytest.mark.parametrize("vocab, atom", [(("", "a"), "x"), (("a", "b\udc00"), "x"), (("a",), "")],
                         ids=["empty-vocab-word", "surrogate-vocab-word", "empty-literal"])
def test_a_word_no_sentence_can_hold_is_rejected_at_construction(vocab, atom):
    with pytest.raises(GrammarError, match="grammar word rejected"):
        TemplateGrammar((Template((atom, "{w}", "{slot:wo}")),), {}, 0.3, vocab)


def test_drop_rate_bounds():
    with pytest.raises(GrammarError, match="drop_rate"):
        simple_grammar(1.5)
