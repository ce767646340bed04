import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _metadata import METADATA, SURROGATES, mostly
from droprec.corpus import (
    ACTUAL10,
    FULL14,
    LABEL_BY_TAG,
    PRONOUN_LABELS,
    AnnotatedSentence,
    Corpus,
    CorpusError,
    label_set_by_name,
    load_corpus,
    save_corpus,
    split_corpus,
    write_records,
)


def write_jsonl(path, header, lines):
    rows = [json.dumps(header, ensure_ascii=False)]
    rows += [json.dumps(obj, ensure_ascii=False) if isinstance(obj, dict) else obj for obj in lines]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# --- taxonomy -------------------------------------------------------------


def test_exactly_fourteen_labels_four_abstract():
    assert len(PRONOUN_LABELS) == 14
    assert sum(lab.is_abstract for lab in PRONOUN_LABELS) == 4


def test_surface_forms_nonempty_and_unique():
    surfaces = [lab.surface_form for lab in PRONOUN_LABELS]
    assert all(surfaces)
    assert len(set(surfaces)) == 14


def test_tag_round_trip():
    for lab in PRONOUN_LABELS:
        assert LABEL_BY_TAG[lab.tag] == lab


def test_builtin_label_sets():
    assert len(FULL14) == 14
    assert len(ACTUAL10) == 10
    assert all(not LABEL_BY_TAG[t].is_abstract for t in ACTUAL10.labels)
    # order is stable and defines class indices
    assert FULL14.index_of("wo") == 0
    assert FULL14.index_of("ta_n") == 8
    assert FULL14.index_of("pleonastic") == 13
    assert label_set_by_name("full14") is FULL14
    with pytest.raises(CorpusError, match="unknown label set"):
        label_set_by_name("full15")


@pytest.mark.parametrize("name", [["full14"], {"name": "full14"}], ids=["list", "dict"])
def test_non_string_label_set_name_is_corpus_error(name):
    with pytest.raises(CorpusError, match="unknown label set"):
        label_set_by_name(name)


# --- loading --------------------------------------------------------------


def test_load_sentence_with_interior_drop(tmp_path):
    # "he says [he] will buy": the dropped pronoun precedes the third token
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["他", "说", "要", "买"], "annotations": [[2, "ta_m"]]}])
    corpus = load_corpus(p)
    sent = corpus.sentences[0]
    assert sent.tokens == ("他", "说", "要", "买")
    assert sent.annotations == ((2, "ta_m"),)


def test_load_sentence_without_drops(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["你好"], "annotations": []}])
    assert load_corpus(p).sentences[0].annotations == ()


def test_load_existential_subject_before_verb(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["有", "事"], "annotations": [[0, "existential"]]}])
    assert load_corpus(p).sentences[0].annotations == ((0, "existential"),)


def test_load_reports_line_number_on_malformed_json(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a"], "annotations": []}, "{not json"])
    with pytest.raises(CorpusError, match="line 3: not valid JSON"):
        load_corpus(p)


@pytest.mark.parametrize("line", [1, 2, 3], ids=["header", "first-sentence", "last-sentence"])
def test_load_reports_line_number_on_json_nested_too_deeply(tmp_path, line):
    records = ['{"label_set": "full14"}', '{"tokens": ["a"], "annotations": []}',
               '{"tokens": ["b"], "annotations": []}']
    records[line - 1] = "[" * 1000 + "]" * 1000
    p = tmp_path / "c.jsonl"
    p.write_text("\n".join(records) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"line {line}: JSON nested too deeply"):
        load_corpus(p)


def test_load_rejects_gap_out_of_range(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a", "b"], "annotations": [[3, "wo"]]}])
    with pytest.raises(CorpusError, match=r"line 2: gap index 3 out of range \[0, 2\]"):
        load_corpus(p)


def test_load_rejects_unknown_tag(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a"], "annotations": [[0, "zzz"]]}])
    with pytest.raises(CorpusError, match="line 2: unknown pronoun tag 'zzz'"):
        load_corpus(p)


def test_load_rejects_duplicate_gap(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a"], "annotations": [[1, "wo"], [1, "ni"]]}])
    with pytest.raises(CorpusError, match="line 2: duplicate annotation at gap 1"):
        load_corpus(p)


def test_actual10_rejects_abstract_labels_at_load(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "actual10", "metadata": {}},
                [{"tokens": ["a"], "annotations": [[0, "event"]]}])
    with pytest.raises(CorpusError, match="not allowed by label set 'actual10'"):
        load_corpus(p)


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"tokens": ["a"], "annotations": []}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(p)


@pytest.mark.parametrize("value", ["NaN", "-Infinity"])
def test_load_rejects_header_metadata_that_is_no_strict_json(tmp_path, value):
    p = tmp_path / "c.jsonl"
    p.write_text('{"label_set": "full14", "metadata": {"k": [%s]}}\n{"tokens": ["a"]}\n' % value,
                 encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1: metadata has no JSON form"):
        load_corpus(p)


def test_load_rejects_bad_annotation_shape(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a"], "annotations": [["wo", 0]]}])
    with pytest.raises(CorpusError, match=r"\[gap_index, tag\] pair"):
        load_corpus(p)


def test_every_loaded_gap_in_range(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, {"label_set": "full14", "metadata": {}},
                [{"tokens": ["a", "b", "c"], "annotations": [[0, "wo"], [3, "ni"]]}])
    for sent in load_corpus(p).sentences:
        for gap, _ in sent.annotations:
            assert 0 <= gap <= len(sent.tokens)


# --- saving ---------------------------------------------------------------


def test_round_trip_single_sentence(tmp_path):
    corpus = Corpus(FULL14, (AnnotatedSentence(("它", "很", "贵"), ((0, "ta_n"),)),),
                    {"source": "test"})
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_round_trip_preserves_annotation_order_and_metadata(tmp_path):
    sent = AnnotatedSentence(("a", "b", "c"), ((3, "ni"), (0, "wo")))
    corpus = Corpus(FULL14, (sent,), {"k1": "v1", "k2": "v2"})
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    again = load_corpus(path)
    assert again.sentences[0].annotations == ((3, "ni"), (0, "wo"))
    assert dict(again.metadata) == {"k1": "v1", "k2": "v2"}


def test_round_trip_all_fourteen_labels(tmp_path):
    sents = tuple(
        AnnotatedSentence(("x", "y"), ((1, lab.tag),)) for lab in PRONOUN_LABELS
    )
    corpus = Corpus(FULL14, sents, {})
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    again = load_corpus(path)
    assert [s.annotations[0][1] for s in again.sentences] == [l.tag for l in PRONOUN_LABELS]


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\r"])
def test_round_trip_tokens_holding_line_break_characters(tmp_path, char):
    corpus = Corpus(FULL14, (AnnotatedSentence((f"a{char}b", "c"), ((1, "wo"),)),), {})
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_write_failing_part_way_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old contents\n", encoding="utf-8")

    def rows():
        yield ("a", "b"), ()
        raise RuntimeError("crash part-way")

    with pytest.raises(RuntimeError, match="part-way"):
        write_records(path, "full14", {}, rows())
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]  # no temporary file left


def test_load_reports_line_number_on_empty_token_list(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, {"label_set": "full14"}, [{"tokens": ["a"]}, {"tokens": []}])
    with pytest.raises(CorpusError, match="line 3: sentence tokens must be"):
        load_corpus(path)


# --- sentence invariants ----------------------------------------------------


def test_sentence_rejects_empty_tokens():
    with pytest.raises(CorpusError):
        AnnotatedSentence(())
    with pytest.raises(CorpusError):
        AnnotatedSentence(("a", ""))


def test_corpus_rejects_label_outside_label_set():
    sent = AnnotatedSentence(("a",), ((0, "event"),))
    with pytest.raises(CorpusError, match="not allowed by label set"):
        Corpus(ACTUAL10, (sent,), {})


@pytest.mark.parametrize("build", [
    lambda: AnnotatedSentence(("a",), ((True, "wo"),)),
    lambda: AnnotatedSentence(("a",), ((1.0, "wo"),)),
    lambda: AnnotatedSentence(("a", 5)),
    lambda: AnnotatedSentence(["a"]),
    lambda: AnnotatedSentence(("a",), ((0, "wo", 0.5),)),
    lambda: AnnotatedSentence(("a\ud800",)),
    lambda: Corpus(FULL14, (), {"k": {1, 2}}),
    lambda: Corpus(FULL14, (), {1: "v"}),
    lambda: Corpus(FULL14, (), [("k", "v")]),
    lambda: Corpus(FULL14, (), {"k": "\udfff"}),
    lambda: Corpus(FULL14, [AnnotatedSentence(("a",))]),
    lambda: Corpus(FULL14, (("a",),)),
    lambda: Corpus(FULL14, (), {"k": ("a",)}),
    lambda: Corpus(FULL14, (), {"k": [{1: "x"}]}),
    lambda: Corpus(FULL14, (), {"k": float("nan")}),
    lambda: Corpus(FULL14, (), {"k": [float("-inf")]}),
], ids=["bool-gap", "float-gap", "int-token", "list-tokens", "triple", "surrogate-token",
        "set-metadata", "int-key-metadata", "list-metadata", "surrogate-metadata",
        "list-of-sentences", "sentence-not-annotated", "tuple-metadata",
        "nested-int-key-metadata", "nan-metadata", "infinite-metadata"])
def test_what_no_file_can_hold_is_rejected_at_construction(build):
    with pytest.raises(CorpusError):
        build()


_TOKEN = mostly(st.text(min_size=1, max_size=3),
                st.one_of(st.just(""), st.integers(), SURROGATES))
_GAP = mostly(st.integers(0, 3), st.one_of(st.integers(-1, 5), st.booleans(), st.floats(0, 3)))
_TAG = mostly(st.sampled_from(FULL14.labels), st.sampled_from(("", "zzz")))
_ANNOTATION = mostly(st.tuples(_GAP, _TAG), st.tuples(_GAP, _TAG, st.floats(0, 1)))
_TOKENS = st.lists(_TOKEN, min_size=1, max_size=4)
_SENTENCE = st.tuples(mostly(_TOKENS.map(tuple), _TOKENS),
                     st.lists(_ANNOTATION, max_size=2).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FULL14, ACTUAL10]), st.lists(_SENTENCE, max_size=3),
       mostly(st.just(tuple), st.just(list)), METADATA)
def test_what_the_constructors_accept_saves_and_loads_back_equal(label_set, sentences, container,
                                                                 metadata):
    try:
        corpus = Corpus(label_set, container(AnnotatedSentence(*s) for s in sentences), metadata)
    except CorpusError:
        return  # never another exception
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
        save_corpus(corpus, first)
        again = load_corpus(first)
        save_corpus(again, second)
        assert second.read_bytes() == first.read_bytes()
    assert again.label_set is corpus.label_set
    assert again.metadata == corpus.metadata
    assert len(again.sentences) == len(corpus.sentences)
    for got, want in zip(again.sentences, corpus.sentences):
        assert got.tokens == want.tokens
        assert got.annotations == want.annotations
        assert all(type(gap) is int for gap, _ in want.annotations)


# --- splitting ---------------------------------------------------------------


def _corpus_of(n):
    return Corpus(FULL14, tuple(AnnotatedSentence((f"t{i}",)) for i in range(n)), {})


def test_split_exact_multiple_of_five():
    train, dev, test = split_corpus(_corpus_of(10), seed=0)
    assert (len(train), len(dev), len(test)) == (6, 2, 2)


@pytest.mark.parametrize(
    "n,expected",
    [(5, (3, 1, 1)), (6, (4, 1, 1)), (7, (5, 1, 1)), (8, (6, 1, 1)),
     (9, (7, 1, 1)), (10, (6, 2, 2))],
)
def test_split_sizes_floor_rule(n, expected):
    # dev = test = floor(n/5), remainder to train; enumerated by hand
    parts = split_corpus(_corpus_of(n), seed=3)
    assert tuple(len(p) for p in parts) == expected


def test_split_deterministic():
    c = _corpus_of(23)
    first = split_corpus(c, seed=99)
    second = split_corpus(c, seed=99)
    assert all(a.sentences == b.sentences for a, b in zip(first, second))


def test_split_too_small():
    with pytest.raises(CorpusError, match="too small"):
        split_corpus(_corpus_of(4), seed=0)


def test_split_marks_metadata():
    train, dev, test = split_corpus(_corpus_of(10), seed=5)
    assert train.metadata["split"] == "train"
    assert dev.metadata["split"] == "dev"
    assert test.metadata["split_seed"] == "5"


@settings(max_examples=50)
@given(st.integers(min_value=5, max_value=200), st.integers(min_value=0, max_value=2**32))
def test_split_partitions_input(n, seed):
    corpus = _corpus_of(n)
    train, dev, test = split_corpus(corpus, seed)
    assert len(train) + len(dev) + len(test) == n
    assert len(dev) == len(test) == n // 5
    combined = Counter(train.sentences) + Counter(dev.sentences) + Counter(test.sentences)
    assert combined == Counter(corpus.sentences)
