import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from droprec.corpus import AnnotatedSentence
from droprec.mlp import ModelFormatError
from droprec.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    context_embedding,
    deterministic_fallback_table,
    fallback_vector,
    load_embeddings,
    table_from_source,
)


def test_load_small_word2vec_file(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = load_embeddings(p)
    assert table.dim == 3
    assert np.array_equal(table.lookup("a"), [1.0, 0.0, 0.0])
    assert np.array_equal(table.lookup("b"), [0.0, 1.0, 0.0])


def test_oov_lookup_is_zero_vector(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\n", encoding="utf-8")
    table = load_embeddings(p)
    assert np.array_equal(table.lookup("missing"), np.zeros(2))


def test_load_accepts_dim_300(tmp_path):
    p = tmp_path / "vec.txt"
    row = " ".join(["0.5"] * 300)
    p.write_text(f"2 300\nfoo {row}\nbar {row}\n", encoding="utf-8")
    table = load_embeddings(p, expected_dim=300)
    assert table.dim == 300
    assert table.lookup("foo").shape == (300,)


def test_load_rejects_row_dim_mismatch(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 3\na 1 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="line 2: expected 3 components, got 2"):
        load_embeddings(p)


def test_load_checks_rows_before_sizing_from_a_huge_header_dim(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 100000000000\na 1\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="line 2: expected 100000000000 components"):
        load_embeddings(p)


@pytest.mark.parametrize("hashed", [False, True], ids=["full", "hashed"])
def test_load_rejects_a_file_with_no_word_line(tmp_path, hashed):
    p = tmp_path / "vec.txt"
    p.write_text("0 100000000000\n\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="no word lines"):
        load_embeddings(p, sha256=sha256_of(p) if hashed else None)


def test_hashed_load_rejects_a_dim_no_line_can_hold(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 100000000000\na 1\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="no word line is long enough"):
        load_embeddings(p, expected_dim=10**11, sha256=sha256_of(p))


def test_load_rejects_non_numeric(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 oops\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="non-numeric"):
        load_embeddings(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_load_rejects_non_finite_components(tmp_path, value):
    p = tmp_path / "vec.txt"
    p.write_text(f"2 2\na 1 2\nb 3 {value}\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="non-finite .* 'b'"):
        load_embeddings(p)


def test_table_matrix_has_zero_row_then_one_row_per_word(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
    table = load_embeddings(p)
    assert len(table) == 2
    assert np.array_equal(table.matrix, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    assert table.rows == {"a": 1, "b": 2}


def test_header_word_count_may_be_off_either_way(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    table = load_embeddings(p)  # grows past the declared count
    assert len(table) == 3 and table.matrix.shape == (4, 2)
    assert np.array_equal(table.lookup("c"), [5.0, 6.0])
    p.write_text("1000000000 2\na 1 2\n", encoding="utf-8")
    table = load_embeddings(p)  # sized by the file, not by the header
    assert len(table) == 1 and table.matrix.shape == (2, 2)


def test_load_rejects_expected_dim_conflict(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 3\na 1 0 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="conflicts with expected 5"):
        load_embeddings(p, expected_dim=5)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("3\na 1 0 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="header"):
        load_embeddings(p)


def test_duplicate_words_keep_first_and_count(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("3 2\na 1 2\na 9 9\nb 3 4\n", encoding="utf-8")
    table = load_embeddings(p)
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])
    assert table.duplicates_skipped == 1


def test_malformed_duplicate_line_is_rejected(tmp_path):
    # A duplicate word's line is checked like any other before it is skipped.
    p = tmp_path / "vec.txt"
    p.write_text("2 2\na 1 2\nb 3 4\na 5\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="line 4: expected 2 components, got 1"):
        load_embeddings(p)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_full_load_records_the_file_hash(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\n", encoding="utf-8")
    assert load_embeddings(p).source == {"kind": "word2vec", "path": str(p), "dim": 2,
                                         "sha256": sha256_of(p)}


# --- lazy word2vec table ------------------------------------------------------


def test_hashed_load_parses_only_the_rows_looked_up(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("3 2\na 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    table = load_embeddings(p, sha256=sha256_of(p))
    assert len(table) == 3 and table.unread == 3 and table.matrix.shape == (1, 2)
    features = context_embedding((AnnotatedSentence(("c", "x", "c")),), 1, table)
    assert np.array_equal(features[1], [5.0, 6.0, 0.0, 0.0])
    assert table.matrix.shape == (2, 2) and table.unread == 2
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])
    assert table.rows == {"a": 2, "b": -2, "c": 1}  # b: not read, the second word line


def test_hashed_load_rejects_another_file(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="SHA-256"):
        load_embeddings(p, sha256="0" * 64)


@pytest.mark.parametrize("edit", ["2 2\na 1 2\nb 3 5\n", "2 2\na 1 2\nb 3 4 \n"],
                         ids=["same-length", "longer"])
def test_lazy_table_serves_no_row_edited_after_the_hash(tmp_path, edit):
    p = tmp_path / "vec.txt"
    p.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
    table = load_embeddings(p, sha256=sha256_of(p))
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])
    p.write_text(edit, encoding="utf-8")
    with pytest.raises(EmbeddingError, match="changed since its SHA-256 was checked"):
        table.lookup("b")
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])  # read before the edit


@pytest.mark.parametrize(
    "row, message",
    [("b 3", "line 3: expected 2 components, got 1"), ("b 3 x", "line 3: non-numeric"),
     ("b 3 1e999", "non-finite vector component for word 'b'")],
    ids=["component-count", "non-numeric", "non-finite"],
)
def test_lazily_read_row_gets_the_full_checks(tmp_path, row, message):
    p = tmp_path / "vec.txt"
    p.write_text(f"2 2\r\na 1 2\r\n{row}\r\n", encoding="utf-8")
    table = load_embeddings(p, sha256=sha256_of(p))  # a hash of a file never fully parsed
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])
    with pytest.raises(EmbeddingError, match=message):
        context_embedding((AnnotatedSentence(("a", "b")),), 1, table)


# Word characters: multi-byte UTF-8, and characters str.splitlines() or
# str.split() treat as breaks but word2vec lines do not.
WORDS = st.text(st.sampled_from("ab\u00e9\u4e2d\U0001f600\t\x0b\x85\u2028"), min_size=1,
                max_size=3)
COMPONENT = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def word2vec_files(draw):
    """(file bytes, words) with duplicates, blank lines and mixed line ends."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(WORDS, min_size=1, max_size=8))
    lines = []
    for word in words + draw(st.lists(st.sampled_from(words), max_size=3)):  # + duplicates
        comps = draw(st.lists(COMPONENT, min_size=dim, max_size=dim))
        sep = draw(st.sampled_from([" ", "  "]))
        lines.append(word + " " + sep.join(comps) + draw(st.sampled_from(["", " "])))
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", "\u3000"]), max_size=1)))
    header = f"{len(set(words)) + draw(st.integers(-1, 1))} {dim}"
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = "".join(line + end for line, end in zip([header] + lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    return text.encode("utf-8"), words


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(word2vec_files(), st.data())
def test_lazy_table_gives_the_features_of_the_full_table(tmp_path, file, data):
    content, words = file
    p = tmp_path / "vec.txt"
    p.write_bytes(content)
    full = load_embeddings(p)
    lazy = load_embeddings(p, sha256=full.source["sha256"])
    assert (len(lazy), lazy.duplicates_skipped) == (len(full), full.duplicates_skipped)
    reference, word_lines = {}, 0  # a text-mode parse that shares no code with the loader
    with open(p, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if line.strip():
                word, *comps = line.rstrip("\n").split(" ")
                reference.setdefault(word, [float(c) for c in comps if c])
                word_lines += 1
    assert list(full.rows) == list(reference)
    assert full.duplicates_skipped == word_lines - len(reference)
    assert full.matrix[1:].tobytes() == np.array(list(reference.values())).tobytes()
    tokens = st.sampled_from(words + ["oov", "\u4e2d\u6587"])
    sentences = data.draw(st.lists(st.lists(tokens, min_size=1, max_size=5), min_size=1,
                                   max_size=4))
    window = data.draw(st.integers(1, 7))
    for batch in (sentences[:1], sentences):  # a second call reads only the rest
        sents = [AnnotatedSentence(tuple(tokens)) for tokens in batch]
        expected = context_embedding(sents, window, full)
        got = context_embedding(sents, window, lazy)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    for word in words:
        assert lazy.lookup(word).tobytes() == full.lookup(word).tobytes()
        assert lazy.lookup(word).tolist() == reference[word]


# --- fallback table ---------------------------------------------------------


def test_fallback_is_pure_function_of_word_and_seed():
    t1 = deterministic_fallback_table(["alpha", "beta"], 8, seed=42)
    t2 = deterministic_fallback_table(["beta", "alpha"], 8, seed=42)
    assert np.array_equal(t1.lookup("alpha"), t2.lookup("alpha"))
    assert np.array_equal(t1.lookup("alpha"), fallback_vector("alpha", 8, 42))


def test_fallback_different_seeds_differ():
    a = fallback_vector("word", 16, seed=1)
    b = fallback_vector("word", 16, seed=2)
    assert not np.array_equal(a, b)


def test_fallback_components_in_range():
    for word in ("x", "yy", "zzz"):
        vec = fallback_vector(word, 10, seed=7)
        assert np.all(vec >= -0.5 / 10) and np.all(vec <= 0.5 / 10)


def test_fallback_rejects_bad_dim():
    with pytest.raises(EmbeddingError):
        deterministic_fallback_table(["a"], 0, seed=0)


def test_table_rebuild_from_source():
    table = deterministic_fallback_table(["a", "b"], 4, seed=9)
    again = table_from_source(table.source)
    assert np.array_equal(table.lookup("a"), again.lookup("a"))
    with pytest.raises(EmbeddingError, match="source kind"):
        table_from_source({"kind": "nope"})


# --- context embeddings ------------------------------------------------------


def basis_table(words, dim=None):
    dim = dim or len(words)
    vectors = {w: np.eye(dim)[i] for i, w in enumerate(words)}
    return EmbeddingTable.from_vectors(dim, vectors)


def test_interior_gap_window_one():
    table = basis_table(["a", "b"])
    sent = AnnotatedSentence(("a", "b"))
    ctx = context_embedding((sent,), 1, table)[1]
    assert np.array_equal(ctx, np.concatenate([table.lookup("a"), table.lookup("b")]))
    assert ctx.shape == (2 * table.dim,)


def test_boundary_gap_pads_with_zeros():
    table = basis_table(["a", "b"])
    sent = AnnotatedSentence(("a", "b"))
    ctx = context_embedding((sent,), 1, table)[0]
    assert np.array_equal(ctx, np.concatenate([np.zeros(2), table.lookup("a")]))


def test_window_two_ordering_hand_derived():
    # gap 1 in [a, b, c] with W=2 reads: pad, a | b, c
    table = basis_table(["a", "b", "c"])
    sent = AnnotatedSentence(("a", "b", "c"))
    ctx = context_embedding((sent,), 2, table)[1]
    expected = np.concatenate(
        [np.zeros(3), table.lookup("a"), table.lookup("b"), table.lookup("c")]
    )
    assert np.array_equal(ctx, expected)
    assert ctx.shape == (4 * 3,)


def test_gap_out_of_range_rejected():
    # the rows are gaps 0..n: a one-token sentence has no gap 2
    table = basis_table(["a"])
    features = context_embedding((AnnotatedSentence(("a",)),), 1, table)
    assert len(features) == 2
    with pytest.raises(IndexError):
        features[2]


def test_window_below_one_rejected():
    with pytest.raises(ValueError, match="window"):
        context_embedding((AnnotatedSentence(("a",)),), 0, basis_table(["a"]))


def test_all_oov_sentence_gives_zero_vector():
    table = basis_table(["known"], dim=4)
    sent = AnnotatedSentence(("alien", "words"))
    assert not context_embedding((sent,), 2, table).any()


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "oov"]), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_context_length_always_2wd(tokens, window, data):
    table = basis_table(["a", "b", "c"])
    sent = AnnotatedSentence(tuple(tokens))
    gap = data.draw(st.integers(min_value=0, max_value=len(tokens)))
    features = context_embedding((sent,), window, table)
    assert features.shape == (len(tokens) + 1, 2 * window * table.dim)
    assert features[gap].shape == (2 * window * table.dim,)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "oov"]), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_matrix_rows_match_per_gap_concatenation(tokens, window):
    table = basis_table(["a", "b", "c"])
    n = len(tokens)
    reference = [
        np.concatenate([
            table.lookup(tokens[i]) if 0 <= i < n else np.zeros(table.dim)
            for i in range(gap - window, gap + window)
        ])
        for gap in range(n + 1)
    ]
    assert np.array_equal(context_embedding((AnnotatedSentence(tuple(tokens)),), window, table),
                          np.array(reference))


def test_adjacent_gaps_share_shifted_window():
    table = basis_table(["t0", "t1", "t2", "t3", "t4"])
    sent = AnnotatedSentence(("t0", "t1", "t2", "t3", "t4"))
    d = table.dim
    features = context_embedding((sent,), 2, table)
    a, b = features[2], features[3]
    # tokens t1, t2, t3 appear in both windows, one slot over
    assert np.array_equal(a[d : 2 * d], b[0:d])
    assert np.array_equal(a[2 * d : 3 * d], b[d : 2 * d])
    assert np.array_equal(a[3 * d : 4 * d], b[2 * d : 3 * d])


@settings(max_examples=60)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "oov"]), min_size=1, max_size=6),
             min_size=1, max_size=5),
    st.integers(min_value=1, max_value=8),
)
@example([["a"], ["oov"], ["b"]], 3)  # single-token sentences, window wider than each
def test_corpus_matrix_stacks_the_sentence_matrices(token_lists, window):
    table = basis_table(["a", "b", "c"])
    sents = [AnnotatedSentence(tuple(tokens)) for tokens in token_lists]
    expected = np.concatenate([context_embedding((sent,), window, table) for sent in sents])
    assert np.array_equal(context_embedding(sents, window, table), expected)


@pytest.mark.parametrize("window", [1, 3])
def test_no_sentences_give_no_rows(window):
    table = basis_table(["a", "b"])
    assert context_embedding((), window, table).shape == (0, 2 * window * table.dim)
