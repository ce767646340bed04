import hashlib
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from droprec import embeddings
from droprec.corpus import AnnotatedSentence
from droprec.mlp import DenseLayer, ModelFormatError
from droprec.rng import SplitMix64, fnv1a64
from droprec.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    context_embedding,
    context_projection,
    context_rows,
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
    table = load_embeddings(p)
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
        load_embeddings(p, sha256=sha256_of(p))


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


def test_non_finite_line_is_reported_by_number_before_a_later_malformed_line(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("3 2\na 1 2\nb 3 nan\nc 4\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="line 3: non-finite vector component for word 'b'"):
        load_embeddings(p)


def test_table_matrix_has_zero_row_then_one_row_per_word(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
    table = load_embeddings(p)
    assert len(table) == 2
    # Padding and the unknown word read the zero row; each word its own.
    features = context_embedding((AnnotatedSentence(("b", "oov", "a")),), 1, table)
    assert features.tolist() == [[0, 0, 3, 4], [3, 4, 0, 0], [0, 0, 1, 2], [1, 2, 0, 0]]
    assert not table.matrix[0].any() and len(table.matrix) == len(table.rows) + 1


def test_header_word_count_may_be_off_either_way(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    table = load_embeddings(p)  # more words than declared
    assert len(table) == 3
    assert np.array_equal(table.lookup("c"), [5.0, 6.0])
    p.write_text("1000000000 2\na 1 2\n", encoding="utf-8")
    table = load_embeddings(p)  # fewer: the header sizes nothing
    assert len(table) == 1 and np.array_equal(table.lookup("a"), [1.0, 2.0])


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
    assert table.rows == {"c": 1, "a": 2} and len(table) == 3  # b: not read


def test_hashed_load_rejects_another_file(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("1 2\na 1 2\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="SHA-256"):
        load_embeddings(p, sha256="0" * 64)


@pytest.mark.parametrize("edit", ["2 2\na 1 2\nb 3 5\n", "2 2\na 1 2\nb 3 4 \n"],
                         ids=["same-length", "longer"])
def test_lazy_table_serves_no_row_edited_after_the_hash(tmp_path, edit):
    p = tmp_path / "vec.txt"
    for hashed in (False, True):
        p.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        table = load_embeddings(p, sha256=sha256_of(p) if hashed else None)
        assert np.array_equal(table.lookup("a"), [1.0, 2.0])
        p.write_text(edit, encoding="utf-8")
        with pytest.raises(EmbeddingError, match="changed since its SHA-256 was checked"):
            table.lookup("b")
        assert np.array_equal(table.lookup("a"), [1.0, 2.0])  # read before the edit


def test_a_context_rows_call_opens_the_file_once(tmp_path, monkeypatch):
    p = tmp_path / "vec.txt"
    p.write_text("4 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\n", encoding="utf-8")
    table = load_embeddings(p, sha256=sha256_of(p))
    handles = []
    monkeypatch.setattr(embeddings, "open", lambda *a: handles.append(open(*a)) or handles[-1],
                        raising=False)

    def opens(words):
        before = len(handles)
        context_rows((AnnotatedSentence(tuple(words)),), 1, table)
        assert all(fh.closed for fh in handles)  # no handle outlives the call
        return len(handles) - before

    assert opens(["a", "x", "b", "c"]) == 1  # three new words, one missing
    assert table.rows == {"a": 1, "b": 2, "c": 3}
    assert opens(["c", "a", "x"]) == 0  # nothing left to read
    assert opens(["d", "b"]) == 1
    assert table.unread == 0
    fresh = load_embeddings(p, sha256=sha256_of(p))
    handles.clear()
    assert np.array_equal(fresh.lookup("b"), [3.0, 4.0]) and len(handles) == 1
    assert handles[0].closed


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
    reference, word_lines = {}, 0  # a text-mode parse that shares no code with the loader
    with open(p, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if line.strip():
                word, *comps = line.rstrip("\n").split(" ")
                reference.setdefault(word, [float(c) for c in comps if c])
                word_lines += 1
    dim = len(next(iter(reference.values())))
    dense = EmbeddingTable.from_vectors(dim, {w: np.array(v) for w, v in reference.items()})
    tokens = st.sampled_from(words + ["oov", "\u4e2d\u6587"])
    sentences = data.draw(st.lists(st.lists(tokens, min_size=1, max_size=5), min_size=1,
                                   max_size=4))
    window = data.draw(st.integers(1, 7))
    for table in (full, lazy):
        assert (len(table), table.duplicates_skipped) == (len(reference),
                                                          word_lines - len(reference))
        for batch in (sentences[:1], sentences):  # a second call reads only the rest
            sents = [AnnotatedSentence(tuple(tokens)) for tokens in batch]
            expected = context_embedding(sents, window, dense)
            got = context_embedding(sents, window, table)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        for word in words:
            assert table.lookup(word).tolist() == reference[word]


# --- the block scan and the hashed index ------------------------------------------


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(word2vec_files(), st.integers(1, 6), st.data())
def test_blocks_that_cut_lines_and_words_change_no_byte(tmp_path, monkeypatch, file, block,
                                                        data):
    # Blocks of 1-6 bytes cut every line, "\r\n" pair and multi-byte word.
    content, words = file
    p = tmp_path / "vec.txt"
    p.write_bytes(content)
    want = load_embeddings(p)  # one block holds the whole file
    with monkeypatch.context() as patch:
        patch.setattr(embeddings, "_BLOCK", block)
        full = load_embeddings(p)
        lazy = load_embeddings(p, sha256=want.source["sha256"])
    index = ("_hashes", "_starts", "_lengths", "_checks")
    tokens = st.sampled_from(words + ["oov"])
    sents = [AnnotatedSentence(tuple(tokens)) for tokens in
             data.draw(st.lists(st.lists(tokens, min_size=1, max_size=5), min_size=1, max_size=4))]
    expected = context_embedding(sents, 2, want)
    for table in (full, lazy):
        assert (len(table), table.duplicates_skipped) == (len(want), want.duplicates_skipped)
        assert len(table) == len(set(words)) and table.unread == len(table)
        for name in index:
            assert getattr(table, name).tobytes() == getattr(want, name).tobytes()
        assert context_embedding(sents, 2, table).tobytes() == expected.tobytes()
        for word in words:
            assert table.lookup(word).tobytes() == want.lookup(word).tobytes()


def test_every_block_size_reads_the_same_lines_and_line_numbers(tmp_path, monkeypatch):
    # "\r\r\n" is a word line ended by "\r", then a blank "\r\n" line.
    good = "3 2\r\n\u4e2d 1 2\r\r\n\u3000\nb 3 4\rc 5 6".encode()
    bad = good.replace(b"b 3 4", b"b 3")
    p, q = tmp_path / "good.txt", tmp_path / "bad.txt"
    p.write_bytes(good)
    q.write_bytes(bad)
    want = {"\u4e2d": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]}
    sha = sha256_of(p)
    for block in range(1, len(good) + 1):
        monkeypatch.setattr(embeddings, "_BLOCK", block)
        for table in (load_embeddings(p), load_embeddings(p, sha256=sha)):
            assert len(table) == 3 and table.duplicates_skipped == 0
            for word in ("c", "\u4e2d", "b"):
                assert table.lookup(word).tolist() == want[word]
        with pytest.raises(EmbeddingError, match="line 5: expected 2 components, got 1"):
            load_embeddings(q)
        with pytest.raises(EmbeddingError, match="line 5: expected 2 components, got 1"):
            load_embeddings(q, sha256=sha256_of(q)).lookup("b")


def _word2vec_bytes(end: str, words: int = 200) -> bytes:
    """A 2-dim word2vec file with `end` line ends, a blank line, a duplicate
    and non-ASCII words, larger than hashlib's 2 KiB GIL-release size."""
    lines = [f"{words + 1} 2", "\u4e2d 0.5 -1", "", "\u4e2d 9 9"]
    lines += [f"w{i} {i} {-i / 7!r}" for i in range(words)]
    return end.join(lines).encode() + end.encode()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
def test_the_recorded_hash_is_the_one_pass_hash_of_the_file(tmp_path, monkeypatch, block, end):
    p = tmp_path / "vec.txt"
    p.write_bytes(_word2vec_bytes(end))
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    monkeypatch.setattr(embeddings, "_BLOCK", block)
    for table in (load_embeddings(p), load_embeddings(p, sha256=digest)):
        assert table.source["sha256"] == digest
        assert (len(table), table.duplicates_skipped) == (201, 1)
    with pytest.raises(ModelFormatError) as error:
        load_embeddings(p, sha256="0" * 64)
    assert str(error.value) == (
        f"{p}: file SHA-256 {digest} differs from the {'0' * 64} the model was trained with")


def test_loads_on_more_threads_than_cores_each_record_the_one_pass_hash(tmp_path, monkeypatch):
    paths = [tmp_path / f"vec{i}.txt" for i in range(3)]
    for p, end in zip(paths, ("\n", "\r\n", "\r")):
        p.write_bytes(_word2vec_bytes(end))
    want = [sha256_of(p) for p in paths] * 2
    got = [None] * len(want)

    def load(i):
        got[i] = load_embeddings(paths[i % len(paths)]).source["sha256"]

    monkeypatch.setattr(embeddings, "_BLOCK", 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        loaders = [threading.Thread(target=load, args=(i,)) for i in range(len(want))]
        for loader in loaders:
            loader.start()
        for loader in loaders:
            loader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(loader.is_alive() for loader in loaders)
    assert got == want


@pytest.mark.parametrize("block", [7, 1 << 20])
def test_no_thread_outlives_a_load_that_fails_mid_file(tmp_path, monkeypatch, block):
    content = _word2vec_bytes("\n")
    p = tmp_path / "vec.txt"
    p.write_bytes(content.replace(b"\nw100 100 ", b"\nw100 "))
    monkeypatch.setattr(embeddings, "_BLOCK", block)
    threads = threading.active_count()
    with pytest.raises(EmbeddingError, match="line 105: expected 2 components, got 1"):
        load_embeddings(p)
    assert threading.active_count() == threads
    load_embeddings(p, sha256=sha256_of(p))  # unparsed lines are not checked
    assert threading.active_count() == threads


class _FailingSha256:
    """A hasher whose third update raises."""

    def __init__(self):
        self.updates = 0

    def update(self, chunk):
        self.updates += 1
        if self.updates == 3:
            raise OSError("hasher failed")


@pytest.mark.parametrize("hashed", [False, True], ids=["full", "hashed"])
def test_an_error_of_the_hasher_is_raised_by_the_load(tmp_path, monkeypatch, hashed):
    p = tmp_path / "vec.txt"
    p.write_bytes(_word2vec_bytes("\n"))
    sha = sha256_of(p) if hashed else None
    monkeypatch.setattr(embeddings, "_BLOCK", 64)
    monkeypatch.setattr(embeddings, "hashlib", types.SimpleNamespace(sha256=_FailingSha256))
    threads = threading.active_count()
    with pytest.raises(OSError, match="hasher failed"):
        load_embeddings(p, sha256=sha)
    assert threading.active_count() == threads


@pytest.mark.parametrize("word", [b"\xff", b"a\xe4\xb8", b"\xe4\xb8\xad\x80"],
                         ids=["bad-lead", "cut-short", "stray-continuation"])
@pytest.mark.parametrize("hashed", [False, True], ids=["full", "hashed"])
def test_a_word_that_is_not_utf8_fails_the_load_at_its_line(tmp_path, word, hashed):
    p = tmp_path / "vec.txt"
    p.write_bytes(b"3 2\na 1 2\n\n" + word + b" 3 4\nc 5 6\n")
    with pytest.raises(EmbeddingError, match="line 4: 'utf-8' codec can't decode") as error:
        load_embeddings(p, sha256=sha256_of(p) if hashed else None)
    with pytest.raises(UnicodeDecodeError) as direct:
        word.decode("utf-8")
    assert str(error.value).endswith(f"line 4: {direct.value}")


LINES = st.tuples(st.text(st.sampled_from("ab \u00e9\u4e2d\U0001f600"), min_size=1, max_size=6),
                  st.sampled_from(["\n", "\r\n", "\r"]))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(LINES, max_size=8), st.booleans())
@example([("a", "\n"), ("\u4e2d 1", "\r\n"), ("b c", "\r"), ("  ", "\n")], False)
def test_every_indexed_line_is_keyed_by_the_hash_of_its_word(tmp_path, lines, last_ended):
    # The hashed load indexes word lines unparsed, so lines with no space
    # are indexed too; a word's later lines are duplicates.
    lines = [("1 1", "\n"), ("w 1", "\n")] + lines
    text = "".join(line + end for line, end in lines)
    content = (text if last_ended else text[: -len(lines[-1][1])]).encode("utf-8")
    p = tmp_path / "vec.txt"
    p.write_bytes(content)
    table = load_embeddings(p, sha256=sha256_of(p))
    want, words, offset = [], set(), 0
    for line in content.splitlines(keepends=True):
        word = line.split(b" ")[0].rstrip(b"\r\n")
        if offset and line.strip(b" \r\n") and word not in words:
            want.append((offset, line))
            words.add(word)
        offset += len(line)
    got = sorted(zip(table._starts.tolist(), table._lengths.tolist(), table._hashes.tolist()))
    assert [(start, content[start : start + length]) for start, length, _ in got] == want
    assert table._hashes.dtype == np.int64
    assert [key for *_, key in got] == [hash(embeddings._word(line)) for _, line in want]


def test_lines_the_scan_classifies_start_with_no_whitespace_character():
    leads = {chr(c).encode("utf-8")[0] for c in range(sys.maxunicode + 1)
             if chr(c).isspace()}
    assert leads <= set(np.flatnonzero(embeddings._CHECKED_LEAD).tolist())


def test_words_that_all_hash_alike_still_get_their_own_rows(tmp_path, monkeypatch):
    p = tmp_path / "vec.txt"
    p.write_text("5 2\nb 1 2\na 3 4\nb 9 9\nc 5 6\na 8 8\n", encoding="utf-8")
    want = {"c": [5.0, 6.0], "oov": [0.0, 0.0], "a": [3.0, 4.0], "b": [1.0, 2.0]}
    monkeypatch.setattr(embeddings, "_word_key", lambda word: 0)
    for table in (load_embeddings(p), load_embeddings(p, sha256=sha256_of(p))):
        assert (len(table), table.duplicates_skipped) == (3, 2)
        for word in ("c", "oov", "a", "b", "oov"):
            assert table.lookup(word).tolist() == want[word]
        assert len(table) == 3 and table.unread == 0


def test_an_oov_word_searches_the_index_once(tmp_path, monkeypatch):
    p = tmp_path / "vec.txt"
    p.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
    table = load_embeddings(p, sha256=sha256_of(p))
    searched = []  # every search of the index keys the word first
    monkeypatch.setattr(embeddings, "_word_key", lambda word: searched.append(word) or hash(word))
    sentence = AnnotatedSentence(("oov", "a", "oov"))
    assert context_rows((sentence,), 1, table).tolist() == [[0, 0], [0, 1], [1, 0], [0, 0]]
    context_rows((sentence,), 1, table)
    assert not table.lookup("oov").any() and not table.lookup("\ud800").any()
    assert len(searched) == 3  # "oov", "a" and the lone surrogate once each
    assert table.unread == 1


def test_hashed_index_keeps_no_python_object_per_word(tmp_path):
    words = 20_000
    p = tmp_path / "vec.txt"
    p.write_text(f"{words} 1\n" + "".join(f"w{i} {i % 7}\n" for i in range(words)),
                 encoding="utf-8")
    sha = sha256_of(p)
    load_embeddings(p, sha256=sha)  # first-call allocations are not the table's
    for hashed in (sha, None):
        tracemalloc.start()
        try:
            table = load_embeddings(p, sha256=hashed)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == words and table.unread == words
        assert kept < 40 * words
        del table


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


def test_fallback_rejects_a_word_with_no_utf8_form():
    with pytest.raises(EmbeddingError, match=r"'a\\ud800'"):
        deterministic_fallback_table(["ok", "a\ud800"], 2, 0)


def _stream_fallback_vector(word: str, dim: int, seed: int) -> np.ndarray:
    """fallback_vector's documented derivation, one SplitMix64 stream per word."""
    stream = SplitMix64(fnv1a64(word.encode("utf-8")) ^ (seed & (2**64 - 1)))
    return (stream.floats(dim) - 0.5) / dim


@pytest.mark.parametrize("dim, seed", [(5, 3), (1, -7), (16, 2**64 + 9), (100, 0)])
def test_fallback_table_rows_are_fallback_vector_bit_for_bit(dim, seed, monkeypatch):
    monkeypatch.setattr(embeddings, "_FALLBACK_BLOCK", 64)  # 64 // dim words a block, or one
    words = [f"w{i}" for i in range(137)]
    words += ["他们", "词", "é", "a b", "\u2028", "\U0001f600"]
    vocab = words[::-1] + words[::5]  # every word, then duplicates of some
    table = deterministic_fallback_table(vocab, dim, seed)
    assert list(table.rows) == list(dict.fromkeys(vocab))
    assert table.matrix.shape == (len(words) + 1, dim) and not table.matrix[0].any()
    for word, row in table.rows.items():
        expected = _stream_fallback_vector(word, dim, seed)
        assert fallback_vector(word, dim, seed).tobytes() == expected.tobytes()
        assert table.matrix[row].tobytes() == expected.tobytes()


def test_fallback_table_names_its_first_word_with_no_utf8_form(monkeypatch):
    monkeypatch.setattr(embeddings, "_FALLBACK_BLOCK", 4 * 8)  # 8 words a block
    first, second = "x\udc80", "\ud800"
    vocab = [f"w{i}" for i in range(11)] + [first, "ok", second]
    with pytest.raises(EmbeddingError) as direct:
        fallback_vector(first, 4, 0)
    with pytest.raises(EmbeddingError) as error:
        deterministic_fallback_table(vocab, 4, 0)
    assert str(error.value) == str(direct.value) and repr(first) in str(error.value)


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


@settings(max_examples=60)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "oov"]), min_size=1, max_size=4),
                max_size=4),
       st.integers(min_value=1, max_value=6))
def test_context_rows_read_each_gaps_window_of_its_sentence(token_lists, window):
    # Sentences shorter than the window, and no sentence at all, included.
    table = basis_table(["a", "b"])
    sents = [AnnotatedSentence(tuple(tokens)) for tokens in token_lists]
    want = []
    for sent in sents:
        ids = [table.row(tok) for tok in sent.tokens]
        for g in range(len(ids) + 1):
            want.append([ids[i] if 0 <= i < len(ids) else 0 for i in range(g - window, g + window)])
    got = context_rows(sents, window, table)
    assert got.shape == (len(want), 2 * window) and got.dtype == np.intp
    assert got.tolist() == want


# --- first-layer projections ----------------------------------------------------


@settings(max_examples=40)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "oov"]), min_size=1, max_size=6),
             min_size=1, max_size=5),
    st.integers(min_value=1, max_value=3),
)
def test_projection_is_the_feature_product_and_ignores_grouping(token_lists, window):
    sents = [AnnotatedSentence(tuple(tokens)) for tokens in token_lists]
    weights = np.random.default_rng(window).uniform(-1, 1, (7, 2 * window * 5))
    whole = deterministic_fallback_table(["a", "b", "c"], 5, seed=4)
    layer = DenseLayer(weights, np.linspace(-1, 1, 7))
    got = context_projection(context_rows(sents, window, whole), whole, layer)
    want = context_embedding(sents, window, whole) @ weights.T + layer.bias
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    # A second table scores the sentences one at a time, last first.
    alone = deterministic_fallback_table(["a", "b", "c"], 5, seed=4)
    parts = [context_projection(context_rows((sent,), window, alone), alone, layer)
             for sent in reversed(sents)]
    assert np.array_equal(got, np.concatenate(parts[::-1]))


def test_projection_caches_only_the_rows_scored():
    table = basis_table(["a", "b", "c", "d"])
    weights = np.arange(16.0).reshape(2, 8)
    rows = context_rows((AnnotatedSentence(("a", "oov", "a")),), 1, table)
    assert rows.tolist() == [[0, 1], [1, 0], [0, 1], [1, 0]]
    context_projection(rows, table, DenseLayer(weights, np.zeros(2)))
    (cache,) = table._projections.values()
    assert cache.count == 2  # rows 0 and 1
    assert not weights.flags.writeable


def test_projection_of_no_gaps_is_empty():
    table = basis_table(["a"])
    rows = context_rows((), 2, table)
    assert rows.shape == (0, 4)
    assert context_projection(rows, table, DenseLayer(np.ones((3, 4)), np.ones(3))).shape == (0, 3)


def test_scoring_makes_the_bias_read_only_and_a_new_bias_gets_a_new_tile():
    table = basis_table(["a", "b"])
    rows = context_rows((AnnotatedSentence(("a", "b")),), 1, table)
    layer = DenseLayer(np.arange(12.0).reshape(3, 4), np.array([1.0, 2.0, 3.0]))
    first = context_projection(rows, table, layer)
    assert not layer.bias.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        layer.bias[0] = 5.0
    (cache,) = table._projections.values()
    tile = cache.tile
    assert tile.shape == (embeddings._SUM_BLOCK, 3) and (tile == layer.bias).all()
    context_projection(rows, table, layer)
    assert cache.tile is tile  # the same bias keeps its tile
    layer.bias = np.array([-1.0, 0.0, 1.0])
    second = context_projection(rows, table, layer)
    assert cache.tile is not tile and (cache.tile == layer.bias).all()
    assert not layer.bias.flags.writeable
    assert np.array_equal(second, first - [2.0, 2.0, 2.0])


def test_projection_cache_dies_with_its_weights():
    table = basis_table(["a", "b"])
    rows = context_rows((AnnotatedSentence(("a", "b")),), 1, table)
    context_projection(rows, table, DenseLayer(np.ones((3, 4)), np.zeros(3)))
    assert not table._projections  # the weight matrix was a temporary


def test_projection_cache_is_bounded_and_starting_over_moves_no_byte(monkeypatch):
    # 40 words, 3 gaps per block: the cache holds at most 2 slots * 3 = 6
    # rows, so it starts over many times while scoring the sentences, and
    # the second half of them reads the words of the first half again.
    words = [f"w{i}" for i in range(40)]
    sents = [AnnotatedSentence(tuple(words[i : i + 5])) for i in range(0, 40, 3)]
    sents += sents[::-1]
    layer = DenseLayer(np.random.default_rng(0).uniform(-1, 1, (5, 2 * 3)), np.ones(5))
    unbounded = deterministic_fallback_table(words, 3, seed=1)
    want = context_projection(context_rows(sents, 1, unbounded), unbounded, layer)
    monkeypatch.setattr(embeddings, "_CACHE_BYTES", 0)
    monkeypatch.setattr(embeddings, "_SUM_BLOCK", 3)
    bounded = deterministic_fallback_table(words, 3, seed=1)
    got = context_projection(context_rows(sents, 1, bounded), bounded, layer)
    assert np.array_equal(got, want)
    (cache,) = bounded._projections.values()
    assert cache.capacity == 6
    assert cache.count <= 6 and cache.products.shape[1] <= 6


@pytest.mark.parametrize("hidden, slots, dim", [(200, 4, 100), (37, 6, 33), (5, 2, 3)])
def test_a_rows_products_do_not_depend_on_its_batch(hidden, slots, dim):
    # Each batch of new rows is computed by one einsum call; every row of
    # it, at every position and for every batch size, must get the bytes
    # of the one-row call.
    rng = np.random.default_rng(hidden)
    matrix = rng.uniform(-1, 1, (700, dim))
    weights = rng.uniform(-1, 1, (hidden, slots * dim))
    by_slot = weights.reshape(hidden, slots, dim)
    for size in (1, 2, 16, 300):
        for first in sorted({350, 351 - size // 2, 351 - size}):  # row 350 first, mid, last
            cache = embeddings._Projections(slots, hidden)
            batch = np.arange(first, first + size)
            at = cache.positions(batch, matrix, weights)
            for row, position in zip(batch.tolist(), at.tolist()):
                want = np.einsum("hkd,d->kh", by_slot, matrix[row])
                assert np.array_equal(cache.products[:, position], want), (size, row)


@pytest.mark.parametrize("start_over", [False, True], ids=["kept", "start-over"])
@pytest.mark.parametrize("gaps", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("hidden", [1, 3, 200])
@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_projection_bytes_are_the_slot_order_sum_of_row_products(window, hidden, gaps, start_over,
                                                                 monkeypatch):
    # Each gap must get the bytes of adding its per-row einsum products left
    # to right, then the bias, whatever block it falls in and whatever else
    # it is scored with; a pairwise or reordered sum differs in the last bits
    # (at H = 1 and window 4, np.add.reduce over the slots does).  With no
    # cache budget, 700 words start the cache over many times.
    if start_over:
        monkeypatch.setattr(embeddings, "_CACHE_BYTES", 0)
    rng = np.random.default_rng([window, hidden, gaps])
    table = deterministic_fallback_table([f"w{i}" for i in range(700)], 3, seed=window)
    weights = rng.uniform(-1, 1, (hidden, 2 * window * 3))
    rows = rng.integers(0, len(table.matrix), (gaps, 2 * window))
    rows[0, 0] = 0  # the zero row: products that are zeros of either sign
    rows[-1] = 0  # a gap of zero rows, whose sums are zeros
    by_slot = weights.reshape(hidden, 2 * window, 3)
    products = {r: np.einsum("hkd,d->kh", by_slot, table.matrix[r]) for r in set(rows.flat)}
    sums = np.empty((gaps, hidden))
    for g, gap in enumerate(rows.tolist()):
        total = products[gap[0]][0]
        for k, r in enumerate(gap[1:], start=1):
            total = total + products[r][k]
        sums[g] = total
    # The bias is the last term: +0.0 turns a -0.0 sum into +0.0, -0.0 keeps
    # a zero sum's sign, and minus gap 0's sums cancels them to zeros.
    for bias in (np.zeros(hidden), np.full(hidden, -0.0), rng.uniform(-1, 1, hidden), -sums[0]):
        layer = DenseLayer(weights, bias)
        want = sums + bias
        got = context_projection(rows, table, layer)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for g in range(gaps):
            alone = context_projection(rows[g : g + 1], table, layer)
            assert np.array_equal(alone.view(np.int64), got[g : g + 1].view(np.int64)), g
