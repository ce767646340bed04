"""Word-embedding tables and the gap-feature matrix of a corpus.

Tables load from the word2vec text format (header ``"vocab_size dim"``,
then one ``"word v1 ... vD"`` line per word).  A table is one
``(V + 1, D)`` float64 matrix whose row 0 is the zero vector, plus a
``word -> row`` dict; out-of-vocabulary words and positions beyond the
sentence boundaries both read row 0, so every gap's features have length
2 * window * dim.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import weakref
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence
from .mlp import DenseLayer, ModelFormatError, check_fields
from .rng import fnv1a64, stream_floats

log = logging.getLogger(__name__)

# The fields of each kind of table source besides its kind, as check_source holds them: a
# type marks a field of that type, a pattern a string field that must match it in full.
SOURCE_FIELDS = {"word2vec": {"path": str, "dim": int, "sha256": re.compile("[0-9a-f]{64}")},
                 "fallback": {"vocab": list, "dim": int, "seed": int}}

# Bytes the word2vec scan reads at a time.
_BLOCK = 1 << 20

# First bytes of a word line that the scan leaves to the per-line checks:
# the ASCII characters str.strip() removes, and the lead bytes of the UTF-8
# encodings of the other whitespace characters (C2: U+0085, U+00A0; E1:
# U+1680; E2: U+2000-U+205F; E3: U+3000).  A line that starts with any
# other byte has a word that is not blank.
_CHECKED_LEAD = np.zeros(256, dtype=bool)
_CHECKED_LEAD[[b for b in range(128) if chr(b).isspace()] + [0xC2, 0xE1, 0xE2, 0xE3]] = True

# The key of a word's UTF-8 bytes in the index: Python's keyed 64-bit
# hash(), which differs between processes, so no key is saved or reported.
_word_key = hash

# Gaps whose first-layer products context_projection sums at a time: a
# (2 * window, _SUM_BLOCK, H) block of them stays in cache.
_SUM_BLOCK = 64

# Bytes of per-word first-layer products cached for one weight matrix.
_CACHE_BYTES = 16 << 20

# Values (words x dim) of the fallback vectors deterministic_fallback_table
# computes at a time: one word's vector if it alone is larger.
_FALLBACK_BLOCK = 1 << 16


class EmbeddingError(ValueError):
    """Malformed embedding file or incompatible dimensions."""


class EmbeddingTable:
    """Word -> float64 vector map with a zero unknown-word vector.

    `matrix` has shape (V + 1, dim): row 0 is all zeros and stands for
    unknown words and padding, and each word added takes the next row,
    which `rows` maps it to.  `source` describes how the table was built
    (word2vec file or fallback generator) so a serialized model can name
    the table it was trained with.

    A table that `load_embeddings` returns parses a word's line the first
    time the word is looked up.  Its index holds, sorted by the key
    `hash()` of the word's bytes (file order among equal keys), the
    offset, length and `hash()` of each word's line in the file.  `rows`
    and `matrix` hold only the words read so far, and `unread` counts the
    words still waiting.
    """

    def __init__(self, dim: int, source: dict | None = None, duplicates_skipped: int = 0):
        if dim < 1:
            raise EmbeddingError(f"embedding dim must be >= 1, got {dim}")
        if 8 * dim > np.iinfo(np.intp).max:  # as build_model refuses such weights
            raise OverflowError(f"embedding rows of {dim} float64 values are more bytes "
                                f"than numpy can index")
        self.matrix = self._buffer = np.zeros((1, dim))
        self.rows: dict[str, int] = {}
        self.dim = dim
        self.source = source or {"kind": "inline", "dim": dim}
        self.duplicates_skipped = duplicates_skipped
        self.unread = 0
        self._path: Path | None = None
        self._file = None  # the word2vec file, open while a lookup reads words
        self._hashes = np.zeros(0, dtype=np.int64)
        self._starts = self._lengths = self._checks = np.zeros(0, dtype=np.int64)
        self._waiting = np.zeros(0, dtype=bool)
        self._missing: set[str] = set()  # words the index was searched for in vain
        self._projections: dict[int, _Projections] = {}  # by id() of the weight matrix

    @classmethod
    def from_vectors(cls, dim: int, vectors: dict[str, np.ndarray]) -> EmbeddingTable:
        """Table over `vectors`, whose rows follow the dict's order."""
        table = cls(dim)
        table._buffer = np.zeros((len(vectors) + 1, dim))
        for word, vec in vectors.items():
            if np.shape(vec) != (dim,):
                raise EmbeddingError(
                    f"vector for {word!r} has shape {np.shape(vec)}, expected ({dim},)"
                )
            table._add(word, vec)
        return table

    def _add(self, word: str, vec) -> None:
        """Give `word` the next row, holding `vec`."""
        row = len(self.matrix)
        if row == len(self._buffer):
            self._buffer = _grown(self._buffer, row + 1)
        self._buffer[row] = vec
        self.matrix = self._buffer[: row + 1]
        self.rows[word] = row

    def __len__(self) -> int:
        return len(self.rows) + self.unread

    def lookup(self, word: str) -> np.ndarray:
        """Vector for `word`, or the zero unk vector when absent."""
        row = self.row(word)  # first: reading the word replaces `matrix`
        return self.matrix[row]

    def row(self, word: str) -> int:
        """Row of `word`, read from the file first if it is still unread;
        0 for a word the table lacks.

        An unread word is found by its key in the index.  Each line with
        that key is read until one holds the word, so a key collision
        cannot give one word another's row.  A word not found is
        remembered, and is not searched for again.
        """
        try:
            return self._row(word)
        finally:
            self._close()

    def _row(self, word: str) -> int:
        """`row`, leaving the file open for the next read; the caller closes it."""
        row = self.rows.get(word)
        if row is not None:
            return row
        if not self.unread or word in self._missing:
            return 0
        key = _word_key(word.encode("utf-8", "surrogatepass"))
        for k in range(self._hashes.searchsorted(key), self._hashes.searchsorted(key, "right")):
            if self._waiting[k] and self._read(k) == word:
                return self.rows[word]
        self._missing.add(word)
        return 0

    def _read(self, k: int) -> str:
        """Parse and check the line of unread index entry `k`, give its
        word the next row, and return the word.  The file stays open for
        the next read, until `_close`."""
        if self._file is None:
            self._file = open(self._path, "rb")
        line = _reread(self._file, int(self._starts[k]), int(self._lengths[k]),
                       int(self._checks[k]), self.source["path"])
        try:
            word, vec = _parse_row(line, self.dim)
        except (EmbeddingError, UnicodeDecodeError) as exc:
            raise _line_error(self._file, int(self._starts[k]), self.source["path"], exc) from None
        self._add(word, vec)
        self._waiting[k] = False
        self.unread -= 1
        return word

    def _close(self) -> None:
        """Close the file if a read opened it."""
        if self._file is not None:
            self._file.close()
            self._file = None


def _parse_header(line: bytes, path: Path) -> tuple[int, int]:
    try:
        header = line.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: line 1: {exc}") from None
    if len(header) != 2:
        raise EmbeddingError(f"{path}: header must be 'vocab_size dim'")
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingError(f"{path}: non-integer header fields {header!r}") from None
    if dim < 1:
        raise EmbeddingError(f"{path}: dimension must be positive, got {dim}")
    return vocab_size, dim


def _parse_row(line: bytes, dim: int) -> tuple[str, list[float]]:
    """Word and finite components of one word line; errors carry no location."""
    parts = line.rstrip(b"\r\n").decode("utf-8").split(" ")
    word, comps = parts[0], [p for p in parts[1:] if p]
    if len(comps) != dim:
        raise EmbeddingError(f"expected {dim} components, got {len(comps)}")
    try:
        vec = [float(c) for c in comps]
    except ValueError:
        raise EmbeddingError("non-numeric vector component") from None
    # A finite sum proves every component finite; one that overflows does not.
    if not math.isfinite(sum(vec)) and not all(map(math.isfinite, vec)):
        raise EmbeddingError(f"non-finite vector component for word {word!r}")
    return word, vec


def _line_error(fh, offset: int, path: str | Path, exc: Exception) -> EmbeddingError:
    """`exc` of the line that starts at byte `offset` of the open word2vec file
    `fh`, as the EmbeddingError "<path>: line N: <exc>"; N counts lines as
    text-mode reading does."""
    fh.seek(0)
    head = fh.read(offset)
    line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return EmbeddingError(f"{path}: line {line_no}: {exc}")


def _word(line: bytes) -> bytes:
    """The word of a word line: its bytes up to the first space, or else
    the line without its line end (the only "\r" or "\n" a line holds)."""
    return line.partition(b" ")[0].rstrip(b"\r\n")


def _is_blank(line: bytes) -> bool:
    """Whether a line holds only whitespace, as str.strip() sees it.
    UnicodeDecodeError if its word, or the line of a blank word, is not
    UTF-8."""
    return not (_word(line).decode("utf-8").strip() or line.decode("utf-8").strip())


def _blocks(fh, update):
    """The lines of a binary file, a block of whole lines at a time, read
    _BLOCK bytes at a time; `update(chunk)` gets every chunk read, in file
    order, before its lines are yielded.

    Yields (data, offset, lines): `lines` split the start of `data`, which
    starts at byte `offset` of the file, each with its line end.  Lines
    end where text-mode reading ends them, at "\n", "\r\n" or a lone
    "\r", or at the end of the file.  A line the block cuts, one whose
    "\r" ends the block included, goes to the next block.
    """
    data, offset = b"", 0
    while True:
        chunk = fh.read(max(_BLOCK, len(data)))  # a long line at least doubles the read
        update(chunk)
        data += chunk
        lines = data.splitlines(keepends=True)  # for bytes: at "\n", "\r\n" and "\r" only
        rest = lines.pop() if chunk and lines and not lines[-1].endswith(b"\n") else b""
        if lines:
            yield data, offset, lines
        if not chunk:
            return
        offset += len(data) - len(rest)
        data = rest


def load_embeddings(path: str | Path, sha256: str | None = None) -> EmbeddingTable:
    """Load a word2vec text file; blank lines are skipped, and duplicates
    keep the first occurrence.

    One scan hashes the file and indexes each word's line; the table's
    source records the hash, and a word's line is parsed into a row the
    first time the word is looked up.  The calling thread hashes each
    block it reads, in file order, before it splits and indexes the
    block's lines.  Without `sha256`, the scan also parses and checks
    every word line, duplicates included, and keeps no vector.  With it,
    the file must have that hash, or ModelFormatError is raised, and a
    line is checked only when it is read: a file with the hash a model
    recorded at training was fully checked then, so the lines never read
    hold no error.  A file with no word line is rejected: nothing in it
    shows that the header's `dim` is real.
    """
    path = Path(path)
    sha = hashlib.sha256()
    dim = None
    index: list[tuple[np.ndarray, ...]] = []  # per block: word keys, line starts, lengths, hash()es
    with path.open("rb") as fh:
        for data, offset, lines in _blocks(fh, sha.update):
            sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
            ends = np.cumsum(sizes)
            starts = ends - sizes
            if dim is None:
                vocab_size, dim = _parse_header(lines[0], path)
                lines, starts, ends = lines[1:], starts[1:], ends[1:]
            words = list(map(_word, lines))
            keys = np.fromiter(map(_word_key, words), dtype=np.int64, count=len(words))
            checked = _CHECKED_LEAD[np.frombuffer(data, dtype=np.uint8)[starts]]
            if not data.isascii():
                try:
                    b" ".join(words).decode("utf-8")
                except UnicodeDecodeError:  # the per-line checks find the bad word
                    checked[:] = True
            word_line = ~checked
            # One pass in file order, so the first bad line is the one reported.
            for i in range(len(lines)) if sha256 is None else np.flatnonzero(checked).tolist():
                try:
                    if checked[i] and _is_blank(lines[i]):
                        continue
                    if sha256 is None:
                        _parse_row(lines[i], dim)
                except (EmbeddingError, UnicodeDecodeError) as exc:
                    raise _line_error(fh, offset + int(starts[i]), path, exc) from None
                word_line[i] = True
            starts, ends = starts[word_line], ends[word_line]
            checks = map(hash, compress(lines, word_line.tolist()))
            index.append((keys[word_line], starts + offset, ends - starts,
                          np.fromiter(checks, dtype=np.int64, count=len(starts))))
    digest = sha.hexdigest()
    if sha256 is not None and digest != sha256:
        raise ModelFormatError(
            f"{path}: file SHA-256 {digest} differs from the {sha256} the model was trained with"
        )
    if dim is None:  # an empty file: its missing header raises
        _parse_header(b"", path)
    source = {"kind": "word2vec", "path": str(path), "dim": dim, "sha256": digest}
    table = _lazy_table(path, source, *map(np.concatenate, zip(*index)))
    if table.duplicates_skipped:
        log.warning("%s: skipped %d duplicate word(s), kept first occurrence", path,
                    table.duplicates_skipped)
    if len(table) != vocab_size:
        log.warning(
            "%s: header declares %d words, file has %d distinct", path, vocab_size, len(table)
        )
    return table


def _lazy_table(path: Path, source: dict, keys: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray, checks: np.ndarray) -> EmbeddingTable:
    """Table that reads its rows lazily, over the word lines of a file:
    their word keys, offsets, lengths and `hash()`es in file order.

    Lines whose words share a key are read again, and each word keeps its
    first line, so `duplicates_skipped` is exact whatever collides.
    """
    dim = source["dim"]
    if not len(keys):
        raise EmbeddingError(f"{path}: no word lines, so nothing confirms dimension {dim}")
    order = np.argsort(keys, kind="stable")
    keys, starts, lengths, checks = keys[order], starts[order], lengths[order], checks[order]
    runs = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    sizes = np.diff(np.append(runs, len(keys)))
    keep = np.ones(len(keys), dtype=bool)
    with open(path, "rb") as fh:
        for lo, size in zip(runs[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            seen = set()
            for k in range(lo, lo + size):
                word = _word(_reread(fh, int(starts[k]), int(lengths[k]), int(checks[k]), path))
                keep[k] = word not in seen
                seen.add(word)
    keys, starts, lengths, checks = keys[keep], starts[keep], lengths[keep], checks[keep]
    # A word line with `dim` components takes at least 2 * dim + 1 bytes.
    if not (lengths > 2 * dim).any():
        raise EmbeddingError(f"{path}: no word line is long enough for dimension {dim}")
    table = EmbeddingTable(dim, source, len(keep) - len(keys))
    table._hashes, table._starts, table._lengths, table._checks = keys, starts, lengths, checks
    table._path = path.absolute()
    table.unread = len(keys)
    table._waiting = np.ones(table.unread, dtype=bool)
    return table


def _reread(fh, start: int, length: int, check: int, path: str | Path) -> bytes:
    """Bytes `start : start + length` of an open word2vec file.

    They must still have the keyed 64-bit `hash()` `check` taken in the
    scan that computed the file's SHA-256, so an edit of the line since
    that scan is caught, not served.
    """
    fh.seek(start)
    line = fh.read(length)
    if hash(line) != check:
        raise EmbeddingError(f"{path}: file changed since its SHA-256 was checked")
    return line


def fallback_vector(word: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-embedding: pure function of (word bytes, seed).

    The word's UTF-8 bytes are hashed with FNV-1a 64 and XORed with the
    seed to key a SplitMix64 stream; components are uniform in
    [-0.5/dim, 0.5/dim].  A word with no UTF-8 form is an EmbeddingError.
    """
    return _fallback_vectors([word], dim, seed)[0]


def _fallback_vectors(words: Sequence[str], dim: int, seed: int) -> np.ndarray:
    """The `fallback_vector` of each of `words`, one row each, all from one
    `stream_floats` pass; EmbeddingError for the first word with no UTF-8 form."""
    seed &= (1 << 64) - 1
    keys = np.empty(len(words), dtype=np.uint64)
    for i, word in enumerate(words):
        try:
            keys[i] = fnv1a64(word.encode("utf-8")) ^ seed
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise EmbeddingError(f"word {word!r} has no UTF-8 form: {exc.reason}") from None
    rows = stream_floats(keys, dim)
    rows -= 0.5
    rows /= dim
    return rows


def deterministic_fallback_table(vocab: list[str], dim: int, seed: int) -> EmbeddingTable:
    """Seeded random table over `vocab`; stands in for pretrained vectors.
    Row i + 1 is the `fallback_vector` of the i-th distinct word, computed
    as many words at a time as fit in _FALLBACK_BLOCK values."""
    table = EmbeddingTable(
        dim, {"kind": "fallback", "dim": dim, "seed": seed, "vocab": list(vocab)}
    )
    words = list(dict.fromkeys(vocab))
    table._buffer = np.zeros((len(words) + 1, dim))
    step = max(1, _FALLBACK_BLOCK // dim)
    for lo in range(0, len(words), step):
        block = words[lo : lo + step]
        for word, vec in zip(block, _fallback_vectors(block, dim, seed)):
            table._add(word, vec)
    return table


def check_source(source, what: str = "table source") -> None:
    """ValueError, naming the descriptor `what`, unless `source` is a JSON object of a kind
    in SOURCE_FIELDS with exactly its fields, as typed there, and UTF-8 `vocab` words."""
    kind = source.get("kind") if type(source) is dict else None
    if type(kind) is not str or kind not in SOURCE_FIELDS:
        raise EmbeddingError(f"{what} kind {kind!r} cannot be rebuilt")
    fields = SOURCE_FIELDS[kind]
    try:
        check_fields(source, {"kind", *fields}, what)
    except ValueError as exc:
        raise EmbeddingError(str(exc)) from None
    for key, rule in fields.items():
        if isinstance(rule, re.Pattern):
            if not (type(source[key]) is str and rule.fullmatch(source[key])):
                raise EmbeddingError(f"{what} {key} must match {rule.pattern}, got {source[key]!r}")
        elif type(source[key]) is not rule:
            raise EmbeddingError(f"{what} {key} must be {rule.__name__}, got {source[key]!r}")
    try:  # TypeError for a word that is no string, UnicodeEncodeError for a lone surrogate
        "".join(source.get("vocab", ())).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        raise EmbeddingError(f"{what} vocab must be a list of UTF-8 words") from None


def table_from_source(source: dict) -> EmbeddingTable:
    """Rebuild a table from a `source` that passes `check_source`; a word2vec file must
    have its `sha256`."""
    check_source(source)
    if source["kind"] == "word2vec":
        return load_embeddings(source["path"], sha256=source["sha256"])
    return deterministic_fallback_table(source["vocab"], source["dim"], source["seed"])


def context_rows(
    sentences: Sequence[AnnotatedSentence], window: int, table: EmbeddingTable
) -> np.ndarray:
    """Table-row ids of every candidate gap's context, one row per gap.

    Rows run in sentence order, then gap order: n + 1 for n tokens.  Row
    layout: the `window` tokens left of the gap in sentence order (nearest
    token last), then the `window` tokens right of it (nearest first).
    Positions past either end of a sentence read row 0, so the result has
    shape (gaps, 2 * window).  Words of a lazily read table that these
    rows need are read first, all through one open of its file.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # Row ids of `window` pads, then of each sentence's tokens followed by
    # `window` pads.  Gap g of a sentence whose first token sits at
    # position p reads the 2 * window positions from p - window + g.
    get, row = table.rows.get, table._row  # a row read before is one dict lookup
    ids = [0] * window
    first: list[int] = []
    try:
        for sent in sentences:
            first.extend(range(len(ids) - window, len(ids) - window + len(sent.tokens) + 1))
            ids.extend([get(tok) or row(tok) for tok in sent.tokens] + [0] * window)
    finally:
        table._close()
    ids = np.array(ids, dtype=np.intp)
    # Row s of this view is ids[s : s + 2 * window]; an empty corpus has none.
    step = ids.itemsize
    windows = np.ndarray((max(len(ids) - 2 * window + 1, 0), 2 * window), np.intp, ids, 0,
                         (step, step))
    return windows.take(np.array(first, dtype=np.intp), axis=0)


def context_embedding(
    sentences: Sequence[AnnotatedSentence], window: int, table: EmbeddingTable
) -> np.ndarray:
    """Features of every candidate gap of every sentence, one row per gap:
    the table rows of `context_rows`, side by side, so every row has length
    2 * window * dim."""
    rows = context_rows(sentences, window, table)
    return table.matrix[rows].reshape(len(rows), 2 * window * table.dim)


class _Projections:
    """Per-slot products of one weight matrix with some table rows:
    `products[k, where[r]]` is `W[:, k*D:(k+1)*D] @ matrix[r]`, and
    `where[r]` is -1 for a row not held.  The first `count` products are
    held, at most `capacity` of them: the cache of a (2 * window * D)-wide
    matrix of H rows holds up to _CACHE_BYTES of products, and at least
    the rows one block of _SUM_BLOCK gaps can read.  `tile` holds
    _SUM_BLOCK copies of `bias`, the bias last scored with the matrix."""

    def __init__(self, slots: int, hidden: int):
        self.capacity = max(slots * _SUM_BLOCK, _CACHE_BYTES // (8 * slots * hidden))
        self._hold(np.empty((slots, min(16, self.capacity), hidden)))
        self.where = np.empty(0, dtype=np.intp)
        self.count = 0
        self.bias = self.tile = None

    def bias_tile(self, bias: np.ndarray) -> np.ndarray:
        """`tile` for `bias`, rebuilt when `bias` is another array than
        the last one; `bias` is made read-only so the tile cannot go stale."""
        if bias is not self.bias:
            hidden = self.products.shape[2]
            if bias.shape != (hidden,):
                raise ValueError(f"bias of shape {bias.shape} does not fit {hidden} outputs")
            bias.flags.writeable = False
            self.bias, self.tile = bias, np.tile(bias, (_SUM_BLOCK, 1))
        return self.tile

    def _hold(self, products: np.ndarray) -> None:
        """Keep `products`, with its (slots * length, H) view `flat`, in
        which slot k's product at position p is row `offsets[k] + p`."""
        slots, length, hidden = products.shape
        self.products = products
        self.flat = products.reshape(slots * length, hidden)
        self.offsets = np.arange(0, slots * length, length)[:, None]

    def positions(self, rows: np.ndarray, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """`where[rows]`, as a new array, once the products of every row in
        `rows` are held.

        Rows not held are computed by one np.einsum call, whose loops are
        numpy's own, not BLAS: a row's bytes depend on neither the other rows
        computed, nor when, nor the BLAS build or thread count.  When they do
        not fit, the cache starts over with the rows of `rows` alone.
        """
        if len(self.where) < len(matrix):  # the table has read more words
            self.where = _grown(self.where, len(matrix), fill=-1)
        at = self.where[rows]
        if np.minimum.reduce(at, axis=None, initial=0) < 0:
            new = _distinct(rows[at < 0])
            if self.count + len(new) > self.capacity:
                self.where.fill(-1)
                self.count = 0
                new = _distinct(rows)
            start, stop = self.count, self.count + len(new)
            if stop > self.products.shape[1]:
                self._hold(_grown(self.products, stop, axis=1, cap=self.capacity))
            slots, _, hidden = self.products.shape
            self.products[:, start:stop] = np.einsum(
                "hkd,rd->krh", weights.reshape(hidden, slots, -1), matrix[new])
            self.where[new] = np.arange(start, stop)
            self.count = stop
            at = self.where[rows]
        return at


def _grown(a: np.ndarray, n: int, axis: int = 0, cap: float = math.inf, fill=None) -> np.ndarray:
    """Copy of `a` whose `axis` has room for `n` entries: at least double
    its length, but not past `cap`.  The new entries are `fill`, or unset."""
    shape = list(a.shape)
    shape[axis] = min(max(2 * shape[axis], n), cap)
    grown = np.empty(shape, a.dtype) if fill is None else np.full(shape, fill, a.dtype)
    grown.swapaxes(0, axis)[: a.shape[axis]] = a.swapaxes(0, axis)
    return grown


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of `ids`, sorted (not np.unique, which imports
    numpy.ma, ~1.3 MB)."""
    ids = np.sort(ids, axis=None)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def context_projection(rows: np.ndarray, table: EmbeddingTable, layer: DenseLayer) -> np.ndarray:
    """First-layer affine output of the gaps whose context rows are `rows`.

    `rows` is a `context_rows` matrix and `layer` a first layer: (H,
    2 * window * dim) weights W and H biases b.  Gap g gets the sum, in
    slot order, of the products `W[:, k*D:(k+1)*D] @ matrix[rows[g, k]]`,
    then b: the same value as `context_embedding(...)[g] @ W.T + b` up to
    rounding.  A gap's bytes do not depend on the other gaps scored with
    it or on the BLAS thread count.

    The products are cached per table and weight matrix, for table rows
    that scored gaps have read, up to a bounded size, and W and b are made
    read-only so the cache cannot go stale.  A word costs one product the
    first time it is scored (more if the cache has started over since),
    so the speed-up over a dense product grows with how often words
    repeat.  Sums run a block of _SUM_BLOCK gaps at a time: one `take`
    gathers the block's (2 * window, _SUM_BLOCK, H) products, and
    elementwise adds sum them in slot order, with b, from a tile of
    _SUM_BLOCK copies, as the last term (not np.add.reduce, which for one
    gap at H = 1 runs as numpy's inner loop and may change the order and
    the sign of a zero).
    """
    weights = layer.weights
    hidden, width = weights.shape
    slots = rows.shape[1]
    if width != slots * table.dim:
        raise ValueError(f"weights of width {width} do not fit {slots} slots of dim {table.dim}")
    cache = table._projections.get(id(weights))
    if cache is None:
        weights.flags.writeable = False
        cache = table._projections[id(weights)] = _Projections(slots, hidden)
        weakref.finalize(weights, table._projections.pop, id(weights), None)
    tile = cache.bias_tile(layer.bias)
    out = np.empty((len(rows), hidden))
    by_slot = rows.T
    for lo in range(0, len(rows), _SUM_BLOCK):
        at = cache.positions(by_slot[:, lo : lo + _SUM_BLOCK], table.matrix, weights)
        at += cache.offsets
        terms = cache.flat.take(at, axis=0)  # (slots, gaps, H)
        part = np.add(terms[0], terms[1], out=out[lo : lo + _SUM_BLOCK])
        for k in range(2, slots):
            part += terms[k]
        part += tile[: len(part)]
    return out
