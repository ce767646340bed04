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
import os
import re
from array import array
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence
from .mlp import ModelFormatError
from .rng import SplitMix64, fnv1a64

log = logging.getLogger(__name__)

# The fields that table_from_source reads, per source kind.  A type marks a
# required field of that type; a pattern marks an optional string field
# that must match it in full.
SOURCE_FIELDS = {"word2vec": {"path": str, "dim": int, "sha256": re.compile("[0-9a-f]{64}")},
                 "fallback": {"vocab": list, "dim": int, "seed": int}}

# A line as text-mode reading sees it: up to "\r\n", "\r" or "\n", or the
# end of the data.  Both are single bytes in UTF-8, so no character splits.
_TEXT_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


class EmbeddingError(ValueError):
    """Malformed embedding file or incompatible dimensions."""


class EmbeddingTable:
    """Word -> float64 vector map with a zero unknown-word vector.

    `matrix` has shape (V + 1, dim): row 0 is all zeros and stands for
    unknown words and padding, and `rows` maps each of the V words to its
    row.  `source` describes how the table was built (word2vec file or
    fallback generator) so a serialized model can name the table it was
    trained with.

    A table that `load_embeddings` reads lazily parses a word's line the
    first time the word is looked up.  Until then `rows` maps the word to
    -1 - k, where `_spans[3k : 3k + 3]` holds the offset, length and
    `hash()` of its line in the file; `matrix` holds only the rows read so
    far, and `unread` counts the words still waiting.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        rows: dict[str, int],
        source: dict | None = None,
        duplicates_skipped: int = 0,
    ):
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise EmbeddingError(f"embedding matrix must be (V + 1, dim >= 1), got {matrix.shape}")
        if matrix.shape[0] != len(rows) + 1 or matrix[0].any():
            raise EmbeddingError(
                f"embedding matrix needs a zero row 0 plus one row per word ({len(rows)})"
            )
        self.matrix = self._buffer = matrix
        self.rows = rows
        self.dim = matrix.shape[1]
        self.source = source or {"kind": "inline", "dim": self.dim}
        self.duplicates_skipped = duplicates_skipped
        self.unread = 0
        self._spans = array("q")
        self._path: Path | None = None

    @classmethod
    def from_vectors(
        cls, dim: int, vectors: dict[str, np.ndarray], source: dict | None = None
    ) -> EmbeddingTable:
        """Table over `vectors`, whose rows follow the dict's order."""
        if dim < 1:
            raise EmbeddingError(f"embedding dim must be >= 1, got {dim}")
        matrix = np.zeros((len(vectors) + 1, dim))
        for row, (word, vec) in enumerate(vectors.items(), start=1):
            if np.shape(vec) != (dim,):
                raise EmbeddingError(
                    f"vector for {word!r} has shape {np.shape(vec)}, expected ({dim},)"
                )
            matrix[row] = vec
        return cls(matrix, {word: row for row, word in enumerate(vectors, start=1)}, source)

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(self, word: str) -> np.ndarray:
        """Vector for `word`, or the zero unk vector when absent."""
        row = self.rows.get(word, 0)
        if row < 0:
            row = self._read(row)
        return self.matrix[row]

    def _read_rows(self, ids: np.ndarray) -> None:
        """Replace the unread-word markers among `ids` by the words' rows."""
        unread = ids < 0
        markers, which = np.unique(ids[unread], return_inverse=True)
        ids[unread] = np.array([self._read(m) for m in markers.tolist()], dtype=np.intp)[which]

    def _read(self, marker: int) -> int:
        """Parse and check the line of an unread word, give the word the
        next row, and return that row.

        The line is read from the file again.  It must still have the
        keyed 64-bit `hash()` taken in the pass that computed the file's
        SHA-256, so an edit of the line since that pass is caught, not
        served.
        """
        k = -1 - marker
        start, length, check = self._spans[3 * k : 3 * k + 3]
        with open(self._path, "rb") as fh:
            fh.seek(start)
            line = fh.read(length)
        if hash(line) != check:
            raise EmbeddingError(
                f"{self.source['path']}: file changed since its SHA-256 was checked"
            )
        try:
            word, vec = _parse_row(line, self.dim)
        except (EmbeddingError, UnicodeDecodeError) as exc:
            line_no = _line_number(self._path, start)
            raise EmbeddingError(f"{self.source['path']} line {line_no}: {exc}") from None
        vec = np.array(vec)
        if not np.isfinite(vec).all():
            raise EmbeddingError(
                f"{self.source['path']}: non-finite vector component for word {word!r}"
            )
        row = len(self.matrix)
        if row == len(self._buffer):
            self._buffer = np.concatenate([self._buffer, np.zeros_like(self._buffer)])
        self._buffer[row] = vec
        self.matrix = self._buffer[: row + 1]
        self.rows[word] = row
        self.unread -= 1
        return row


def _parse_header(line: bytes, path: Path, expected_dim: int | None) -> tuple[int, int]:
    try:
        header = line.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path} line 1: {exc}") from None
    if len(header) != 2:
        raise EmbeddingError(f"{path}: header must be 'vocab_size dim'")
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingError(f"{path}: non-integer header fields {header!r}") from None
    if dim < 1:
        raise EmbeddingError(f"{path}: dimension must be positive, got {dim}")
    if expected_dim is not None and dim != expected_dim:
        raise EmbeddingError(
            f"{path}: file dimension {dim} conflicts with expected {expected_dim}"
        )
    return vocab_size, dim


def _parse_row(line: bytes, dim: int) -> tuple[str, list[float]]:
    """Word and components of one word line; errors carry no location."""
    parts = line.rstrip(b"\r\n").decode("utf-8").split(" ")
    word, comps = parts[0], [p for p in parts[1:] if p]
    if len(comps) != dim:
        raise EmbeddingError(f"expected {dim} components, got {len(comps)}")
    try:
        return word, [float(c) for c in comps]
    except ValueError:
        raise EmbeddingError("non-numeric vector component") from None


def _line_number(path: Path, offset: int) -> int:
    """Number of the line that starts at byte `offset` of a file, counted
    as text-mode reading counts lines."""
    with open(path, "rb") as fh:
        head = fh.read(offset)
    return 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def load_embeddings(
    path: str | Path, expected_dim: int | None = None, sha256: str | None = None
) -> EmbeddingTable:
    """Load a word2vec text file; blank lines are skipped, and duplicates
    keep the first occurrence.

    One pass hashes the file and notes each word's line; the table's
    source records the hash.  Without `sha256`, the pass also parses and
    checks every word line, duplicates included.  With it, the file must
    have that hash, or ModelFormatError is raised, and a word's line is
    parsed and checked only when the word is first looked up.  A file
    with the hash a model recorded at training was fully checked then, so
    the lines never read hold no error.  A file with no word line is
    rejected: nothing in it shows that the header's `dim` is real.
    """
    path = Path(path)
    sha = hashlib.sha256()
    header = None
    rows: dict[str, int] = {}
    spans = array("q")
    matrix = None  # allocated once a word line has shown `dim` to be real
    duplicates = offset = 0
    with path.open("rb") as fh:
        for raw in fh:  # binary reading ends a line at "\n" only
            sha.update(raw)
            for line in _TEXT_LINE.findall(raw) if b"\r" in raw else (raw,):
                start = offset
                offset += len(line)
                if header is None:
                    header = line
                    if sha256 is None:
                        vocab_size, dim = _parse_header(header, path, expected_dim)
                        # A word line takes at least 2 * dim + 2 bytes ("w", dim times
                        # " x", "\n"), so the file size caps the rows a header can ask for.
                        size = os.fstat(fh.fileno()).st_size
                        capacity = max(1, min(vocab_size, size // (2 * dim + 2)))
                    continue
                try:
                    space = line.find(b" ")
                    word = (line[:space] if space >= 0 else line.rstrip(b"\r\n")).decode("utf-8")
                    if not (word.strip() or line.decode("utf-8").strip()):
                        continue  # a blank line
                    if sha256 is None:
                        vec = _parse_row(line, dim)[1]
                except (EmbeddingError, UnicodeDecodeError) as exc:
                    line_no = _line_number(path, start)
                    raise EmbeddingError(f"{path} line {line_no}: {exc}") from None
                if word in rows:
                    duplicates += 1
                elif sha256 is not None:
                    rows[word] = -1 - len(spans) // 3
                    spans.extend((start, len(line), hash(line)))
                else:
                    row = len(rows) + 1
                    if matrix is None:
                        matrix = np.zeros((capacity + 1, dim))
                    elif row == len(matrix):
                        matrix = np.concatenate([matrix, np.zeros_like(matrix)])
                    matrix[row] = vec
                    rows[word] = row
    digest = sha.hexdigest()
    if sha256 is not None and digest != sha256:
        raise ModelFormatError(
            f"{path}: file SHA-256 {digest} differs from the {sha256} the model was trained with"
        )
    if sha256 is not None or header is None:  # the header is not parsed yet
        vocab_size, dim = _parse_header(header or b"", path, expected_dim)
    if not rows:
        raise EmbeddingError(f"{path}: no word lines, so nothing confirms dimension {dim}")
    if sha256 is None:
        if len(matrix) > len(rows) + 1:
            matrix = matrix[: len(rows) + 1].copy()
        if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):  # no full-size temporary
            bad = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            word = next(w for w, row in rows.items() if row == bad)
            raise EmbeddingError(f"{path}: non-finite vector component for word {word!r}")
        table = EmbeddingTable(matrix, rows, duplicates_skipped=duplicates)
    else:
        # A word line with `dim` components takes at least 2 * dim + 1 bytes.
        if not any(length > 2 * dim for length in spans[1::3]):
            raise EmbeddingError(f"{path}: no word line is long enough for dimension {dim}")
        table = EmbeddingTable(np.zeros((1, dim)), {}, duplicates_skipped=duplicates)
        table.rows, table.unread, table._spans = rows, len(rows), spans
        table._path = path.absolute()
    table.source = {"kind": "word2vec", "path": str(path), "dim": dim, "sha256": digest}
    if table.duplicates_skipped:
        log.warning("%s: skipped %d duplicate word(s), kept first occurrence", path,
                    table.duplicates_skipped)
    if len(table) != vocab_size:
        log.warning(
            "%s: header declares %d words, file has %d distinct", path, vocab_size, len(table)
        )
    return table


def fallback_vector(word: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-embedding: pure function of (word bytes, seed).

    The word's UTF-8 bytes are hashed with FNV-1a 64 and XORed with the
    seed to key a SplitMix64 stream; components are uniform in
    [-0.5/dim, 0.5/dim].
    """
    stream = SplitMix64(fnv1a64(word.encode("utf-8")) ^ (seed & ((1 << 64) - 1)))
    return (stream.floats(dim) - 0.5) / dim


def deterministic_fallback_table(vocab: list[str], dim: int, seed: int) -> EmbeddingTable:
    """Seeded random table over `vocab`; stands in for pretrained vectors."""
    if dim < 1:
        raise EmbeddingError(f"embedding dim must be >= 1, got {dim}")
    vectors = {word: fallback_vector(word, dim, seed) for word in vocab}
    return EmbeddingTable.from_vectors(
        dim, vectors, {"kind": "fallback", "dim": dim, "seed": seed, "vocab": list(vocab)}
    )


def table_from_source(source: dict) -> EmbeddingTable:
    """Rebuild a table from its `source` descriptor (used by model loading)."""
    kind = source.get("kind")
    if kind == "word2vec":
        return load_embeddings(
            source["path"], expected_dim=source.get("dim"), sha256=source.get("sha256")
        )
    if kind == "fallback":
        return deterministic_fallback_table(source["vocab"], source["dim"], source["seed"])
    raise EmbeddingError(f"cannot rebuild embedding table from source kind {kind!r}")


def context_embedding(
    sentences: Sequence[AnnotatedSentence], window: int, table: EmbeddingTable
) -> np.ndarray:
    """Features of every candidate gap of every sentence, one row per gap.

    Rows run in sentence order, then gap order: n + 1 for n tokens.  Row
    layout: the `window` tokens left of the gap in sentence order (nearest
    token last), then the `window` tokens right of it (nearest first).
    Positions past either end of a sentence read the zero row, so every
    row has length 2 * window * dim.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # Row ids of `window` pads, then of each sentence's tokens followed by
    # `window` pads.  Gap g of a sentence whose first token sits at
    # position p reads positions p - window + g .. p + window + g - 1.
    ids = [0] * window
    first: list[int] = []
    for sent in sentences:
        first.extend(range(len(ids) - window, len(ids) - window + len(sent.tokens) + 1))
        ids.extend([table.rows.get(tok, 0) for tok in sent.tokens] + [0] * window)
    row_ids = np.array(ids, dtype=np.intp)
    if table.unread and min(ids) < 0:
        table._read_rows(row_ids)
    windows = np.array(first, dtype=np.intp)[:, None] + np.arange(2 * window)
    features = table.matrix[row_ids[windows]]
    return features.reshape(len(first), 2 * window * table.dim)
