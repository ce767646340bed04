"""Word-embedding tables and the gap-feature matrix of a sentence.

Tables load from the word2vec text format (header ``"vocab_size dim"``,
then one ``"word v1 ... vD"`` line per word).  A table is one
``(V + 1, D)`` float64 matrix whose row 0 is the zero vector, plus a
``word -> row`` dict; out-of-vocabulary words and positions beyond the
sentence boundaries both read row 0, so every gap's features have length
2 * window * dim.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .corpus import AnnotatedSentence
from .rng import SplitMix64, fnv1a64

log = logging.getLogger(__name__)


class EmbeddingError(ValueError):
    """Malformed embedding file or incompatible dimensions."""


class EmbeddingTable:
    """Immutable word -> float64 vector map with a zero unknown-word vector.

    `matrix` has shape (V + 1, dim): row 0 is all zeros and stands for
    unknown words and padding, and `rows` maps each of the V words to its
    row.  `source` describes how the table was built (word2vec file or
    fallback generator) so a serialized model can name the table it was
    trained with.
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
        self.matrix = matrix
        self.rows = rows
        self.dim = matrix.shape[1]
        self.source = source or {"kind": "inline", "dim": self.dim}
        self.duplicates_skipped = duplicates_skipped

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

    def __contains__(self, word: str) -> bool:
        return word in self.rows

    def lookup(self, word: str) -> np.ndarray:
        """Vector for `word`, or the zero unk vector when absent."""
        return self.matrix[self.rows.get(word, 0)]


def load_embeddings(path: str | Path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load a word2vec text file; duplicates keep the first occurrence.

    Rows are written in place into a matrix sized from the header (capped
    by what the file's size can hold), grown only if the file has more
    distinct words than the header declares.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
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
        # A word line takes at least 2 * dim + 2 bytes ("w", dim times " x",
        # "\n"), so the file size caps the rows a header can ask for.
        capacity = max(1, min(vocab_size, path.stat().st_size // (2 * dim + 2)))
        matrix = None  # allocated once a word line has shown `dim` to be real
        rows: dict[str, int] = {}
        duplicates = 0
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            word, comps = parts[0], [p for p in parts[1:] if p]
            if len(comps) != dim:
                raise EmbeddingError(
                    f"{path} line {line_no}: expected {dim} components, got {len(comps)}"
                )
            try:
                vec = [float(c) for c in comps]
            except ValueError:
                raise EmbeddingError(
                    f"{path} line {line_no}: non-numeric vector component"
                ) from None
            if word in rows:
                duplicates += 1
                continue
            row = len(rows) + 1
            if matrix is None:
                matrix = np.zeros((capacity + 1, dim))
            elif row == len(matrix):
                matrix = np.concatenate([matrix, np.zeros_like(matrix)])
            matrix[row] = vec
            rows[word] = row
    if matrix is None:
        matrix = np.zeros((1, dim))
    elif len(matrix) > len(rows) + 1:
        matrix = matrix[: len(rows) + 1].copy()
    if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):  # no full-size temporary
        bad = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        word = next(w for w, row in rows.items() if row == bad)
        raise EmbeddingError(f"{path}: non-finite vector component for word {word!r}")
    if duplicates:
        log.warning("%s: skipped %d duplicate word(s), kept first occurrence", path, duplicates)
    if len(rows) != vocab_size:
        log.warning(
            "%s: header declares %d words, file has %d distinct", path, vocab_size, len(rows)
        )
    return EmbeddingTable(
        matrix,
        rows,
        source={"kind": "word2vec", "path": str(path), "dim": dim},
        duplicates_skipped=duplicates,
    )


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
        return load_embeddings(source["path"], expected_dim=source.get("dim"))
    if kind == "fallback":
        return deterministic_fallback_table(source["vocab"], source["dim"], source["seed"])
    raise EmbeddingError(f"cannot rebuild embedding table from source kind {kind!r}")


def context_embedding(
    sentence: AnnotatedSentence, window: int, table: EmbeddingTable
) -> np.ndarray:
    """Features of every candidate gap of a sentence, one row per gap.

    Returns an (n + 1, 2 * window * dim) matrix for a sentence of n
    tokens; row g is gap g.  Row layout: the `window` tokens left of the
    gap in sentence order (nearest token last), then the `window` tokens
    right of it (nearest first).  Positions past either boundary read the
    zero row, so every row has length 2 * window * dim.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(sentence.tokens)
    ids = np.zeros(n + 2 * window, dtype=np.intp)
    ids[window : window + n] = [table.rows.get(tok, 0) for tok in sentence.tokens]
    # Gap g reads the padded positions g .. g + 2 * window - 1.
    windows = np.arange(n + 1)[:, None] + np.arange(2 * window)
    return table.matrix[ids[windows]].reshape(n + 1, -1)
