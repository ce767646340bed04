"""Annotated pro-drop corpora: label taxonomy, sentences, JSONL I/O, splits.

A corpus file is UTF-8 JSON Lines.  Line 1 is a header::

    {"label_set": "full14" | "actual10", "metadata": {...}}

and every following line is one sentence::

    {"tokens": ["他", "说", "要", "买"], "annotations": [[2, "ta_m"]]}

An annotation is a ``[gap_index, tag]`` pair; gap 0 sits before the first
token and gap ``len(tokens)`` after the last, so a sentence of n tokens has
n + 1 candidate gaps.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .rng import SplitMix64


class CorpusError(ValueError):
    """Malformed corpus data (bad file, bad annotation, bad label)."""


@dataclass(frozen=True)
class PronounLabel:
    """One recovery target: an overt pronoun or an abstract gap category."""

    tag: str
    surface_form: str
    is_abstract: bool


# Ten overt pronouns followed by the four abstract categories. The tuple
# order is canonical: it fixes class indices for the label sets below.
PRONOUN_LABELS: tuple[PronounLabel, ...] = (
    PronounLabel("wo", "我", False),
    PronounLabel("women", "我们", False),
    PronounLabel("ni", "你", False),
    PronounLabel("nimen", "你们", False),
    PronounLabel("ta_m", "他", False),
    PronounLabel("tamen_m", "他们", False),
    PronounLabel("ta_f", "她", False),
    PronounLabel("tamen_f", "她们", False),
    PronounLabel("ta_n", "它", False),
    PronounLabel("tamen_n", "它们", False),
    PronounLabel("existential", "existential", True),
    PronounLabel("unspecified", "unspecified", True),
    PronounLabel("event", "event", True),
    PronounLabel("pleonastic", "pleonastic", True),
)

LABEL_BY_TAG: dict[str, PronounLabel] = {lab.tag: lab for lab in PRONOUN_LABELS}


@dataclass(frozen=True)
class LabelSet:
    """Ordered subset of pronoun tags; position defines the class index."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError(f"label set {self.name!r} has duplicate tags")
        for tag in self.labels:
            if tag not in LABEL_BY_TAG:
                raise CorpusError(f"unknown pronoun tag {tag!r} in label set {self.name!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, tag: str) -> bool:
        return tag in self.labels

    def index_of(self, tag: str) -> int:
        try:
            return self.labels.index(tag)
        except ValueError:
            raise CorpusError(f"tag {tag!r} not in label set {self.name!r}") from None


FULL14 = LabelSet("full14", tuple(lab.tag for lab in PRONOUN_LABELS))
ACTUAL10 = LabelSet("actual10", tuple(lab.tag for lab in PRONOUN_LABELS if not lab.is_abstract))

_BUILTIN_LABEL_SETS = {"full14": FULL14, "actual10": ACTUAL10}


def label_set_by_name(name: str) -> LabelSet:
    label_set = _BUILTIN_LABEL_SETS.get(name) if isinstance(name, str) else None
    if label_set is None:
        raise CorpusError(f"unknown label set {name!r} (expected full14 or actual10)")
    return label_set


@dataclass(frozen=True)
class AnnotatedSentence:
    """Token sequence plus (gap_index, tag) dropped-pronoun annotations."""

    tokens: tuple[str, ...]
    annotations: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not self.tokens or any(not tok for tok in self.tokens):
            raise CorpusError("sentence tokens must be a non-empty list of non-empty strings")
        seen = set()
        for gap, tag in self.annotations:
            if not 0 <= gap <= len(self.tokens):
                raise CorpusError(
                    f"gap index {gap} out of range [0, {len(self.tokens)}]"
                )
            if gap in seen:
                raise CorpusError(f"duplicate annotation at gap {gap}")
            seen.add(gap)
            if tag not in LABEL_BY_TAG:
                raise CorpusError(f"unknown pronoun tag {tag!r}")


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of annotated sentences under one label set."""

    label_set: LabelSet
    sentences: tuple[AnnotatedSentence, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for i, sent in enumerate(self.sentences):
            for _, tag in sent.annotations:
                if tag not in self.label_set:
                    raise CorpusError(
                        f"sentence {i}: tag {tag!r} not allowed by label set "
                        f"{self.label_set.name!r}"
                    )

    def __len__(self) -> int:
        return len(self.sentences)

    def total_annotations(self) -> int:
        return sum(len(s.annotations) for s in self.sentences)


def _check_encodable(text: str, line_no: int, what: str) -> None:
    """Reject `text` if it holds a lone surrogate, which no writer can
    write back as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(
            f"line {line_no}: {what} holds a character UTF-8 cannot encode ({exc.reason})"
        ) from None


def _parse_sentence(obj, line_no: int, label_set: LabelSet) -> AnnotatedSentence:
    if not isinstance(obj, dict) or "tokens" not in obj:
        raise CorpusError(f"line {line_no}: expected an object with a 'tokens' key")
    tokens = obj["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) and t for t in tokens):
        raise CorpusError(f"line {line_no}: 'tokens' must be a list of non-empty strings")
    raw_annos = obj.get("annotations", [])
    if not isinstance(raw_annos, list):
        raise CorpusError(f"line {line_no}: 'annotations' must be a list")
    annos = []
    for item in raw_annos:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], int)
            or isinstance(item[0], bool)
            or not isinstance(item[1], str)
        ):
            raise CorpusError(f"line {line_no}: annotation must be a [gap_index, tag] pair")
        annos.append((item[0], item[1]))
    try:
        sentence = AnnotatedSentence(tuple(tokens), tuple(annos))
    except CorpusError as exc:
        raise CorpusError(f"line {line_no}: {exc}") from None
    for _, tag in annos:
        if tag not in label_set:
            raise CorpusError(
                f"line {line_no}: tag {tag!r} not allowed by label set {label_set.name!r}"
            )
    return sentence


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus file, validating every sentence.

    Raises CorpusError with the offending line number on malformed input.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc.reason}") from None
    if not text:
        raise CorpusError(f"{path}: empty file (missing header line)")
    # Only "\n" ends a record: write_records (ensure_ascii=False) leaves
    # U+2028 and the other str.splitlines() breaks raw inside strings.
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line 1: malformed JSON header: {exc.msg}") from None
    except RecursionError:
        raise CorpusError("line 1: JSON header nested too deeply to parse") from None
    if not isinstance(header, dict) or "label_set" not in header:
        raise CorpusError("line 1: header must be an object with a 'label_set' key")
    label_set = label_set_by_name(header["label_set"])
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CorpusError("line 1: 'metadata' must be an object")
    # Text decoded from UTF-8 holds no lone surrogate; only a JSON "\\u"
    # escape can make one.
    escaped = "\\u" in text
    if escaped:
        _check_encodable(json.dumps(metadata, ensure_ascii=False), 1, "metadata")

    sentences = []
    for offset, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {offset}: malformed JSON: {exc.msg}") from None
        except RecursionError:
            raise CorpusError(f"line {offset}: JSON nested too deeply to parse") from None
        sentences.append(_parse_sentence(obj, offset, label_set))
        if escaped:
            _check_encodable("".join(sentences[-1].tokens), offset, "a token")
    return Corpus(label_set, tuple(sentences), dict(metadata))


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """A UTF-8 text file whose contents replace `path` when the block ends.

    The writes go to a temporary file in the same directory, which
    `os.replace` renames over `path` only once the block has finished
    without error.  So a crash part-way leaves the old file, not a
    truncated one; the temporary file is removed on error.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        fh = tmp.open("x", encoding="utf-8")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(
    path: str | Path,
    label_set_name: str,
    metadata: Mapping[str, str],
    rows: Iterable[tuple[Sequence[str], Iterable[tuple]]],
) -> None:
    """Write a header line, then one line per (tokens, annotations) row.

    This is the one writer of corpus-shaped files: corpora and the
    recover output.  Each annotation tuple becomes a JSON list, so a
    recovered (gap, tag, confidence) triple keeps its confidence.  Only
    "\n" ends a record; load_corpus splits on nothing else.
    """
    with atomic_open(path) as fh:
        header = {"label_set": label_set_name, "metadata": dict(metadata)}
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for tokens, annotations in rows:
            obj = {"tokens": list(tokens), "annotations": [list(a) for a in annotations]}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL; load_corpus(save_corpus(c)) == c field-for-field."""
    write_records(
        path,
        corpus.label_set.name,
        corpus.metadata,
        ((sent.tokens, sent.annotations) for sent in corpus.sentences),
    )


def split_corpus(corpus: Corpus, seed: int) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic 3:1:1 train/dev/test split at sentence level.

    Sizes: dev and test each get floor(n/5) sentences, the remainder goes
    to train.  A Fisher-Yates shuffle seeded with SplitMix64(seed) fixes
    the assignment; the three parts partition the input exactly.
    """
    n = len(corpus.sentences)
    if n < 5:
        raise CorpusError(f"corpus too small to split 3:1:1 (need >= 5 sentences, got {n})")
    indices = list(range(n))
    SplitMix64(seed).shuffle(indices)
    n_side = n // 5
    n_train = n - 2 * n_side
    parts = (
        indices[:n_train],
        indices[n_train : n_train + n_side],
        indices[n_train + n_side :],
    )

    def sub(part_indices: Iterable[int], name: str) -> Corpus:
        meta = dict(corpus.metadata)
        meta["split"] = name
        meta["split_seed"] = str(seed)
        return Corpus(
            corpus.label_set,
            tuple(corpus.sentences[i] for i in part_indices),
            meta,
        )

    return sub(parts[0], "train"), sub(parts[1], "dev"), sub(parts[2], "test")
