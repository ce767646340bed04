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
from json.scanner import make_scanner
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .rng import SplitMix64

# json's scanner and an encoder as json.dumps(..., ensure_ascii=False) makes,
# each made once and shared, as json shares its default decoder and encoder.
_scan = make_scanner(json.JSONDecoder())
_encode = json.JSONEncoder(ensure_ascii=False).encode


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

    def check_same(self, other: LabelSet, this: str, that: str) -> None:
        """ValueError naming both sets, as `this` and `that`, unless `other` is this set."""
        if other.name != self.name:
            raise ValueError(f"label set mismatch: {this}={self.name!r} {that}={other.name!r}")

    def check_tags(self, sentence: AnnotatedSentence) -> None:
        """Raise CorpusError for the first tag of `sentence` outside this set."""
        for _, tag in sentence.annotations:
            if tag not in self.labels:
                raise CorpusError(f"tag {tag!r} not allowed by label set {self.name!r}")

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


def check_metadata(metadata: Mapping) -> None:
    """Raise ValueError unless `metadata` is a mapping with `str` keys whose
    strict JSON form UTF-8 can encode and reads back equal.

    This is the one rule for the metadata of corpus and model files.  At
    any depth it refuses NaN and the infinities (strict JSON has none), a
    tuple (JSON reads back a list) and a key that is no `str` (JSON reads
    back a `str`).
    """
    if not isinstance(metadata, Mapping):
        raise ValueError(f"metadata must be a JSON object, got {json_type(metadata)}")
    try:  # dict(**m) takes only str keys
        text = json.dumps(dict(**metadata), ensure_ascii=False, allow_nan=False)
        text.encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:  # UnicodeEncodeError included
        raise ValueError(f"metadata has no JSON form UTF-8 can encode: {exc}") from None
    if json.loads(text) != metadata:
        raise ValueError("metadata does not read back equal from JSON: a tuple, or a key "
                         "that is no string")


@dataclass(frozen=True)
class AnnotatedSentence:
    """Token sequence plus (gap_index, tag) annotations; holds every sentence rule."""

    tokens: tuple[str, ...]
    annotations: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        tokens = self.tokens
        if not isinstance(tokens, tuple):
            raise CorpusError("sentence tokens must be a tuple")
        try:  # join takes only str tokens
            text = "".join(tokens)
        except TypeError:
            text = ""
        if not text or "" in tokens:
            raise CorpusError("sentence tokens must be a non-empty list of non-empty strings")
        try:  # a lone surrogate, which no writer can write back as UTF-8
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(
                f"a token holds a character UTF-8 cannot encode ({exc.reason})"
            ) from None
        if not isinstance(self.annotations, tuple):
            raise CorpusError("sentence annotations must be a tuple")
        seen = set()
        for pair in self.annotations:
            if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int
                    and type(pair[1]) is str):  # a bool or float gap is not a gap index
                raise CorpusError("annotation must be a [gap_index, tag] pair")
            gap, tag = pair
            if not 0 <= gap <= len(tokens):
                raise CorpusError(f"gap index {gap} out of range [0, {len(tokens)}]")
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
        if not isinstance(self.sentences, tuple):
            raise CorpusError("corpus sentences must be a tuple")
        for i, sent in enumerate(self.sentences):
            if not isinstance(sent, AnnotatedSentence):
                raise CorpusError(f"sentence {i}: not an AnnotatedSentence")
            try:
                self.label_set.check_tags(sent)
            except CorpusError as exc:
                raise CorpusError(f"sentence {i}: {exc}") from None
        try:
            check_metadata(self.metadata)
        except ValueError as exc:
            raise CorpusError(str(exc)) from None

    def __len__(self) -> int:
        return len(self.sentences)

    def total_annotations(self) -> int:
        return sum(len(s.annotations) for s in self.sentences)


def _parse_sentence(obj) -> AnnotatedSentence:
    """The sentence of a decoded corpus line; CorpusError, naming no place, if none."""
    if not isinstance(obj, dict) or "tokens" not in obj:
        raise CorpusError("expected an object with a 'tokens' key")
    tokens, annos = obj["tokens"], obj.get("annotations", [])
    if not isinstance(tokens, list) or not isinstance(annos, list):
        raise CorpusError("'tokens' and 'annotations' must be lists")
    return AnnotatedSentence(
        tuple(tokens), tuple([tuple(a) if isinstance(a, list) else a for a in annos])
    )


def decode_json(data: bytes):
    """The JSON value of UTF-8 `data`; ValueError, naming the problem alone, if it
    is not UTF-8 or not JSON.  The one decoder of a corpus line and of the model
    file, whose readers add the file, and the line, to the error.

    One scan of json's C scanner decodes a text that is one JSON value from its
    first character to its last, as json.loads would.  Any other text, such as
    one with whitespace around its value, a BOM or extra data, goes to json.loads,
    which gives its value or its error."""
    try:
        text = data.decode("utf-8")
        try:
            value, end = _scan(text, 0)
        except (StopIteration, ValueError, RecursionError):  # json.loads words the error
            end = None
        return value if end == len(text) else json.loads(text)
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


# The JSON type name of each type of value that `decode_json` gives.
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def json_type(value) -> str:
    """The JSON type name of a `decode_json` value, as an error's "got <type>"
    words it: null, boolean, number, string, array or object.  A value of any
    other type is named by its Python type."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus file; AnnotatedSentence and Corpus check its data.

    Raises CorpusError naming the file, and the offending line if there is
    one, on malformed input.  A line of ASCII whitespace is skipped.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise CorpusError(f"{path}: empty file (missing header line)")
    # Only "\n" ends a record: write_records (ensure_ascii=False) leaves
    # U+2028 and the other str.splitlines() breaks raw inside strings, and
    # JSON reads the "\r" of a "\r\n" as whitespace.
    lines = data.split(b"\n")
    line_no = 1
    try:
        header = decode_json(lines[0])
        if not isinstance(header, dict) or "label_set" not in header:
            raise CorpusError("header must be an object with a 'label_set' key")
        label_set = label_set_by_name(header["label_set"])
        metadata = header.get("metadata", {})
        Corpus(label_set, (), metadata)  # the header's metadata, before any sentence
        sentences = []
        for line_no, line in enumerate(lines[1:], start=2):
            if line.strip():
                sentences.append(_parse_sentence(decode_json(line)))
    except ValueError as exc:  # decode_json's, or a CorpusError
        raise CorpusError(f"{path}: line {line_no}: {exc}") from None
    try:
        return Corpus(label_set, tuple(sentences), metadata)
    except CorpusError as exc:  # a tag outside the label set: name the first such line
        line_nos = (n for n, line in enumerate(lines[1:], start=2) if line.strip())
        for line_no, sentence in zip(line_nos, sentences):
            try:
                label_set.check_tags(sentence)
            except CorpusError as tag_exc:
                raise CorpusError(f"{path}: line {line_no}: {tag_exc}") from None
        raise CorpusError(f"{path}: {exc}") from None


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
        fh.write(_encode(header) + "\n")
        for tokens, annotations in rows:
            obj = {"tokens": list(tokens), "annotations": [list(a) for a in annotations]}
            fh.write(_encode(obj) + "\n")


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
