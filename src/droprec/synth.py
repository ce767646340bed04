"""Seeded synthetic pro-drop corpus generation from template grammars.

A template is a sequence of atoms:

* any plain string        -> emitted literally
* ``"{w}"``               -> a word sampled uniformly from the vocab
* ``"{slot}"``            -> a pronoun slot; label sampled from the grammar
                             distribution
* ``"{slot:TAG}"``        -> a pronoun slot pinned to one label

Each slot is dropped with probability ``drop_rate``.  A dropped slot turns
into a gap annotation at the current position; a kept slot emits the
label's surface form as an overt token (abstract categories emit their
category name, which keeps drop_rate semantics exact).  Sentence i of a
run draws from SplitMix64 substream i of the seed, so generation is fully
deterministic and parallelizable per sentence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .corpus import (
    ACTUAL10,
    FULL14,
    LABEL_BY_TAG,
    AnnotatedSentence,
    Corpus,
    CorpusError,
    LabelSet,
    label_set_by_name,
)
from .rng import SplitMix64

_SLOT = "{slot}"
_SLOT_PREFIX = "{slot:"
_WORD = "{w}"

T = TypeVar("T")


class GrammarError(ValueError):
    """Invalid template grammar definition."""


def _is_slot(atom: str) -> bool:
    return atom == _SLOT or (atom.startswith(_SLOT_PREFIX) and atom.endswith("}"))


def _pinned_tag(atom: str) -> str | None:
    if atom.startswith(_SLOT_PREFIX) and atom.endswith("}"):
        return atom[len(_SLOT_PREFIX) : -1]
    return None


@dataclass(frozen=True)
class Template:
    pattern: tuple[str, ...]
    weight: float = 1.0


@dataclass(frozen=True)
class TemplateGrammar:
    templates: tuple[Template, ...]
    slot_label_dist: dict[str, float]
    drop_rate: float
    vocab: tuple[str, ...]
    name: str = "custom"
    label_set_name: str | None = None  # None: derived from the labels used

    def __post_init__(self):
        if not self.templates:
            raise GrammarError("grammar has no templates")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise GrammarError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        weights = [tmpl.weight for tmpl in self.templates]
        if not (all(w > 0 for w in weights) and math.isfinite(sum(weights))):  # NaN > 0 is False
            raise GrammarError(f"template weights {weights} must be positive with a finite sum")
        uses_free_slot = False
        for tmpl in self.templates:
            if not any(not _is_slot(a) for a in tmpl.pattern):
                raise GrammarError(
                    f"template {tmpl.pattern!r} must contain at least one non-slot atom"
                )
            for atom in tmpl.pattern:
                if atom == _SLOT:
                    uses_free_slot = True
                pinned = _pinned_tag(atom)
                if pinned is not None and pinned not in LABEL_BY_TAG:
                    raise GrammarError(f"template pins unknown tag {pinned!r}")
                if atom == _WORD and not self.vocab:
                    raise GrammarError("template uses {w} but the vocab is empty")
            pairs = zip(tmpl.pattern, tmpl.pattern[1:])
            if self.drop_rate > 0 and any(_is_slot(a) and _is_slot(b) for a, b in pairs):
                raise GrammarError(f"template {tmpl.pattern!r} has two adjacent slots to drop")
        words = [a for t in self.templates for a in t.pattern if a != _WORD and not _is_slot(a)]
        try:  # every word a sentence can hold passes the corpus token rule
            AnnotatedSentence((*self.vocab, *words))
        except CorpusError as exc:
            raise GrammarError(f"grammar word rejected: {exc}") from None
        for tag, prob in self.slot_label_dist.items():
            if tag not in LABEL_BY_TAG:
                raise GrammarError(f"distribution names unknown tag {tag!r}")
            if not 0 < prob < math.inf:
                raise GrammarError(f"distribution weight for {tag!r} must be in (0, inf), got {prob}")
        if self.slot_label_dist:
            total = sum(self.slot_label_dist.values())
            if abs(total - 1.0) > 1e-9:
                raise GrammarError(f"slot label distribution sums to {total}, expected 1")
        elif uses_free_slot:
            raise GrammarError("grammar uses {slot} but has no label distribution")
        try:
            label_set = self.label_set()
        except CorpusError as exc:  # an unknown label_set_name
            raise GrammarError(str(exc)) from None
        for tag in self._tags():
            if tag not in label_set:
                raise GrammarError(f"tag {tag!r} not allowed by label set {label_set.name!r}")

    def _tags(self) -> dict[str, None]:
        """Every tag a slot can take: the distribution's, then the pinned ones."""
        tags = dict.fromkeys(self.slot_label_dist)
        for tmpl in self.templates:
            for atom in tmpl.pattern:
                pinned = _pinned_tag(atom)
                if pinned is not None:
                    tags[pinned] = None
        return tags

    def label_set(self) -> LabelSet:
        if self.label_set_name is not None:
            return label_set_by_name(self.label_set_name)
        if any(LABEL_BY_TAG[t].is_abstract for t in self._tags()):
            return FULL14
        return ACTUAL10


def _draw(weighted: Iterable[tuple[T, float]], total: float, rng: SplitMix64) -> T:
    """The first item whose running weight sum exceeds the next float of `rng`
    times `total`; floating-point slack lands on the last item."""
    u = rng.next_float() * total
    cum = 0.0
    for item, weight in weighted:
        cum += weight
        if u < cum:
            return item
    return item


def generate_sentence(grammar: TemplateGrammar, rng: SplitMix64) -> AnnotatedSentence:
    """Expand one weighted-random template into a sentence."""
    templates = grammar.templates
    tmpl = _draw(((t, t.weight) for t in templates), sum(t.weight for t in templates), rng)
    tokens: list[str] = []
    annotations: list[tuple[int, str]] = []
    for atom in tmpl.pattern:
        if atom == _WORD:
            tokens.append(grammar.vocab[rng.randbelow(len(grammar.vocab))])
        elif _is_slot(atom):
            # The distribution sums to 1 within 1e-9; slack lands on its last tag.
            tag = _pinned_tag(atom) or _draw(grammar.slot_label_dist.items(), 1.0, rng)
            if rng.next_float() < grammar.drop_rate:
                annotations.append((len(tokens), tag))
            else:
                tokens.append(LABEL_BY_TAG[tag].surface_form)
        else:
            tokens.append(atom)
    return AnnotatedSentence(tuple(tokens), tuple(annotations))


def generate_corpus(grammar: TemplateGrammar, n: int, seed: int) -> Corpus:
    """Generate n sentences; byte-identical output for equal (grammar, n, seed)."""
    if n < 1:
        raise GrammarError(f"need n >= 1 sentences, got {n}")
    sentences = tuple(
        generate_sentence(grammar, SplitMix64.for_stream(seed, i)) for i in range(n)
    )
    metadata = {"source": f"synth:{grammar.name}", "seed": str(seed), "n": str(n)}
    return Corpus(grammar.label_set(), sentences, metadata)


# --- built-in profiles ----------------------------------------------------

# Annotated dropped-pronoun frequencies (percent) in the two reference
# datasets; columns do not sum to exactly 100, so the profiles normalize.
_ONTONOTES_PCT = {
    "wo": 3.62, "women": 5.91, "ni": 5.41, "nimen": 0.21,
    "ta_m": 6.92, "tamen_m": 11.96, "ta_f": 2.80, "tamen_f": 0.18,
    "ta_n": 19.56, "tamen_n": 1.37,
    "existential": 6.12, "unspecified": 15.39, "event": 6.86, "pleonastic": 9.69,
}
_ZHIDAO_PCT = {
    "wo": 31.49, "women": 0.28, "ni": 31.31, "nimen": 0.13,
    "ta_m": 1.38, "tamen_m": 0.30, "ta_f": 0.63, "tamen_f": 0.00,
    "ta_n": 33.08, "tamen_n": 1.96,
}


def _normalized(pct: dict[str, float]) -> dict[str, float]:
    nonzero = {tag: p for tag, p in pct.items() if p > 0}
    total = sum(nonzero.values())
    return {tag: p / total for tag, p in nonzero.items()}


def _cues(tag: str) -> tuple[str, str]:
    return f"cl_{tag}", f"cr_{tag}"


_FILLERS = tuple(f"w{i:02d}" for i in range(16))


def _cue_templates(tag: str, weight: float, left: str, right: str) -> list[Template]:
    """Two sentence shapes with the slot wrapped in its cue pair."""
    slot = f"{{slot:{tag}}}"
    return [
        Template(("{w}", left, slot, right, "{w}"), weight / 2),
        Template(("{w}", "{w}", left, slot, right), weight / 2),
    ]


def _separable_grammar() -> TemplateGrammar:
    """Every label is announced by a unique adjacent cue pair and every
    slot is dropped, so a width-1 window determines both whether a gap
    is dropped and which pronoun it holds.
    """
    dist = {lab: 1.0 / 14.0 for lab in FULL14.labels}
    templates: list[Template] = []
    for tag in FULL14.labels:
        left, right = _cues(tag)
        templates.extend(_cue_templates(tag, 1.0, left, right))
    return TemplateGrammar(
        tuple(templates), dist, drop_rate=1.0, vocab=_FILLERS,
        name="separable", label_set_name="full14",
    )


# Share of sentences whose slot sits in an uninformative all-filler context,
# making the profiles below only partially separable.
_NOISE_SHARE = 0.25

_NOISE_SHAPES = (
    ("{w}", "{slot}", "{w}", "{w}"),
    ("{w}", "{w}", "{slot}", "{w}"),
)


def _noise_templates() -> list[Template]:
    return [Template(p, _NOISE_SHARE / len(_NOISE_SHAPES)) for p in _NOISE_SHAPES]


def _ontonotes_like_grammar() -> TemplateGrammar:
    """14-label profile with reference-data proportions, partially separable.

    Twelve labels carry unique cue pairs.  The event and pleonastic labels
    share two left and two right cues in an exclusive-or arrangement
    (event: aa/bb, pleonastic: ab/ba), a pairing a purely additive model
    cannot fully fit, so depth helps on this profile.
    """
    dist = _normalized(_ONTONOTES_PCT)
    templates: list[Template] = []
    for tag, prob in dist.items():
        weight = prob * (1.0 - _NOISE_SHARE)
        if tag in ("event", "pleonastic"):
            continue
        left, right = _cues(tag)
        templates.extend(_cue_templates(tag, weight, left, right))
    xl, xr = ("cl_x_a", "cl_x_b"), ("cr_x_a", "cr_x_b")
    xor_pairs = {
        "event": ((xl[0], xr[0]), (xl[1], xr[1])),
        "pleonastic": ((xl[0], xr[1]), (xl[1], xr[0])),
    }
    for tag, pairs in xor_pairs.items():
        weight = dist[tag] * (1.0 - _NOISE_SHARE)
        for left, right in pairs:
            templates.extend(_cue_templates(tag, weight / 2, left, right))
    templates.extend(_noise_templates())
    return TemplateGrammar(
        tuple(templates), dist, drop_rate=0.7, vocab=_FILLERS,
        name="ontonotes-like", label_set_name="full14",
    )


def _zhidao_like_grammar() -> TemplateGrammar:
    """Actual-pronoun profile with reference proportions (zero-frequency
    labels excluded), unique cue pairs plus a noise share."""
    dist = _normalized(_ZHIDAO_PCT)
    templates: list[Template] = []
    for tag, prob in dist.items():
        left, right = _cues(tag)
        templates.extend(_cue_templates(tag, prob * (1.0 - _NOISE_SHARE), left, right))
    templates.extend(_noise_templates())
    return TemplateGrammar(
        tuple(templates), dist, drop_rate=0.7, vocab=_FILLERS,
        name="zhidao-like", label_set_name="actual10",
    )


_PROFILES = {
    "separable": _separable_grammar,
    "ontonotes-like": _ontonotes_like_grammar,
    "zhidao-like": _zhidao_like_grammar,
}

PROFILE_NAMES = tuple(_PROFILES)


def builtin_grammar(profile: str) -> TemplateGrammar:
    try:
        factory = _PROFILES[profile]
    except KeyError:
        raise GrammarError(
            f"unknown profile {profile!r} (expected one of {', '.join(_PROFILES)})"
        ) from None
    return factory()
