"""Accuracy, per-class metrics, confusion matrices, paired significance.

Gap detection is scored over every candidate gap of every sentence (gold
positive iff annotated).  Pronoun generation is scored either at gold
positions only, or at detector-predicted positions, where every gap that
is gold-annotated or predicted counts once: a missed gold gap scores as
``gold -> <none>`` and a spurious predicted gap as ``<none> -> predicted``,
so position mistakes are classification errors and the report invariants
(accuracy = trace/n, row sums = gold counts) keep holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, context_rows
from .hypotheses import gap_labels
from .pipeline import RecoveryModel, predict_dpg, predict_dpi

NONE_CLASS = "<none>"

DPI_CLASS_NAMES = ("not_dropped", "dropped")

GOLD_SCORING = "one instance per gold-annotated gap; correct iff predicted label matches"
PREDICTED_SCORING = (
    "one instance per gap that is gold-annotated or detector-predicted; a missed gold "
    f"gap scores gold->{NONE_CLASS}, a spurious prediction {NONE_CLASS}->predicted; "
    "correct iff the gap is both gold and predicted with matching labels"
)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: dict[str, ClassMetrics]
    confusion: np.ndarray  # rows gold, columns predicted
    n: int
    class_names: tuple[str, ...]
    scoring: str


@dataclass(frozen=True)
class SignificanceResult:
    statistic: float
    p_value: float
    significant: bool
    note: str = ""


def report_from_pairs(
    gold: Sequence[int] | np.ndarray, pred: Sequence[int] | np.ndarray,
    class_names: tuple[str, ...], scoring: str = ""
) -> EvalReport:
    """Build a report from parallel gold/predicted class indices, given as
    lists or as integer or boolean arrays."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} items, predictions {len(pred)}")
    if not len(gold):
        raise ValueError("cannot evaluate zero instances")
    k = len(class_names)
    gold, pred = np.asarray(gold, dtype=np.intp), np.asarray(pred, dtype=np.intp)
    if min(np.minimum.reduce(gold), np.minimum.reduce(pred)) < 0 or \
            max(np.maximum.reduce(gold), np.maximum.reduce(pred)) >= k:
        raise ValueError(f"class indices must be in [0, {k})")
    cells = gold * k
    cells += pred
    confusion = np.bincount(cells, minlength=k * k).reshape(k, k)
    n = len(gold)
    hits = confusion.diagonal().tolist()
    accuracy = float(sum(hits)) / n
    golds = np.add.reduce(confusion, axis=1).tolist()
    preds = np.add.reduce(confusion, axis=0).tolist()
    per_class = {}
    for name, tp, row, col in zip(class_names, hits, golds, preds):
        tp, row, col = float(tp), float(row), float(col)
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[name] = ClassMetrics(precision, recall, f1)
    return EvalReport(accuracy, per_class, confusion, n, tuple(class_names), scoring)


def evaluate_dpi(model: RecoveryModel, corpus: Corpus, table: EmbeddingTable) -> EvalReport:
    """Score gap detection over every candidate gap at the model threshold."""
    model, rows, gold = _gaps(model, corpus, table)
    return _dpi_report(model, gold, predict_dpi(model, rows))


def evaluate_dpg(
    model: RecoveryModel, corpus: Corpus, table: EmbeddingTable, positions: str = "gold"
) -> EvalReport:
    """Score pronoun generation at gold or detector-predicted positions."""
    _check_dpg(model, corpus, positions)
    model, rows, gold = _gaps(model, corpus, table)
    detected = gold >= 0 if positions == "gold" else predict_dpi(model, rows)
    return _dpg_report(model, rows, gold, detected, positions)


def evaluate_both(
    model: RecoveryModel, corpus: Corpus, table: EmbeddingTable, positions: str = "gold"
) -> tuple[EvalReport, EvalReport]:
    """The reports of `evaluate_dpi` and `evaluate_dpg`, from one detection
    pass over the corpus."""
    _check_dpg(model, corpus, positions)
    model, rows, gold = _gaps(model, corpus, table)
    detected = predict_dpi(model, rows)
    generated = gold >= 0 if positions == "gold" else detected
    return _dpi_report(model, gold, detected), _dpg_report(model, rows, gold, generated, positions)


def _gaps(
    model: RecoveryModel, corpus: Corpus, table: EmbeddingTable
) -> tuple[RecoveryModel, np.ndarray, np.ndarray]:
    """The model scoring with `table` (callers pass the model's own), the
    context rows of every gap of the corpus in it, and the gaps' labels."""
    rows = context_rows(corpus.sentences, model.window, table)
    if table is not model.table:
        model = replace(model, table=table)
    return model, rows, gap_labels(corpus)


def _check_dpg(model: RecoveryModel, corpus: Corpus, positions: str) -> None:
    if positions not in ("gold", "predicted"):
        raise ValueError(f"positions must be 'gold' or 'predicted', got {positions!r}")
    corpus.label_set.check_same(model.label_set, "corpus", "model")


def _dpi_report(model: RecoveryModel, gold: np.ndarray, detected: np.ndarray) -> EvalReport:
    return report_from_pairs(
        gold >= 0, detected, DPI_CLASS_NAMES,
        scoring=f"one instance per candidate gap; threshold {model.threshold}",
    )


def _dpg_report(
    model: RecoveryModel, rows: np.ndarray, gold: np.ndarray, detected: np.ndarray,
    positions: str,
) -> EvalReport:
    """Generation report over the gaps that are annotated or `detected`;
    the generator scores the detected ones."""
    labels = model.label_set.labels
    none_idx = len(labels)
    annotated = gold >= 0
    pred = np.full(len(gold), none_idx)
    pred[detected] = predict_dpg(model, rows[detected])[0]
    gold = np.where(annotated, gold, none_idx)
    scored = annotated | detected
    gold, pred = gold[scored], pred[scored]
    if positions == "gold":
        return report_from_pairs(gold, pred, labels, scoring=GOLD_SCORING)
    return report_from_pairs(gold, pred, labels + (NONE_CLASS,), scoring=PREDICTED_SCORING)


# --- significance ---------------------------------------------------------


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with df degrees of freedom.

    Uses the exact finite sums for integer df (Abramowitz & Stegun 26.7.3
    and 26.7.4): with theta = atan(|t| / sqrt(df)) and c = cos^2 theta,
    P(|T| < |t|) is sin(theta) * S for even df and
    2/pi * (theta + sin(theta) cos(theta) * S) for odd df, where S sums the
    df // 2 terms c^k (2k - 1)!!/(2k)!! (even) or c^k (2k)!!/(2k + 1)!! (odd).
    A NaN t gives a NaN p-value.
    """
    if type(df) is not int or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if math.isinf(t):
        return 0.0
    theta = math.atan(abs(t) / math.sqrt(df))
    c = math.cos(theta) ** 2
    odd = df % 2
    term, total = 1.0, 0.0
    for k in range(df // 2):
        total += term
        term *= c * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        inside = 2 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    else:
        inside = math.sin(theta) * total
    return max(1.0 - inside, 0.0)  # in this order, so a NaN stays NaN


def paired_significance(
    scores_a: list[float], scores_b: list[float], alpha: float = 0.05
) -> SignificanceResult:
    """Paired t-test over per-item score differences.

    Zero variance is degenerate: identical vectors are reported as not
    significant, while a constant nonzero difference is perfect separation
    and reported as significant with p = 0.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError(
            f"score vectors differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    n = len(scores_a)
    if n < 2:
        raise ValueError(f"need at least 2 paired items, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    d = np.asarray(scores_a, dtype=np.float64) - np.asarray(scores_b, dtype=np.float64)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return SignificanceResult(0.0, 1.0, False, "zero variance: identical scores")
        return SignificanceResult(
            math.copysign(math.inf, mean), 0.0, True,
            "zero variance: constant nonzero difference (perfect separation)",
        )
    t = mean / (sd / math.sqrt(n))
    p = student_t_two_sided_p(abs(t), n - 1)
    return SignificanceResult(t, p, p < alpha)


# --- report output --------------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    return {
        "scoring": report.scoring,
        "n": report.n,
        "accuracy": report.accuracy,
        "class_names": list(report.class_names),
        "confusion": report.confusion.tolist(),
        "per_class": {
            name: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
            for name, m in report.per_class.items()
        },
    }


def format_report(report: EvalReport, title: str = "") -> str:
    """Aligned plain-text rendering of a report."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"scoring: {report.scoring}")
    lines.append(f"instances: {report.n}   accuracy: {report.accuracy:.4f}")
    width = max(len(name) for name in report.class_names)
    lines.append(f"{'class'.ljust(width)}  {'prec':>6}  {'rec':>6}  {'f1':>6}  {'gold':>6}")
    for i, name in enumerate(report.class_names):
        m = report.per_class[name]
        gold_count = int(report.confusion[i, :].sum())
        lines.append(
            f"{name.ljust(width)}  {m.precision:6.3f}  {m.recall:6.3f}  "
            f"{m.f1:6.3f}  {gold_count:6d}"
        )
    return "\n".join(lines)
