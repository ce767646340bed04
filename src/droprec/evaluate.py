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
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, context_embedding
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
    gold: list[int], pred: list[int], class_names: tuple[str, ...], scoring: str = ""
) -> EvalReport:
    """Build a report from parallel gold/predicted class-index lists."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} items, predictions {len(pred)}")
    if not gold:
        raise ValueError("cannot evaluate zero instances")
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (np.asarray(gold, dtype=np.intp), np.asarray(pred, dtype=np.intp)), 1)
    n = len(gold)
    accuracy = float(np.trace(confusion)) / n
    per_class = {}
    for c, name in enumerate(class_names):
        tp = float(confusion[c, c])
        col = float(confusion[:, c].sum())
        row = float(confusion[c, :].sum())
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[name] = ClassMetrics(precision, recall, f1)
    return EvalReport(accuracy, per_class, confusion, n, tuple(class_names), scoring)


def evaluate_dpi(model: RecoveryModel, corpus: Corpus, table: EmbeddingTable) -> EvalReport:
    """Score gap detection over every candidate gap at the model threshold."""
    gold: list[int] = []
    pred: list[int] = []
    for sent in corpus.sentences:
        gold.extend(gap_labels(sent).tolist())
        pred.extend(predict_dpi(model, context_embedding(sent, model.window, table)).tolist())
    return report_from_pairs(
        gold, pred, DPI_CLASS_NAMES,
        scoring=f"one instance per candidate gap; threshold {model.threshold}",
    )


def evaluate_dpg(
    model: RecoveryModel, corpus: Corpus, table: EmbeddingTable, positions: str = "gold"
) -> EvalReport:
    """Score pronoun generation at gold or detector-predicted positions."""
    if positions not in ("gold", "predicted"):
        raise ValueError(f"positions must be 'gold' or 'predicted', got {positions!r}")
    if corpus.label_set.name != model.label_set.name:
        raise ValueError(
            f"label set mismatch: corpus={corpus.label_set.name!r} "
            f"model={model.label_set.name!r}"
        )
    labels = model.label_set.labels
    none_idx = len(labels)
    gold: list[int] = []
    pred: list[int] = []
    for sent in corpus.sentences:
        features = context_embedding(sent, model.window, table)
        gold_row = np.full(len(features), none_idx)
        for gap, tag in sent.annotations:
            gold_row[gap] = model.label_set.index_of(tag)
        annotated = gold_row != none_idx
        detected = annotated if positions == "gold" else predict_dpi(model, features)
        pred_row = np.full(len(features), none_idx)
        if detected.any():
            pred_row[detected] = predict_dpg(model, features[detected])[0]
        scored = annotated | detected
        gold.extend(gold_row[scored].tolist())
        pred.extend(pred_row[scored].tolist())
    if positions == "gold":
        return report_from_pairs(gold, pred, labels, scoring=GOLD_SCORING)
    return report_from_pairs(gold, pred, labels + (NONE_CLASS,), scoring=PREDICTED_SCORING)


# --- significance ---------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    max_iter, eps, fpmin = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to well under 1e-6 over the t-test range."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


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
