"""Two-stage recovery: gap detection feeds pronoun generation.

Training fits one binary MLP over every candidate gap (is a pronoun
dropped here?) and one multi-class MLP over gold dropped positions (which
pronoun?).  The detection threshold is tuned on the dev split.  At
inference, every gap whose detection probability clears the threshold is
sent to the generator, which assigns the argmax label with its softmax
confidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import mlp
from .corpus import Corpus, AnnotatedSentence, LabelSet, label_set_by_name
from .embeddings import EmbeddingTable, context_embedding, table_from_source
from .hypotheses import DROPPED, build_dpg_instances, build_dpi_instances, gap_labels
from .mlp import EpochStats, Hyperparams, MlpModel, ModelFormatError

RECOVERY_FORMAT_VERSION = 1

# Dev-tuned detection threshold: candidate grid and tie policy (closest to
# 0.5 wins, then the smaller value).
THRESHOLD_GRID = tuple(i / 100 for i in range(5, 100, 5))

ProgressFn = Callable[[str, EpochStats], None]


@dataclass
class RecoveryModel:
    dpi: MlpModel
    dpg: MlpModel
    label_set: LabelSet
    window: int
    threshold: float
    table: EmbeddingTable
    table_ref: dict
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RecoveredSentence:
    tokens: tuple[str, ...]
    recovered: tuple[tuple[int, str, float], ...]  # (gap_index, tag, confidence)


def _check_dims(model: MlpModel, window: int, table: EmbeddingTable, stage: str) -> None:
    expected = 2 * window * table.dim
    if model.input_dim != expected:
        raise ModelFormatError(
            f"{stage} model expects input dim {model.input_dim}, but window {window} "
            f"with embedding dim {table.dim} gives {expected}"
        )


def dpi_gap_probability(dpi: MlpModel, features: np.ndarray) -> np.ndarray:
    """Eval-mode probability that a pronoun is dropped, per feature row."""
    _, probs = mlp.predict(dpi, features)
    return probs[:, DROPPED]


def tune_threshold(
    dpi_model: MlpModel, dev: Corpus, table: EmbeddingTable, window: int
) -> tuple[float, float]:
    """Grid-search the detection threshold maximizing dev gap accuracy.

    Returns (threshold, accuracy).  Ties prefer the threshold nearest 0.5.
    """
    probs = np.concatenate([
        dpi_gap_probability(dpi_model, context_embedding(sent, window, table))
        for sent in dev.sentences
    ])
    gold = np.concatenate([gap_labels(sent) == DROPPED for sent in dev.sentences])
    best = None
    for t in THRESHOLD_GRID:
        acc = int(np.count_nonzero((probs >= t) == gold)) / len(probs)
        key = (-acc, abs(t - 0.5), t)
        if best is None or key < best[0]:
            best = (key, t, acc)
    return best[1], best[2]


def train_recovery(
    train: Corpus,
    dev: Corpus,
    table: EmbeddingTable,
    hp_dpi: Hyperparams,
    hp_dpg: Hyperparams,
    negative_rate: float = 1.0,
    progress: ProgressFn | None = None,
) -> RecoveryModel:
    """Train both stages and tune the detection threshold on dev.

    Both corpora must share a label set, both hyperparameter sets must
    agree with the embedding table dimension and use the same window, and
    dev must be non-empty.  Dev accuracy of both stages lands in the
    returned model's metadata.
    """
    if train.label_set.name != dev.label_set.name:
        raise ValueError(
            f"label set mismatch: train={train.label_set.name!r} dev={dev.label_set.name!r}"
        )
    if not train.sentences:
        raise ValueError("training corpus is empty")
    if not dev.sentences:
        raise ValueError("dev corpus is empty")
    for stage, hp in (("detection", hp_dpi), ("generation", hp_dpg)):
        if hp.embed_dim != table.dim:
            raise ValueError(
                f"{stage} hyperparams declare embed_dim {hp.embed_dim}, table has {table.dim}"
            )
    if hp_dpi.window != hp_dpg.window:
        raise ValueError(
            f"both stages must share a window, got {hp_dpi.window} and {hp_dpg.window}"
        )
    if train.total_annotations() == 0:
        raise ValueError("training corpus has no dropped-pronoun annotations")
    window = hp_dpi.window

    dpi_model = mlp.build_model(hp_dpi.input_dim, 2, hp_dpi)
    dpi_model.label_set_name = train.label_set.name
    dpi_instances = build_dpi_instances(
        train, table, window, negative_rate=negative_rate, seed=hp_dpi.seed
    )
    dpi_log = mlp.train(dpi_model, dpi_instances, hp_dpi)
    if progress:
        for stats in dpi_log:
            progress("dpi", stats)

    dpg_model = mlp.build_model(hp_dpg.input_dim, len(train.label_set), hp_dpg)
    dpg_model.label_set_name = train.label_set.name
    dpg_log = mlp.train(dpg_model, build_dpg_instances(train, table, window), hp_dpg)
    if progress:
        for stats in dpg_log:
            progress("dpg", stats)

    threshold, dev_dpi_acc = tune_threshold(dpi_model, dev, table, window)
    model = RecoveryModel(
        dpi_model, dpg_model, train.label_set, window, threshold, table, dict(table.source)
    )
    if dev.total_annotations():
        from .evaluate import evaluate_dpg  # evaluate imports this module

        dev_dpg_acc = evaluate_dpg(model, dev, table).accuracy
    else:
        dev_dpg_acc = float("nan")
    model.metadata = {
        "dev_dpi_accuracy": dev_dpi_acc,
        "dev_dpg_accuracy_gold": dev_dpg_acc,
        "negative_rate": negative_rate,
        "train_sentences": len(train.sentences),
        "train_annotations": train.total_annotations(),
    }
    return model


def predict_dpi(model: RecoveryModel, features: np.ndarray) -> np.ndarray:
    """Detected gaps among the feature rows: P(dropped) >= the model threshold."""
    return dpi_gap_probability(model.dpi, features) >= model.threshold


def predict_dpg(model: RecoveryModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most likely pronoun class per feature row, with its softmax confidence."""
    classes, probs = mlp.predict(model.dpg, features)
    return classes, probs[np.arange(len(classes)), classes]


def recover(model: RecoveryModel, sentence: AnnotatedSentence) -> RecoveredSentence:
    """Run the two-stage pipeline over every candidate gap of a sentence."""
    features = context_embedding(sentence, model.window, model.table)
    gaps = np.flatnonzero(predict_dpi(model, features))
    if not gaps.size:
        return RecoveredSentence(sentence.tokens, ())
    classes, confidences = predict_dpg(model, features[gaps])
    labels = model.label_set.labels
    return RecoveredSentence(sentence.tokens, tuple(
        (gap, labels[c], confidence)
        for gap, c, confidence in zip(gaps.tolist(), classes.tolist(), confidences.tolist())
    ))


# --- serialization --------------------------------------------------------


def recovery_to_dict(model: RecoveryModel) -> dict:
    return {
        "format_version": RECOVERY_FORMAT_VERSION,
        "kind": "recovery",
        "label_set": model.label_set.name,
        "window": model.window,
        "threshold": model.threshold,
        "table_ref": model.table_ref,
        "metadata": model.metadata,
        "dpi": mlp.model_to_dict(model.dpi),
        "dpg": mlp.model_to_dict(model.dpg),
    }


def recovery_from_dict(obj: dict, table: EmbeddingTable | None = None) -> RecoveryModel:
    """Build a recovery model from its JSON object.

    The two parameter blocks are popped from `obj` as they are converted,
    so their hex strings are freed before the embedding table is built.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "recovery":
        raise ModelFormatError("not a recovery model object")
    if obj.get("format_version") != RECOVERY_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported recovery format version {obj.get('format_version')!r}"
        )
    # CorpusError (an unknown label set) is a ValueError, so it lands here too.
    try:
        window = obj["window"]
        if isinstance(window, bool) or not isinstance(window, int):
            raise TypeError(f"window must be an integer, got {window!r}")
        threshold = float(obj["threshold"])
        label_set = label_set_by_name(obj["label_set"])
        table_ref = dict(obj["table_ref"])
        dpi = mlp.model_from_dict(obj.pop("dpi"))
        dpg = mlp.model_from_dict(obj.pop("dpg"))
        metadata = dict(obj.get("metadata", {}))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt recovery model: {exc}") from None
    if not 0.0 <= threshold <= 1.0:
        raise ModelFormatError(f"detection threshold {threshold} is not in [0, 1]")
    if table is None:
        table = table_from_source(table_ref)
    if dpg.num_classes != len(label_set):
        raise ModelFormatError(
            f"generation model has {dpg.num_classes} classes but label set "
            f"{label_set.name!r} has {len(label_set)}"
        )
    _check_dims(dpi, window, table, "detection")
    _check_dims(dpg, window, table, "generation")
    return RecoveryModel(dpi, dpg, label_set, window, threshold, table, table_ref, metadata)


def save_recovery_model(model: RecoveryModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(recovery_to_dict(model)), encoding="utf-8")


def load_recovery_model(path: str | Path, table: EmbeddingTable | None = None) -> RecoveryModel:
    """Load a recovery model, rebuilding its embedding table from the
    file's table_ref unless one is passed in."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc.msg}") from None
    return recovery_from_dict(obj, table)
