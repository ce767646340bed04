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
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import mlp
from .corpus import Corpus, AnnotatedSentence, LabelSet, atomic_open, label_set_by_name
from .embeddings import SOURCE_FIELDS, EmbeddingTable, context_embedding, table_from_source
from .hypotheses import DROPPED, build_dpg_instances, build_dpi_instances, gap_labels
from .mlp import EpochStats, Hyperparams, MlpModel, ModelFormatError, require_int

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
    probs = dpi_gap_probability(dpi_model, context_embedding(dev.sentences, window, table))
    gold = gap_labels(dev) >= 0
    correct = {t: int(np.count_nonzero((probs >= t) == gold)) for t in THRESHOLD_GRID}
    best = min(THRESHOLD_GRID, key=lambda t: (-correct[t], abs(t - 0.5), t))
    return best, correct[best] / len(probs)


def train_recovery(
    train: Corpus,
    dev: Corpus,
    table: EmbeddingTable,
    hp_dpi: Hyperparams,
    hp_dpg: Hyperparams,
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
    dpi_log = mlp.train(dpi_model, build_dpi_instances(train, table, window), hp_dpi)
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
    model = RecoveryModel(dpi_model, dpg_model, train.label_set, window, threshold, table)
    if dev.total_annotations():
        from .evaluate import evaluate_dpg  # evaluate imports this module

        dev_dpg_acc = evaluate_dpg(model, dev, table).accuracy
    else:
        dev_dpg_acc = float("nan")
    model.metadata = {
        "dev_dpi_accuracy": dev_dpi_acc,
        "dev_dpg_accuracy_gold": dev_dpg_acc,
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
    features = context_embedding((sentence,), model.window, model.table)
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
        "table_ref": model.table.source,
        "metadata": model.metadata,
        "dpi": mlp.model_to_dict(model.dpi),
        "dpg": mlp.model_to_dict(model.dpg),
    }


def recovery_from_dict(obj: dict, model_dir: str | Path = ".") -> RecoveryModel:
    """Build a recovery model from its JSON object.

    A word2vec `table_ref` with a `sha256` names its file relative to
    `model_dir`, the directory of the model file; one without (written
    before the hash was recorded) names it relative to the working
    directory.  The two parameter blocks are popped from `obj` as they
    are converted, so their hex strings are freed before the embedding
    table is built.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "recovery":
        raise ModelFormatError("not a recovery model object")
    if obj.get("format_version") != RECOVERY_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported recovery format version {obj.get('format_version')!r}"
        )
    # CorpusError (an unknown label set) is a ValueError, so it lands here too.
    try:
        window = require_int(obj["window"], "window")
        if type(obj["threshold"]) not in (int, float):
            raise TypeError(f"could not convert threshold {obj['threshold']!r} to a number")
        threshold = float(obj["threshold"])
        label_set = label_set_by_name(obj["label_set"])
        table_ref = dict(obj["table_ref"])
        for key, kind in SOURCE_FIELDS.get(table_ref.get("kind"), {}).items():
            if isinstance(kind, re.Pattern):
                if key in table_ref and not (
                    type(table_ref[key]) is str and kind.fullmatch(table_ref[key])
                ):
                    raise ValueError(
                        f"table_ref {key} must match {kind.pattern}, got {table_ref[key]!r}"
                    )
            elif type(table_ref[key]) is not kind:
                raise TypeError(f"table_ref {key} must be {kind.__name__}, got {table_ref[key]!r}")
        if not all(type(word) is str for word in table_ref.get("vocab", ())):
            raise TypeError("table_ref vocab must be a list of words")
        dpi = mlp.model_from_dict(obj.pop("dpi"))
        dpg = mlp.model_from_dict(obj.pop("dpg"))
        metadata = dict(obj.get("metadata", {}))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt recovery model: {exc}") from None
    if not 0.0 <= threshold <= 1.0:
        raise ModelFormatError(f"detection threshold {threshold} is not in [0, 1]")
    if "sha256" in table_ref:
        table_ref["path"] = str(Path(model_dir) / table_ref["path"])
    table = table_from_source(table_ref)
    if dpg.num_classes != len(label_set):
        raise ModelFormatError(
            f"generation model has {dpg.num_classes} classes but label set "
            f"{label_set.name!r} has {len(label_set)}"
        )
    _check_dims(dpi, window, table, "detection")
    _check_dims(dpg, window, table, "generation")
    return RecoveryModel(dpi, dpg, label_set, window, threshold, table, metadata)


def save_recovery_model(model: RecoveryModel, path: str | Path) -> None:
    """Write the model as JSON.  A hashed word2vec `table_ref` is stored
    with its path relative to the model file's directory, so the bytes do
    not depend on the working directory."""
    obj = recovery_to_dict(model)
    ref = obj["table_ref"]
    if "sha256" in ref:
        obj["table_ref"] = {**ref, "path": os.path.relpath(ref["path"], Path(path).parent)}
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj))


def load_recovery_model(path: str | Path) -> RecoveryModel:
    """Load a recovery model, rebuilding its embedding table from the
    file's table_ref."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid UTF-8: {exc.reason}") from None
    return recovery_from_dict(obj, Path(path).parent)
