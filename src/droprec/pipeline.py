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
from .corpus import (Corpus, AnnotatedSentence, LabelSet, atomic_open, check_metadata,
                     label_set_by_name)
from .embeddings import (SOURCE_FIELDS, EmbeddingTable, context_projection, context_rows,
                         table_from_source)
from .hypotheses import DROPPED, build_dpg_instances, build_dpi_instances, gap_labels
from .mlp import EpochStats, Hyperparams, MlpModel, ModelFormatError, check_fields

RECOVERY_FORMAT_VERSION = 2
_RECOVERY_FIELDS = {"format_version", "kind", "label_set", "threshold", "table_ref", "metadata",
                    "dpi", "dpg"}

# Dev-tuned detection threshold: candidate grid and tie policy (closest to
# 0.5 wins, then the smaller value).
THRESHOLD_GRID = tuple(i / 100 for i in range(5, 100, 5))

ProgressFn = Callable[[str, EpochStats], None]


@dataclass
class RecoveryModel:
    dpi: MlpModel
    dpg: MlpModel
    label_set: LabelSet
    threshold: float
    table: EmbeddingTable
    metadata: dict = field(default_factory=dict)

    @property
    def window(self) -> int:
        """The context window of both networks."""
        return self.dpi.hyperparams.window


@dataclass(frozen=True)
class RecoveredSentence:
    tokens: tuple[str, ...]
    recovered: tuple[tuple[int, str, float], ...]  # (gap_index, tag, confidence)


def dpi_gap_probability(dpi: MlpModel, table: EmbeddingTable, rows: np.ndarray) -> np.ndarray:
    """Eval-mode probability that a pronoun is dropped, per gap of a
    `context_rows` matrix of `table`."""
    z = context_projection(rows, table, dpi.layers[0].weights)
    return mlp.predict_from_first_layer(dpi, z)[1][:, DROPPED]


def tune_threshold(dpi_model: MlpModel, dev: Corpus, table: EmbeddingTable) -> tuple[float, float]:
    """Grid-search the detection threshold maximizing dev gap accuracy.

    Returns (threshold, accuracy).  Ties prefer the threshold nearest 0.5.
    Gaps are read in the window of `dpi_model.hyperparams`.
    """
    window = dpi_model.hyperparams.window
    probs = dpi_gap_probability(dpi_model, table, context_rows(dev.sentences, window, table))
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
    returned model's metadata; generation's is scored at the annotated dev
    gaps, and is None when there are none.
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
    dpi_log = mlp.train(dpi_model, build_dpi_instances(train, table, window))
    if progress:
        for stats in dpi_log:
            progress("dpi", stats)

    dpg_model = mlp.build_model(hp_dpg.input_dim, len(train.label_set), hp_dpg)
    dpg_log = mlp.train(dpg_model, build_dpg_instances(train, table, window))
    if progress:
        for stats in dpg_log:
            progress("dpg", stats)

    threshold, dev_dpi_acc = tune_threshold(dpi_model, dev, table)
    model = RecoveryModel(dpi_model, dpg_model, train.label_set, threshold, table)
    gold = gap_labels(dev)
    annotated = gold >= 0
    dev_dpg_acc = None  # dev has no annotated gap to score
    if annotated.any():
        classes = predict_dpg(model, context_rows(dev.sentences, window, table)[annotated])[0]
        dev_dpg_acc = int(np.count_nonzero(classes == gold[annotated])) / len(classes)
    model.metadata = {
        "dev_dpi_accuracy": dev_dpi_acc,
        "dev_dpg_accuracy_gold": dev_dpg_acc,
        "train_sentences": len(train.sentences),
        "train_annotations": train.total_annotations(),
    }
    return model


def predict_dpi(model: RecoveryModel, rows: np.ndarray) -> np.ndarray:
    """Detected gaps among the rows of a `context_rows` matrix of the
    model's table: P(dropped) >= the model threshold."""
    return dpi_gap_probability(model.dpi, model.table, rows) >= model.threshold


def predict_dpg(model: RecoveryModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most likely pronoun class per gap of a `context_rows` matrix of the
    model's table, with its softmax confidence."""
    z = context_projection(rows, model.table, model.dpg.layers[0].weights)
    classes, probs = mlp.predict_from_first_layer(model.dpg, z)
    return classes, probs[np.arange(len(classes)), classes]


def recover(model: RecoveryModel, sentence: AnnotatedSentence) -> RecoveredSentence:
    """Run the two-stage pipeline over every candidate gap of a sentence."""
    rows = context_rows((sentence,), model.window, model.table)
    gaps = np.flatnonzero(predict_dpi(model, rows))
    if not gaps.size:
        return RecoveredSentence(sentence.tokens, ())
    classes, confidences = predict_dpg(model, rows[gaps])
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
        "threshold": model.threshold,
        "table_ref": model.table.source,
        "metadata": model.metadata,
        "dpi": mlp.model_to_dict(model.dpi),
        "dpg": mlp.model_to_dict(model.dpg),
    }


def recovery_from_dict(obj: dict, model_dir: str | Path = ".") -> RecoveryModel:
    """Build a recovery model from its JSON object.

    Each field is stored once: the window and `embed_dim` are the networks'
    hyperparams, and the layer shapes follow from these, the class count
    (2 for detection, the label set's size for generation) and `layer_count`.
    So beyond the fields themselves three relations are checked: the two
    windows are equal, each `embed_dim` is the `table_ref` dim, and each
    network has `layer_count` layers.  A field the format does not have is
    refused.  A word2vec `table_ref` names its file relative to `model_dir`,
    the directory of the model file, and carries the file's `sha256`.  The
    two parameter blocks are popped from `obj` as they are converted, so
    their base64 strings are freed before the embedding table is built.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "recovery":
        raise ModelFormatError("not a recovery model object")
    if obj.get("format_version") != RECOVERY_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported recovery format version {obj.get('format_version')!r}, expected "
            f"{RECOVERY_FORMAT_VERSION}; retrain the model with `droprec train`"
        )
    # CorpusError (an unknown label set) is a ValueError, so it lands here too.
    try:
        check_fields(obj, _RECOVERY_FIELDS, "recovery model")
        if type(obj["threshold"]) not in (int, float):
            raise TypeError(f"could not convert threshold {obj['threshold']!r} to a number")
        threshold = float(obj["threshold"])
        label_set = label_set_by_name(obj["label_set"])
        table_ref = obj["table_ref"]
        if table_ref["kind"] not in SOURCE_FIELDS:  # TypeError unless table_ref is an object
            raise ValueError(f"table_ref kind {table_ref['kind']!r} cannot be rebuilt")
        fields = SOURCE_FIELDS[table_ref["kind"]]
        check_fields(table_ref, {"kind", *fields}, "table_ref")
        for key, kind in fields.items():
            if isinstance(kind, re.Pattern):
                if not (type(table_ref[key]) is str and kind.fullmatch(table_ref[key])):
                    raise ValueError(
                        f"table_ref {key} must match {kind.pattern}, got {table_ref[key]!r}"
                    )
            elif type(table_ref[key]) is not kind:
                raise TypeError(f"table_ref {key} must be {kind.__name__}, got {table_ref[key]!r}")
        try:  # TypeError for a word that is no string, UnicodeEncodeError for a lone surrogate
            "".join(table_ref.get("vocab", ())).encode("utf-8")
        except (TypeError, UnicodeEncodeError):
            raise TypeError("table_ref vocab must be a list of UTF-8 words") from None
        metadata = obj["metadata"]
        check_metadata(metadata)
        dpi = mlp.model_from_dict(obj.pop("dpi"), 2)
        dpg = mlp.model_from_dict(obj.pop("dpg"), len(label_set))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt recovery model: {exc}") from None
    if not 0.0 <= threshold <= 1.0:
        raise ModelFormatError(f"detection threshold {threshold} is not in [0, 1]")
    if dpi.hyperparams.window != dpg.hyperparams.window:
        raise ModelFormatError(f"detection window {dpi.hyperparams.window} differs from "
                               f"generation window {dpg.hyperparams.window}")
    for stage, net in (("detection", dpi), ("generation", dpg)):
        if net.hyperparams.embed_dim != table_ref["dim"]:
            raise ModelFormatError(f"{stage} embed_dim {net.hyperparams.embed_dim} differs "
                                   f"from table_ref dim {table_ref['dim']}")
    if table_ref["kind"] == "word2vec":
        table_ref = {**table_ref, "path": str(Path(model_dir) / table_ref["path"])}
    table = table_from_source(table_ref)
    return RecoveryModel(dpi, dpg, label_set, threshold, table, metadata)


def save_recovery_model(model: RecoveryModel, path: str | Path) -> None:
    """Write the model as JSON.  A word2vec `table_ref` is stored
    with its path relative to the model file's directory, so the bytes do
    not depend on the working directory.  A table whose source kind model
    loading cannot rebuild raises ValueError, and nothing is written; so
    does a NaN or infinite number, which strict JSON cannot hold, and
    metadata that breaks `corpus.check_metadata`."""
    check_metadata(model.metadata)
    obj = recovery_to_dict(model)
    ref = obj["table_ref"]
    if ref.get("kind") not in SOURCE_FIELDS:
        raise ValueError(f"embedding table source kind {ref.get('kind')!r} cannot be rebuilt")
    if ref["kind"] == "word2vec":
        obj["table_ref"] = {**ref, "path": os.path.relpath(ref["path"], Path(path).parent)}
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, allow_nan=False))


def load_recovery_model(path: str | Path) -> RecoveryModel:
    """Load a recovery model, rebuilding its embedding table from the
    file's table_ref."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise ModelFormatError(f"{path}: JSON nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid UTF-8: {exc.reason}") from None
    return recovery_from_dict(obj, Path(path).parent)
