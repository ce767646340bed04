"""Two-stage recovery: gap detection feeds pronoun generation.

Training fits one binary MLP over every candidate gap (is a pronoun
dropped here?) and one multi-class MLP over gold dropped positions (which
pronoun?).  The detection threshold is tuned on the dev split.  At
inference, every gap whose detection probability clears the threshold is
sent to the generator, which assigns the argmax label with its softmax
confidence.  `RecoveryModel` holds the rules for how these parts fit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import mlp
from .corpus import (Corpus, AnnotatedSentence, LabelSet, atomic_open, check_metadata,
                     decode_json, label_set_by_name)
from .embeddings import (EmbeddingTable, check_source, context_projection, context_rows,
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

    def __post_init__(self):
        self.check()
        self.threshold = float(self.threshold)

    def check(self) -> None:
        """Raise ValueError unless the parts fit: a threshold in [0, 1]; both networks
        over one window of the table, shaped as `mlp.build_model` shapes their hyperparams
        with 2 classes (dpi) or one per label (dpg); metadata that passes `check_metadata`."""
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ValueError(f"could not convert threshold {t!r} to a number")
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"detection threshold {t} is not in [0, 1]")
        for name, net, classes in (("dpi", self.dpi, 2), ("dpg", self.dpg, len(self.label_set))):
            hp = net.hyperparams
            if (hp.window, hp.embed_dim) != (self.window, self.table.dim):
                raise ValueError(f"{name} has window {hp.window}, embed_dim {hp.embed_dim}; both "
                                 f"networks must share a window and the table dim {self.table.dim}")
            dims = mlp.layer_dims(hp.input_dim, classes, hp)
            shapes = [(layer.weights.shape, layer.bias.shape) for layer in net.layers]
            if shapes != [((o, i), (o,)) for i, o in zip(dims, dims[1:])]:
                raise ValueError(f"{name} layer shapes {shapes} do not follow from its "
                                 f"hyperparams and {classes} classes")
        check_metadata(self.metadata)

    @property
    def window(self) -> int:
        """The context window of both networks."""
        return self.dpi.hyperparams.window


@dataclass(frozen=True)
class RecoveredSentence:
    tokens: tuple[str, ...]
    recovered: tuple[tuple[int, str, float], ...]  # (gap_index, tag, confidence)


def class_probabilities(net: MlpModel, table: EmbeddingTable, rows: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities of `net`, one row per gap of a `context_rows`
    matrix of `table`: the first layer from the table's cached per-word
    projections (`context_projection`), the rest by `mlp.predict_from_first_layer`."""
    return mlp.predict_from_first_layer(net, context_projection(rows, table, net.layers[0]))


def dpi_gap_probability(model: RecoveryModel, rows: np.ndarray) -> np.ndarray:
    """Eval-mode probability that a pronoun is dropped, per gap of a
    `context_rows` matrix of the model's table."""
    return class_probabilities(model.dpi, model.table, rows)[:, DROPPED]


def tune_threshold(model: RecoveryModel, rows: np.ndarray,
                   dropped: np.ndarray) -> tuple[float, float]:
    """Grid-search the detection threshold maximizing the accuracy of the gaps of a
    `context_rows` matrix of the model's table, `dropped` where a pronoun is dropped.
    Returns (threshold, accuracy).  Ties prefer the threshold nearest 0.5."""
    probs = dpi_gap_probability(model, rows)
    correct = {t: int(np.count_nonzero((probs >= t) == dropped)) for t in THRESHOLD_GRID}
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

    Both corpora must share a label set and dev must be non-empty.  Hyperparams
    that break a `RecoveryModel` rule raise ValueError before the first step.
    Dev accuracy of both stages lands in the returned model's metadata;
    generation's is scored at the annotated dev gaps, and is None without any.
    """
    train.label_set.check_same(dev.label_set, "train", "dev")
    if not train.sentences:
        raise ValueError("training corpus is empty")
    if not dev.sentences:
        raise ValueError("dev corpus is empty")
    if train.total_annotations() == 0:
        raise ValueError("training corpus has no dropped-pronoun annotations")
    model = RecoveryModel(mlp.build_model(hp_dpi.input_dim, 2, hp_dpi),
                          mlp.build_model(hp_dpg.input_dim, len(train.label_set), hp_dpg),
                          train.label_set, 0.5, table)
    for name, net, build in (("dpi", model.dpi, build_dpi_instances),
                             ("dpg", model.dpg, build_dpg_instances)):
        log = mlp.train(net, build(train, table, model.window))
        if progress:
            for stats in log:
                progress(name, stats)

    rows, gold = context_rows(dev.sentences, model.window, table), gap_labels(dev)
    annotated = gold >= 0
    model.threshold, dev_dpi_acc = tune_threshold(model, rows, annotated)
    dev_dpg_acc = None  # dev has no annotated gap to score
    if annotated.any():
        classes = predict_dpg(model, rows[annotated])[0]
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
    return dpi_gap_probability(model, rows) >= model.threshold


def predict_dpg(model: RecoveryModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most likely pronoun class per gap of a `context_rows` matrix of the
    model's table, with its softmax confidence: the largest probability."""
    probs = class_probabilities(model.dpg, model.table, rows)
    return probs.argmax(axis=1), np.maximum.reduce(probs, axis=1)


def recover(model: RecoveryModel, sentence: AnnotatedSentence) -> RecoveredSentence:
    """Run the two-stage pipeline over every candidate gap of a sentence."""
    rows = context_rows((sentence,), model.window, model.table)
    gaps = predict_dpi(model, rows).nonzero()[0]
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


def _table_ref(ref, dpi: MlpModel, move: Callable[[str], str]) -> dict:
    """`ref` with a word2vec path mapped by `move`; ValueError unless it passes
    `check_source` and its `dim` is the `embed_dim` of the `dpi` network."""
    check_source(ref, "table_ref")
    if dpi.hyperparams.embed_dim != ref["dim"]:
        raise ValueError(f"detection embed_dim {dpi.hyperparams.embed_dim} differs "
                         f"from table_ref dim {ref['dim']}")
    return {**ref, "path": move(ref["path"])} if ref["kind"] == "word2vec" else ref


def recovery_from_dict(obj: dict, model_dir: str | Path = ".") -> RecoveryModel:
    """Build a recovery model from its JSON object, in which each field is
    stored once; a field the format does not have is refused.  The networks
    decode, and the `table_ref` passes `_table_ref` (its word2vec path relative
    to `model_dir`, the model file's directory), before the table is built, so
    no table of a dim no network uses is built.  `RecoveryModel` checks how the
    parts fit.  Each ValueError becomes ModelFormatError.  The blocks are popped
    from `obj` as they are decoded, freeing their base64 strings early."""
    if not isinstance(obj, dict) or obj.get("kind") != "recovery":
        raise ModelFormatError("not a recovery model object")
    if obj.get("format_version") != RECOVERY_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported recovery format version {obj.get('format_version')!r}, expected "
            f"{RECOVERY_FORMAT_VERSION}; retrain the model with `droprec train`")
    # CorpusError (an unknown label set) is a ValueError, so it lands here too.
    try:
        check_fields(obj, _RECOVERY_FIELDS, "recovery model")
        threshold, metadata = obj["threshold"], obj["metadata"]
        label_set = label_set_by_name(obj["label_set"])
        dpi = mlp.model_from_dict(obj.pop("dpi"), 2, "dpi")
        dpg = mlp.model_from_dict(obj.pop("dpg"), len(label_set), "dpg")
        table_ref = _table_ref(obj["table_ref"], dpi, lambda p: str(Path(model_dir) / p))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt recovery model: {exc}") from None
    table = table_from_source(table_ref)
    try:
        return RecoveryModel(dpi, dpg, label_set, threshold, table, metadata)
    except ValueError as exc:
        raise ModelFormatError(f"corrupt recovery model: {exc}") from None


def save_recovery_model(model: RecoveryModel, path: str | Path) -> None:
    """Write the model as JSON, its word2vec path relative to the model file's
    directory, so the bytes do not depend on the working directory.  What loading
    refuses raises ValueError and writes nothing: a break of a `RecoveryModel`
    rule (as by a threshold or metadata assigned after building), of
    `mlp.check_finite` or of `_table_ref`, or a NaN or infinity, which strict
    JSON cannot hold.  Only a word2vec file edited since is left to loading."""
    model.check()
    for name in ("dpi", "dpg"):
        mlp.check_finite(getattr(model, name), name)
    ref = _table_ref(model.table.source, model.dpi, lambda p: os.path.relpath(p, Path(path).parent))
    with atomic_open(path) as fh:
        fh.write(json.dumps({**recovery_to_dict(model), "table_ref": ref}, allow_nan=False))


def load_recovery_model(path: str | Path) -> RecoveryModel:
    """Load a recovery model, rebuilding its embedding table from its table_ref."""
    obj = decode_json(Path(path).read_bytes(), path, None, ModelFormatError)
    return recovery_from_dict(obj, Path(path).parent)
