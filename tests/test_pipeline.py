import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _blocks import with_value
from _metadata import METADATA
from droprec import mlp, pipeline
from droprec.corpus import (ACTUAL10, FULL14, AnnotatedSentence, Corpus, CorpusError,
                            load_corpus, split_corpus)
from droprec.embeddings import (EmbeddingError, EmbeddingTable, context_embedding, context_rows,
                                deterministic_fallback_table, load_embeddings, table_from_source)
from droprec.hypotheses import gap_labels
from droprec.mlp import Hyperparams, MlpModel, ModelFormatError
from droprec.pipeline import (
    RecoveryModel,
    dpi_gap_probability,
    load_recovery_model,
    predict_dpg,
    predict_dpi,
    recover,
    recovery_from_dict,
    recovery_to_dict,
    save_recovery_model,
    train_recovery,
    tune_threshold,
)
from droprec.synth import builtin_grammar, generate_corpus


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def make_table(corpora, dim=8, seed=0):
    vocab = sorted({t for c in corpora for s in c.sentences for t in s.tokens})
    return deterministic_fallback_table(vocab, dim, seed)


def stub_recovery_model(table, label_set=FULL14, window=1, threshold=0.5,
                        dpi_bias=(0.0, 0.0), dpg_bias=None):
    """Zero-weight stages whose behavior is set entirely by output biases."""
    input_dim = 2 * window * table.dim
    hp = Hyperparams(embed_dim=table.dim, window=window, layer_count=1, seed=0)
    dpi = mlp.build_model(input_dim, 2, hp)
    dpi.layers[0].weights[:] = 0.0
    dpi.layers[0].bias[:] = np.array(dpi_bias)
    dpg = mlp.build_model(input_dim, len(label_set), hp)
    dpg.layers[0].weights[:] = 0.0
    dpg.layers[0].bias[:] = 0.0 if dpg_bias is None else np.array(dpg_bias)
    return RecoveryModel(dpi, dpg, label_set, threshold, table, {})


# --- the model's rules -------------------------------------------------------

TINY_HP = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=2, epochs=1, seed=0)


def fitting_parts() -> dict:
    """The parts of a model that fit: 4 -> 2 -> {2, 14} over a 2-dim table."""
    return {"dpi": mlp.build_model(4, 2, TINY_HP), "dpg": mlp.build_model(4, len(FULL14), TINY_HP),
            "label_set": FULL14, "threshold": 0.5,
            "table": deterministic_fallback_table(["a"], 2, seed=0), "metadata": {}}


def network(classes, **changes) -> MlpModel:
    """A network of `classes` outputs shaped as TINY_HP with `changes` gives."""
    hp = replace(TINY_HP, **changes)
    return mlp.build_model(hp.input_dim, classes, hp)


def resized(classes, layer, rows, blocks=("weights", "bias")) -> MlpModel:
    """A TINY_HP network whose `blocks` of layer `layer` have `rows` rows."""
    net = network(classes)
    entry = net.layers[layer]
    if "weights" in blocks:
        entry.weights = np.resize(entry.weights, (rows, entry.in_dim))
    if "bias" in blocks:
        entry.bias = np.resize(entry.bias, rows)
    return net


# The in-memory counterparts of the model files that break a relation
# (test_fuzz.RELATION_BREAKS), and parts that break the other rules.
PART_BREAKS = {
    "dpi-one-class": ({"dpi": resized(2, -1, 1)}, r"dpi layer shapes .* and 2 classes"),
    "dpi-three-classes": ({"dpi": network(3)}, r"dpi layer shapes .* and 2 classes"),
    "dpg-thirteen-classes": ({"dpg": network(13)}, r"dpg layer shapes .* and 14 classes"),
    "windows-differ": ({"dpg": network(14, window=2)}, "dpg has window 2, .* share a window"),
    "embed-dim-not-table-dim": ({"table": deterministic_fallback_table(["a"], 3, seed=0)},
                                "dpi has window 1, embed_dim 2; .* the table dim 3"),
    "both-embed-dims-not-table-dim": ({"dpi": network(2, embed_dim=3),
                                       "dpg": network(14, embed_dim=3)},
                                      "dpi has window 1, embed_dim 3; .* the table dim 2"),
    "more-layers-than-layer-count": ({"dpi": MlpModel(network(2).layers,
                                                      replace(TINY_HP, layer_count=1))},
                                     "dpi layer shapes"),
    "fewer-layers-than-layer-count": ({"dpg": MlpModel(network(14).layers,
                                                       replace(TINY_HP, layer_count=3))},
                                      "dpg layer shapes"),
    "weights-one-row-short": ({"dpi": resized(2, 0, 1, ["weights"])}, "dpi layer shapes"),
    "weights-one-row-long": ({"dpg": resized(14, 1, 15, ["weights"])}, "dpg layer shapes"),
    "bias-one-row-short": ({"dpg": resized(14, 0, 1, ["bias"])}, "dpg layer shapes"),
    "threshold-above-one": ({"threshold": 1.5}, r"threshold 1.5 is not in \[0, 1\]"),
    "threshold-nan": ({"threshold": math.nan}, r"threshold nan is not in \[0, 1\]"),
    "threshold-bool": ({"threshold": True}, "could not convert threshold True"),
    "threshold-string": ({"threshold": "0.5"}, "could not convert threshold '0.5'"),
    "metadata-tuple": ({"metadata": {"k": ("a",)}}, "metadata does not read back equal"),
}


@pytest.mark.parametrize("changes, match", PART_BREAKS.values(), ids=PART_BREAKS.keys())
def test_parts_that_do_not_fit_are_refused_when_built_and_when_saved(tmp_path, changes, match):
    with pytest.raises(ValueError, match=match):
        RecoveryModel(**{**fitting_parts(), **changes})
    model = RecoveryModel(**fitting_parts())
    for name, value in changes.items():  # assigned after construction, as `recover` may
        setattr(model, name, value)
    with pytest.raises(ValueError, match=match):
        save_recovery_model(model, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_a_model_holds_its_threshold_as_a_float():
    model = RecoveryModel(**{**fitting_parts(), "threshold": 1})
    assert type(model.threshold) is float and model.threshold == 1.0


# --- training ----------------------------------------------------------------


def small_separable_setup(n=600, seed=5):
    corpus = generate_corpus(builtin_grammar("separable"), n, seed=seed)
    train, dev, test = split_corpus(corpus, seed=seed + 1)
    table = make_table([train, dev], dim=8, seed=seed + 2)
    return train, dev, test, table


def test_train_recovery_learns_separable_data():
    train, dev, test, table = small_separable_setup()
    hp = Hyperparams(embed_dim=8, window=1, layer_count=2, epochs=50,
                     learning_rate=0.01, seed=3)
    model = train_recovery(train, dev, table, hp, hp)
    assert model.metadata["dev_dpi_accuracy"] >= 0.95
    assert 0.0 < model.threshold < 1.0
    assert model.dpi.num_classes == 2
    assert model.dpg.num_classes == 14
    assert model.dpi.input_dim == model.dpg.input_dim == 2 * 1 * 8


def test_train_recovery_accepts_reference_hyperparams():
    # reference detection settings: D=300, W=1, L=3, dropout 0.5, 25 epochs
    train, dev, _, _ = small_separable_setup(n=40)
    table = make_table([train, dev], dim=300, seed=1)
    hp = Hyperparams(embed_dim=300, window=1, layer_count=3, dropout_rate=0.5,
                     epochs=25, seed=4)
    model = train_recovery(train, dev, table, hp, hp)
    assert model.dpi.hyperparams == hp
    assert model.dpg.hyperparams == hp
    assert set(model.metadata) >= {"dev_dpi_accuracy", "dev_dpg_accuracy_gold"}


def test_train_recovery_rejects_empty_dev():
    train, dev, _, table = small_separable_setup(n=40)
    empty_dev = Corpus(dev.label_set, (), dict(dev.metadata))
    hp = Hyperparams(embed_dim=8, epochs=1)
    with pytest.raises(ValueError, match="dev corpus is empty"):
        train_recovery(train, empty_dev, table, hp, hp)


def test_train_recovery_rejects_label_set_mismatch():
    train, dev, _, table = small_separable_setup(n=40)
    other = Corpus(ACTUAL10, (AnnotatedSentence(("a",), ((0, "wo"),)),))
    hp = Hyperparams(embed_dim=8, epochs=1)
    with pytest.raises(ValueError, match="label set mismatch"):
        train_recovery(train, other, table, hp, hp)


def test_train_recovery_rejects_dimension_mismatch():
    train, dev, _, table = small_separable_setup(n=40)
    hp = Hyperparams(embed_dim=9, epochs=1)  # table.dim is 8
    with pytest.raises(ValueError, match="embed_dim"):
        train_recovery(train, dev, table, hp, hp)


def test_train_recovery_rejects_window_mismatch():
    train, dev, _, table = small_separable_setup(n=40)
    hp1 = Hyperparams(embed_dim=8, window=1, epochs=1)
    hp2 = Hyperparams(embed_dim=8, window=2, epochs=1)
    with pytest.raises(ValueError, match="share a window"):
        train_recovery(train, dev, table, hp1, hp2)


def test_train_recovery_rejects_unannotated_training_corpus():
    plain = Corpus(FULL14, tuple(AnnotatedSentence((f"t{i}", "x")) for i in range(6)))
    table = make_table([plain], dim=4)
    hp = Hyperparams(embed_dim=4, epochs=1)
    with pytest.raises(ValueError, match="no dropped-pronoun annotations"):
        train_recovery(plain, plain, table, hp, hp)


# --- recovery -----------------------------------------------------------------


def test_never_fire_detector_recovers_nothing():
    table = deterministic_fallback_table(["a", "b"], 4, seed=0)
    model = stub_recovery_model(table, dpi_bias=(50.0, -50.0))  # P(dropped) ~ 0
    result = recover(model, AnnotatedSentence(("a", "b")))
    assert result.recovered == ()


def test_zero_threshold_labels_every_gap():
    table = deterministic_fallback_table(["a", "b", "c"], 4, seed=0)
    model = stub_recovery_model(table, threshold=0.0)
    sent = AnnotatedSentence(("a", "b", "c"))
    result = recover(model, sent)
    assert [gap for gap, _, _ in result.recovered] == [0, 1, 2, 3]


def test_hand_built_detector_matches_hand_computed_probabilities():
    # 1-dim embeddings: P -> +1, N -> -1; detector fires only on (P, P),
    # scoring z = 10*left + 10*right - 15 for the dropped class, so
    # P(dropped) = sigmoid(z).  Expectations computed with math.exp.
    table = EmbeddingTable.from_vectors(1, {"P": np.array([1.0]), "N": np.array([-1.0])})
    model = stub_recovery_model(table, window=1, threshold=0.5)
    model.dpi.layers[0].weights[:] = np.array([[0.0, 0.0], [10.0, 10.0]])
    model.dpi.layers[0].bias[:] = np.array([0.0, -15.0])
    sent = AnnotatedSentence(("P", "P", "N"))
    rows = context_rows((sent,), 1, table)
    expected = {
        0: sigmoid(0 * 10 + 1 * 10 - 15),   # pad, P
        1: sigmoid(1 * 10 + 1 * 10 - 15),   # P, P  -> 0.9933...
        2: sigmoid(1 * 10 - 1 * 10 - 15),   # P, N
        3: sigmoid(-1 * 10 + 0 * 10 - 15),  # N, pad
    }
    probs = dpi_gap_probability(model, rows)
    for gap, want in expected.items():
        assert probs[gap] == pytest.approx(want, abs=1e-12)
    assert predict_dpi(model, rows).tolist() == [False, True, False, False]
    result = recover(model, sent)
    assert [gap for gap, _, _ in result.recovered] == [1]
    gap, tag, confidence = result.recovered[0]
    # zero-weight generator: uniform softmax, argmax tie -> lowest index
    assert tag == "wo"
    assert confidence == pytest.approx(1.0 / 14.0, abs=1e-12)


def test_predict_dpi_probabilities_sum_to_one():
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    model = stub_recovery_model(table)
    sent = AnnotatedSentence(("a", "b"))
    p1 = dpi_gap_probability(model, context_rows((sent,), 1, table))[1]
    _, probs = mlp.predict(model.dpi, context_embedding((sent,), 1, table))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    assert 0.0 <= p1 <= 1.0


def test_predict_dpg_confidence_is_max_probability():
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    bias = np.linspace(0.0, 1.3, 14)
    model = stub_recovery_model(table, dpg_bias=bias)
    sent = AnnotatedSentence(("a", "b"))
    (cls,), (confidence,) = predict_dpg(model, context_rows((sent,), 1, table)[[1]])
    assert FULL14.labels[cls] == FULL14.labels[13]  # largest bias wins
    assert confidence == pytest.approx(float(np.max(mlp.softmax(bias))), abs=1e-12)


def test_predictions_stable_across_calls():
    table = deterministic_fallback_table(["a", "b"], 4, seed=2)
    model = stub_recovery_model(table, dpg_bias=np.arange(14.0) / 10)
    rows = context_rows((AnnotatedSentence(("a", "b")),), 1, table)
    assert np.array_equal(predict_dpi(model, rows), predict_dpi(model, rows))
    for a, b in zip(predict_dpg(model, rows), predict_dpg(model, rows)):
        assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_raising_threshold_never_adds_gaps(t1, t2):
    lo, hi = sorted((t1, t2))
    table = deterministic_fallback_table(["a", "b", "c", "d"], 4, seed=3)
    model = stub_recovery_model(table)
    # non-degenerate detector so probabilities vary by gap
    rng = np.random.default_rng(0)
    model.dpi.layers[0].weights[:] = rng.normal(size=model.dpi.layers[0].weights.shape)
    sent = AnnotatedSentence(("a", "b", "c", "d"))
    model.threshold = lo
    at_lo = {gap for gap, _, _ in recover(model, sent).recovered}
    model.threshold = hi
    at_hi = {gap for gap, _, _ in recover(model, sent).recovered}
    assert at_hi <= at_lo
    assert at_lo <= set(range(len(sent.tokens) + 1))


@pytest.mark.parametrize("layer_count", [1, 2, 3])
def test_scorers_match_mlp_predict_on_gathered_features(layer_count):
    # The scorers sum cached per-word products of the first layer, and
    # mlp.predict multiplies the gathered feature matrix: the two agree to
    # a few ulp of 1 and take the same decisions.
    train, dev, test, table = small_separable_setup(n=150)
    hp = Hyperparams(embed_dim=8, window=2, layer_count=layer_count, hidden_dim=16,
                     epochs=5, learning_rate=0.05, seed=7)
    model = train_recovery(train, dev, table, hp, hp)
    rows = context_rows(test.sentences, 2, table)
    features = context_embedding(test.sentences, 2, table)
    eps = np.finfo(float).eps
    want = mlp.predict(model.dpi, features)[1][:, 1]
    got = dpi_gap_probability(model, rows)
    assert np.max(np.abs(got - want)) <= 4 * eps
    assert np.array_equal(predict_dpi(model, rows), want >= model.threshold)
    assert 0 < np.count_nonzero(want >= model.threshold) < len(want)
    classes, probs = mlp.predict(model.dpg, features)
    got_classes, confidences = predict_dpg(model, rows)
    assert np.array_equal(got_classes, classes)
    assert np.max(np.abs(confidences - probs.max(axis=1))) <= 4 * eps


def test_first_layer_weights_are_read_only_after_scoring():
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    model = stub_recovery_model(table, threshold=0.0)
    model.dpi.layers[0].bias[:] = 1.0  # writable until scored
    assert len(recover(model, AnnotatedSentence(("a", "b"))).recovered) == 3
    for net in (model.dpi, model.dpg):
        with pytest.raises(ValueError, match="read-only"):
            net.layers[0].weights[:] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            net.layers[0].weights += 1.0


def test_training_a_scored_network_fails_before_its_first_step(monkeypatch):
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    model = stub_recovery_model(table, threshold=0.0)
    recover(model, AnnotatedSentence(("a", "b")))
    net = model.dpi
    before = [(layer.weights.copy(), layer.bias.copy()) for layer in net.layers]
    steps = []
    forward_into = mlp._forward_into
    monkeypatch.setattr(mlp, "_forward_into", lambda *a: steps.append(a) or forward_into(*a))
    instances = [(np.ones(net.input_dim), 1), (np.zeros(net.input_dim), 0)]
    with pytest.raises(ValueError, match="read-only"):
        mlp.train(net, instances)
    assert steps == []
    for layer, (weights, bias) in zip(net.layers, before, strict=True):
        assert np.array_equal(layer.weights, weights) and np.array_equal(layer.bias, bias)


def test_a_scored_networks_bias_is_read_only_and_training_it_fails_before_its_first_step(
        monkeypatch):
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    model = stub_recovery_model(table, threshold=0.0)
    recover(model, AnnotatedSentence(("a", "b")))
    net = model.dpg
    bias = net.layers[0].bias
    with pytest.raises(ValueError, match="read-only"):
        bias[0] = 1.0
    net.layers[0].weights.flags.writeable = True  # the bias alone is left read-only
    before = bias.copy()
    steps = []
    forward_into = mlp._forward_into
    monkeypatch.setattr(mlp, "_forward_into", lambda *a: steps.append(a) or forward_into(*a))
    with pytest.raises(ValueError, match="layer 0 parameters are read-only"):
        mlp.train(net, [(np.ones(net.input_dim), 1)])
    assert steps == [] and np.array_equal(bias, before)


def test_tune_threshold_caches_only_the_rows_of_the_dev_words(tmp_path):
    # A fully checked table of 600 words; dev uses a few of them.
    train, dev, _, _ = small_separable_setup(n=60)
    dev_words = {tok for sent in dev.sentences for tok in sent.tokens}
    words = sorted(dev_words) + [f"unused{i}" for i in range(600)]
    rng = np.random.default_rng(0)
    path = tmp_path / "vec.txt"
    path.write_text(f"{len(words)} 4\n" + "".join(
        f"{w} " + " ".join(f"{x:.3f}" for x in rng.uniform(-1, 1, 4)) + "\n" for w in words),
        encoding="utf-8")
    table = load_embeddings(path)
    assert len(table) == table.unread == len(words)
    hp = Hyperparams(embed_dim=4, window=2, hidden_dim=8, seed=1)
    model = RecoveryModel(mlp.build_model(hp.input_dim, 2, hp),
                          mlp.build_model(hp.input_dim, len(dev.label_set), hp),
                          dev.label_set, 0.5, table)
    tune_threshold(model, context_rows(dev.sentences, model.window, table), gap_labels(dev) >= 0)
    (cache,) = table._projections.values()
    assert set(table.rows) == dev_words and cache.count <= len(dev_words) + 1


# --- serialization ---------------------------------------------------------------


def test_recovery_model_round_trip(tmp_path):
    train, dev, _, table = small_separable_setup(n=60)
    hp = Hyperparams(embed_dim=8, window=1, layer_count=2, epochs=3, seed=6)
    model = train_recovery(train, dev, table, hp, hp)
    path = tmp_path / "rec.json"
    save_recovery_model(model, path)
    again = load_recovery_model(path)  # table rebuilt from its descriptor
    assert again.threshold == model.threshold
    assert again.label_set.name == model.label_set.name
    assert again.metadata == model.metadata
    sent = train.sentences[0]
    rows = context_rows((sent,), model.window, model.table)
    again_rows = context_rows((sent,), again.window, again.table)
    assert np.array_equal(dpi_gap_probability(again, again_rows),
                          dpi_gap_probability(model, rows))
    for a, b in zip(predict_dpg(again, again_rows), predict_dpg(model, rows)):
        assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(METADATA)
def test_what_save_recovery_model_accepts_as_metadata_loads_back_equal(metadata):
    model = stub_recovery_model(deterministic_fallback_table(["a"], 2, seed=0))
    model.metadata = metadata
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        try:
            save_recovery_model(model, first)
        except ValueError:  # never another exception, and nothing written
            assert not list(Path(tmp).iterdir())
            return
        again = load_recovery_model(first)
        save_recovery_model(again, second)
        assert second.read_bytes() == first.read_bytes()
    assert again.metadata == metadata


@pytest.mark.parametrize("metadata", [{"k": ("a",)}, {"k": {1: "x"}}, {1: "x"},
                                      {"k": [float("nan")]}, {"k": {"a", "b"}}],
                         ids=["tuple", "nested-int-key", "int-key", "nan", "set"])
def test_saving_metadata_that_reads_back_unequal_writes_nothing(tmp_path, metadata):
    model = stub_recovery_model(deterministic_fallback_table(["a"], 2, seed=0))
    model.metadata = metadata
    with pytest.raises(ValueError, match="metadata"):
        save_recovery_model(model, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_batch_size_in_hyperparams_is_refused_and_negative_rate_in_metadata_loads(tmp_path):
    # Versions with batched training wrote "batch_size" into the hyperparams,
    # only in recovery format 1 files; metadata holds any key.
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["metadata"]["negative_rate"] = 1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert load_recovery_model(path).metadata == {"negative_rate": 1.0}
    obj["dpg"]["hyperparams"]["batch_size"] = 1
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="unexpected keyword argument 'batch_size'"):
        load_recovery_model(path)


def test_recovery_load_rejects_bad_version():
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["format_version"] = 7
    with pytest.raises(ModelFormatError, match="version"):
        recovery_from_dict(obj)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.05, 1.5])
def test_recovery_load_rejects_threshold_outside_unit_interval(threshold):
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["threshold"] = threshold
    with pytest.raises(ModelFormatError, match="threshold"):
        recovery_from_dict(obj)


# Both networks with zero-width first layers: window 0, or embedding dims of
# 0 in the networks and the table, as the hyperparams refuse.
ZERO_WIDTH = {(net, *key): value for net in ("dpi", "dpg") for key, value in
              [(("hyperparams", "window"), 0), (("layers", 0, "weights"), "")]}
ZERO_DIM = {("table_ref", "dim"): 0, **{(net, *key): value for net in ("dpi", "dpg") for key, value
                                        in [(("hyperparams", "embed_dim"), 0),
                                            (("layers", 0, "weights"), "")]}}


@pytest.mark.parametrize(
    "field, value, match",
    [("threshold", "abc", "could not convert"),
     (("dpi", "hyperparams", "window"), 0, "window must be >= 1, got 0"),
     ("label_set", "nope", "unknown label set"),
     (("dpi", "hyperparams", "window"), 1.7, "hyperparams window must be int"),
     (("dpg", "hyperparams", "window"), True, "hyperparams window must be int"),
     ("threshold", True, "could not convert"), ("threshold", "0.5", "could not convert"),
     (("dpi", "input_dim"), 8.7, r"network holds fields the format does not have: \['input_dim'\]"),
     (("dpg", "num_classes"), 14.0,
      r"network holds fields the format does not have: \['num_classes'\]"),
     (("dpi", "layers", 0, "out_dim"), 2.0,
      r"layer holds fields the format does not have: \['out_dim'\]"),
     (("dpg", "layers", 0, "in_dim"), True,
      r"layer holds fields the format does not have: \['in_dim'\]"),
     (("dpi", "hyperparams", "learning_rate"), float("nan"), "learning_rate"),
     (("table_ref", "kind"), "bogus", "kind 'bogus' cannot be rebuilt"),
     (ZERO_WIDTH, None, "window must be >= 1, got 0"),
     (ZERO_DIM, None, "embed_dim must be >= 1, got 0"),
     ("window", 1, r"recovery model holds fields the format does not have: \['window'\]"),
     (("dpi", "format_version"), 2, r"network holds fields the format does not have"),
     (("table_ref", "sha256"), "0" * 64, r"table_ref holds fields the format does not have"),
     ("metadata", [["k", 1]], "metadata has no JSON form"),
     ("metadata", {"k": float("nan")}, "metadata has no JSON form"),
     ("metadata", {"k": (1, {"a": float("-inf")})}, "metadata has no JSON form")],
    ids=["non-numeric-threshold", "window-zero", "unknown-label-set", "window-float",
         "window-bool", "threshold-bool", "threshold-string", "input-dim-float",
         "num-classes-float", "out-dim-float", "in-dim-bool", "learning-rate-nan",
         "table-kind-unknown", "window-zero-zero-width-layers",
         "table-dim-zero-zero-width-layers", "top-level-window", "network-format-version",
         "fallback-table-sha256", "metadata-list-of-pairs", "metadata-nan",
         "metadata-nested-minus-inf"],
)
def test_load_recovery_model_raises_model_format_error(tmp_path, field, value, match):
    table = deterministic_fallback_table(["a"], 2, seed=0)
    path = tmp_path / "model.json"
    obj = recovery_to_dict(stub_recovery_model(table))
    for field, value in (field.items() if isinstance(field, dict) else [(field, value)]):
        *parents, key = (field,) if isinstance(field, str) else field
        target = obj
        for parent in parents:
            target = target[parent]
        target[key] = value
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=match):
        load_recovery_model(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("network", ["dpi", "dpg"])
def test_load_recovery_model_rejects_non_finite_parameters(tmp_path, network, value):
    table = deterministic_fallback_table(["a"], 2, seed=0)
    path = tmp_path / "model.json"
    obj = recovery_to_dict(stub_recovery_model(table))
    first = obj[network]["layers"][0]
    first["weights"] = with_value(first["weights"], 1, float(value))
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="non-finite parameter"):
        load_recovery_model(path)


def test_table_ref_dim_that_fits_no_network_is_rejected_before_the_table_is_built(
        monkeypatch):
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["table_ref"]["dim"] = 10**12
    monkeypatch.setattr(pipeline, "table_from_source",
                        lambda source: pytest.fail("the table was built"))
    with pytest.raises(ModelFormatError,
                       match="detection embed_dim 2 differs from table_ref dim 10+"):
        recovery_from_dict(obj)


def test_saving_a_model_whose_table_cannot_be_rebuilt_writes_nothing(tmp_path):
    table = EmbeddingTable.from_vectors(2, {"a": np.ones(2)})  # source kind "inline"
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="'inline' cannot be rebuilt"):
        save_recovery_model(stub_recovery_model(table), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("network, layer, part",
                         [("dpi", 0, "weights"), ("dpg", 1, "bias")])
def test_saving_a_non_finite_parameter_writes_nothing(tmp_path, network, layer, part, value):
    model = RecoveryModel(**fitting_parts())
    getattr(getattr(model, network).layers[layer], part).flat[-1] = value
    with pytest.raises(ValueError, match=f"{network} layer {layer} {part}: non-finite parameter"):
        save_recovery_model(model, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


# Values of a descriptor's int and list fields, of which only a `dim` other
# than the table's is refused, and JSON values of no field's type but those.
REVALUED = {"dim": st.integers(-1, 3), "seed": st.integers(),
            "vocab": st.lists(st.text(max_size=2))}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.integers(-1, 1), st.text(max_size=2), st.just("\ud800")), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def table_descriptors(draw, source: dict) -> dict:
    """`source` with one field given another value of its type, or removed,
    retyped, mis-patterned or added."""
    source = dict(source)
    edit = draw(st.sampled_from(["revalue", "remove", "retype", "mispattern", "add"]))
    if edit == "revalue":
        key = draw(st.sampled_from(sorted(REVALUED.keys() & source.keys())))
        source[key] = draw(REVALUED[key])
    elif edit == "remove":
        del source[draw(st.sampled_from(sorted(source)))]
    elif edit == "retype":
        source[draw(st.sampled_from(sorted(source)))] = draw(JSON_VALUES)
    elif edit == "mispattern":
        key = "sha256" if "sha256" in source else "kind"
        source[key] = draw(st.one_of(st.text(max_size=66), st.just(source[key].upper()),
                                     st.just(source[key][1:]), st.just(source[key] + "0"))
                           .filter(lambda s: not re.fullmatch("[0-9a-f]{64}", s)))
    elif edit == "add":
        source[draw(st.text(max_size=6).filter(lambda k: k not in source))] = draw(JSON_VALUES)
    return source


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["word2vec", "fallback", "inline"]), st.data())
def test_save_refuses_exactly_the_table_descriptors_that_load_refuses(kind, data):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "vec.txt").write_text("2 2\na 0.5 -1\nb 2 0.25\n", encoding="utf-8")
        table = {"word2vec": lambda: load_embeddings(d / "vec.txt"),
                 "fallback": lambda: deterministic_fallback_table(["a", "b"], 2, seed=0),
                 "inline": lambda: EmbeddingTable.from_vectors(2, {"a": np.ones(2)})}[kind]()
        table.source = source = data.draw(table_descriptors(table.source))
        model = stub_recovery_model(table)
        out = d / "out"
        out.mkdir()
        try:
            save_recovery_model(model, out / "model.json")
            saved = True
        except ValueError:
            saved = False
            assert list(out.iterdir()) == []
        try:
            recovery_from_dict(recovery_to_dict(model), d)
        except ModelFormatError:
            assert not saved
            try:  # a malformed descriptor is no KeyError or AttributeError
                table_from_source(source)
            except (ValueError, TypeError):
                pass
            return
        assert saved
        save_recovery_model(load_recovery_model(out / "model.json"), out / "again.json")
        assert (out / "again.json").read_bytes() == (out / "model.json").read_bytes()


def test_load_recovery_model_rejects_corrupt_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_recovery_model(path)


def test_recovery_load_rejects_class_count_mismatch():
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["label_set"] = "actual10"  # generator still has 14 outputs
    with pytest.raises(ModelFormatError, match=r"expected 8 per value of shape \(10, 4\)"):
        recovery_from_dict(obj)


def test_tune_threshold_prefers_half_on_ties():
    # a detector that scores every gap identically makes all thresholds tie
    table = deterministic_fallback_table(["a"], 2, seed=0)
    model = stub_recovery_model(table, dpi_bias=(50.0, -50.0))
    dev = Corpus(FULL14, (AnnotatedSentence(("a", "a")),))
    rows = context_rows(dev.sentences, 1, table)
    threshold, acc = tune_threshold(model, rows, gap_labels(dev) >= 0)
    assert threshold == 0.5
    assert acc == 1.0


@pytest.mark.parametrize(
    "content, load, error",
    [(b"2 2\na 1 2\n\xff 3 4\n", load_embeddings, EmbeddingError),
     (b"2 2\na 1 2\nb 3 \xff\n",
      lambda p: load_embeddings(p, sha256=hashlib.sha256(p.read_bytes()).hexdigest()).lookup("b"),
      EmbeddingError),
     (b'{"label_set": "full14"}\n{"tokens": ["\xff"]}\n', load_corpus, CorpusError),
     (b'{"kind": "recovery", "window": "\xff"}', load_recovery_model, ModelFormatError)],
    ids=["embeddings", "embeddings-hashed", "corpus", "model"],
)
def test_invalid_utf8_raises_the_loader_error_naming_the_file(tmp_path, content, load, error):
    p = tmp_path / "input.bin"
    p.write_bytes(content)
    with pytest.raises(error, match=re.escape(str(p))):
        load(p)


def test_dev_generation_accuracy_is_the_gold_position_evaluation():
    from droprec.evaluate import evaluate_dpg

    train, dev, _, table = small_separable_setup(n=60)
    assert dev.total_annotations()
    hp = Hyperparams(embed_dim=8, epochs=2, hidden_dim=6, seed=1)
    model = train_recovery(train, dev, table, hp, hp)
    assert model.metadata["dev_dpg_accuracy_gold"] == evaluate_dpg(model, dev, table).accuracy
    bare = Corpus(dev.label_set, tuple(AnnotatedSentence(s.tokens) for s in dev.sentences),
                  dict(dev.metadata))
    assert train_recovery(train, bare, table, hp, hp).metadata["dev_dpg_accuracy_gold"] is None


def test_training_loads_no_evaluation_module():
    # A fresh interpreter with a bare droprec package (its __init__
    # re-exports the evaluation API) loads only pipeline and its imports.
    code = textwrap.dedent("""
        import importlib.util, sys, types
        package = types.ModuleType("droprec")
        package.__path__ = importlib.util.find_spec("droprec").submodule_search_locations
        sys.modules["droprec"] = package
        from droprec import pipeline
        from droprec.embeddings import deterministic_fallback_table
        from droprec.mlp import Hyperparams
        from droprec.synth import builtin_grammar, generate_corpus
        assert "droprec.evaluate" not in sys.modules, "import"
        corpus = generate_corpus(builtin_grammar("separable"), 20, seed=1)
        table = deterministic_fallback_table(sorted({t for s in corpus.sentences
                                                     for t in s.tokens}), 2, seed=0)
        hp = Hyperparams(embed_dim=2, epochs=1, hidden_dim=2)
        model = pipeline.train_recovery(corpus, corpus, table, hp, hp)
        assert model.metadata["dev_dpg_accuracy_gold"] is not None
        assert "droprec.evaluate" not in sys.modules, "train_recovery"
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
