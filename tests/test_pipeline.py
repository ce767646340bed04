import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droprec import mlp
from droprec.corpus import (ACTUAL10, FULL14, AnnotatedSentence, Corpus, CorpusError,
                            load_corpus, split_corpus)
from droprec.embeddings import (EmbeddingError, EmbeddingTable, context_embedding,
                                deterministic_fallback_table, load_embeddings)
from droprec.mlp import Hyperparams, ModelFormatError
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
    return RecoveryModel(dpi, dpg, label_set, window, threshold, table, {})


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
    features = context_embedding((sent,), 1, table)
    expected = {
        0: sigmoid(0 * 10 + 1 * 10 - 15),   # pad, P
        1: sigmoid(1 * 10 + 1 * 10 - 15),   # P, P  -> 0.9933...
        2: sigmoid(1 * 10 - 1 * 10 - 15),   # P, N
        3: sigmoid(-1 * 10 + 0 * 10 - 15),  # N, pad
    }
    probs = dpi_gap_probability(model.dpi, features)
    for gap, want in expected.items():
        assert probs[gap] == pytest.approx(want, abs=1e-12)
    assert predict_dpi(model, features).tolist() == [False, True, False, False]
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
    features = context_embedding((sent,), 1, table)
    p1 = dpi_gap_probability(model.dpi, features)[1]
    _, probs = mlp.predict(model.dpi, features)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    assert 0.0 <= p1 <= 1.0


def test_predict_dpg_confidence_is_max_probability():
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    bias = np.linspace(0.0, 1.3, 14)
    model = stub_recovery_model(table, dpg_bias=bias)
    sent = AnnotatedSentence(("a", "b"))
    (cls,), (confidence,) = predict_dpg(model, context_embedding((sent,), 1, table)[[1]])
    assert FULL14.labels[cls] == FULL14.labels[13]  # largest bias wins
    assert confidence == pytest.approx(float(np.max(mlp.softmax(bias))), abs=1e-12)


def test_predictions_stable_across_calls():
    table = deterministic_fallback_table(["a", "b"], 4, seed=2)
    model = stub_recovery_model(table, dpg_bias=np.arange(14.0) / 10)
    features = context_embedding((AnnotatedSentence(("a", "b")),), 1, table)
    assert np.array_equal(predict_dpi(model, features), predict_dpi(model, features))
    for a, b in zip(predict_dpg(model, features), predict_dpg(model, features)):
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
    features = context_embedding((sent,), model.window, model.table)
    again_features = context_embedding((sent,), again.window, again.table)
    assert np.array_equal(dpi_gap_probability(again.dpi, again_features),
                          dpi_gap_probability(model.dpi, features))
    for a, b in zip(predict_dpg(again, again_features), predict_dpg(model, features)):
        assert np.array_equal(a, b)


def test_model_file_with_batch_size_and_negative_rate_keys_loads(tmp_path):
    # Model files written while training had batch and negative-sampling
    # options carry "batch_size": 1 in both hyperparams blocks and
    # "negative_rate": 1.0 in the metadata.
    train, dev, test, table = small_separable_setup(n=60)
    hp = Hyperparams(embed_dim=8, window=1, layer_count=2, epochs=10, learning_rate=0.05,
                     seed=6)
    model = train_recovery(train, dev, table, hp, hp)
    save_recovery_model(model, tmp_path / "model.json")
    obj = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    for stage in ("dpi", "dpg"):
        obj[stage]["hyperparams"]["batch_size"] = 1
    obj["metadata"]["negative_rate"] = 1.0
    (tmp_path / "old.json").write_text(json.dumps(obj), encoding="utf-8")

    old = load_recovery_model(tmp_path / "old.json")
    for got, want in ((old.dpi, model.dpi), (old.dpg, model.dpg)):
        assert got.hyperparams == want.hyperparams
        for a, b in zip(got.layers, want.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
    assert old.threshold == model.threshold
    recovered = [recover(model, s) for s in test.sentences]
    assert any(r.recovered for r in recovered)
    assert [recover(old, s) for s in test.sentences] == recovered


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


@pytest.mark.parametrize(
    "field, value, match",
    [("threshold", "abc", "could not convert"), ("window", 0, "input dim"),
     ("label_set", "nope", "unknown label set"), ("window", 1.7, "window must be an integer"),
     ("window", True, "window must be an integer"),
     ("threshold", True, "could not convert"), ("threshold", "0.5", "could not convert"),
     (("dpi", "input_dim"), 8.7, "input_dim must be an integer"),
     (("dpg", "num_classes"), 14.0, "num_classes must be an integer"),
     (("dpi", "layers", 0, "out_dim"), 2.0, "layer size must be an integer"),
     (("dpg", "layers", 0, "in_dim"), True, "layer size must be an integer")],
    ids=["non-numeric-threshold", "window-zero", "unknown-label-set", "window-float",
         "window-bool", "threshold-bool", "threshold-string", "input-dim-float",
         "num-classes-float", "out-dim-float", "in-dim-bool"],
)
def test_load_recovery_model_raises_model_format_error(tmp_path, field, value, match):
    table = deterministic_fallback_table(["a"], 2, seed=0)
    path = tmp_path / "model.json"
    obj = recovery_to_dict(stub_recovery_model(table))
    *parents, key = (field,) if isinstance(field, str) else field
    target = obj
    for parent in parents:
        target = target[parent]
    target[key] = value
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=match):
        load_recovery_model(path)


def test_load_recovery_model_rejects_corrupt_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_recovery_model(path)


def test_recovery_load_rejects_class_count_mismatch():
    table = deterministic_fallback_table(["a"], 2, seed=0)
    obj = recovery_to_dict(stub_recovery_model(table))
    obj["label_set"] = "actual10"  # generator still has 14 outputs
    with pytest.raises(ModelFormatError, match="classes"):
        recovery_from_dict(obj)


def test_tune_threshold_prefers_half_on_ties():
    # a detector that scores every gap identically makes all thresholds tie
    table = deterministic_fallback_table(["a"], 2, seed=0)
    model = stub_recovery_model(table, dpi_bias=(50.0, -50.0))
    dev = Corpus(FULL14, (AnnotatedSentence(("a", "a")),))
    threshold, acc = tune_threshold(model.dpi, dev, table, window=1)
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
