import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _gradcheck import finite_difference_grads, max_relative_error
from droprec import mlp
from droprec.mlp import (
    DenseLayer,
    Hyperparams,
    LayerGrads,
    MlpModel,
    ModelFormatError,
    NumericError,
    backward,
    build_model,
    cross_entropy,
    dropout_mask,
    forward,
    one_hot,
    sgd_step,
    softmax,
    train,
)
from droprec.rng import SplitMix64


def tiny_hp(**kw):
    defaults = dict(embed_dim=2, window=1, layer_count=2, hidden_dim=5, seed=1)
    defaults.update(kw)
    return Hyperparams(**defaults)


# --- softmax / cross entropy -------------------------------------------------


def test_zero_weights_give_uniform_probs():
    hp = tiny_hp(layer_count=1)
    model = build_model(4, 3, hp)
    model.layers[0].weights[:] = 0.0
    model.layers[0].bias[:] = 0.0
    probs, _ = forward(model, np.ones(4))
    assert np.allclose(probs, 1 / 3, atol=1e-15)


def test_huge_logits_do_not_overflow():
    # softmax(1000, 1000) must come out (0.5, 0.5) via max subtraction
    probs = softmax(np.array([1000.0, 1000.0]))
    assert np.array_equal(probs, [0.5, 0.5])
    assert np.isfinite(softmax(np.array([1000.0, 0.0]))).all()


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        probs = softmax(rng.normal(size=rng.integers(2, 15)) * 100)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=10),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_translation_invariant(logits, shift):
    z = np.array(logits)
    assert np.allclose(softmax(z), softmax(z + shift), atol=1e-9)


def test_eval_forward_is_deterministic():
    model = build_model(4, 2, tiny_hp(dropout_rate=0.5))
    x = np.array([0.1, -0.2, 0.3, 0.4])
    p1, _ = forward(model, x, mode="eval")
    p2, _ = forward(model, x, mode="eval")
    assert np.array_equal(p1, p2)


def test_forward_rejects_wrong_dim():
    model = build_model(4, 2, tiny_hp())
    with pytest.raises(ValueError, match="model expects"):
        forward(model, np.zeros(5))


@pytest.mark.parametrize("layer_count", [1, 2, 3])
def test_predict_matches_per_row_eval_forward(layer_count):
    # one matrix product per layer reorders sums against the per-row
    # reference, so probabilities agree to float64 rounding, not bitwise
    hp = tiny_hp(embed_dim=8, layer_count=layer_count, hidden_dim=16, dropout_rate=0.5)
    model = build_model(16, 5, hp)
    features = np.random.default_rng(layer_count).normal(size=(37, 16))
    classes, probs = mlp.predict(model, features)
    reference = np.array([forward(model, x, mode="eval")[0] for x in features])
    assert probs.shape == (37, 5)
    np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-14)
    assert classes.tolist() == np.argmax(reference, axis=1).tolist()


def test_predict_rejects_wrong_shape():
    model = build_model(4, 2, tiny_hp())
    for bad in (np.zeros(4), np.zeros((3, 5))):
        with pytest.raises(ValueError, match="model expects"):
            mlp.predict(model, bad)


def test_cross_entropy_perfect_prediction_near_zero():
    loss = cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert 0.0 <= loss <= 1e-11


@pytest.mark.parametrize("k", [2, 10, 14])
def test_cross_entropy_uniform_is_log_k(k):
    loss = cross_entropy(one_hot(k, 0), np.full(k, 1.0 / k))
    assert abs(loss - math.log(k)) <= 1e-9


def test_cross_entropy_hand_value():
    loss = cross_entropy(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    assert abs(loss - (-math.log(0.75))) <= 1e-12  # 0.2876820724...


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        cross_entropy(np.zeros(3), np.zeros(4))


# --- backward ----------------------------------------------------------------


def test_single_layer_closed_form_gradient():
    hp = tiny_hp(layer_count=1)
    model = build_model(3, 2, hp)
    x = np.array([0.5, -1.0, 2.0])
    probs, cache = forward(model, x, mode="train")
    grads = backward(model, cache, one_hot(2, 1))
    expected_dW = np.outer(probs - one_hot(2, 1), x)
    assert np.allclose(grads[0].dW, expected_dW, atol=1e-15)
    assert np.allclose(grads[0].db, probs - one_hot(2, 1), atol=1e-15)


def test_zero_input_zeroes_weight_gradient():
    model = build_model(3, 2, tiny_hp(layer_count=1))
    probs, cache = forward(model, np.zeros(3), mode="train")
    grads = backward(model, cache, one_hot(2, 0))
    assert not grads[0].dW.any()
    assert np.allclose(grads[0].db, probs - one_hot(2, 0), atol=1e-15)


def test_three_layer_gradients_match_finite_differences():
    hp = Hyperparams(embed_dim=3, window=1, layer_count=3, hidden_dim=4, seed=7)
    model = build_model(6, 3, hp)
    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    probs, cache = forward(model, x, mode="train")
    analytic = [(g.dW, g.db) for g in backward(model, cache, one_hot(3, 2))]
    numeric = finite_difference_grads(model, x, 2)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_backward_requires_train_cache():
    model = build_model(2, 2, tiny_hp())
    _, cache = forward(model, np.zeros(2), mode="eval")
    with pytest.raises(ValueError, match="train-mode"):
        backward(model, cache, one_hot(2, 0))


# --- sgd ----------------------------------------------------------------------


def test_sgd_zero_learning_rate_is_noop():
    model = build_model(3, 2, tiny_hp())
    before = copy.deepcopy(model.layers)
    _, cache = forward(model, np.ones(3), mode="train")
    grads = backward(model, cache, one_hot(2, 0))
    sgd_step(model, grads, 0.0)
    for a, b in zip(before, model.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_sgd_scalar_arithmetic():
    layer = DenseLayer(np.array([[1.0]]), np.array([0.0]))
    model = MlpModel([layer], 1, 1, tiny_hp())
    sgd_step(model, [LayerGrads(np.array([[0.5]]), np.array([0.0]))], 0.1)
    assert layer.weights[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_deterministic_across_identical_models():
    m1 = build_model(3, 2, tiny_hp(seed=3))
    m2 = build_model(3, 2, tiny_hp(seed=3))
    x = np.array([1.0, 2.0, 3.0])
    for model in (m1, m2):
        _, cache = forward(model, x, mode="train")
        sgd_step(model, backward(model, cache, one_hot(2, 1)), 0.05)
    for a, b in zip(m1.layers, m2.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_sgd_rejects_non_finite_gradient():
    model = build_model(2, 2, tiny_hp(layer_count=1))
    bad = [LayerGrads(np.full((2, 2), np.nan), np.zeros(2))]
    with pytest.raises(NumericError, match="non-finite gradient in layer 0"):
        sgd_step(model, bad, 0.1)


def test_sgd_rejects_infinite_gradient_naming_its_layer():
    model = build_model(3, 2, tiny_hp())
    _, cache = forward(model, np.ones(3), mode="train")
    grads = backward(model, cache, one_hot(2, 0))
    grads[1].dW[0, 2] = np.inf
    with pytest.raises(NumericError, match="non-finite gradient in layer 1"):
        sgd_step(model, grads, 0.1)


def test_sgd_accepts_finite_gradient_whose_sum_overflows():
    layer = DenseLayer(np.zeros((1, 2)), np.zeros(1))
    model = MlpModel([layer], 2, 1, tiny_hp())
    grads = [LayerGrads(np.array([[1e308, 1e308]]), np.array([0.0]))]
    with np.errstate(over="ignore"):
        sgd_step(model, grads, 0.5)
    assert np.array_equal(layer.weights, [[-5e307, -5e307]])


# --- dropout --------------------------------------------------------------------


def test_dropout_rate_zero_is_all_ones():
    mask = dropout_mask(64, 0.0, SplitMix64(0))
    assert np.array_equal(mask, np.ones(64))


def test_dropout_mask_deterministic_given_state():
    assert np.array_equal(dropout_mask(100, 0.5, SplitMix64(4)), dropout_mask(100, 0.5, SplitMix64(4)))


@pytest.mark.parametrize("rate", [0.3, 0.5, 0.8])
def test_dropout_preserves_expectation(rate):
    mask = dropout_mask(100_000, rate, SplitMix64(11))
    assert abs(float(mask.mean()) - 1.0) <= 0.01


def test_dropout_values_are_zero_or_scaled():
    rate = 0.4
    mask = dropout_mask(1000, rate, SplitMix64(2))
    assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - rate)}


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        dropout_mask(8, 1.0, SplitMix64(0))


# --- training ---------------------------------------------------------------------


def separable_instances(n=50, dim=4, seed=0):
    # two gaussian blobs far apart: trivially linearly separable
    rng = np.random.default_rng(seed)
    feats = np.concatenate(
        [rng.normal(-2.0, 0.3, size=(n // 2, dim)), rng.normal(2.0, 0.3, size=(n - n // 2, dim))]
    )
    labels = [0] * (n // 2) + [1] * (n - n // 2)
    return [(feats[i], labels[i]) for i in range(n)]


def test_train_log_has_one_entry_per_epoch():
    hp = tiny_hp(embed_dim=2, epochs=7)
    model = build_model(hp.input_dim, 2, hp)
    log = train(model, separable_instances(dim=hp.input_dim), hp)
    assert [s.epoch for s in log] == list(range(7))


def test_train_overfits_separable_data():
    hp = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=8,
                     epochs=40, learning_rate=0.05, seed=2)
    model = build_model(hp.input_dim, 2, hp)
    log = train(model, separable_instances(dim=hp.input_dim), hp)
    assert log[-1].accuracy == 1.0
    assert log[-1].mean_loss < 0.1


def test_train_bitwise_deterministic():
    insts = separable_instances(dim=4)
    params = []
    for _ in range(2):
        hp = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=6,
                         dropout_rate=0.3, epochs=5, seed=9)
        model = build_model(4, 2, hp)
        train(model, insts, hp)
        params.append([(l.weights.copy(), l.bias.copy()) for l in model.layers])
    for (w1, b1), (w2, b2) in zip(*params):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def test_train_rejects_empty_and_bad_dims():
    hp = tiny_hp()
    model = build_model(4, 2, hp)
    with pytest.raises(ValueError, match="empty"):
        train(model, [], hp)
    with pytest.raises(ValueError, match="dim"):
        train(model, [(np.zeros(3), 0)], hp)
    with pytest.raises(ValueError, match="label"):
        train(model, [(np.zeros(4), 5)], hp)


def test_train_aborts_on_non_finite_loss():
    hp = tiny_hp(embed_dim=2, epochs=1)
    model = build_model(4, 2, hp)
    bad = [(np.array([np.inf, 0.0, 0.0, 0.0]), 0)]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
        train(model, bad, hp)


def hand_written_sgd(hp, data, num_classes):
    """train(), spelled out with forward and backward."""
    model = build_model(hp.input_dim, num_classes, hp)
    drop_rng = SplitMix64.for_stream(hp.seed, 1)
    for epoch in range(hp.epochs):
        order = list(range(len(data)))
        SplitMix64(hp.seed + epoch).shuffle(order)
        for idx in order:
            x, label = data[idx]
            _, cache = forward(model, x, mode="train", rng=drop_rng)
            grads = backward(model, cache, one_hot(num_classes, label))
            for layer, g in zip(model.layers, grads):
                layer.weights -= hp.learning_rate * g.dW
                layer.bias -= hp.learning_rate * g.db
    return model


def assert_trains_like_the_hand_written_loop(hp, n, num_classes):
    rng = SplitMix64(2024)
    feats = rng.uniform_array(n * hp.input_dim, -1.0, 1.0).reshape(n, hp.input_dim)
    data = [(feats[i], int(rng.randbelow(num_classes))) for i in range(n)]
    got = build_model(hp.input_dim, num_classes, hp)
    train(got, data, hp)
    want = hand_written_sgd(hp, data, num_classes)
    for a, b in zip(got.layers, want.layers, strict=True):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3], ids=lambda r: f"dropout{r}")
@pytest.mark.parametrize("layer_count", [1, 2, 3], ids=lambda n: f"layers{n}")
def test_fused_training_matches_a_hand_written_sgd_loop(layer_count, dropout_rate):
    # 3 epochs of 23 instances: 69 steps, across the 64-step dropout block
    hp = Hyperparams(embed_dim=3, window=1, layer_count=layer_count, hidden_dim=7,
                     dropout_rate=dropout_rate, epochs=3, learning_rate=0.05, seed=17)
    assert_trains_like_the_hand_written_loop(hp, 23, 3)


@pytest.mark.parametrize("num_classes", [2, 14])
def test_fused_training_matches_a_hand_written_sgd_loop_at_the_benchmark_shape(num_classes):
    # perfbench's train workload: 32 inputs, 200 hidden units, dropout 0.2;
    # 150 steps cross two dropout blocks
    hp = Hyperparams(embed_dim=16, window=1, layer_count=2, hidden_dim=200, dropout_rate=0.2,
                     epochs=1, learning_rate=0.1, seed=5)
    assert_trains_like_the_hand_written_loop(hp, 150, num_classes)


def test_train_rejects_an_overflowing_first_layer_gradient_under_a_finite_loss():
    # logits +-6e290 give p = [1, 0]; label 1 clamps the loss at -log(1e-12),
    # and the first layer's delta 2e290 times x = 1e20 overflows
    hp = tiny_hp(embed_dim=1, hidden_dim=3, epochs=1)
    model = build_model(2, 2, hp)
    model.layers[0].weights[:] = 1e-20
    model.layers[1].weights[:] = [[1e290] * 3, [-1e290] * 3]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match=r"non-finite gradient in layer 0 \(\|dW\|_max=inf, \|db\|_max=2e\+290\)"
    ):
        train(model, [(np.full(2, 1e20), 1)], hp)


def test_train_takes_a_finite_gradient_whose_sum_overflows():
    # dW = +-5e307 in each of 8 elements: finite, but their sum and x @ x overflow
    hp = tiny_hp(embed_dim=2, layer_count=1, epochs=1, learning_rate=0.5)
    model = build_model(4, 2, hp)
    model.layers[0].weights[:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        train(model, [(np.full(4, 1e308), 0)], hp)
    assert np.array_equal(model.layers[0].weights, [[2.5e307] * 4, [-2.5e307] * 4])
    assert np.array_equal(model.layers[0].bias, [0.25, -0.25])


def test_single_layer_model_is_multinomial_logistic_regression():
    hp = tiny_hp(embed_dim=3, layer_count=1)
    model = build_model(6, 4, hp)
    x = np.linspace(-1, 1, 6)
    probs, _ = forward(model, x)
    direct = softmax(model.layers[0].weights @ x + model.layers[0].bias)
    assert np.array_equal(probs, direct)


# --- serialization -----------------------------------------------------------------


def test_save_load_round_trip_bit_exact():
    hp = Hyperparams(embed_dim=3, window=2, layer_count=3, hidden_dim=7,
                     dropout_rate=0.25, epochs=2, learning_rate=0.015, seed=13)
    model = build_model(hp.input_dim, 5, hp)
    model.label_set_name = "full14"
    train(model, [(np.random.default_rng(1).normal(size=hp.input_dim), i % 5) for i in range(20)], hp)
    # the trip through JSON text that each network makes inside a recovery model file
    again = mlp.model_from_dict(json.loads(json.dumps(mlp.model_to_dict(model))))
    assert again.label_set_name == "full14"
    assert again.hyperparams == hp
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=hp.input_dim)
        assert np.array_equal(forward(model, x)[0], forward(again, x)[0])


def test_load_rejects_wrong_version():
    model = build_model(2, 2, tiny_hp(embed_dim=1))
    obj = json.loads(json.dumps(mlp.model_to_dict(model)))
    obj["format_version"] = 99
    with pytest.raises(ModelFormatError, match="version"):
        mlp.model_from_dict(obj)


@pytest.mark.parametrize(
    "hyperparams",
    [{"momentum": 0.9}, [["embed_dim", 1]], {"hidden_dim": 2.5}, {"epochs": True},
     {"seed": 1.5}, {"layer_count": 2.0}, {"embed_dim": True}, {"window": 1.0},
     {"learning_rate": True}, {"dropout_rate": False}, {"learning_rate": "0.1"}],
    ids=["unknown-key", "not-an-object", "float-hidden-dim", "bool-epochs", "float-seed",
         "integral-float-layer-count", "bool-embed-dim", "integral-float-window",
         "bool-learning-rate", "bool-dropout-rate", "string-learning-rate"],
)
def test_load_rejects_malformed_hyperparams(hyperparams):
    obj = json.loads(json.dumps(mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1)))))
    if isinstance(hyperparams, dict):
        obj["hyperparams"].update(hyperparams)
    else:
        obj["hyperparams"] = hyperparams
    with pytest.raises(ModelFormatError, match="corrupt model file"):
        mlp.model_from_dict(obj)


def test_load_rejects_broken_shape_chain():
    model = build_model(4, 2, tiny_hp())
    obj = json.loads(json.dumps(mlp.model_to_dict(model)))
    obj["layers"][0]["out_dim"] = 3  # no longer chains into layer 1
    with pytest.raises(ModelFormatError):
        mlp.model_from_dict(obj)


@pytest.mark.parametrize(
    "value, match",
    [("0x1p+2000", "unparseable hex float"), ("nan", "non-finite parameter"),
     ("inf", "non-finite parameter"), ("-inf", "non-finite parameter")],
    ids=["beyond-a-double", "nan", "inf", "minus-inf"],
)
@pytest.mark.parametrize("block", ["weights", "bias"])
def test_load_rejects_a_parameter_that_is_no_finite_double(block, value, match):
    obj = json.loads(json.dumps(mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1)))))
    obj["layers"][1][block][-1] = value
    with pytest.raises(ModelFormatError, match=match):
        mlp.model_from_dict(obj)


def test_load_rejects_a_parameter_block_that_is_not_a_list():
    obj = json.loads(json.dumps(mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1)))))
    obj["layers"][1]["bias"] = "00"  # as many characters as the block has values
    with pytest.raises(ModelFormatError, match="must be a list, got str"):
        mlp.model_from_dict(obj)


def test_load_accepts_finite_parameters_whose_sum_overflows():
    model = build_model(2, 2, tiny_hp(embed_dim=1))
    model.layers[0].weights[:] = 1.5e308
    again = mlp.model_from_dict(json.loads(json.dumps(mlp.model_to_dict(model))))
    assert np.array_equal(again.layers[0].weights, model.layers[0].weights)


# --- hyperparams ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [dict(embed_dim=0), dict(window=0), dict(layer_count=0), dict(dropout_rate=1.0),
     dict(dropout_rate=-0.1), dict(epochs=0), dict(learning_rate=0.0),
     dict(learning_rate=-0.01), dict(hidden_dim=0), dict(learning_rate=float("nan")),
     dict(learning_rate=float("inf"))],
)
def test_hyperparams_validation(kw):
    base = dict(embed_dim=2)
    base.update(kw)
    with pytest.raises(ValueError):
        Hyperparams(**base)


def test_input_dim_is_2wd():
    assert Hyperparams(embed_dim=300, window=2).input_dim == 1200
