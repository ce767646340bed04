import base64
import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _blocks import decode_block, encode_block
from _gradcheck import finite_difference_grads, max_relative_error
from droprec import mlp
from droprec.corpus import FULL14
from droprec.embeddings import deterministic_fallback_table
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
from droprec.pipeline import RecoveryModel, recovery_from_dict, recovery_to_dict
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


@pytest.mark.parametrize("layer_count", [1, 2, 3])
def test_a_training_step_moves_the_weights_by_the_finite_difference_gradient(layer_count):
    hp = Hyperparams(embed_dim=3, window=1, layer_count=layer_count, hidden_dim=6, epochs=1,
                     learning_rate=0.5, seed=11)
    model = build_model(6, 3, hp)
    x = np.random.default_rng(layer_count).normal(size=6)
    numeric = finite_difference_grads(model, x, 1)
    before = copy.deepcopy(model.layers)
    train(model, [(x, 1)])
    stepped = [((b.weights - a.weights) / hp.learning_rate, (b.bias - a.bias) / hp.learning_rate)
               for b, a in zip(before, model.layers)]
    assert max_relative_error(stepped, numeric) < 1e-4


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
    model = MlpModel([layer], tiny_hp())
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
    before = copy.deepcopy(model)
    with pytest.raises(NumericError, match="non-finite gradient in layer 1"):
        sgd_step(model, grads, 0.1)
    assert_same_parameters(model, before)  # layer 0 waits for every layer's check


def test_sgd_accepts_finite_gradient_whose_sum_overflows():
    layer = DenseLayer(np.zeros((1, 2)), np.zeros(1))
    model = MlpModel([layer], tiny_hp())
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


@settings(max_examples=60)
@given(st.sampled_from([0.5, 1 - 2**-53, 5e-324, 2**-53, 0.2])
       | st.floats(0, 1, exclude_min=True, exclude_max=True),
       st.integers(0, 2**64 - 1), st.integers(0, 200))
def test_dropout_mask_drops_where_the_streams_float_is_below_the_rate(rate, seed, n):
    got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
    got = dropout_mask(n, rate, got_rng)
    want = (want_rng.floats(n) >= rate) / (1.0 - rate)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_rng.next_u64() == want_rng.next_u64()


@pytest.mark.parametrize("widths", [[5], [3, 4], [2, 2, 2]])
def test_train_hands_each_step_the_masks_forward_would_draw(widths):
    # Over three blocks of steps, each step's masks are the next floats of
    # the stream, hidden layer after hidden layer.
    steps = mlp._dropout_steps(widths, 0.3, SplitMix64(9))
    ref = SplitMix64(9)
    for step in range(3 * mlp._DROPOUT_BLOCK_STEPS):
        got = next(steps)
        assert [len(m) for m in got] == widths
        assert np.array_equal(np.concatenate(got), dropout_mask(sum(widths), 0.3, ref)), step


def test_eval_mode_raises_exactly_for_a_row_with_a_nan_probability():
    model = build_model(2, 3, tiny_hp(layer_count=1))
    inf, nan = math.inf, math.nan
    finite = [[1.0, -inf, 0.0], [-inf, -inf, 5.0], [700.0, 800.0, -900.0]]
    probs = mlp.predict_from_first_layer(model, np.array(finite))
    assert np.isfinite(probs).all() and np.allclose(probs.sum(axis=1), 1.0)
    for bad in ([inf, 0.0, 0.0], [-inf, -inf, -inf], [0.0, nan, 0.0]):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="eval mode"):
            mlp.predict_from_first_layer(model, np.array(finite + [bad]))


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
    log = train(model, separable_instances(dim=hp.input_dim))
    assert [s.epoch for s in log] == list(range(7))


def test_train_overfits_separable_data():
    hp = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=8,
                     epochs=40, learning_rate=0.05, seed=2)
    model = build_model(hp.input_dim, 2, hp)
    log = train(model, separable_instances(dim=hp.input_dim))
    assert log[-1].accuracy == 1.0
    assert log[-1].mean_loss < 0.1


def test_train_bitwise_deterministic():
    insts = separable_instances(dim=4)
    params = []
    for _ in range(2):
        hp = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=6,
                         dropout_rate=0.3, epochs=5, seed=9)
        model = build_model(4, 2, hp)
        train(model, insts)
        params.append([(l.weights.copy(), l.bias.copy()) for l in model.layers])
    for (w1, b1), (w2, b2) in zip(*params):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def test_train_rejects_empty_and_bad_dims():
    hp = tiny_hp()
    model = build_model(4, 2, hp)
    with pytest.raises(ValueError, match="empty"):
        train(model, [])
    with pytest.raises(ValueError, match="dim"):
        train(model, [(np.zeros(3), 0)])
    with pytest.raises(ValueError, match="label"):
        train(model, [(np.zeros(4), 5)])


@pytest.mark.parametrize("instances, message", [
    ([(np.zeros(4), 0), (np.zeros(3), 0), (np.zeros(5), 0)],
     r"instance features must be 3 rows of the model's input dim 4$"),
    ([(np.zeros(3), 0), (np.zeros(3), 1)], r"must be 2 rows of the model's input dim 4$"),
    ([(np.zeros(4), 0), ([0.0] * 4, 1), (np.zeros((1, 4)), 0)],
     r"must be 3 rows of the model's input dim 4$"),
    ([(np.zeros(4), 1), (np.zeros(4), -1), (np.zeros(4), 2)], r"instance 1 label -1 outside \[0, 2\)"),
    ([(np.zeros(4), 1.0), (np.zeros(4), 0), (np.zeros(4), 2)], r"instance 2 label 2 outside \[0, 2\)"),
], ids=["ragged", "all-one-wrong-dim", "2d-row", "negative-label", "label-past-the-classes"])
def test_train_names_the_first_bad_instance(instances, message):
    with pytest.raises(ValueError, match=message):
        train(build_model(4, 2, tiny_hp()), instances)


def test_train_aborts_on_non_finite_loss():
    hp = tiny_hp(embed_dim=2, epochs=1)
    model = build_model(4, 2, hp)
    bad = [(np.array([np.inf, 0.0, 0.0, 0.0]), 0)]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
        train(model, bad)


def reference_train(model, data):
    """train(), one step at a time through forward, backward and sgd_step;
    a NumericError puts every parameter back as it was at the call."""
    hp = model.hyperparams
    drop_rng = SplitMix64.for_stream(hp.seed, 1)
    before = copy.deepcopy(model.layers)
    try:
        for epoch in range(hp.epochs):
            order = list(range(len(data)))
            SplitMix64(hp.seed + epoch).shuffle(order)
            for step, idx in enumerate(order):
                x, label = data[idx]
                probs, cache = forward(model, x, mode="train", rng=drop_rng)
                y = one_hot(model.num_classes, label)
                if not math.isfinite(cross_entropy(y, probs)):
                    raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
                sgd_step(model, backward(model, cache, y), hp.learning_rate)
    except NumericError:
        for layer, old in zip(model.layers, before):
            layer.weights[...] = old.weights
            layer.bias[...] = old.bias
        raise


def layer_arrays(model):
    return [(layer.weights, layer.bias) for layer in model.layers]


def assert_updated_in_place(model, arrays):
    # context_projection keys its cache by id(weights), so train must write
    # into each layer's own arrays, not swap in new ones
    for layer, (weights, bias) in zip(model.layers, arrays, strict=True):
        assert layer.weights is weights and layer.bias is bias
        for a in (weights, bias):
            assert a.flags.c_contiguous and a.flags.writeable


def assert_same_parameters(a, b):
    for x, y in zip(a.layers, b.layers, strict=True):
        assert np.array_equal(x.weights, y.weights)
        assert np.array_equal(x.bias, y.bias)


def assert_trains_like_the_hand_written_loop(hp, n, num_classes):
    rng = SplitMix64(2024)
    feats = rng.uniform_array(n * hp.input_dim, -1.0, 1.0).reshape(n, hp.input_dim)
    data = [(feats[i], int(rng.randbelow(num_classes))) for i in range(n)]
    got = build_model(hp.input_dim, num_classes, hp)
    arrays = layer_arrays(got)
    train(got, data)
    assert_updated_in_place(got, arrays)
    want = build_model(hp.input_dim, num_classes, hp)
    reference_train(want, data)
    assert_same_parameters(got, want)


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
        train(model, [(np.full(2, 1e20), 1)])


def test_reference_step_rejects_the_overflowing_first_layer_gradient_as_train_does():
    # the model and instance of the test above, through forward, backward and sgd_step
    hp = tiny_hp(embed_dim=1, hidden_dim=3, epochs=1)
    model = build_model(2, 2, hp)
    model.layers[0].weights[:] = 1e-20
    model.layers[1].weights[:] = [[1e290] * 3, [-1e290] * 3]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match=r"non-finite gradient in layer 0 \(\|dW\|_max=inf, \|db\|_max=2e\+290\)"
    ):
        _, cache = forward(model, np.full(2, 1e20), mode="train")
        sgd_step(model, backward(model, cache, one_hot(2, 1)), hp.learning_rate)


def overflowing_second_layer_model():
    # layer 0 puts out 1e200 per unit and W1 = 1e-200 maps that to ~3; the
    # logits +-9e200 give p = [1, 0].  With label 1, layer 1's delta is 2e200,
    # so its dW = 2e200 * 1e200 overflows while layer 0's delta W1.T @ d is ~6.
    hp = tiny_hp(embed_dim=1, layer_count=3, hidden_dim=3, epochs=1)
    model = build_model(2, 2, hp)
    model.layers[0].bias[:] = 1e200
    model.layers[1].weights[:] = 1e-200
    model.layers[2].weights[:] = [[1e200] * 3, [-1e200] * 3]
    return hp, model


def test_train_rejects_a_second_layer_gradient_as_sgd_step_does():
    hp, got = overflowing_second_layer_model()
    _, want = overflowing_second_layer_model()
    before = copy.deepcopy(got)
    arrays = layer_arrays(got)
    x = np.ones(2)
    message = r"non-finite gradient in layer 1 \(\|dW\|_max=inf, \|db\|_max=2e\+200\)"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=message):
            train(got, [(x, 1)])
        with pytest.raises(NumericError, match=message):
            _, cache = forward(want, x, mode="train")
            sgd_step(want, backward(want, cache, one_hot(2, 1)), hp.learning_rate)
    assert_updated_in_place(got, arrays)
    # no layer moved: layer 0's update waits for layer 1's check
    assert_same_parameters(got, before)
    assert_same_parameters(want, before)


def test_train_takes_a_finite_gradient_whose_sum_overflows():
    # dW = +-5e307 in each of 8 elements: finite, but their sum and x @ x overflow
    hp = tiny_hp(embed_dim=2, layer_count=1, epochs=1, learning_rate=0.5)
    model = build_model(4, 2, hp)
    model.layers[0].weights[:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        train(model, [(np.full(4, 1e308), 0)])
    assert np.array_equal(model.layers[0].weights, [[2.5e307] * 4, [-2.5e307] * 4])
    assert np.array_equal(model.layers[0].bias, [0.25, -0.25])


def layer_bytes(model):
    return [(layer.weights.tobytes(), layer.bias.tobytes()) for layer in model.layers]


def assert_trains_like_the_reference(model, data):
    """train() and reference_train() on copies of `model`: the same error,
    if any, and the same parameter bytes, which after an error are those
    of `model` at the call, in its own arrays."""
    want, before, arrays = copy.deepcopy(model), copy.deepcopy(model), layer_arrays(model)
    outcomes = []
    with np.errstate(all="ignore"):
        for run, net in ((train, model), (reference_train, want)):
            try:
                run(net, data)
                outcomes.append(None)
            except NumericError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert_updated_in_place(model, arrays)
    assert layer_bytes(model) == layer_bytes(want)
    if outcomes[0] is not None:
        assert layer_bytes(model) == layer_bytes(before)
    return outcomes[0]


# Finite values from 0 up to the float64 maximum, both signs.
EXTREME = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e100, 1e200, 1e300, 1e308]).flatmap(
        lambda v: st.sampled_from([v, -v])),
)


@st.composite
def extreme_training_runs(draw):
    """A 1-3 layer network of 2 inputs, its parameters and up to 3 instances
    drawn from EXTREME."""
    hp = Hyperparams(embed_dim=1, window=1, layer_count=draw(st.integers(1, 3)),
                     hidden_dim=draw(st.integers(1, 3)), epochs=draw(st.integers(1, 2)),
                     dropout_rate=draw(st.sampled_from([0.0, 0.5])),
                     learning_rate=draw(st.sampled_from([0.1, 1.0, 1e10])),
                     seed=draw(st.integers(0, 3)))
    model = build_model(hp.input_dim, draw(st.integers(2, 3)), hp)

    def values(shape):
        size = math.prod(shape)
        return np.reshape(draw(st.lists(EXTREME, min_size=size, max_size=size)), shape)

    for layer in model.layers:
        layer.weights[...] = values(layer.weights.shape)
        layer.bias[...] = values(layer.bias.shape)
    labels = st.integers(0, model.num_classes - 1)
    data = [(values((hp.input_dim,)), draw(labels)) for _ in range(draw(st.integers(1, 3)))]
    return model, data


@settings(max_examples=300, deadline=None)
@given(extreme_training_runs())
def test_train_matches_the_reference_step_on_extreme_finite_values(run):
    # train checks no output-layer gradient; sgd_step checks every layer
    assert_trains_like_the_reference(*run)


def test_a_finite_loss_step_trains_with_an_output_layer_input_near_the_float_maximum():
    # layer 0 puts out 1e308 per unit and W1 = +-1e-300 maps that to logits
    # +-3e8: p = [1, 0], and label 1 clamps the loss at -log(1e-12).  The
    # output layer's dW = outer(p - y, h) is +-1e308, finite, though
    # (d @ d) * (h @ h) overflows; layer 0's delta is 2e-300.
    hp = tiny_hp(embed_dim=1, hidden_dim=3, epochs=1, learning_rate=0.5)
    model = build_model(2, 2, hp)
    model.layers[0].weights[:] = 0.0
    model.layers[0].bias[:] = 1e308
    model.layers[1].weights[:] = [[1e-300] * 3, [-1e-300] * 3]
    before = copy.deepcopy(model)
    assert assert_trains_like_the_reference(model, [(np.ones(2), 1)]) is None
    assert np.array_equal(model.layers[1].weights, [[-5e307] * 3, [5e307] * 3])
    assert np.array_equal(model.layers[0].bias, before.layers[0].bias)  # 1e308 absorbs 1e-300


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
    train(model, [(np.random.default_rng(1).normal(size=hp.input_dim), i % 5) for i in range(20)])
    # the trip through JSON text that each network makes inside a recovery model file
    again = mlp.model_from_dict(json.loads(json.dumps(mlp.model_to_dict(model))), 5, "dpg")
    assert again.hyperparams == hp
    assert [layer.weights.shape for layer in again.layers] == [(7, 12), (7, 7), (5, 7)]
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=hp.input_dim)
        assert np.array_equal(forward(model, x)[0], forward(again, x)[0])


def test_load_rejects_wrong_version():
    # The version is the recovery model file's; a network holds none.
    model = build_model(2, 2, tiny_hp(embed_dim=1))
    obj = json.loads(json.dumps(mlp.model_to_dict(model)))
    assert set(obj) == {"hyperparams", "layers"}
    assert all(set(layer) == {"weights", "bias"} for layer in obj["layers"])
    obj["format_version"] = 2
    with pytest.raises(ModelFormatError, match=r"fields the format does not have: \['format_"):
        mlp.model_from_dict(obj, 2, "dpi")


@pytest.mark.parametrize(
    "hyperparams, message",
    [({"momentum": 0.9}, r"dpi hyperparams holds fields the format does not have: \['momentum'\]"),
     ([["embed_dim", 1]], "dpi hyperparams must be a JSON object, got array"),
     ({"hidden_dim": 2.5}, "hyperparams hidden_dim must be int, got 2.5"),
     ({"epochs": True}, "hyperparams epochs must be int, got True"),
     ({"seed": 1.5}, "hyperparams seed must be int, got 1.5"),
     ({"layer_count": 2.0}, "hyperparams layer_count must be int, got 2.0"),
     ({"embed_dim": True}, "hyperparams embed_dim must be int, got True"),
     ({"window": 1.0}, "hyperparams window must be int, got 1.0"),
     ({"learning_rate": True}, "hyperparams learning_rate must be float, got True"),
     ({"dropout_rate": False}, "hyperparams dropout_rate must be float, got False"),
     ({"learning_rate": "0.1"}, "hyperparams learning_rate must be float, got '0.1'"),
     ({"learning_rate": 10**400}, f"learning_rate must be finite and > 0, got {10**400}")],
    ids=["unknown-key", "not-an-object", "float-hidden-dim", "bool-epochs", "float-seed",
         "integral-float-layer-count", "bool-embed-dim", "integral-float-window",
         "bool-learning-rate", "bool-dropout-rate", "string-learning-rate",
         "int-learning-rate-beyond-float-range"],
)
def test_load_rejects_malformed_hyperparams(hyperparams, message):
    obj = json.loads(json.dumps(mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1)))))
    if isinstance(hyperparams, dict):
        obj["hyperparams"].update(hyperparams)
    else:
        obj["hyperparams"] = hyperparams
    with pytest.raises(ModelFormatError, match=f"^{message}"):  # in no words of its own
        mlp.model_from_dict(obj, 2, "dpi")


@pytest.mark.parametrize("field", ["embed_dim", "window", "layer_count", "dropout_rate",
                                   "epochs", "learning_rate", "hidden_dim", "seed"])
def test_load_rejects_hyperparams_without_a_field(field):
    # A default in its place would load, and save back other bytes.
    obj = tiny_network_object()
    del obj["hyperparams"][field]
    with pytest.raises(ModelFormatError, match=rf"^dpg hyperparams lacks field '{field}'$"):
        mlp.model_from_dict(obj, 2, "dpg")


def test_load_rejects_broken_shape_chain():
    model = build_model(4, 2, tiny_hp())
    obj = json.loads(json.dumps(mlp.model_to_dict(model)))
    first = obj["layers"][0]  # 3 of its 5 units: no longer chains into layer 1
    first["weights"] = encode_block(decode_block(first["weights"])[:12])
    first["bias"] = encode_block(decode_block(first["bias"])[:3])
    with pytest.raises(ModelFormatError, match=r"expected 8 per value of shape \(5, 4\)"):
        mlp.model_from_dict(obj, 2, "dpi")


@pytest.mark.parametrize("layer_count", [1, 3])
def test_load_rejects_a_layer_count_the_layers_do_not_have(layer_count):
    obj = tiny_network_object()
    obj["hyperparams"]["layer_count"] = layer_count
    with pytest.raises(ModelFormatError, match=f"has 2 layers, its layer_count is {layer_count}"):
        mlp.model_from_dict(obj, 2, "dpi")


@pytest.mark.parametrize("classes", [1, 3])
def test_load_takes_the_class_count_from_its_caller(classes):
    with pytest.raises(ModelFormatError, match=rf"expected 8 per value of shape \({classes}, 5\)"):
        mlp.model_from_dict(tiny_network_object(), classes, "dpi")


def tiny_network_object() -> dict:
    """The JSON object of a 2 -> 5 -> 2 network, as its file holds it."""
    return json.loads(json.dumps(mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1)))))


@pytest.mark.parametrize(
    "bits",
    [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000001, 0x7FF0000000000000,
     0xFFF0000000000000],
    ids=["nan", "signalling-nan", "minus-nan-with-payload", "inf", "minus-inf"],
)
@pytest.mark.parametrize("block", ["weights", "bias"])
def test_load_rejects_a_parameter_that_is_no_finite_double(block, bits):
    obj = tiny_network_object()
    raw = base64.b64decode(obj["layers"][1][block])
    obj["layers"][1][block] = base64.b64encode(raw[:-8] + bits.to_bytes(8, "little")).decode()
    with pytest.raises(ModelFormatError, match="non-finite parameter"):
        mlp.model_from_dict(obj, 2, "dpi")


def _reencoded(edit):
    return lambda block: base64.b64encode(edit(base64.b64decode(block))).decode()


def _pad_bit_set(block):
    """`block` with the lowest pad bit of its last data character set: the
    same bytes to `b64decode`, but not their encoding."""
    i = len(block.rstrip("=")) - 1
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    return block[:i] + alphabet[alphabet.index(block[i]) + 1] + block[i + 1:]


# Any 8 bytes are a double, so a block fails only as base64 or by its length.
@pytest.mark.parametrize(
    "edit, match",
    [(lambda b: "@" + b[1:], "not valid base64"),
     (lambda b: b.rstrip("="), "not valid base64"),
     (lambda b: b + "=", "not valid base64"),
     (_pad_bit_set, "not valid base64"),
     (lambda b: "\u00e9" + b[1:], "not valid base64"),
     (_reencoded(lambda raw: raw[:-1]), "bytes, expected 8 per value of shape"),
     (_reencoded(lambda raw: raw[:-8]), "bytes, expected 8 per value of shape"),
     (_reencoded(lambda raw: raw + raw[:8]), "bytes, expected 8 per value of shape")],
    ids=["bad-alphabet", "missing-padding", "excess-padding", "pad-bit-set", "non-ascii",
         "seven-byte-tail", "one-value-short", "one-value-long"],
)
@pytest.mark.parametrize("block", ["weights", "bias"])
def test_load_rejects_a_parameter_block_that_is_not_base64_of_its_doubles(block, edit, match):
    obj = tiny_network_object()
    obj["layers"][1][block] = edit(obj["layers"][1][block])
    with pytest.raises(ModelFormatError, match=f"dpi layer 1 {block}: parameter block .*{match}"):
        mlp.model_from_dict(obj, 2, "dpi")


@pytest.mark.parametrize("padding", ["=", "===="])
def test_load_rejects_padding_after_a_whole_last_group(padding):
    # b64decode takes it; the bias of 3 values is 24 bytes, 32 characters.
    obj = mlp.model_to_dict(build_model(2, 2, tiny_hp(embed_dim=1, hidden_dim=3)))
    obj["layers"][0]["bias"] += padding
    with pytest.raises(ModelFormatError, match="dpg layer 0 bias: parameter block is not valid"):
        mlp.model_from_dict(obj, 2, "dpg")


@pytest.mark.parametrize("value, name", [("hex-list", "array"), (0, "number"), (None, "null")],
                         ids=["hex-list", "number", "null"])
def test_load_rejects_a_parameter_block_that_is_not_a_string(value, name):
    obj = tiny_network_object()
    if value == "hex-list":  # a version 1 block in a version 2 network
        value = [float(v).hex() for v in decode_block(obj["layers"][1]["bias"])]
    obj["layers"][1]["bias"] = value
    with pytest.raises(ModelFormatError, match=f"must be a base64 string, got {name}$"):
        mlp.model_from_dict(obj, 2, "dpi")


def test_a_version_1_network_is_refused_with_the_retrain_message():
    obj = tiny_network_object()
    obj["format_version"] = 1
    for layer in obj["layers"]:  # the hex float lists that version 1 wrote
        for block in ("weights", "bias"):
            layer[block] = [float(v).hex() for v in decode_block(layer[block])]
    with pytest.raises(ModelFormatError, match="fields the format does not have"):
        mlp.model_from_dict(obj, 2, "dpi")
    table = deterministic_fallback_table(["a"], 1, seed=0)
    recovery = recovery_to_dict(RecoveryModel(build_model(2, 2, tiny_hp(embed_dim=1)),
                                              build_model(2, 14, tiny_hp(embed_dim=1)),
                                              FULL14, 0.5, table))
    recovery.update(format_version=1, dpi=obj)
    with pytest.raises(ModelFormatError, match="unsupported recovery format version 1, "
                       "expected 2; retrain the model with `droprec train`"):
        recovery_from_dict(recovery)


def test_loaded_parameters_are_owned_writeable_native_arrays():
    again = mlp.model_from_dict(tiny_network_object(), 2, "dpi")
    for layer in again.layers:
        for a in (layer.weights, layer.bias):
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.flags.owndata and a.base is None  # no view of the decoded bytes


def test_a_loaded_network_trains_to_the_bytes_of_the_original():
    hp = Hyperparams(embed_dim=2, window=1, layer_count=3, hidden_dim=6,
                     dropout_rate=0.3, epochs=3, learning_rate=0.05, seed=4)
    model = build_model(hp.input_dim, 3, hp)
    loaded = mlp.model_from_dict(json.loads(json.dumps(mlp.model_to_dict(model))), 3, "dpg")
    arrays = layer_arrays(loaded)
    rng = SplitMix64(7)
    data = [(rng.uniform_array(hp.input_dim, -1.0, 1.0), i % 3) for i in range(30)]
    assert train(loaded, data) == train(model, data)
    assert_updated_in_place(loaded, arrays)
    assert json.dumps(mlp.model_to_dict(loaded)) == json.dumps(mlp.model_to_dict(model))


def test_load_accepts_finite_parameters_whose_sum_overflows():
    model = build_model(2, 2, tiny_hp(embed_dim=1))
    model.layers[0].weights[:] = 1.5e308
    again = mlp.model_from_dict(json.loads(json.dumps(mlp.model_to_dict(model))), 2, "dpi")
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


@pytest.mark.parametrize(
    "kw",
    [dict(epochs=2.0), dict(hidden_dim=True), dict(seed=1.5), dict(window="1"),
     dict(learning_rate=True), dict(dropout_rate=None), dict(embed_dim=np.int64(2))],
    ids=["float-epochs", "bool-hidden-dim", "float-seed", "string-window", "bool-learning-rate",
         "none-dropout-rate", "numpy-int-embed-dim"],
)
def test_hyperparams_reject_a_field_of_the_wrong_type(kw):
    with pytest.raises(TypeError, match=f"hyperparams {next(iter(kw))} must be"):
        Hyperparams(**{"embed_dim": 2, **kw})


def test_hyperparams_float_fields_take_an_int():
    hp = Hyperparams(embed_dim=2, dropout_rate=0, learning_rate=1)
    assert (hp.dropout_rate, hp.learning_rate) == (0, 1)


def test_input_dim_is_2wd():
    assert Hyperparams(embed_dim=300, window=2).input_dim == 1200
