"""Pinned parameter bytes of `mlp.train` with dropout on.

The golden CLI chain trains with dropout 0.0, so these pins cover what it
does not: the order in which dropout masks are drawn across one and two
hidden layers, step after step.  A change that moves these bytes on
purpose updates the digest and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from droprec.mlp import Hyperparams, backward, build_model, forward, one_hot, train
from droprec.rng import SplitMix64

N_INSTANCES = 23
NUM_CLASSES = 3


def _instances(dim, n=N_INSTANCES, num_classes=NUM_CLASSES):
    rng = SplitMix64(2024)
    feats = rng.uniform_array(n * dim, -1.0, 1.0).reshape(n, dim)
    return [(feats[i], int(rng.randbelow(num_classes))) for i in range(n)]


def _param_sha256(model) -> str:
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(layer.weights.astype("<f8").tobytes())
        h.update(layer.bias.astype("<f8").tobytes())
    return h.hexdigest()


def _hp(**kw):
    base = dict(embed_dim=3, window=1, layer_count=2, hidden_dim=7, dropout_rate=0.2,
                epochs=3, learning_rate=0.05, seed=17)
    base.update(kw)
    return Hyperparams(**base)


def _trained(hp):
    model = build_model(hp.input_dim, NUM_CLASSES, hp)
    train(model, _instances(hp.input_dim))
    return model


@pytest.mark.parametrize(
    "kw, digest",
    [
        (dict(layer_count=3, dropout_rate=0.3),
         "877ae89d3266152f955b265a541d2959b1eaccb6aed1cf55b2f4aacf1501c5ed"),
        # The id dates from when training had a batch size; one step per
        # instance is what it pins.
        ({}, "b5c6f60b4134aa30f4fc94c73dd251a027141c675818db54ba98dc2ddc834528"),
    ],
    ids=["three-layers-dropout", "batch-1"],
)
def test_trained_parameter_bytes_are_pinned(kw, digest):
    assert _param_sha256(_trained(_hp(**kw))) == digest


@pytest.mark.parametrize(
    "num_classes, digest",
    [
        (2, "ff1a787d7c436e4b16960133ade95e10e949fe5b49d3a08f6915c408c6784a22"),
        (14, "9ac0587a35a8b1b3ca1b8ec6ef0db18d550cbaa10aec568d6d1beb537096160a"),
    ],
)
def test_trained_parameter_bytes_at_the_benchmark_shape_are_pinned(num_classes, digest):
    # perfbench's train workload: 32 -> 200 -> 2 or 14, dropout 0.2, lr 0.1;
    # 150 steps cross two dropout blocks.  The hand-written-loop test at this
    # shape runs train's own kernels, so only a pin sees a change that moves both.
    hp = Hyperparams(embed_dim=16, window=1, layer_count=2, hidden_dim=200, dropout_rate=0.2,
                     epochs=1, learning_rate=0.1, seed=5)
    model = build_model(hp.input_dim, num_classes, hp)
    train(model, _instances(hp.input_dim, 150, num_classes))
    assert _param_sha256(model) == digest


def test_training_matches_a_hand_written_sgd_loop():
    hp = _hp()
    got = _trained(hp)

    model = build_model(hp.input_dim, NUM_CLASSES, hp)
    data = _instances(hp.input_dim)
    drop_rng = SplitMix64.for_stream(hp.seed, 1)
    for epoch in range(hp.epochs):
        order = list(range(len(data)))
        SplitMix64(hp.seed + epoch).shuffle(order)
        for idx in order:
            x, label = data[idx]
            _, cache = forward(model, x, mode="train", rng=drop_rng)
            grads = backward(model, cache, one_hot(NUM_CLASSES, label))
            for layer, g in zip(model.layers, grads):
                layer.weights -= hp.learning_rate * g.dW
                layer.bias -= hp.learning_rate * g.db

    for a, b in zip(got.layers, model.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
