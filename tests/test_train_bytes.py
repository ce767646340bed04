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


def _instances(dim):
    rng = SplitMix64(2024)
    feats = rng.uniform_array(N_INSTANCES * dim, -1.0, 1.0).reshape(N_INSTANCES, dim)
    return [(feats[i], int(rng.randbelow(NUM_CLASSES))) for i in range(N_INSTANCES)]


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
    train(model, _instances(hp.input_dim), hp)
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
