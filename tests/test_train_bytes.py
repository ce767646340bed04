"""Pinned parameter bytes of `mlp.train` with dropout on and with batches.

The golden CLI chain trains with dropout 0.0 and batch size 1, so these
pins cover what it does not: the order in which dropout masks are drawn
across two hidden layers, and gradient averaging over batches, including
a partial last batch.  A change that moves these bytes on purpose updates
the digest and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from droprec.mlp import Hyperparams, backward, build_model, forward, one_hot, train
from droprec.rng import SplitMix64

N_INSTANCES = 23  # not a multiple of 4: the last batch of 4 is partial
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
        (dict(layer_count=3, dropout_rate=0.3, batch_size=1),
         "877ae89d3266152f955b265a541d2959b1eaccb6aed1cf55b2f4aacf1501c5ed"),
        (dict(batch_size=1), "b5c6f60b4134aa30f4fc94c73dd251a027141c675818db54ba98dc2ddc834528"),
        (dict(batch_size=4), "e3875ce17433b28d0d2fe024d1bb283741399a4b17f0a47885cb89cf53e74bc3"),
    ],
    ids=["three-layers-dropout", "batch-1", "batch-4"],
)
def test_trained_parameter_bytes_are_pinned(kw, digest):
    assert _param_sha256(_trained(_hp(**kw))) == digest


def test_batched_training_matches_a_hand_written_averaging_loop():
    hp = _hp(batch_size=4)
    got = _trained(hp)

    model = build_model(hp.input_dim, NUM_CLASSES, hp)
    data = _instances(hp.input_dim)
    drop_rng = SplitMix64.for_stream(hp.seed, 1)
    for epoch in range(hp.epochs):
        order = list(range(len(data)))
        SplitMix64(hp.seed + epoch).shuffle(order)
        for start in range(0, len(order), hp.batch_size):
            batch = order[start : start + hp.batch_size]
            sums = [[np.zeros_like(l.weights), np.zeros_like(l.bias)] for l in model.layers]
            for idx in batch:
                x, label = data[idx]
                _, cache = forward(model, x, mode="train", rng=drop_rng)
                for acc, g in zip(sums, backward(model, cache, one_hot(NUM_CLASSES, label))):
                    acc[0] += g.dW
                    acc[1] += g.db
            scale = 1.0 / len(batch)
            for layer, (dW, db) in zip(model.layers, sums):
                layer.weights -= hp.learning_rate * (dW * scale if len(batch) > 1 else dW)
                layer.bias -= hp.learning_rate * (db * scale if len(batch) > 1 else db)

    for a, b in zip(got.layers, model.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
