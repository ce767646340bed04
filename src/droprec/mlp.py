"""From-scratch multi-layer perceptron: forward, backprop, SGD, dropout.

The network is a stack of dense layers.  Hidden layers apply an affine map
followed by ReLU and, in train mode, inverted dropout (surviving units are
scaled by 1/(1-rate) so eval-time forward needs no rescaling).  The final
layer applies an affine map and a max-subtracted softmax.  Training is
plain stochastic gradient descent on cross-entropy loss; all arithmetic is
float64 and every random choice draws from seeded SplitMix64 streams, so
identical (data, hyperparams) reproduce identical parameters bit for bit.
A network trains from the hyperparams that `build_model` records in it.

A step's arithmetic is written once, in `_forward_into` and `_backward_into`:
`train` runs them on views of two flat buffers made once per call, a copy of
the parameters and their gradients, so that a step updates every layer with
one scale and one subtraction; the reference `forward` and `backward` check
their arguments and run them on fresh buffers.
"""

from __future__ import annotations

import base64
import itertools
import math
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import Sequence

import numpy as np

from .corpus import json_type
from .rng import SplitMix64

# Loss clamps probabilities at this floor before taking logs.
PROB_EPS = 1e-12

# Substream tags for deriving independent RNG streams from one seed.
_INIT_STREAM = 0
_DROPOUT_STREAM = 1

# train() draws the dropout floats of this many steps with one call.
_DROPOUT_BLOCK_STEPS = 64


class ModelFormatError(ValueError):
    """Corrupt, mis-versioned, or shape-inconsistent model file."""


class NumericError(RuntimeError):
    """Non-finite loss or gradient in training, or a non-finite class
    probability in eval mode (finite parameters that overflow on a text)."""


# Each range (test, text) that Hyperparams and the CLI's flags check; seed has none.
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
HYPERPARAM_RANGES = {
    "embed_dim": _AT_LEAST_ONE, "window": _AT_LEAST_ONE, "layer_count": _AT_LEAST_ONE,
    "dropout_rate": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"), "epochs": _AT_LEAST_ONE,
    # Compared, not passed to math.isfinite: it raises OverflowError for an int past float range.
    "learning_rate": (lambda v: 0 < v <= sys.float_info.max, "finite and > 0"),
    "hidden_dim": _AT_LEAST_ONE,
}


@dataclass
class Hyperparams:
    """Training configuration.

    embed_dim and window shape the input; the rest drive the optimizer.
    learning_rate, hidden_dim and seed are this implementation's knobs
    and are recorded in every saved model.
    """

    embed_dim: int
    window: int = 1
    layer_count: int = 2
    dropout_rate: float = 0.0
    epochs: int = 10
    learning_rate: float = 0.01
    hidden_dim: int = 200
    seed: int = 0

    def __post_init__(self):
        for field in dataclass_fields(self):  # each annotated "int" or "float"
            value = getattr(self, field.name)
            if type(value) is not int and (field.type == "int" or type(value) is not float):
                raise TypeError(f"hyperparams {field.name} must be {field.type}, got {value!r}")
        for name, (ok, rule) in HYPERPARAM_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def input_dim(self) -> int:
        return 2 * self.window * self.embed_dim


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpModel:
    layers: list[DenseLayer]
    hyperparams: Hyperparams

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class ForwardCache:
    """Per-layer activations and masks captured by a forward pass."""

    inputs: list[np.ndarray]
    relu_masks: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]
    probs: np.ndarray
    mode: str


@dataclass
class LayerGrads:
    dW: np.ndarray
    db: np.ndarray


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


def build_model(input_dim: int, num_classes: int, hp: Hyperparams) -> MlpModel:
    """Create an L-layer MLP with Glorot-uniform weights and zero biases.

    L = 1 is a bare affine + softmax, i.e. multinomial logistic regression.
    Initialization draws from SplitMix64 substream 0 of hp.seed.  A weight
    matrix of more bytes than numpy can index is an OverflowError.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    dims = layer_dims(input_dim, num_classes, hp)
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if 8 * fan_in * fan_out > np.iinfo(np.intp).max:
            raise OverflowError(f"layer {i} weights of {fan_out} x {fan_in} float64 values "
                                f"are more bytes than numpy can index")
    rng = SplitMix64.for_stream(hp.seed, _INIT_STREAM)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform_array(fan_out * fan_in, -limit, limit).reshape(fan_out, fan_in)
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    return MlpModel(layers, hp)


def layer_dims(input_dim: int, num_classes: int, hp: Hyperparams) -> list[int]:
    """Widths of a network's input and of each layer's output."""
    return [input_dim] + [hp.hidden_dim] * (hp.layer_count - 1) + [num_classes]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, as a new float64 array."""
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of float64 `z`, in place via max subtraction;
    returns `z`.  It calls the ufuncs behind ndarray.max and .sum without
    their wrappers."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def one_hot(num_classes: int, index: int) -> np.ndarray:
    y = np.zeros(num_classes)
    y[index] = 1.0
    return y


def cross_entropy(y_true: np.ndarray, probs: np.ndarray) -> float:
    """-sum(y * log(p)) with p clamped at 1e-12; for one-hot y this is
    -log(p[true class])."""
    if y_true.shape != probs.shape:
        raise ValueError(f"shape mismatch: y_true {y_true.shape} vs probs {probs.shape}")
    return float(-np.sum(y_true * np.log(np.maximum(probs, PROB_EPS))))


def dropout_mask(dim: int, rate: float, rng: SplitMix64) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability `rate`, else 1/(1-rate).

    Unit k is dropped when the k-th of the next `dim` floats of `rng` is
    below `rate`.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(dim)
    return rng.floats_at_least(dim, rate) / (1.0 - rate)


def _new_cache(model: MlpModel, x: np.ndarray, mode: str) -> ForwardCache:
    """A step's cache (input `x`), for `_forward_into` to fill."""
    hidden = [layer.out_dim for layer in model.layers[:-1]]
    return ForwardCache([x] + [np.empty(k) for k in hidden], [np.empty(k, bool) for k in hidden],
                        [None] * len(hidden), np.empty(model.num_classes), mode)


def _flat_views(flat: np.ndarray, layers: list[DenseLayer]):
    """Views of `flat`, laid out W0, b0, W1, b1, ..., shaped like each
    layer's weights and bias."""
    weights, biases, end = [], [], 0
    for layer in layers:
        start, end = end, end + layer.weights.size
        weights.append(flat[start:end].reshape(layer.weights.shape))
        start, end = end, end + layer.bias.size
        biases.append(flat[start:end])
    return weights, biases


def _forward_into(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
                  cache: ForwardCache, masks: Sequence[np.ndarray] | None) -> np.ndarray:
    """One forward pass of `x` into `cache`'s buffers; returns `cache.probs`.
    `masks` holds each hidden layer's dropout mask, or is None."""
    inputs, relu, drops = cache.inputs, cache.relu_masks, cache.dropout_masks
    inputs[0] = h = x
    for i in range(len(relu)):
        z = inputs[i + 1]
        weights[i].dot(h, out=z)
        z += biases[i]
        np.greater(z, 0.0, out=relu[i])
        h = np.maximum(z, 0.0, out=z)
        if masks is not None:
            drops[i] = masks[i]
            z *= drops[i]
    p = cache.probs
    weights[-1].dot(h, out=p)
    p += biases[-1]
    # _softmax_in_place, inline: the call and its axis arguments cost ~0.6 us a step (2-core Xeon)
    p -= np.maximum.reduce(p)
    np.exp(p, out=p)
    p /= np.add.reduce(p)
    return p


def _dropout_steps(widths: list[int], rate: float, rng: SplitMix64):
    """Endless per-step dropout masks of hidden layers `widths` wide, one
    tuple of views per step: the masks `forward` would draw step after step,
    drawn _DROPOUT_BLOCK_STEPS steps at a time."""
    bounds = np.cumsum(widths)[:-1]
    while True:
        block = dropout_mask(_DROPOUT_BLOCK_STEPS * sum(widths), rate, rng)
        yield from zip(*np.split(block.reshape(_DROPOUT_BLOCK_STEPS, -1), bounds, axis=1))


def _backward_into(weights_t: list[np.ndarray], cache: ForwardCache, grads: list[LayerGrads],
                   cols: list[np.ndarray], rows: list[np.ndarray]):
    """Fill `grads` from the transposed weights, `cache`'s masks and the
    output delta (probs - y) in `grads[-1].db`.  Layer i's dW is the outer
    product of `cols[i]`, a (k, 1) view of its `db`, and `rows[i]`, a
    (1, m) view of its input.

    dW goes through BLAS, ~2x faster than np.multiply.outer, with equal
    values except that -0.0 products come out +0.0.  That moves no
    parameter: W - t is -0.0 only for W = -0.0, which build_model never
    makes (its lo + (hi - lo) * u has lo != 0).
    """
    for i in range(len(grads) - 1, 0, -1):
        d = weights_t[i].dot(grads[i].db, out=grads[i - 1].db)
        if cache.dropout_masks[i - 1] is not None:
            d *= cache.dropout_masks[i - 1]
        d *= cache.relu_masks[i - 1]
    for g, col, row in zip(grads, cols, rows):
        col.dot(row, out=g.dW)


def _gradient_error(i: int, g: LayerGrads) -> NumericError:
    return NumericError(f"non-finite gradient in layer {i} "
                        f"(|dW|_max={np.max(np.abs(g.dW))}, |db|_max={np.max(np.abs(g.db))})")


def forward(
    model: MlpModel,
    x: np.ndarray,
    mode: str = "eval",
    rng: SplitMix64 | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """One forward pass; returns class probabilities and the cache that
    backward() needs.

    Train mode applies inverted dropout after each hidden ReLU (requires
    `rng` when the dropout rate is positive); eval mode is deterministic.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ValueError(f"input has shape {x.shape}, model expects ({model.input_dim},)")
    rate = model.hyperparams.dropout_rate
    drop = mode == "train" and rate > 0.0
    if drop and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")
    cache = _new_cache(model, x, mode)
    widths = list(map(len, cache.relu_masks))
    masks = np.split(dropout_mask(sum(widths), rate, rng), np.cumsum(widths)[:-1]) if drop else None
    layers = model.layers
    probs = _forward_into([layer.weights for layer in layers], [layer.bias for layer in layers],
                          x, cache, masks)
    return probs, cache


def backward(model: MlpModel, cache: ForwardCache, y_true: np.ndarray) -> list[LayerGrads]:
    """Gradients of cross-entropy w.r.t. every layer's weights and bias.

    Uses the softmax + cross-entropy shortcut (output delta = probs - y).
    """
    if cache is None or cache.mode != "train":
        raise ValueError("backward needs the cache of a train-mode forward pass")
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_true.shape != cache.probs.shape:
        raise ValueError(
            f"y_true shape {y_true.shape} does not match probs {cache.probs.shape}"
        )
    grads = [LayerGrads(np.empty_like(layer.weights), np.empty_like(layer.bias))
             for layer in model.layers]
    np.subtract(cache.probs, y_true, out=grads[-1].db)
    _backward_into([layer.weights.T for layer in model.layers], cache, grads,
                   [g.db[:, None] for g in grads], [x[None, :] for x in cache.inputs])
    return grads


def sgd_step(model: MlpModel, grads: list[LayerGrads], learning_rate: float) -> None:
    """In-place p <- p - lr * grad; aborts on non-finite gradients.

    The gradients are spent: each is scaled by lr in place.  Every layer
    is checked before any is updated, so an error changes no parameter.
    """
    if len(grads) != len(model.layers):
        raise ValueError(f"got {len(grads)} gradients for {len(model.layers)} layers")
    for i, (layer, g) in enumerate(zip(model.layers, grads)):
        if g.dW.shape != layer.weights.shape or g.db.shape != layer.bias.shape:
            raise ValueError(f"layer {i}: gradient shape mismatch")
        if not (np.isfinite(g.dW).all() and np.isfinite(g.db).all()):
            raise _gradient_error(i, g)
    for layer, g in zip(model.layers, grads):
        g.dW *= learning_rate
        g.db *= learning_rate
        layer.weights -= g.dW
        layer.bias -= g.db


def predict(model: MlpModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode class predictions for the rows of an (m, input_dim) matrix.

    Each layer is one matrix product over all rows.  Returns the argmax
    class per row (ties go to the lowest index) and the (m, num_classes)
    probabilities.
    """
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.input_dim:
        raise ValueError(f"input has shape {h.shape}, model expects (m, {model.input_dim})")
    z = h @ model.layers[0].weights.T
    z += model.layers[0].bias
    probs = predict_from_first_layer(model, z)
    return probs.argmax(axis=1), probs


def predict_from_first_layer(model: MlpModel, z: np.ndarray) -> np.ndarray:
    """`predict`'s probabilities given `z`, the (m, out_dim) affine output
    of the first layer (its bias added); `z` is overwritten.

    The later layers are one matrix product each, and softmax runs in
    place.  With one layer, the first layer is the softmax layer.  Raises
    NumericError when finite parameters overflow to a NaN probability.
    """
    for layer in model.layers[1:]:
        np.maximum(z, 0.0, out=z)
        z = z @ layer.weights.T
        z += layer.bias
    probs = _softmax_in_place(z)
    # With its max taken off, a row's exps sum to a value in [1, C], or to
    # NaN exactly when one of them is NaN, which makes the whole row NaN;
    # so the sum of all probabilities is finite unless some one is NaN.
    if not math.isfinite(np.add.reduce(probs, axis=None)):
        raise NumericError("non-finite class probability in eval mode")
    return probs


def train(model: MlpModel, instances: list[tuple[np.ndarray, int]]) -> list[EpochStats]:
    """Run SGD over (feature, label) pairs, in place, one step per instance,
    with the epochs, seed, dropout rate and learning rate of `model.hyperparams`.

    Epoch e visits instances in the order given by a Fisher-Yates shuffle
    seeded with seed + e; dropout draws from SplitMix64 substream 1 of
    seed, step after step and hidden layer after hidden layer, taken
    from the stream a block of steps at a time.  Returns per-epoch mean
    loss and accuracy measured on the training passes themselves.  The
    features are copied into one float64 matrix, which must be n rows of
    the model's input shape, and the steps read its rows through views
    made once per call.

    Each step runs the kernels of `forward` and `backward` on views of two
    flat buffers made once per call, laid out W0, b0, W1, b1, ...: a copy of
    the parameters, and their gradients.  A non-finite loss is a
    NumericError before the step's backward pass.  Then each hidden layer's
    gradient is checked finite, and the update is `grads *= lr` and
    `params -= grads`.  The output layer needs no check: a finite loss rules
    out a NaN or +inf logit, and with them a non-finite input h to that
    layer, which would make every logit NaN or +-inf.  As |p - y| <= 1, its
    dW = outer(p - y, h) and db = p - y are then finite.  The first layer's
    check takes each instance's x @ x from one vectorized pass over the
    features; that term only lets the check skip its exact second clause
    (see the loop), so the order of its sum moves no decision.  So train
    gives sgd_step's bytes, and a failed check raises the NumericError
    that sgd_step would.  The copy goes back into each layer's own
    `weights` and `bias` arrays only after the last epoch, so a call that
    raises leaves every parameter as it was; a read-only array (scoring
    makes first-layer weights read-only) is a ValueError before the first
    step.
    """
    if not instances:
        raise ValueError("cannot train on an empty instance list")
    n, num_classes = len(instances), model.num_classes
    given, labels = zip(*instances)
    labels = list(map(int, labels))
    try:  # ragged features are a ValueError
        features = np.array(given, dtype=np.float64)
    except ValueError:
        features = None
    if features is None or features.shape != (n, model.input_dim):
        raise ValueError(f"instance features must be {n} rows of the model's input dim "
                         f"{model.input_dim}")
    if min(labels) < 0 or max(labels) >= num_classes:
        i = next(i for i, lab in enumerate(labels) if not 0 <= lab < num_classes)
        raise ValueError(f"instance {i} label {labels[i]} outside [0, {num_classes})")

    layers = model.layers
    # Checked up front: the steps run on a copy, so a read-only array would
    # otherwise fail only at the write-back, after every epoch had run.
    for i, layer in enumerate(layers):
        if not (layer.weights.flags.writeable and layer.bias.flags.writeable):
            raise ValueError(f"layer {i} parameters are read-only")

    params = np.concatenate([a.ravel() for layer in layers for a in (layer.weights, layer.bias)])
    flat_grads = np.empty_like(params)
    weights, biases = _flat_views(params, layers)
    grads = [LayerGrads(*g) for g in zip(*_flat_views(flat_grads, layers))]
    weights_t = [w.T for w in weights]
    feats, feat_rows = list(features), list(features[:, None])  # instance i as (m,) and (1, m)
    cache = _new_cache(model, feats[0], "train")
    cache.probs = grads[-1].db  # p[label] -= 1 turns the probabilities into the output delta
    inputs = cache.inputs
    # The outer products' operands; rows[0] is set to each step's instance.
    cols = [g.db[:, None] for g in grads]
    rows = [feat_rows[0]] + [h[None, :] for h in inputs[1:]]
    hidden = len(layers) - 1
    hp = model.hyperparams
    rate = hp.dropout_rate
    widths = list(map(len, cache.relu_masks))
    if rate > 0.0 and sum(widths) > 0:
        masks = _dropout_steps(widths, rate, SplitMix64.for_stream(hp.seed, _DROPOUT_STREAM))
    else:
        masks = itertools.repeat(None)
    lr = hp.learning_rate
    log: list[EpochStats] = []
    # Every non-finite value in the loop ends in a NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        # A hidden layer's dW = outer(d, x) or db = d has a non-finite
        # element exactly when max|d| * max|x| is not finite, max|x| being
        # 0 for an empty x: rounding is monotone, NaN and inf propagate
        # through max, and 0 * inf is NaN.  (d @ d) * (x @ x) is finite
        # only when that product is, whatever order either sum of squares
        # is taken in, so it is tried first.
        sq0 = np.einsum("ij,ij->i", features, features).tolist()
        for epoch in range(hp.epochs):
            order = list(range(n))
            SplitMix64(hp.seed + epoch).shuffle(order)
            total_loss = 0.0
            correct = 0
            for step, idx in enumerate(order):
                label = labels[idx]
                p = _forward_into(weights, biases, feats[idx], cache, next(masks))
                loss = -math.log(max(p.item(label), PROB_EPS))
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
                total_loss += loss
                correct += int(p.argmax()) == label
                p[label] -= 1.0
                rows[0] = feat_rows[idx]
                _backward_into(weights_t, cache, grads, cols, rows)
                for i in range(hidden):
                    d, x = grads[i].db, inputs[i]
                    x_sq = sq0[idx] if i == 0 else float(x.dot(x))
                    if not math.isfinite(float(d.dot(d)) * x_sq) and not math.isfinite(
                        float(np.max(np.abs(d))) * float(np.max(np.abs(x), initial=0.0))
                    ):
                        raise _gradient_error(i, grads[i])
                flat_grads *= lr
                params -= flat_grads
            log.append(EpochStats(epoch, total_loss / n, correct / n))
    for layer, w, b in zip(layers, weights, biases):
        layer.weights[...] = w
        layer.bias[...] = b
    return log


# --- serialization --------------------------------------------------------
#
# A network is one JSON object nested in the recovery model file
# (pipeline.recovery_to_dict): its hyperparams, and per layer its weights and
# bias, each one base64 string of their little-endian float64 ("<f8") bytes
# in C order, so a save/load round trip is bit exact.  The shapes are not
# stored: the hyperparams and the class count fix them.

_NETWORK_FIELDS = {"hyperparams", "layers"}
_LAYER_FIELDS = {"weights", "bias"}
_HYPERPARAM_FIELDS = {field.name for field in dataclass_fields(Hyperparams)}


def check_fields(obj, names: set[str], what: str) -> None:
    """TypeError unless `obj` is a JSON object, ValueError unless its fields
    are `names`: one missing is named first, then any the format does not have."""
    if type(obj) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {json_type(obj)}")
    if missing := sorted(names - obj.keys()):
        raise ValueError(f"{what} lacks field {missing[0]!r}" if len(missing) == 1
                         else f"{what} lacks fields {missing}")
    if not obj.keys() <= names:
        raise ValueError(f"{what} holds fields the format does not have: "
                         f"{sorted(obj.keys() - names)}")


def _array_to_base64(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _array_from_base64(block: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    if type(block) is not str:
        raise ModelFormatError(
            f"{what}: parameter block must be a base64 string, got {json_type(block)}"
        )
    try:  # binascii.Error, or ValueError for a character outside ASCII
        raw = base64.b64decode(block, validate=True)
        # b64decode also takes excess padding and nonzero pad bits, which
        # would not save back: only the encoding of `raw` itself loads.
        if len(block) != 4 * -(-len(raw) // 3) or (
                block[-4:] != base64.b64encode(raw[-(len(raw) % 3 or 3):]).decode("ascii")):
            raise ValueError
    except ValueError:
        raise ModelFormatError(f"{what}: parameter block is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise ModelFormatError(
            f"{what}: parameter block has {len(raw)} bytes, expected 8 per value of shape {shape}"
        )
    # One copy into an owned, writeable, native array: no view of `raw`.
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def check_finite(model: MlpModel, name: str) -> None:
    """ValueError naming the network `name` and the layer unless every parameter
    is finite, as in a model file.  Elementwise: a sum would warn when it overflows."""
    for i, layer in enumerate(model.layers):
        for part in ("weights", "bias"):
            if not np.isfinite(getattr(layer, part)).all():
                raise ValueError(f"{name} layer {i} {part}: non-finite parameter")


def model_to_dict(model: MlpModel) -> dict:
    return {
        "hyperparams": asdict(model.hyperparams),
        "layers": [
            {"weights": _array_to_base64(layer.weights), "bias": _array_to_base64(layer.bias)}
            for layer in model.layers
        ],
    }


def model_from_dict(obj: dict, num_classes: int, name: str) -> MlpModel:
    """The network of a `model_to_dict` object with `num_classes` outputs;
    ModelFormatError, naming it `name` and its layer, if the object breaks a rule.

    Its hyperparams must hold every field.  Its layers have the shapes that
    `build_model` gives a network of its hyperparams' `input_dim`:
    `hidden_dim` outputs for each hidden layer, `num_classes` for the last.
    The object must hold `layer_count` layers, of parameters `check_finite` passes.
    """
    try:
        check_fields(obj, _NETWORK_FIELDS, name)
        check_fields(obj["hyperparams"], _HYPERPARAM_FIELDS, f"{name} hyperparams")
        hp = Hyperparams(**obj["hyperparams"])
        entries = obj["layers"]
        if type(entries) is not list:
            raise TypeError(f"{name} layers must be a JSON array, got {json_type(entries)}")
        if len(entries) != hp.layer_count:
            raise ValueError(f"{name} has {len(entries)} layers, its layer_count is "
                             f"{hp.layer_count}")
        dims = layer_dims(hp.input_dim, num_classes, hp)
        layers = []
        for i, (entry, fan_in, fan_out) in enumerate(zip(entries, dims[:-1], dims[1:])):
            where = f"{name} layer {i}"
            check_fields(entry, _LAYER_FIELDS, where)
            layers.append(DenseLayer(
                _array_from_base64(entry["weights"], (fan_out, fan_in), f"{where} weights"),
                _array_from_base64(entry["bias"], (fan_out,), f"{where} bias")))
        model = MlpModel(layers, hp)
        check_finite(model, name)
    except (TypeError, ValueError) as exc:  # the model file's reader words it
        raise ModelFormatError(str(exc)) from None
    return model
