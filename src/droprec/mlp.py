"""From-scratch multi-layer perceptron: forward, backprop, SGD, dropout.

The network is a stack of dense layers.  Hidden layers apply an affine map
followed by ReLU and, in train mode, inverted dropout (surviving units are
scaled by 1/(1-rate) so eval-time forward needs no rescaling).  The final
layer applies an affine map and a max-subtracted softmax.  Training is
plain stochastic gradient descent on cross-entropy loss; all arithmetic is
float64 and every random choice draws from seeded SplitMix64 streams, so
identical (seed, data, hyperparams) reproduce identical parameters bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields as dataclass_fields

import numpy as np

from .rng import SplitMix64

# Loss clamps probabilities at this floor before taking logs.
PROB_EPS = 1e-12

# Substream tags for deriving independent RNG streams from one seed.
_INIT_STREAM = 0
_DROPOUT_STREAM = 1

# train() draws the dropout floats of this many steps with one call.
_DROPOUT_BLOCK_STEPS = 64

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Corrupt, mis-versioned, or shape-inconsistent model file."""


class NumericError(RuntimeError):
    """Non-finite loss or gradient in training, or a non-finite class
    probability in eval mode (finite parameters that overflow on a text)."""


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
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.layer_count < 1:
            raise ValueError(f"layer_count must be >= 1, got {self.layer_count}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")

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
    input_dim: int
    num_classes: int
    hyperparams: Hyperparams
    label_set_name: str | None = None

    def validate_shapes(self) -> None:
        if not self.layers:
            raise ModelFormatError("model has no layers")
        if self.layers[0].in_dim != self.input_dim:
            raise ModelFormatError(
                f"first layer expects {self.layers[0].in_dim} inputs, model declares "
                f"{self.input_dim}"
            )
        for i in range(1, len(self.layers)):
            if self.layers[i].in_dim != self.layers[i - 1].out_dim:
                raise ModelFormatError(
                    f"layer {i} input {self.layers[i].in_dim} does not chain from layer "
                    f"{i - 1} output {self.layers[i - 1].out_dim}"
                )
        if self.layers[-1].out_dim != self.num_classes:
            raise ModelFormatError(
                f"output layer has {self.layers[-1].out_dim} units, model declares "
                f"{self.num_classes} classes"
            )


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
    Initialization draws from SplitMix64 substream 0 of hp.seed.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    dims = (
        [input_dim]
        + [hp.hidden_dim] * (hp.layer_count - 1)
        + [num_classes]
    )
    rng = SplitMix64.for_stream(hp.seed, _INIT_STREAM)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform_array(fan_out * fan_in, -limit, limit).reshape(fan_out, fan_in)
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    model = MlpModel(layers, input_dim, num_classes, hp)
    model.validate_shapes()
    return model


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis via max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted, out=shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


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
    survived = rng.floats(dim) >= rate
    return survived / (1.0 - rate)


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

    inputs: list[np.ndarray] = []
    relu_masks: list[np.ndarray] = []
    dropout_masks: list[np.ndarray | None] = []
    h = x
    for layer in model.layers[:-1]:
        inputs.append(h)
        z = layer.weights @ h
        z += layer.bias
        relu_masks.append(z > 0.0)
        h = np.maximum(z, 0.0, out=z)
        if drop:
            mask = dropout_mask(h.shape[0], rate, rng)
            h *= mask
            dropout_masks.append(mask)
        else:
            dropout_masks.append(None)
    inputs.append(h)
    out = model.layers[-1]
    logits = out.weights @ h
    logits += out.bias
    probs = softmax(logits)
    return probs, ForwardCache(inputs, relu_masks, dropout_masks, probs, mode)


def backward(model: MlpModel, cache: ForwardCache, y_true: np.ndarray) -> list[LayerGrads]:
    """Gradients of cross-entropy w.r.t. every layer's weights and bias.

    Uses the softmax + cross-entropy shortcut (output delta = probs - y)
    and replays the ReLU and dropout masks recorded in the cache.
    """
    if cache is None or cache.mode != "train":
        raise ValueError("backward needs the cache of a train-mode forward pass")
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_true.shape != cache.probs.shape:
        raise ValueError(
            f"y_true shape {y_true.shape} does not match probs {cache.probs.shape}"
        )
    grads: list[LayerGrads | None] = [None] * len(model.layers)
    delta = cache.probs - y_true
    for i in range(len(model.layers) - 1, -1, -1):
        # db is delta itself: below, delta is rebound to a new array
        # before anything is written in place.  The outer product goes
        # through BLAS, about twice as fast as np.multiply.outer here.  It
        # gives the same values, except that a -0.0 product comes out as
        # +0.0, which moves no parameter: sgd_step computes W - t, which is
        # -0.0 only for W = -0.0 and t = +0.0, and no weight is ever -0.0
        # (build_model's lo + (hi - lo) * u has lo != 0).
        grads[i] = LayerGrads(np.dot(delta[:, None], cache.inputs[i][None, :]), delta)
        if i > 0:
            delta = model.layers[i].weights.T @ delta
            if cache.dropout_masks[i - 1] is not None:
                delta *= cache.dropout_masks[i - 1]
            delta *= cache.relu_masks[i - 1]
    return grads  # type: ignore[return-value]


def sgd_step(model: MlpModel, grads: list[LayerGrads], learning_rate: float) -> None:
    """In-place p <- p - lr * grad; aborts on non-finite gradients.

    The gradients are spent: each is scaled by lr in place.  Layers are
    checked and updated in order, so a NumericError in layer i leaves
    layers before i updated.
    """
    if len(grads) != len(model.layers):
        raise ValueError(f"got {len(grads)} gradients for {len(model.layers)} layers")
    for i, (layer, g) in enumerate(zip(model.layers, grads)):
        if g.dW.shape != layer.weights.shape or g.db.shape != layer.bias.shape:
            raise ValueError(f"layer {i}: gradient shape mismatch")
        if not (np.isfinite(g.dW).all() and np.isfinite(g.db).all()):
            raise NumericError(
                f"non-finite gradient in layer {i} "
                f"(|dW|_max={np.max(np.abs(g.dW))}, |db|_max={np.max(np.abs(g.db))})"
            )
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
    return predict_from_first_layer(model, h @ model.layers[0].weights.T)


def predict_from_first_layer(model: MlpModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`predict` given `z`, the (m, out_dim) product of the rows with the
    first layer's weights, before its bias; `z` is overwritten.

    The later layers are one matrix product each.  With one layer, the
    first layer is the softmax layer.  Raises NumericError when finite
    parameters overflow to a NaN probability.
    """
    z += model.layers[0].bias
    for layer in model.layers[1:]:
        np.maximum(z, 0.0, out=z)
        z = z @ layer.weights.T
        z += layer.bias
    probs = softmax(z)
    if not math.isfinite(probs.sum()):  # each probability is NaN or in [0, 1]
        raise NumericError("non-finite class probability in eval mode")
    return np.argmax(probs, axis=1), probs


def train(
    model: MlpModel,
    instances: list[tuple[np.ndarray, int]],
    hp: Hyperparams,
) -> list[EpochStats]:
    """Run exactly hp.epochs of SGD over (feature, label) pairs, in place,
    one step per instance.

    Epoch e visits instances in the order given by a Fisher-Yates shuffle
    seeded with hp.seed + e; dropout draws from SplitMix64 substream 1 of
    hp.seed, step after step and hidden layer after hidden layer, taken
    from the stream a block of steps at a time.  Returns per-epoch mean
    loss and accuracy measured on the training passes themselves.  The
    feature arrays are used as given, not copied, when they are float64.

    Each step is forward, backward and sgd_step fused over buffers made
    once per call; it gives their bytes, and raises the NumericError that
    sgd_step would, layer by layer.
    """
    if not instances:
        raise ValueError("cannot train on an empty instance list")
    feats = [np.asarray(f, dtype=np.float64) for f, _ in instances]
    labels = [int(lab) for _, lab in instances]
    for i, f in enumerate(feats):
        if f.shape != (model.input_dim,):
            raise ValueError(
                f"instance {i} has dim {f.shape}, model expects ({model.input_dim},)"
            )
    for i, lab in enumerate(labels):
        if not 0 <= lab < model.num_classes:
            raise ValueError(f"instance {i} label {lab} outside [0, {model.num_classes})")

    n = len(instances)
    layers = model.layers
    last = len(layers) - 1
    weights = [layer.weights for layer in layers]
    biases = [layer.bias for layer in layers]
    weights_t = [w.T for w in weights]
    # zs[i] holds layer i's pre-activation, then its output; the last one
    # holds the logits, then the probabilities, then the output delta.
    zs = [np.empty(layer.out_dim) for layer in layers]
    relu = [np.empty(layer.out_dim, dtype=bool) for layer in layers[:-1]]
    deltas = [np.empty(layer.out_dim) for layer in layers[:-1]] + [zs[last]]
    dws = [np.empty_like(layer.weights) for layer in layers]
    rate = model.hyperparams.dropout_rate
    drop = rate > 0.0 and last > 0
    if drop:
        drop_rng = SplitMix64.for_stream(hp.seed, _DROPOUT_STREAM)
        bounds = np.cumsum([0] + [layer.out_dim for layer in layers[:-1]]).tolist()
    drawn = _DROPOUT_BLOCK_STEPS  # steps served from the current block of masks
    lr = hp.learning_rate
    log: list[EpochStats] = []
    # Every non-finite value in the loop ends in a NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        # A layer's dW = outer(d, x) or db = d has a non-finite element
        # exactly when max|d| * max|x| is not finite, max|x| being 0 for an
        # empty x: rounding is monotone, NaN and inf propagate through max,
        # and 0 * inf is NaN.  (d @ d) * (x @ x) is finite only when that
        # product is, so it is tried first.
        sq0 = [float(f.dot(f)) for f in feats]
        for epoch in range(hp.epochs):
            order = list(range(n))
            SplitMix64(hp.seed + epoch).shuffle(order)
            total_loss = 0.0
            correct = 0
            for step, idx in enumerate(order):
                if drop:
                    if drawn == _DROPOUT_BLOCK_STEPS:
                        block = drop_rng.floats(_DROPOUT_BLOCK_STEPS * bounds[-1])
                        masks = ((block >= rate) / (1.0 - rate)).reshape(_DROPOUT_BLOCK_STEPS, -1)
                        drawn = 0
                    mask = masks[drawn]
                    drawn += 1
                label = labels[idx]
                h = feats[idx]
                for i in range(last):
                    z = zs[i]
                    weights[i].dot(h, out=z)
                    z += biases[i]
                    np.greater(z, 0.0, out=relu[i])
                    np.maximum(z, 0.0, out=z)
                    if drop:
                        z *= mask[bounds[i] : bounds[i + 1]]
                    h = z
                p = zs[last]
                weights[last].dot(h, out=p)
                p += biases[last]
                p -= p.max()
                np.exp(p, out=p)
                p /= p.sum()
                loss = -math.log(max(p.item(label), PROB_EPS))
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
                total_loss += loss
                correct += int(p.argmax()) == label
                p[label] -= 1.0
                for i in range(last, 0, -1):
                    d = weights_t[i].dot(deltas[i], out=deltas[i - 1])
                    if drop:
                        d *= mask[bounds[i - 1] : bounds[i]]
                    d *= relu[i - 1]
                for i in range(last + 1):
                    d, dw = deltas[i], dws[i]
                    if i == 0:
                        x, x_sq = feats[idx], sq0[idx]
                    else:
                        x = zs[i - 1]
                        x_sq = float(x.dot(x))
                    d[:, None].dot(x[None, :], out=dw)
                    if not math.isfinite(float(d.dot(d)) * x_sq) and not math.isfinite(
                        float(np.max(np.abs(d))) * float(np.max(np.abs(x), initial=0.0))
                    ):
                        raise NumericError(
                            f"non-finite gradient in layer {i} "
                            f"(|dW|_max={np.max(np.abs(dw))}, |db|_max={np.max(np.abs(d))})"
                        )
                    dw *= lr
                    weights[i] -= dw
                    d *= lr
                    biases[i] -= d
            log.append(EpochStats(epoch, total_loss / n, correct / n))
    return log


# --- serialization --------------------------------------------------------
#
# A network is one versioned JSON object, nested in the recovery model file
# (pipeline.recovery_to_dict).  Parameters are stored as C99 hex floats
# (float.hex()) so a save/load round trip is bit exact.


def require_int(value, name: str) -> int:
    """`value` itself if it is an int (a bool is not); TypeError otherwise."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _array_to_hex(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in a.ravel()]


def _array_from_hex(values: list[str], shape: tuple[int, ...]) -> np.ndarray:
    for size in shape:
        require_int(size, "layer size")
    if type(values) is not list:
        raise ModelFormatError(f"parameter block must be a list, got {type(values).__name__}")
    try:
        flat = np.fromiter(map(float.fromhex, values), dtype=float, count=len(values))
    except (ValueError, TypeError, OverflowError):  # OverflowError: beyond a double's range
        raise ModelFormatError("unparseable hex float in model file") from None
    if flat.size != int(np.prod(shape)):
        raise ModelFormatError(
            f"parameter block has {flat.size} values, expected shape {shape}"
        )
    # Elementwise: a sum first would be no faster here, and would warn on
    # finite parameters whose sum overflows.
    if not np.isfinite(flat).all():
        raise ModelFormatError("non-finite parameter in model file")
    return flat.reshape(shape)


def model_to_dict(model: MlpModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "mlp",
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "label_set": model.label_set_name,
        "hyperparams": asdict(model.hyperparams),
        "layers": [
            {
                "out_dim": layer.out_dim,
                "in_dim": layer.in_dim,
                "weights": _array_to_hex(layer.weights),
                "bias": _array_to_hex(layer.bias),
            }
            for layer in model.layers
        ],
    }


def model_from_dict(obj: dict) -> MlpModel:
    if not isinstance(obj, dict) or obj.get("kind") != "mlp":
        raise ModelFormatError("not an mlp model object")
    if obj.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {obj.get('format_version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    try:
        fields = {**obj["hyperparams"]}  # TypeError unless a mapping
        fields.pop("batch_size", None)  # written by versions that had batched training
        for field in dataclass_fields(Hyperparams):  # each annotated "int" or "float"
            value = fields.get(field.name, 0)
            if type(value) is not int and (field.type == "int" or type(value) is not float):
                raise TypeError(f"hyperparams {field.name} must be {field.type}, got {value!r}")
        hp = Hyperparams(**fields)
        layers = [
            DenseLayer(
                _array_from_hex(entry["weights"], (entry["out_dim"], entry["in_dim"])),
                _array_from_hex(entry["bias"], (entry["out_dim"],)),
            )
            for entry in obj["layers"]
        ]
        model = MlpModel(
            layers,
            require_int(obj["input_dim"], "input_dim"),
            require_int(obj["num_classes"], "num_classes"),
            hp,
            obj.get("label_set"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from None
    model.validate_shapes()
    return model
