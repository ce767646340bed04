"""Parameter blocks as a model file stores them: one base64 string of a
layer's little-endian float64 ("<f8") bytes in C order."""

import base64

import numpy as np


def encode_block(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_block(block: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(block, validate=True), dtype="<f8").copy()


def with_value(block: str, index: int, value: float) -> str:
    """`block` with its value at flat `index` replaced by `value`."""
    values = decode_block(block)
    values[index] = value
    return encode_block(values)
