"""Deterministic 64-bit PRNG (splitmix64) behind every random decision.

All shuffles, samples, dropout masks and weight inits in this package draw
from SplitMix64 so that a run is a pure function of its seeds, and so that
an implementation in any language can reproduce the exact same streams.

The generator is the standard splitmix64: the state advances by the
golden-gamma constant 0x9E3779B97F4A7C15 and each output applies the
murmur-style finalizer (shifts 30/27/31, multipliers 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB).  Derived conventions used throughout:

* uniform double in [0, 1): take the top 53 bits, ``(u64 >> 11) * 2**-53``
* bounded int in [0, n):    ``next_u64() % n``
* Fisher-Yates shuffle:     for i = len-1 .. 1, swap i with randbelow(i+1)
* batches (`floats`, `shuffle`) compute their draws vectorized, with the
  values and end state of the same number of next_u64() calls, and
  `stream_floats` the first floats of many streams in one pass
* independent substream k of seed s: state seeded with
  ``mix64(s XOR (k + 1) * 0x9E3779B97F4A7C15)``
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_GOLDEN, _U64_MIX1, _U64_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanching bijection on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, used to turn word bytes into seeds."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """Sequential splitmix64 stream over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @classmethod
    def for_stream(cls, seed: int, stream: int) -> "SplitMix64":
        """Independent substream `stream` of `seed` (documented derivation)."""
        return cls(mix64((seed & _MASK64) ^ (((stream + 1) * _GOLDEN) & _MASK64)))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform-ish int in [0, n) via modulo (bias < n / 2**64)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down to 1: item i swaps
        with randbelow(i + 1), all drawn in one vectorized batch."""
        sizes = np.arange(len(items), 1, -1, dtype=np.uint64)  # i + 1 for i = len-1 .. 1
        picks = (self._next_u64s(len(sizes)) % sizes).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def floats(self, n: int) -> np.ndarray:
        """Vectorized batch of `n` uniform doubles in [0, 1): exactly the
        values of `n` calls to next_float()."""
        return _unit_floats(self._next_u64s(n))

    def floats_at_least(self, n: int, p: float) -> np.ndarray:
        """`floats(n) >= p` for a `p` in [0, 1), with the same end state,
        without making the floats: (u >> 11) * 2**-53 is exact, so it is at
        least p exactly when u >> 11 >= ceil(p * 2**53), that is, when u >=
        ceil(p * 2**53) << 11 (p * 2**53 is exact too)."""
        return self._next_u64s(n) >= np.uint64(math.ceil(p * 2**53) << 11)

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next `n` next_u64() values, as a new uint64 array."""
        z = _outputs(np.uint64(self._state), n)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        """Vectorized uniform doubles in [lo, hi)."""
        return lo + (hi - lo) * self.floats(n)


def stream_floats(seeds: np.ndarray, n: int) -> np.ndarray:
    """Row i is SplitMix64(seeds[i]).floats(n), for a 1-D uint64 array of
    seeds: the first `n` uniform doubles of every stream, in one pass."""
    return _unit_floats(_outputs(seeds, n))


def _outputs(states, n: int) -> np.ndarray:
    """The first `n` next_u64() values of the stream at each of `states` (a
    uint64 scalar or 1-D array), as a new array of shape `states.shape + (n,)`:
    output i mixes state + (i+1) * golden."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _U64_GOLDEN
    z = np.add.outer(states, z)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _U64_MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _U64_MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _unit_floats(u: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) of the uint64 outputs `u`: their top 53 bits."""
    return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53
