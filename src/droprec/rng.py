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
* independent substream k of seed s: state seeded with
  ``mix64(s XOR (k + 1) * 0x9E3779B97F4A7C15)``
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
        """In-place Fisher-Yates shuffle, high index down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def floats(self, n: int) -> np.ndarray:
        """Vectorized batch of `n` uniform doubles in [0, 1).

        Produces exactly the same values as `n` calls to next_float():
        output i mixes state + (i+1) * golden.
        """
        if n == 0:
            return np.zeros(0)
        offsets = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = np.uint64(self._state) + offsets
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        """Vectorized uniform doubles in [lo, hi)."""
        return lo + (hi - lo) * self.floats(n)

