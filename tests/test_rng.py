import math

import numpy as np
from hypothesis import given, strategies as st

from droprec.rng import SplitMix64, fnv1a64, mix64, stream_floats


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_vectorized_floats_match_scalar_stream():
    a = SplitMix64(777)
    b = SplitMix64(777)
    batch = a.floats(257)
    scalar = np.array([b.next_float() for _ in range(257)])
    assert np.array_equal(batch, scalar)
    # both generators must land on the same state afterwards
    assert a.next_u64() == b.next_u64()


def test_floats_in_unit_interval():
    vals = SplitMix64(9).floats(10_000)
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)


def test_uniform_array_range():
    vals = SplitMix64(5).uniform_array(10_000, -0.25, 0.25)
    assert np.all(vals >= -0.25) and np.all(vals < 0.25)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=300))
def test_shuffle_is_permutation(seed, n):
    items = list(range(n))
    SplitMix64(seed).shuffle(items)
    assert sorted(items) == list(range(n))


def test_shuffle_deterministic():
    x = list(range(50))
    y = list(range(50))
    SplitMix64(42).shuffle(x)
    SplitMix64(42).shuffle(y)
    assert x == y


def test_for_stream_produces_distinct_streams():
    outs = {SplitMix64.for_stream(99, k).next_u64() for k in range(32)}
    assert len(outs) == 32


def test_mix64_is_deterministic_and_bounded():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(123456789) < 2**64


def test_fnv1a64_known_value():
    # FNV-1a published test vector: hash of "a"
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=600))
def test_shuffle_matches_a_scalar_fisher_yates(seed, n):
    # The vectorized draws must give the order, and leave the stream in the
    # state, of one randbelow(i + 1) per swap, i from n - 1 down to 1.
    ours, ref = SplitMix64(seed), SplitMix64(seed)
    got, want = list(range(n)), list(range(n))
    ours.shuffle(got)
    for i in range(n - 1, 0, -1):
        j = ref.randbelow(i + 1)
        want[i], want[j] = want[j], want[i]
    assert got == want
    assert ours.next_u64() == ref.next_u64()


class _Outputs(SplitMix64):
    """A stream whose next outputs are given, to put values at a threshold."""

    def __init__(self, values):
        super().__init__(0)
        self.values = np.array(values, dtype=np.uint64)

    def _next_u64s(self, n):
        return self.values[:n].copy()


# 0.5, the largest float below 1, the smallest subnormal, and 2**-53, the
# smallest nonzero float that floats() returns.
THRESHOLD_RATES = [0.5, 1 - 2**-53, 5e-324, 2**-53, 0.2, 0.0]


@given(st.sampled_from(THRESHOLD_RATES) | st.floats(0, 1, exclude_max=True),
       st.lists(st.integers(-4096, 4096), min_size=1, max_size=40),
       st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_floats_at_least_is_the_float_comparison_at_and_around_its_threshold(p, steps, anywhere):
    # Outputs on either side of the bound a float comparison with p puts on
    # the raw 64-bit output, and anywhere else.
    bound = math.ceil(p * 2**53) << 11
    values = [min(max(bound + d, 0), 2**64 - 1) for d in steps] + anywhere
    assert np.array_equal(_Outputs(values).floats_at_least(len(values), p),
                          _Outputs(values).floats(len(values)) >= p)


@given(st.sampled_from(THRESHOLD_RATES) | st.floats(0, 1, exclude_max=True),
       st.integers(0, 2**64 - 1), st.integers(0, 300))
def test_floats_at_least_draws_what_floats_draws(p, seed, n):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert np.array_equal(a.floats_at_least(n, p), b.floats(n) >= p)
    assert a.next_u64() == b.next_u64()


@given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(1, 40))
def test_stream_floats_rows_are_each_seeds_floats(seeds, n):
    rows = stream_floats(np.array(seeds, dtype=np.uint64), n)
    assert rows.shape == (len(seeds), n)
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == SplitMix64(seed).floats(n).tobytes()
