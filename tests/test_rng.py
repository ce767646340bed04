import numpy as np
from hypothesis import given, strategies as st

from droprec.rng import SplitMix64, fnv1a64, mix64


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
