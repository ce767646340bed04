"""Hypothesis strategies for the metadata of corpus and model files."""

import math

from hypothesis import strategies as st


def mostly(good, bad):
    """`good`, but one draw in sixteen from `bad` (k == 5: Hypothesis
    favours the ends of a range)."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 5 else good)


SURROGATES = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)  # no UTF-8 form

# Keys and values that JSON reads back equal, but now and then one that it
# does not: a key that is no str, a tuple (read back as a list), NaN or an
# infinity (no strict JSON), a lone surrogate or a set.
_KEY = mostly(st.text(max_size=3), st.one_of(st.integers(), st.booleans(), st.none()))
_SCALAR = mostly(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=3)),
    st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), SURROGATES,
              st.frozensets(st.integers(), max_size=2)))
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(mostly(st.lists(inner, max_size=2),
                                   st.lists(inner, max_size=2).map(tuple)),
                            st.dictionaries(_KEY, inner, max_size=2)),
    max_leaves=6)
METADATA = st.dictionaries(_KEY, _VALUE, max_size=3)
