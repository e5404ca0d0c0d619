"""Exact rational helpers."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qkpapprox.rational import ceil_log2, floor_log2

powers_of_two = st.integers(-70, 70).map(lambda e: Fraction(2) ** e)
positive_rationals = st.one_of(
    st.integers(1, 2**80),
    st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2**80)),
    powers_of_two,
    # 2**e +- 1/2**j, just above and below a power of two
    st.builds(
        lambda p, j, sign: p + sign * Fraction(1, 2**j),
        powers_of_two,
        st.integers(0, 80),
        st.sampled_from([-1, 1]),
    ).filter(lambda v: v > 0),
)


@given(positive_rationals)
@settings(max_examples=400)
def test_log2_bounds_match_their_definition(value):
    value = int(value) if Fraction(value).denominator == 1 else value
    e = floor_log2(value)
    assert Fraction(2) ** e <= value < Fraction(2) ** (e + 1)
    c = ceil_log2(value)
    assert Fraction(2) ** (c - 1) < value <= Fraction(2) ** c
