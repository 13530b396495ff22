from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from vdo.exactmath import (
    ceil_mul_sqrt,
    ceil_sqrt_int,
    frac_ceil,
    geometric_mean,
    round_to_unit,
)


@given(st.integers(0, 10**12))
def test_ceil_sqrt(a):
    s = ceil_sqrt_int(a)
    assert s * s >= a
    assert s == 0 or (s - 1) * (s - 1) < a


@given(
    st.fractions(min_value=F(0), max_value=F(10**6)),
    st.integers(0, 10**9),
)
@settings(max_examples=300)
def test_ceil_mul_sqrt_is_tight(c, a):
    s = ceil_mul_sqrt(c, a)
    # s >= c*sqrt(a) iff s^2 >= c^2*a; tightness: s-1 fails
    assert F(s * s) >= c * c * a
    if s > 0:
        assert F((s - 1) * (s - 1)) < c * c * a


@given(st.fractions(min_value=F(1, 1000), max_value=F(1000)))
def test_geometric_mean_brackets(x):
    g = geometric_mean(x, x * 4)
    # true value is 2x; floor-rooted approximation sits within one ulp below
    assert g <= 2 * x
    assert g >= 2 * x - F(1, (x * x * 4).denominator)


def test_frac_ceil_floor():
    assert frac_ceil(F(5, 2)) == 3
    assert frac_ceil(F(-5, 2)) == -2
    assert frac_ceil(F(4, 2)) == 2


def test_round_to_unit():
    assert round_to_unit(F(1, 3), 6) == F(2, 6)
    assert round_to_unit(F(1, 4), 6) == F(2, 6)  # tie 1.5/6 rounds up
    assert round_to_unit(F(0), 6) == 0
    assert round_to_unit(F(999, 1000), 4) == 1
