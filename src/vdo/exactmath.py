"""Exact integer/rational helpers shared by the protocol-visible arithmetic.

Everything that feeds a protocol verdict must be computed without floating
point; these helpers keep ceilings, square roots and geometric means in
integer land.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def ceil_sqrt_int(a: int) -> int:
    """Smallest s >= 0 with s*s >= a."""
    if a <= 0:
        return 0
    r = math.isqrt(a)
    return r if r * r == a else r + 1


def ceil_mul_sqrt(c: Fraction, a: int) -> int:
    """Smallest integer s with s >= c * sqrt(a), for c >= 0, a >= 0.

    s >= c*sqrt(a)  iff  s^2 * den >= num  where c^2 * a = num/den.
    """
    if c < 0:
        raise ValueError("coefficient must be nonnegative")
    t = c * c * a
    # smallest s with s^2 >= t
    q = -((-t.numerator) // t.denominator)  # ceil(num/den)
    s = ceil_sqrt_int(q)
    # ceil(t) can overshoot t by < 1, so s may be one too large
    while s > 0 and Fraction((s - 1) * (s - 1)) >= t:
        s -= 1
    return s


def floor_sqrt_frac(x: Fraction) -> Fraction:
    """Deterministic rational lower approximation of sqrt(x).

    Returns isqrt(num*den)/den, which is within 1/den below the true root.
    """
    if x < 0:
        raise ValueError("negative operand")
    return Fraction(math.isqrt(x.numerator * x.denominator), x.denominator)


def geometric_mean(a: Fraction, b: Fraction) -> Fraction:
    """Deterministic rational approximation of sqrt(a*b) (floor-rooted)."""
    return floor_sqrt_frac(a * b)


def round_to_unit(x: Fraction, unit_denominator: int) -> Fraction:
    """Round x to the nearest multiple of 1/unit_denominator, ties up."""
    scaled = x * unit_denominator
    k = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(k, unit_denominator)
