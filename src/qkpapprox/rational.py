"""Exact rational arithmetic helpers shared across the solver.

All costs, profits and limits are exact rationals (Python ints or
``fractions.Fraction``).  Floats are rejected at the boundary so that
feasibility comparisons and power-of-two rounding stay exact.
"""

from fractions import Fraction
from math import lcm
from typing import Union

Rational = Union[int, Fraction]


def as_rational(value) -> Rational:
    """Normalize a value to an exact rational (int when integral).

    Accepts ints, Fractions and strings ("7", "3/4", "0.25"); a string
    that does not parse, or has a zero denominator, raises ValueError.
    Floats are rejected: callers must pass exact values.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not valid rational values")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        return int(frac) if frac.denominator == 1 else frac
    if isinstance(value, float):
        raise TypeError(
            "floats are not exact; pass an int, Fraction or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def non_negative_int(value, name: str) -> int:
    """value itself, or ValueError unless it is a non-negative int (bool
    excluded); name is the message's name for it."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    return value


def pow2(exponent: int) -> Rational:
    """2**exponent as an exact rational (Fraction for negative exponents)."""
    if exponent >= 0:
        return 1 << exponent
    return Fraction(1, 1 << -exponent)


def to_units(values) -> tuple[list[int], int]:
    """(values scaled to ints by the lcm of their denominators, that lcm).

    One positive factor keeps every sum and comparison among them exact.
    """
    factor = lcm(*(v.denominator for v in values))
    if factor == 1:
        return values, 1
    return [v.numerator * (factor // v.denominator) for v in values], factor


def floor_log2(value: Rational) -> int:
    """Largest integer e with 2**e <= value; value must be positive."""
    if value <= 0:
        raise ValueError("floor_log2 requires a positive value")
    num, den = value.numerator, value.denominator
    # num/den lies in (2**(e-1), 2**(e+1)), so e is the answer or one too high
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        return e if num >= den << e else e - 1
    return e if num << -e >= den else e - 1


def ceil_log2(value: Rational) -> int:
    """Smallest integer e with 2**e >= value; value must be positive."""
    e = floor_log2(value)
    # a reduced fraction is a power of two when both its terms are
    num, den = value.numerator, value.denominator
    return e if num & (num - 1) == 0 and den & (den - 1) == 0 else e + 1


def rational_to_json(value: Rational):
    """Ints stay numbers; non-integral rationals become 'p/q' strings."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"
