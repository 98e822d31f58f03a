"""Exact rational scalars and their canonical string form.

All rational quantities in this package are `fractions.Fraction` values,
which Python keeps in lowest terms with a positive denominator.  The wire
format is the string "p/q" (just "p" when q = 1).  Floats are rejected
everywhere: the criteria implemented here distinguish 1 from 1/k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    """Parse "p/q", "p", or an int into a Fraction; floats and "p/0" are refused."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError("floating point input is not accepted; pass 'p/q' strings")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def parse_vector(values: Sequence) -> tuple[Fraction, ...]:
    """Parse a list or tuple of rationals; a string is refused, not split."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"not a vector: {values!r}")
    return tuple(parse_rational(v) for v in values)


def format_vector(vec: Iterable[Fraction]) -> list[str]:
    return [format_rational(c) for c in vec]
