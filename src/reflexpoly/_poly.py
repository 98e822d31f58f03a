"""Dense univariate polynomial helpers.

Coefficient lists are indexed by power (coeffs[k] multiplies x^k).  Products
are built on integer lists with `times_linear` and divided once by their
caller; `trim` turns the result into a tuple of Fractions without trailing
zeros, so structural equality of tuples is equality of polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def trim(coeffs: Sequence[Fraction]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def evaluate(coeffs: Sequence[Fraction], x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def times_linear(coeffs: Sequence[int], a: int, b: int) -> list[int]:
    """Coefficients of p(x) * (a + b*x), one longer than p's list."""
    return [a * c + b * prev for c, prev in zip([*coeffs, 0], [0, *coeffs])]


def format_poly(coeffs: Sequence[Fraction], var: str = "n") -> str:
    """Human rendering in descending powers, rationals as p/q."""
    from .rationals import format_rational

    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0 and not (k == 0 and not terms):
            continue
        mag = format_rational(abs(c))
        if k == 0:
            body = mag
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if abs(c) == 1 else f"{mag}*{power}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    rendered = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        rendered += f" {sign} {body}"
    return rendered
