"""Dense univariate polynomial arithmetic over Fraction.

Coefficient lists are indexed by power (coeffs[k] multiplies x^k) and kept
trimmed of trailing zeros, so structural equality of tuples is equality of
polynomials.
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


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    return trim(
        [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
    )


def scale(a: Sequence[Fraction], s) -> Poly:
    s = Fraction(s)
    return trim([c * s for c in a])


def sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    return add(a, scale(b, -1))


def mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def compose_affine(coeffs: Sequence[Fraction], a, b) -> Poly:
    """Coefficients of p(a*x + b), via Horner over polynomial arithmetic."""
    inner = trim([Fraction(b), Fraction(a)])
    acc: Poly = (Fraction(0),)
    for c in reversed(coeffs):
        acc = add(mul(acc, inner), (Fraction(c),))
    return acc


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
