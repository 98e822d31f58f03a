"""Lattice-count sequences, quasi-polynomial reconstruction, and the
reciprocity / symmetry criteria built on them.

The dilation counter L(n) = #(nP meet Z^d) is evaluated by exact scans of
the polytope's integer form.  The quasi-polynomial is reconstructed per
residue class r mod T, the lcm of vertex denominators, from the counts at
the equally spaced nodes r + kT, k = 0..2d-1, all taken in one batched scan.
Every constituent has the leading coefficient vol(P) (McMullen 1978; Beck &
Robins, Computing the Continuous Discretely, ch. 3), so the top Newton
coefficient of every residue is the one integer d! T^d vol(P), computed once
from a triangulation (``polytope.integer_volume``).  The first d counts give
the other Newton coefficients by integer finite differences; the other d
are held out and must equal the Newton form's integer values there, which
checks the volume too.  The constituents are then reduced to the minimal
period, so ``period == 1`` is a decided property, not a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from . import _poly
from .errors import InternalInconsistency, PeriodNotOne, ScaleExceeded, ValidationFailed
from .polytope import (
    Polytope,
    count_boxes,
    count_dilations,
    dilation_boxes,
    integer_volume,
    vertex_denominator_lcm,
)
from .rationals import format_rational, parse_rational

# Desk-scale cap on the dilations one reconstruction checks against the
# budget, T(2d+1) - 1 (it scans 2dT - 1 of them): the budget bounds each box,
# not how many there are.
_MAX_DILATIONS = 2**16


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic list of constituent polynomials; value at n comes from the
    constituent at index n mod period.  The stored period is minimal."""

    period: int
    constituents: tuple[tuple[Fraction, ...], ...]
    degree: int

    def __post_init__(self):
        if self.period != len(self.constituents) or self.period < 1:
            raise ValueError("period must match the number of constituents")

    def evaluate(self, n: int) -> Fraction:
        return _poly.evaluate(self.constituents[n % self.period], n)

    def is_polynomial(self) -> bool:
        return self.period == 1

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "constituents": [
                [format_rational(c) for c in poly] for poly in self.constituents
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiPolynomial":
        consts = [
            _poly.trim([parse_rational(c) for c in poly]) for poly in obj["constituents"]
        ]
        if len(consts) != int(obj["period"]):
            raise ValueError("period does not match constituent count")
        return cls.from_constituents(consts)

    @classmethod
    def from_constituents(cls, constituents) -> "QuasiPolynomial":
        """Build with the period minimized by structural comparison."""
        consts = [_poly.trim(c) for c in constituents]
        T = len(consts)
        for t in sorted(_divisors(T)):
            if all(consts[r] == consts[r % t] for r in range(T)):
                consts = consts[:t]
                break
        degree = max(len(c) - 1 for c in consts)
        return cls(period=len(consts), constituents=tuple(consts), degree=degree)

    def __str__(self) -> str:
        if self.period == 1:
            return _poly.format_poly(self.constituents[0])
        lines = [
            f"n = {r} (mod {self.period}): {_poly.format_poly(c)}"
            for r, c in enumerate(self.constituents)
        ]
        return "; ".join(lines)


@dataclass(frozen=True)
class CountSequence:
    """L(n) for 0 <= n <= n_max and interior counts for 1 <= n <= n_max."""

    values: dict[int, int]
    interior_values: dict[int, int]


def _divisors(n: int) -> list[int]:
    return [t for t in range(1, n + 1) if n % t == 0]


def count(p: Polytope, n: int, budget: int | None = None) -> int:
    """#(nP meet Z^d); the empty dilation n = 0 counts the origin, so 1."""
    if n < 0:
        raise ValueError("count is defined for n >= 0; use evaluate for negatives")
    if n == 0:
        return 1
    return count_dilations(p, [n], budget=budget)[0]


def count_interior(p: Polytope, n: int, budget: int | None = None) -> int:
    """#(int(nP) meet Z^d) for n >= 1."""
    if n < 1:
        raise ValueError("interior count is defined for n >= 1")
    return count_dilations(p, [n], strict=True, budget=budget)[0]


def count_sequence(p: Polytope, n_max: int, budget: int | None = None) -> CountSequence:
    """Both sequences up to n_max, one scan each; the boxes are checked in
    the order of n, so the first one over the budget raises."""
    ns = range(1, n_max + 1)
    return CountSequence(
        values=dict(enumerate(count_up_to(p, n_max, budget))),
        interior_values=dict(zip(ns, count_dilations(p, ns, strict=True, budget=budget))),
    )


def count_up_to(p: Polytope, n_max: int, budget: int | None = None) -> list[int]:
    """[L(0), ..., L(n_max)] in one scan, L(0) = 1; empty when n_max < 0."""
    return ([1] + count_dilations(p, range(1, n_max + 1), budget=budget))[: n_max + 1]


def ehrhart_quasi_polynomial(p: Polytope, budget: int | None = None) -> QuasiPolynomial:
    """Reconstruct the counting quasi-polynomial of p.

    For each residue r mod T (T = lcm of vertex coordinate denominators, a
    period bound) the counts at n = r + kT, k = 0..2d-1, come from one
    batched scan over all residues.  The degree-d constituent is fixed by
    the first d of them and its leading Newton coefficient, the integer
    volume d! T^d vol(P), and each of the d held-out counts must equal its
    Newton-form value; any mismatch aborts, since it would mean the kernel
    or the volume is wrong.  The period is then minimized.  The boxes of
    k = 2d are checked against the budget too, node by node in residue
    order, though never scanned, so a box over budget raises as when all
    2d + 1 nodes were counted.  More than _MAX_DILATIONS dilations raise
    ScaleExceeded before any node is listed.
    """
    d = p.dim
    T = vertex_denominator_lcm(p)
    m = 2 * d  # nodes scanned per residue
    if T * (m + 1) - 1 > _MAX_DILATIONS:
        raise ScaleExceeded(
            "reconstruction needs more dilations than the desk-scale cap",
            period=T, dilations=T * (m + 1) - 1, max_dilations=_MAX_DILATIONS,
        )
    nodes = [r + k * T for r in range(T) for k in range(m + 1)]
    boxes = dilation_boxes(p, nodes[1:], budget)  # nodes[0] is n = 0
    # k = 2d is exactly n >= 2dT
    counts = [1] + count_boxes(p, [box for box in boxes if box[0] < m * T])
    volume = integer_volume(p)
    if volume <= 0:
        raise InternalInconsistency("polytope volume is not positive", volume=volume)
    # a positive leading coefficient makes every constituent of degree d
    return QuasiPolynomial.from_constituents(
        [_constituent(r, T, d, volume, counts[r * m : r * m + m]) for r in range(T)]
    )


def _constituent(r: int, T: int, d: int, top: int, ys: list[int]) -> list[Fraction]:
    """The degree-d polynomial with top Newton coefficient top through
    (r + kT, ys[k]) for k < d, checked against ys[k] for d <= k < 2d.

    With Newton coefficients a_j = (forward difference)^j ys[0] for j < d and
    a_d = top, the value at node k is sum_j C(k, j) a_j, an integer, and the
    polynomial in n is sum_j a_j prod_{i<j} (n - r - iT) / (j! T^j), put over
    d! T^d.
    """
    newton, row = [], ys[:d]
    for _ in range(d):
        newton.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    newton.append(top)
    for k in range(d, 2 * d):
        got = sum(comb(k, j) * a for j, a in enumerate(newton))
        if got != ys[k]:
            raise ValidationFailed(
                "interpolant disagrees with a held-out count",
                residue=r,
                n=r + k * T,
                interpolated=Fraction(got),
                counted=ys[k],
            )
    coeffs = [0] * (d + 1)
    basis = [1]  # prod_{i<j} (n - r - iT), lowest power first
    for j, a in enumerate(newton):
        weight = a * (factorial(d) // factorial(j)) * T ** (d - j)
        for i, c in enumerate(basis):
            coeffs[i] += weight * c
        basis = _poly.times_linear(basis, -(r + j * T), 1)
    denominator = factorial(d) * T**d
    return [Fraction(c, denominator) for c in coeffs]


def evaluate(q: QuasiPolynomial, n: int) -> Fraction:
    """Exact evaluation at any integer, negative included."""
    return q.evaluate(n)


def is_quasi_lattice(p: Polytope, budget: int | None = None) -> bool:
    """True when the counting quasi-polynomial has minimal period 1."""
    return ehrhart_quasi_polynomial(p, budget).is_polynomial()


def reciprocity_check(p: Polytope, n_max: int, budget: int | None = None) -> bool:
    """Evaluate the reciprocity law q(-n) = (-1)^d * #(int(nP) meet Z^d)
    for 1 <= n <= n_max.  Failure indicates an implementation bug."""
    q = ehrhart_quasi_polynomial(p, budget)
    sign = (-1) ** p.dim
    return all(
        q.evaluate(-n) == sign * count_interior(p, n, budget) for n in range(1, n_max + 1)
    )


def hibi_symmetry_check(p: Polytope, n_max: int, budget: int | None = None) -> bool:
    """Hibi's palindromic criterion, computed two provably-equivalent ways.

    Count form:       L(n) == #(int((n+1)P) meet Z^d)   for 0 <= n <= n_max
    Quasi-poly form:  q(n) == (-1)^d q(-n-1)            on the same range

    The two formulations are tied together by reciprocity; a disagreement
    is an internal error, never a mathematical finding.
    """
    q = ehrhart_quasi_polynomial(p, budget)
    sign = (-1) ** p.dim
    count_form = all(
        count(p, n, budget) == count_interior(p, n + 1, budget) for n in range(0, n_max + 1)
    )
    qp_form = all(
        q.evaluate(n) == sign * q.evaluate(-n - 1) for n in range(0, n_max + 1)
    )
    if count_form != qp_form:
        raise InternalInconsistency(
            "count form and quasi-polynomial form of the symmetry test disagree",
            count_form=count_form,
            qp_form=qp_form,
        )
    return count_form


def hilbert_symmetry_check(q: QuasiPolynomial, d: int, n_max: int) -> bool:
    """For a genuine polynomial, test q(n) == (-1)^d q(-n-1) both on the
    sample range and as a coefficient identity of q(x) - (-1)^d q(-x-1).

    The identity decides.  The sampled values cross-check it: r(x) =
    q(x) - (-1)^d q(-x-1) satisfies r(-x-1) = -(-1)^d r(x), so zeros at
    0..n_max are zeros at -1..-n_max-1 too, and when those 2(n_max + 1) zeros
    outnumber the degree of q they force r = 0.  A disagreement that the
    identity or that count rules out is an internal error."""
    if q.period != 1:
        raise PeriodNotOne("symmetry test requires a genuine polynomial", period=q.period)
    sign = (-1) ** d
    values_ok = all(q.evaluate(n) == sign * q.evaluate(-n - 1) for n in range(0, n_max + 1))
    # denom*q has integer coefficients; Horner's rule on them gives denom*q(-x-1)
    coeffs = q.constituents[0]
    denom = lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (denom // c.denominator) for c in coeffs]
    reflected: list[int] = []
    for c in reversed(scaled):
        reflected = _poly.times_linear(reflected, -1, -1)
        reflected[0] += c
    identity_ok = reflected == [sign * c for c in scaled]
    if values_ok != identity_ok and (identity_ok or 2 * (n_max + 1) > q.degree):
        raise InternalInconsistency(
            "sampled values and coefficient identity of the symmetry test disagree",
            values_ok=values_ok,
            identity_ok=identity_ok,
        )
    return identity_ok
