"""Small exact linear algebra over Fraction for the polytope kernel.

Systems here are tiny (d <= 4 rows/columns at desk scale), so plain
Gaussian elimination with exact pivoting is both fast enough and free of
any rounding concern.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _as_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    mat = _as_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows) -> int:
    _, pivots = row_reduce(rows)
    return len(pivots)


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """Scale a nonzero rational vector by a positive rational into a primitive
    integer vector (gcd of entries 1).  Returns (primitive, scale) with
    primitive == scale * vec."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    den_lcm = 1
    for x in fracs:
        den_lcm = lcm(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints), Fraction(den_lcm, g)


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of a point set."""
    if not points:
        return -1
    base = points[0]
    diffs = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in points[1:]]
    return rank(diffs)
