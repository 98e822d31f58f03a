"""Independent brute-force oracles for the test suite.

Deliberately naive and Fraction-only: these share no code with the package's
scan backends or reconstruction routines, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def brute_lattice_points(poly, n=1, strict=False) -> list[tuple[int, ...]]:
    """Integer points of the n-th dilation by direct membership testing."""
    n = Fraction(n)
    los = [math.ceil(n * min(v[j] for v in poly.vrep)) for j in range(poly.dim)]
    his = [math.floor(n * max(v[j] for v in poly.vrep)) for j in range(poly.dim)]
    found = []
    for x in itertools.product(*[range(a, b + 1) for a, b in zip(los, his)]):
        ok = True
        for h in poly.hrep:
            val = sum(Fraction(c) * xi for c, xi in zip(h.normal, x))
            bound = n * h.offset
            if (strict and val >= bound) or (not strict and val > bound):
                ok = False
                break
        if ok:
            found.append(x)
    return found


def brute_count(poly, n=1, strict=False) -> int:
    if n == 0 and not strict:
        return 1
    return len(brute_lattice_points(poly, n, strict))


def brute_scan(lo, hi, normals, offsets, strict=False) -> list[tuple[int, ...]]:
    """Integer points x of the box [lo, hi] with <x, u> <= b (strictly, when
    asked) for every normal u and offset b, by testing each box point."""
    bounds = [(tuple(Fraction(c) for c in u), Fraction(b)) for u, b in zip(normals, offsets)]
    found = []
    for x in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        vals = [(sum(c * xi for c, xi in zip(u, x)), b) for u, b in bounds]
        if all(v < b if strict else v <= b for v, b in vals):
            found.append(x)
    return found


def _order_convex_polygon(points, center=None):
    """Vertices of a convex polygon in counterclockwise order around an
    interior point, using exact cross-product comparisons (no angles)."""
    pts = list(points)
    if center is None:
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
    else:
        cx, cy = center

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return sorted(pts, key=functools.cmp_to_key(cmp))


def _shoelace(ordered) -> Fraction:
    total = Fraction(0)
    k = len(ordered)
    for i in range(k):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % k]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def euclidean_volume(poly) -> Fraction:
    """Exact volume by facet decomposition, dimensions 1-3."""
    if poly.dim == 1:
        xs = [v[0] for v in poly.vrep]
        return max(xs) - min(xs)
    if poly.dim == 2:
        return _shoelace(_order_convex_polygon(poly.vrep))
    if poly.dim == 3:
        c = tuple(
            sum(v[j] for v in poly.vrep) / len(poly.vrep) for j in range(3)
        )
        total = Fraction(0)
        for h in poly.hrep:
            tight = [
                v
                for v in poly.vrep
                if sum(Fraction(u) * x for u, x in zip(h.normal, v)) == h.offset
            ]
            k = max(range(3), key=lambda j: abs(h.normal[j]))
            proj = [tuple(x for j, x in enumerate(v) if j != k) for v in tight]
            area_proj = _shoelace(_order_convex_polygon(proj))
            height_scaled = h.offset - sum(
                Fraction(u) * x for u, x in zip(h.normal, c)
            )
            total += height_scaled * area_proj / abs(h.normal[k])
        return total / 3
    raise ValueError("volume oracle covers dimensions 1-3 only")
