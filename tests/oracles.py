"""Independent brute-force oracles for the test suite.

Deliberately naive and Fraction-only: these share no code with the package's
scan backends, hull conversion or reconstruction routines, so agreement is
meaningful.  ``unseeded_fit`` takes its counts from the caller; it checks
the reconstruction's use of the volume, not the counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def brute_box(poly, n=1) -> tuple[list[int], list[int]]:
    """The integer bounding box of the n-th dilation, from its vertices."""
    n = Fraction(n)
    los = [math.ceil(n * min(v[j] for v in poly.vrep)) for j in range(poly.dim)]
    his = [math.floor(n * max(v[j] for v in poly.vrep)) for j in range(poly.dim)]
    return los, his


def brute_lattice_points(poly, n=1, strict=False) -> list[tuple[int, ...]]:
    """Integer points of the n-th dilation by direct membership testing."""
    los, his = brute_box(poly, n)
    n = Fraction(n)
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


def unseeded_fit(values, d, T):
    """The quasi-polynomial fit from 2d + 1 nodes per residue, with no volume:
    values[n] is the count L(n) for 0 <= n < (2d+1)T.  For each residue r
    mod T the Newton form through the nodes r + kT, k = 0..d, is checked
    against k = d+1..2d.  Returns each residue's top Newton coefficient (the
    d-th forward difference) and its constituent as Fraction coefficients,
    lowest power first."""
    tops, constituents = [], []
    for r in range(T):
        ys = [values[r + k * T] for k in range(2 * d + 1)]
        newton, row = [], ys[: d + 1]
        for _ in range(d + 1):
            newton.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        for k in range(d + 1, 2 * d + 1):
            if sum(math.comb(k, j) * a for j, a in enumerate(newton)) != ys[k]:
                raise AssertionError(f"held-out count at n = {r + k * T} disagrees")
        # sum_j a_j C(k, j) with k = (n - r)/T, expanded in powers of n
        coeffs = [Fraction(0)] * (d + 1)
        basis = [Fraction(1)]
        for j, a in enumerate(newton):
            for i, c in enumerate(basis):
                coeffs[i] += a * c
            shift, scale = r + j * T, T * (j + 1)
            basis = [
                ((basis[i - 1] if i else 0) - shift * (basis[i] if i < len(basis) else 0)) / scale
                for i in range(len(basis) + 1)
            ]
        tops.append(newton[d])
        constituents.append(coeffs)
    return tops, constituents


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


# -- convex hull by subset enumeration ----------------------------------------
#
# Both directions return ("ok", hrep, vrep) with hrep the sorted
# (primitive normal, offset) pairs and vrep the sorted vertices, or
# (error class name, message) when the input is not a full-dimensional
# bounded polytope.


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def _echelon(rows, width):
    """Reduced row echelon form of a Fraction matrix: (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pick = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def _rank(rows, width) -> int:
    return len(_echelon(rows, width)[1])


def _affine_rank(points) -> int:
    base = points[0]
    return _rank([[a - b for a, b in zip(p, base)] for p in points[1:]], len(base))


def _kernel_line(rows, width):
    """The spanning vector of the kernel when the kernel is a line."""
    mat, pivots = _echelon(rows, width)
    if width - len(pivots) != 1:
        return None
    free = next(c for c in range(width) if c not in pivots)
    v = [Fraction(0)] * width
    v[free] = Fraction(1)
    for row, c in zip(mat, pivots):
        v[c] = -row[free]
    return v


def _solve(rows, rhs, width):
    """One solution of a consistent system rows x = rhs (free entries 0)."""
    mat, pivots = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], width + 1)
    x = [Fraction(0)] * width
    for row, c in zip(mat, pivots):
        x[c] = row[width]
    return tuple(x)


def _primitive(vec):
    """(primitive integer vector, positive scale) with vector == scale * vec."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints), Fraction(den, g)


def brute_hull_from_vrep(points):
    """Facets from every affinely independent d-subset whose hyperplane has
    all points on one side; vertices are the points on d independent facets."""
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    dim = len(pts[0])
    if _affine_rank(pts) < dim:
        return ("LowerDimensional", "convex hull is not full-dimensional")
    facets = {}
    for subset in itertools.combinations(pts, dim):
        base = subset[0]
        w = _kernel_line([[a - b for a, b in zip(p, base)] for p in subset[1:]], dim)
        if w is None:
            continue
        u, _ = _primitive(w)
        level = _dot(u, base)
        values = [_dot(u, p) for p in pts]
        if max(values) == level:
            facets[u] = level
        if min(values) == level:
            facets[tuple(-c for c in u)] = -level
    vertices = [
        p for p in pts
        if _rank([u for u, b in facets.items() if _dot(u, p) == b], dim) == dim
    ]
    return ("ok", tuple(sorted(facets.items())), tuple(sorted(vertices)))


def brute_hull_from_hrep(halfspaces, dim):
    """Minimal faces from every independent r-subset of the normals (r their
    rank) solved as equations; a recession ray from every (d-1)-subset."""
    rows = {}
    for normal, offset in halfspaces:
        offset = Fraction(offset)
        if all(c == 0 for c in normal):
            if offset < 0:
                return ("EmptyInput", "constraint 0 <= negative is infeasible")
            continue
        u, scale = _primitive(normal)
        rows[u] = min(rows.get(u, offset * scale), offset * scale)
    if not rows:
        return ("UnboundedInput", "no effective constraints")
    normals = sorted(rows)
    r = _rank(normals, dim)
    points = set()
    for subset in itertools.combinations(normals, r):
        if _rank(subset, dim) < r:
            continue
        x = _solve(subset, [rows[u] for u in subset], dim)
        if all(_dot(u, x) <= rows[u] for u in normals):
            points.add(x)
    if not points:
        return ("EmptyInput", "halfspace intersection is infeasible")
    if r < dim:
        return ("UnboundedInput", "constraint normals do not span the space")
    for subset in itertools.combinations(normals, dim - 1):
        w = _kernel_line(subset, dim)
        if w is None:
            continue
        for s in (w, [-x for x in w]):
            if all(_dot(s, u) <= 0 for u in normals):
                return ("UnboundedInput", "recession direction found")
    vertices = sorted(points)
    if _affine_rank(vertices) < dim:
        return ("LowerDimensional", "intersection is not full-dimensional")
    facets = []
    for u in normals:
        values = [_dot(u, v) for v in vertices]
        b = max(values)
        if _affine_rank([v for v, x in zip(vertices, values) if x == b]) == dim - 1:
            facets.append((u, b))
    return ("ok", tuple(facets), tuple(vertices))
