"""Exact rational convex polytopes in canonical dual representation.

A polytope is stored with both descriptions at once:

  * ``hrep``: the irredundant facet list {x : <x, u> <= b} with primitive
    integer outward normals u and tight rational support values b, sorted
    lexicographically by normal;
  * ``vrep``: the exact vertex list, sorted lexicographically.

Canonical form makes equality of polytopes a structural comparison.  Only
full-dimensional bounded sets are first-class; everything else raises.  All
arithmetic is exact: both hull conversions run one integer double-description
routine (``_cone``) on a homogenized cone, and lattice-point scans solve each
last-axis fiber of the bounding box by integer floor division (see ``_scan``).

The combinatorics of a hull are read off the cone's incidence masks, with no
rank test: a polytope is full-dimensional exactly when no row is tight at
every vertex, and the facets (dually, the vertices) are the rows (points)
whose tight sets are nonempty and maximal by inclusion (Schrijver 1986,
section 8.2; Ziegler 1995, chapter 2).  Only the error path needs a rank, and
rank(M) = width - dim ker M is read off the lineality of ``_cone(M)``.

Supported desk scale is ambient dimension <= 4 with bounding boxes up to the
configurable enumeration budget (default 10^7 box points, env var
REFLEX_BUDGET).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _scan
from .errors import (
    CollapsedPolytope,
    EmptyInput,
    InvalidInput,
    LowerDimensional,
    NonPositiveFactor,
    OriginNotInterior,
    ScaleExceeded,
    UnboundedInput,
)
from .rationals import format_rational, format_vector, parse_rational, parse_vector

DEFAULT_BUDGET = 10_000_000

# input guard at the documented desk scale; the hull conversion itself
# takes well under a second at these caps in 4D
_MAX_HALFSPACES = 64
_MAX_POINTS = 64


def enumeration_budget(budget: int | None = None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get("REFLEX_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> <= offset} with a primitive integer normal."""

    normal: tuple[int, ...]
    offset: Fraction


@dataclass(frozen=True)
class LatticePointSet:
    points: tuple[tuple[int, ...], ...]
    count: int


class _IntegerForm(NamedTuple):
    """A polytope's scan data in integers: facet i is q_i <x, u_i> <= p_i,
    the vertices of LP are the integer points w = L v, and on axis j they
    span [lo_j, hi_j], with L the lcm of all vertex-coordinate denominators."""

    normals: tuple[tuple[int, ...], ...]
    nums: tuple[int, ...]
    dens: tuple[int, ...]
    denominator: int
    vertices: tuple[tuple[int, ...], ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def box(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The integer bounding box of the dilation nP, n >= 1."""
        L = self.denominator
        return tuple(-(-n * a // L) for a in self.lo), tuple(n * b // L for b in self.hi)


@dataclass(frozen=True)
class Polytope:
    dim: int
    hrep: tuple[HalfSpace, ...]
    vrep: tuple[tuple[Fraction, ...], ...]

    @functools.cached_property
    def _integer_form(self) -> _IntegerForm:
        """Built once per polytope; a cached property is not a field, so
        equality, hashing, repr and JSON do not see it."""
        L = math.lcm(*(c.denominator for v in self.vrep for c in v))
        vertices = tuple(tuple(c.numerator * (L // c.denominator) for c in v) for v in self.vrep)
        axes = list(zip(*vertices))
        return _IntegerForm(
            normals=tuple(h.normal for h in self.hrep),
            nums=tuple(h.offset.numerator for h in self.hrep),
            dens=tuple(h.offset.denominator for h in self.hrep),
            denominator=L,
            vertices=vertices,
            lo=tuple(map(min, axes)),
            hi=tuple(map(max, axes)),
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "hrep": [
                {"normal": list(h.normal), "offset": format_rational(h.offset)}
                for h in self.hrep
            ],
            "vrep": [format_vector(v) for v in self.vrep],
        }

    def __str__(self) -> str:
        facets = ", ".join(
            f"<x,{list(h.normal)}> <= {format_rational(h.offset)}" for h in self.hrep
        )
        return f"Polytope(dim={self.dim}, facets=[{facets}])"


# -- canonicalization internals ----------------------------------------------


def _normalize_halfspaces(halfspaces, dim: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Primitivize normals, scale offsets, drop trivial rows, dedupe parallels."""
    cleaned: dict[tuple[int, ...], Fraction] = {}
    for normal, offset in halfspaces:
        vec = parse_vector(normal)
        if len(vec) != dim:
            raise InvalidInput("normal length does not match dimension", normal=vec, dim=dim)
        b = parse_rational(offset)
        if all(c == 0 for c in vec):
            if b < 0:
                raise EmptyInput("constraint 0 <= negative is infeasible", offset=b)
            continue
        prim, scale = primitive_integer_vector(vec)
        b = b * scale
        if prim in cleaned:
            cleaned[prim] = min(cleaned[prim], b)
        else:
            cleaned[prim] = b
    return sorted(cleaned.items())


def _cone(rows: Sequence[Sequence[int]], width: int):
    """Extreme rays and a lineality basis of {x : <a, x> <= 0 for every row a}.

    Double description over the integers (Motzkin 1953; Fukuda & Prodon
    1996): rows are added one at a time to R^width.  Rays stay primitive,
    since two of them combine with positive integer weights and divide by
    their gcd.  Each ray carries the bitmask of rows it is tight on; two rays
    are adjacent when no third ray is tight on every row both are tight on.
    A lineality vector that a row does not vanish on becomes a ray.
    Returns (rays, masks, lineality): rays and lineality are lists of
    primitive integer tuples, and bit k of masks[i] is set exactly when
    rays[i] is tight on rows[k].  The lineality space is the kernel of the
    row matrix, so its length is width minus the rank of the rows.
    """
    lineality = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for k, a in enumerate(rows):
        bit = 1 << k
        dots = [_dot(a, l) for l in lineality]
        pivot = next((i for i, s in enumerate(dots) if s != 0), None)
        if pivot is not None:
            l, s = lineality.pop(pivot), dots.pop(pivot)
            sign = 1 if s > 0 else -1
            lineality = [
                m if d == 0 else _primitive([s * x - d * y for x, y in zip(m, l)])
                for m, d in zip(lineality, dots)
            ]
            rays = [
                _primitive([abs(s) * x - sign * e * y for x, y in zip(r, l)])
                for r, e in zip(rays, [_dot(a, r) for r in rays])
            ]
            masks = [z | bit for z in masks]
            rays.append(tuple(-sign * y for y in l))
            masks.append(bit - 1)
            continue
        values = [_dot(a, r) for r in rays]
        pos = [i for i, e in enumerate(values) if e > 0]
        neg = [i for i, e in enumerate(values) if e < 0]
        tight_needed = width - len(lineality) - 2
        new_rays = [r for r, e in zip(rays, values) if e <= 0]
        new_masks = [z | bit if e == 0 else z for z, e in zip(masks, values) if e <= 0]
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if common.bit_count() < tight_needed:
                    continue
                if sum(z & common == common for z in masks) > 2:
                    continue
                wi, wj = -values[j], values[i]
                new_rays.append(_primitive([wi * x + wj * y for x, y in zip(rays[i], rays[j])]))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays, masks, lineality


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(p * q for p, q in zip(a, x))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """(u, s) with u = s * vec the primitive integer vector of a nonzero
    Fraction vector, and s > 0: with q the lcm of the denominators, q * vec
    is an integer vector w, and s = q / gcd(w)."""
    q = math.lcm(*(x.denominator for x in vec))
    w = [x.numerator * (q // x.denominator) for x in vec]
    g = math.gcd(*w)
    return tuple(c // g for c in w), Fraction(q, g)


def _incidence(masks: Sequence[int], bits: range) -> list[int]:
    """For each row bit k, the bitmask of the rays whose masks hold bit k."""
    return [sum(1 << i for i, z in enumerate(masks) if z >> k & 1) for k in bits]


def _maximal(sets: Sequence[int]) -> list[bool]:
    """Which bitmask sets are strictly inside no other set (an empty set is
    inside any nonempty one, so a maximal set is nonempty unless all are)."""
    return [not any(o != t and o & t == t for o in sets) for t in sets]


def _assemble(dim: int, vertices, facets) -> Polytope:
    return Polytope(
        dim=dim,
        hrep=tuple(facets),
        vrep=tuple(sorted(tuple(v) for v in vertices)),
    )


# -- constructors --------------------------------------------------------------


def from_hrep(halfspaces, dim: int) -> Polytope:
    """Canonical polytope from halfspaces (rational normal vector, offset).

    Raises EmptyInput / UnboundedInput / LowerDimensional when the
    intersection is not a full-dimensional bounded polytope.
    """
    if not halfspaces:
        raise InvalidInput("need at least one halfspace")
    if len(halfspaces) > _MAX_HALFSPACES:
        raise InvalidInput("too many halfspaces for desk scale", count=len(halfspaces))
    rows = _normalize_halfspaces(halfspaces, dim)
    if not rows:
        raise UnboundedInput("no effective constraints")
    # the cone over P x {1}: (x, t) with <q u, x> <= p t and t >= 0
    homogenized = [(0,) * dim + (-1,)]
    homogenized += [tuple(b.denominator * c for c in u) + (-b.numerator,) for u, b in rows]
    rays, masks, lineality = _cone(homogenized, dim + 1)
    if not any(r[-1] > 0 for r in rays):
        raise EmptyInput("halfspace intersection is infeasible")
    if lineality:
        raise UnboundedInput("constraint normals do not span the space")
    recession = [r[:-1] for r in rays if r[-1] == 0]
    if recession:
        raise UnboundedInput("recession direction found", direction=min(recession))
    # every ray is now a vertex; bit k + 1 of a mask is rows[k]
    tight = _incidence(masks, range(1, len(rows) + 1))
    if (1 << len(rays)) - 1 in tight:
        # the affine rank of the vertices is the rank of their rays minus one
        rank = dim - len(_cone(rays, dim + 1)[2])
        raise LowerDimensional("intersection is not full-dimensional", rank=rank)
    vertices = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays]
    facets = [HalfSpace(*row) for row, keep in zip(rows, _maximal(tight)) if keep]
    return _assemble(dim, vertices, facets)


def from_vrep(points) -> Polytope:
    """Canonical polytope as the convex hull of rational points.

    Non-vertex points are discarded; a hull of deficient dimension raises
    LowerDimensional.
    """
    pts = [parse_vector(p) for p in points]
    if not pts:
        raise InvalidInput("need at least one point")
    if len(pts) > _MAX_POINTS:
        raise InvalidInput("too many points for desk scale", count=len(pts))
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InvalidInput("points have mixed dimensions")
    if dim == 0:
        raise InvalidInput("points need at least one coordinate")
    pts = list(dict.fromkeys(pts))

    # the valid inequalities <x, u> <= b are the cone of (u, b) with
    # <q v, u> - q b <= 0 for each point v (q the lcm of its denominators);
    # it has lineality exactly when the points lie on a hyperplane, and
    # otherwise its extreme rays are the facets
    homogenized = []
    for p in pts:
        q = math.lcm(*(x.denominator for x in p))
        homogenized.append(tuple(int(x * q) for x in p) + (-q,))
    rays, masks, lineality = _cone(homogenized, dim + 1)
    if lineality:
        raise LowerDimensional("convex hull is not full-dimensional")
    facets = []
    for r in rays:
        g = math.gcd(*r[:-1])
        facets.append(HalfSpace(tuple(c // g for c in r[:-1]), Fraction(r[-1], g)))
    facets.sort(key=lambda h: h.normal)
    keep = _maximal(_incidence(masks, range(len(pts))))
    return _assemble(dim, [p for p, k in zip(pts, keep) if k], facets)


def from_json(obj: dict) -> Polytope:
    """Rebuild a polytope from its JSON form; hrep is preferred, and when
    both representations are given they must describe the same set."""
    if not isinstance(obj, dict):
        raise InvalidInput("polytope JSON must be an object")
    hrep = obj.get("hrep")
    vrep = obj.get("vrep")
    dim = obj.get("dim")
    if hrep and not (isinstance(hrep, list) and all(isinstance(h, dict) for h in hrep)):
        raise InvalidInput("polytope JSON 'hrep' must be a list of objects")
    if vrep and not isinstance(vrep, list):
        raise InvalidInput("polytope JSON 'vrep' must be a list of points")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int)):
        raise InvalidInput("polytope JSON 'dim' must be an integer", dim=dim)
    if hrep:
        if dim is None:
            dim = len(parse_vector(hrep[0]["normal"]))
        poly = from_hrep([(h["normal"], h["offset"]) for h in hrep], dim)
        if vrep:
            given = sorted(parse_vector(v) for v in vrep)
            if tuple(given) != poly.vrep:
                raise InvalidInput("hrep and vrep describe different polytopes")
        return poly
    if vrep:
        poly = from_vrep(vrep)
        if dim is not None and poly.dim != dim:
            raise InvalidInput("dim field does not match vertex length")
        return poly
    raise InvalidInput("polytope JSON needs 'hrep' or 'vrep'")


def parse_integer_vector(values, message: str, key: str) -> tuple[int, ...]:
    """parse_vector for integer vectors: an entry that is not an integer
    raises InvalidInput(message) with the parsed vector as context[key]."""
    vec = parse_vector(values)
    if any(c.denominator != 1 for c in vec):
        raise InvalidInput(message, **{key: vec})
    return tuple(c.numerator for c in vec)


# -- elementary operations -----------------------------------------------------


def polar_dual(p: Polytope) -> Polytope:
    """{y : <x, y> <= 1 on p}, read off p's canonical form with no hull: each
    facet <x, u> <= b gives the vertex u/b, each vertex v the facet <y, v> <= 1
    made primitive.  Requires 0 strictly interior, which makes both exact.
    With b = n/q, the vertex coordinate c/b is built once as (c q)/n."""
    if any(h.offset <= 0 for h in p.hrep):
        raise OriginNotInterior(
            "polar dual needs 0 in the interior; translate first",
            offsets=[h.offset for h in p.hrep],
        )
    vertices = [
        tuple(Fraction(c * h.offset.denominator, h.offset.numerator) for c in h.normal)
        for h in p.hrep
    ]
    facets = [HalfSpace(*primitive_integer_vector(v)) for v in p.vrep]
    return _assemble(p.dim, vertices, sorted(facets, key=lambda h: h.normal))


def translate(p: Polytope, v) -> Polytope:
    """Shift by a rational vector: vertices move, offsets gain <v, u>.  An
    integral shift runs on its numerators, so each output is Fraction + int."""
    vec = parse_vector(v)
    if len(vec) != p.dim:
        raise InvalidInput("translation vector has wrong length")
    if all(c.denominator == 1 for c in vec):
        vec = tuple(c.numerator for c in vec)
    hrep = tuple(
        HalfSpace(h.normal, h.offset + sum(c * x for c, x in zip(h.normal, vec)))
        for h in p.hrep
    )
    vrep = tuple(tuple(a + b for a, b in zip(vertex, vec)) for vertex in p.vrep)
    return Polytope(p.dim, hrep, vrep)


def dilate(p: Polytope, factor) -> Polytope:
    """Scale by a positive rational: vertices and offsets multiply."""
    f = parse_rational(factor)
    if f <= 0:
        raise NonPositiveFactor("dilation factor must be positive", factor=f)
    hrep = tuple(HalfSpace(h.normal, h.offset * f) for h in p.hrep)
    vrep = tuple(tuple(x * f for x in vertex) for vertex in p.vrep)
    return Polytope(p.dim, hrep, vrep)


def round_down(p: Polytope) -> Polytope:
    """Floor every canonical support value; collapse is an explicit error."""
    rows = [(h.normal, Fraction(math.floor(h.offset))) for h in p.hrep]
    try:
        return from_hrep(rows, p.dim)
    except (EmptyInput, LowerDimensional) as exc:
        raise CollapsedPolytope(
            "round-down emptied or flattened the polytope", cause=type(exc).__name__
        ) from exc


def round_up(p: Polytope) -> Polytope:
    """Ceil every canonical support value (always contains the original)."""
    rows = [(h.normal, Fraction(math.ceil(h.offset))) for h in p.hrep]
    return from_hrep(rows, p.dim)


def normal_fan_rays(p: Polytope) -> list[tuple[tuple[int, ...], Fraction]]:
    """The rays of the normal fan with their support values: the canonical
    (primitive normal, tight offset) pairs."""
    return [(h.normal, h.offset) for h in p.hrep]


# -- lattice points --------------------------------------------------------------


def vertex_denominator_lcm(p: Polytope) -> int:
    """The lcm of all vertex-coordinate denominators, a period of the
    lattice-point counting quasi-polynomial."""
    return p._integer_form.denominator


def integer_bounding_box(p: Polytope) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return p._integer_form.box(1)


def _check_budget(lo, hi, budget) -> None:
    vol = _scan._box_volume(lo, hi)
    limit = enumeration_budget(budget)
    if vol > limit:
        raise ScaleExceeded("bounding box exceeds enumeration budget", box=vol, budget=limit)


def lattice_points(p: Polytope, strict: bool = False, budget: int | None = None) -> LatticePointSet:
    """All integer points of p (strict: of its interior), in lex order."""
    form = p._integer_form
    lo, hi = form.box(1)
    _check_budget(lo, hi, budget)
    pts = _scan.scan_collect(lo, hi, form.normals, form.nums, form.dens, strict)
    return LatticePointSet(points=tuple(pts), count=len(pts))


def count_lattice_points(p: Polytope, strict: bool = False, budget: int | None = None) -> int:
    """Like lattice_points but without materializing the point list."""
    return count_dilations(p, [1], strict, budget)[0]


def count_dilations(
    p: Polytope, ns: Sequence[int], strict: bool = False, budget: int | None = None
) -> list[int]:
    """#(nP meet Z^d) (strict: of its interior) for each n >= 1 of ns, in one
    scan of the integer form.  Every box is checked against the budget, in
    the order of ns, before any is scanned."""
    return count_boxes(p, dilation_boxes(p, ns, budget), strict)


def dilation_boxes(p: Polytope, ns: Sequence[int], budget: int | None = None):
    """(n, lo, hi) for each n >= 1 of ns, [lo, hi] the integer bounding box of
    nP, each box checked against the budget in the order of ns."""
    form = p._integer_form
    limit = enumeration_budget(budget)
    batch = []
    for n in ns:
        lo, hi = form.box(n)
        _check_budget(lo, hi, limit)
        batch.append((n, lo, hi))
    return batch


def count_boxes(p: Polytope, batch, strict: bool = False) -> list[int]:
    """The count of each (n, lo, hi) of dilation_boxes, in one kernel call."""
    form = p._integer_form
    return _scan.scan_counts(batch, form.normals, form.nums, form.dens, strict)


def integer_volume(p: Polytope) -> int:
    """d! L^d vol(P), L = vertex_denominator_lcm(p): the normalized volume of
    LP, whose vertices w = L v are integer points.

    It is the sum of |det(w_j - w_0)| over the simplices of a pulling
    triangulation (Bueler, Enge & Fukuda 2000; De Loera, Rambau & Santos
    2010, section 4.3): each face is coned from its first vertex over those
    of its facets that miss it, down to the edges.  The faces are vertex
    bitmasks read off the integer form: w is on facet i exactly when
    q_i <u_i, w> = L p_i, and the facets of a face are its inclusion-maximal
    proper intersections with the facets of P."""
    form = p._integer_form
    L, ws = form.denominator, form.vertices
    facets = [
        sum(1 << j for j, w in enumerate(ws) if q * _dot(u, w) == L * b)
        for u, b, q in zip(form.normals, form.nums, form.dens)
    ]

    def pulled(face: int, k: int) -> list[tuple[int, ...]]:
        # the simplices, as vertex indices, of the k-face with these vertices
        apex = (face & -face).bit_length() - 1
        if k == 1:  # an edge: its other vertex is its one facet missing apex
            return [(apex, face.bit_length() - 1)]
        cuts = list({face & f for f in facets} - {face})
        return [
            (apex,) + simplex
            for cut, keep in zip(cuts, _maximal(cuts))
            if keep and not cut >> apex & 1
            for simplex in pulled(cut, k - 1)
        ]

    total = 0
    for apex, *rest in pulled((1 << len(ws)) - 1, p.dim):
        w0 = ws[apex]
        total += abs(_det([[a - b for a, b in zip(ws[j], w0)] for j in rest]))
    return total


def _det(rows: list[list[int]]) -> int:
    """The determinant of a nonsingular square integer matrix up to sign, by
    Bareiss's fraction-free elimination: every division is exact.  A simplex
    of a triangulation is full-dimensional, so every column has a pivot."""
    m, prev = rows, 1
    for k in range(len(m) - 1):
        pivot = next(i for i in range(k, len(m)) if m[i][k])
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        for row in m[k + 1 :]:
            head = row[k]
            row[k + 1 :] = [(x * top[k] - head * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = top[k]
    return m[-1][-1]


def count_in_box(halfspaces, lo, hi, strict: bool = False, budget: int | None = None) -> int:
    """Count integer points of an arbitrary halfspace system over an explicit
    box.  Unlike the Polytope constructors this accepts empty or
    lower-dimensional solution sets; the caller owns the box.  Normals and
    box corners must be integer vectors: nothing is truncated."""
    lo = parse_integer_vector(lo, "box corners must be integer vectors", "lo")
    hi = parse_integer_vector(hi, "box corners must be integer vectors", "hi")
    _check_budget(lo, hi, budget)
    normals, nums, dens = [], [], []
    for normal, offset in halfspaces:
        normals.append(parse_integer_vector(normal, "normals must be integer vectors", "normal"))
        b = parse_rational(offset)
        nums.append(b.numerator)
        dens.append(b.denominator)
    return _scan.scan_counts([(1, lo, hi)], normals, nums, dens, strict)[0]
