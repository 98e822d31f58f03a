import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import _rank, brute_hull_from_hrep, brute_hull_from_vrep, brute_lattice_points
from reflexpoly import polytope as polytope_module
from reflexpoly import (
    HalfSpace,
    count_lattice_points,
    dilate,
    from_hrep,
    from_json,
    from_vrep,
    lattice_points,
    normal_fan_rays,
    polar_dual,
    round_down,
    round_up,
    translate,
)
from reflexpoly.errors import (
    CollapsedPolytope,
    EmptyInput,
    InvalidInput,
    LowerDimensional,
    NonPositiveFactor,
    OriginNotInterior,
    ReflexError,
    ScaleExceeded,
    UnboundedInput,
)


class TestFromHrep:
    def test_reflexive_triangle(self, reflexive_triangle):
        assert reflexive_triangle.vrep == (
            (Fraction(-1), Fraction(-1)),
            (Fraction(-1), Fraction(1)),
            (Fraction(2), Fraction(-1)),
        )

    def test_unit_interval(self, unit_interval):
        assert unit_interval.vrep == ((Fraction(0),), (Fraction(1),))
        assert [h.normal for h in unit_interval.hrep] == [(-1,), (1,)]

    def test_normal_primitivization(self):
        p = from_hrep([((-1, 0), 2), ((0, -1), 2), ((4, 6), 2)], 2)
        assert [(h.normal, h.offset) for h in p.hrep] == [
            ((-1, 0), 2),
            ((0, -1), 2),
            ((2, 3), 1),
        ]
        assert (Fraction(-2), Fraction(5, 3)) in p.vrep

    def test_redundant_halfspace_dropped(self):
        p = from_hrep([((-1, 0), 1), ((0, -1), 1), ((1, 1), 1), ((1, 0), 5)], 2)
        assert len(p.hrep) == 3

    def test_slack_offset_tightened(self):
        # facet-supporting input with a non-tight parallel duplicate
        p = from_hrep([((-1, 0), 0), ((0, -1), 0), ((1, 1), 1), ((1, 1), 7)], 2)
        assert [(h.normal, h.offset) for h in p.hrep] == [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 1), 1),
        ]

    def test_unbounded(self):
        with pytest.raises(UnboundedInput):
            from_hrep([((-1, 0), 1), ((0, -1), 1)], 2)

    def test_unbounded_with_vertex(self):
        with pytest.raises(UnboundedInput):
            from_hrep([((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)], 2)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            from_hrep([((1,), 0), ((-1,), -1)], 1)

    def test_empty_rank_deficient(self):
        with pytest.raises(EmptyInput):
            from_hrep([((1, 0), 0), ((-1, 0), -1)], 2)

    def test_lower_dimensional(self):
        with pytest.raises(LowerDimensional):
            from_hrep([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)], 2)

    def test_rational_input_normals(self):
        p = from_hrep(
            [((Fraction(1, 2), 0), 1), ((Fraction(-1, 2), 0), 0), ((0, 1), 1), ((0, -1), 0)],
            2,
        )
        assert [h.normal for h in p.hrep] == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert [h.offset for h in p.hrep] == [0, 0, 1, 2]


class TestFromVrep:
    def test_dual_figure_triangle(self):
        p = from_vrep([(-1, 0), (0, -1), (2, 3)])
        assert len(p.hrep) == 3
        assert p.vrep == (
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
            (Fraction(2), Fraction(3)),
        )

    def test_single_point_rejected(self):
        with pytest.raises(LowerDimensional):
            from_vrep([(0,)])

    def test_zero_length_points_rejected(self):
        with pytest.raises(InvalidInput):
            from_vrep([()])

    def test_interior_point_discarded(self):
        p = from_vrep([(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert len(p.vrep) == 3

    def test_midpoint_of_edge_discarded(self):
        p = from_vrep([(0, 0), (2, 0), (1, 0), (0, 2)])
        assert (Fraction(1), Fraction(0)) not in p.vrep

    def test_round_trip_with_hrep(self, reflexive_triangle):
        assert from_vrep(reflexive_triangle.vrep) == reflexive_triangle


class TestPolarDual:
    def test_square_to_cross(self, sym_square):
        dual = polar_dual(sym_square)
        assert dual.vrep == (
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        )

    @pytest.mark.parametrize(
        "abc, expected",
        [
            ((1, 3), ((-1, 0), (0, -1), (1, 3))),
            ((3, 3), ((-1, 0), (0, -1), (3, 3))),
        ],
    )
    def test_reference_duals(self, abc, expected):
        a, b = abc
        p = from_hrep([((-1, 0), 1), ((0, -1), 1), ((a, b), 1)], 2)
        assert polar_dual(p).vrep == tuple(
            (Fraction(x), Fraction(y)) for x, y in expected
        )

    def test_origin_not_interior(self, unit_square):
        with pytest.raises(OriginNotInterior):
            polar_dual(unit_square)

    def test_involution(self, reflexive_triangle, sym_square):
        for p in (reflexive_triangle, sym_square):
            assert polar_dual(polar_dual(p)) == p

    def test_scaling_identity(self, sym_square):
        assert polar_dual(dilate(sym_square, 2)) == dilate(
            polar_dual(sym_square), Fraction(1, 2)
        )

    def test_face_count_duality(self, dual_fano_triangle):
        dual = polar_dual(dual_fano_triangle)
        assert len(dual.vrep) == len(dual_fano_triangle.hrep)
        assert len(dual.hrep) == len(dual_fano_triangle.vrep)


class TestTranslateDilate:
    def test_translate_segment(self, unit_interval):
        t = translate(unit_interval, (Fraction(-1, 2),))
        assert t.vrep == ((Fraction(-1, 2),), (Fraction(1, 2),))

    def test_translate_identity(self, reflexive_triangle):
        assert translate(reflexive_triangle, (0, 0)) == reflexive_triangle

    def test_translate_offsets(self, reflexive_triangle):
        t = translate(reflexive_triangle, (1, 1))
        assert [(h.normal, h.offset) for h in t.hrep] == [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((2, 3), 6),
        ]

    def test_translate_matches_canonical_rebuild(self, reflexive_triangle):
        t = translate(reflexive_triangle, (Fraction(1, 3), -2))
        assert t == from_vrep(t.vrep)

    def test_dilate(self, unit_interval, reflexive_triangle):
        assert dilate(unit_interval, 3).vrep == ((Fraction(0),), (Fraction(3),))
        assert dilate(reflexive_triangle, 1) == reflexive_triangle
        assert dilate(dilate(reflexive_triangle, 2), Fraction(1, 2)) == reflexive_triangle

    def test_dilate_matches_canonical_rebuild(self, dual_integral_triangle):
        d = dilate(dual_integral_triangle, Fraction(5, 7))
        assert d == from_vrep(d.vrep)

    def test_dilate_nonpositive(self, unit_interval):
        with pytest.raises(NonPositiveFactor):
            dilate(unit_interval, 0)


class TestRounding:
    def test_round_down_collapse(self, half_segment):
        with pytest.raises(CollapsedPolytope):
            round_down(half_segment)

    def test_round_down_empty(self):
        seg = from_hrep([((-1,), Fraction(-1, 4)), ((1,), Fraction(1, 2))], 1)
        with pytest.raises(CollapsedPolytope):
            round_down(seg)

    def test_round_down_triangle(self, dual_integral_triangle):
        rd = round_down(dual_integral_triangle)
        assert [(h.normal, h.offset) for h in rd.hrep] == [
            ((-1, 0), 1),
            ((0, -1), 1),
            ((1, 1), 0),
        ]

    def test_round_up(self, half_segment):
        assert round_up(half_segment).vrep == ((Fraction(0),), (Fraction(1),))


class TestLatticePoints:
    def test_reference_counts(self, reflexive_triangle):
        assert lattice_points(reflexive_triangle).count == 7
        interior = lattice_points(reflexive_triangle, strict=True)
        assert interior.points == ((0, 0),)

    def test_unit_square(self, unit_square):
        assert lattice_points(unit_square).count == 4

    def test_lex_order(self, reflexive_triangle):
        pts = lattice_points(reflexive_triangle).points
        assert list(pts) == sorted(pts)

    def test_against_brute_force(self, reflexive_triangle, dual_integral_triangle, half_segment):
        for p in (reflexive_triangle, dual_integral_triangle, half_segment):
            for strict in (False, True):
                assert list(lattice_points(p, strict).points) == brute_lattice_points(
                    p, 1, strict
                )

    def test_integer_translation_invariance(self, dual_integral_triangle):
        t = translate(dual_integral_triangle, (4, -7))
        assert count_lattice_points(t) == count_lattice_points(dual_integral_triangle)

    def test_budget(self, reflexive_triangle):
        with pytest.raises(ScaleExceeded):
            lattice_points(dilate(reflexive_triangle, 1000), budget=100)

    def test_budget_env_override(self, reflexive_triangle, monkeypatch):
        monkeypatch.setenv("REFLEX_BUDGET", "100")
        with pytest.raises(ScaleExceeded):
            lattice_points(dilate(reflexive_triangle, 1000))
        monkeypatch.setenv("REFLEX_BUDGET", "10000000")
        assert lattice_points(reflexive_triangle).count == 7

    def test_every_vertex_on_d_independent_facets(self, dual_fano_triangle, sym_square):
        for p in (dual_fano_triangle, sym_square):
            for v in p.vrep:
                tight = [
                    h.normal
                    for h in p.hrep
                    if sum(Fraction(c) * x for c, x in zip(h.normal, v)) == h.offset
                ]
                assert _rank(tight, p.dim) == p.dim


class TestFourDimensional:
    def test_hypercube_duality_and_counts(self):
        cube = from_hrep(
            [(tuple(s if j == i else 0 for j in range(4)), 1) for i in range(4) for s in (1, -1)],
            4,
        )
        assert len(cube.vrep) == 16
        cross = polar_dual(cube)
        assert len(cross.vrep) == 8 and len(cross.hrep) == 16
        assert polar_dual(cross) == cube
        assert count_lattice_points(cube) == 81
        assert lattice_points(cube, strict=True).points == ((0, 0, 0, 0),)

    def test_edge_midpoint_discarded(self):
        # the midpoint lies on three facets whose normals have rank 3, one
        # short of a vertex
        cube = [tuple(2 * ((k >> j) & 1) for j in range(4)) for k in range(16)]
        p = from_vrep(cube + [(1, 0, 0, 0)])
        assert p == from_vrep(cube) and len(p.vrep) == 16

    def test_point_on_an_edge_of_two_non_adjacent_facets(self):
        # (1, 1, 0, 0) puts three points on the edge shared by the facets
        # x1 + x2 + x3 + x4 <= 2 and x1 + x2 - x3 - x4 <= 2; the last point
        # cuts off only the first, and the two facets must not be combined
        cross = [tuple(s * 2 * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
        apex = (Fraction(3, 5),) * 4
        p = from_vrep(cross + [(1, 1, 0, 0), apex])
        assert p == from_vrep(cross + [apex])
        assert len(p.vrep) == 9

    def test_halfspace_on_a_two_face_dropped(self):
        # x1 + x2 <= 2 touches the cube only in the square x1 = x2 = 1
        rows = [(tuple(s if j == i else 0 for j in range(4)), 1) for i in range(4) for s in (1, -1)]
        cube = from_hrep(rows, 4)
        assert from_hrep(rows + [((1, 1, 0, 0), 2)], 4) == cube


class TestNormalFanRays:
    def test_square(self, sym_square):
        assert normal_fan_rays(sym_square) == [
            ((-1, 0), 1),
            ((0, -1), 1),
            ((0, 1), 1),
            ((1, 0), 1),
        ]

    def test_dual_integral_triangle_rays(self, dual_integral_triangle):
        assert normal_fan_rays(dual_integral_triangle) == [
            ((-1, 0), 1),
            ((0, -1), 1),
            ((1, 1), Fraction(1, 3)),
        ]

    def test_half_segment(self, half_segment):
        assert normal_fan_rays(half_segment) == [((-1,), 0), ((1,), Fraction(1, 2))]


class TestJson:
    def test_round_trip(self, dual_integral_triangle):
        blob = json.dumps(dual_integral_triangle.to_json())
        assert from_json(json.loads(blob)) == dual_integral_triangle

    def test_offset_strings(self, dual_integral_triangle):
        obj = dual_integral_triangle.to_json()
        assert obj["hrep"][2]["offset"] == "1/3"
        assert obj["vrep"][0] == ["-1", "-1"]

    def test_vrep_only_input(self, reflexive_triangle):
        assert from_json({"vrep": [["-1", "-1"], ["-1", "1"], ["2", "-1"]]}) == reflexive_triangle

    def test_inconsistent_reps_rejected(self, reflexive_triangle):
        obj = reflexive_triangle.to_json()
        obj["vrep"][0] = ["-1", "0"]
        with pytest.raises(InvalidInput):
            from_json(obj)

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            from_json({"vrep": [[0.5, 1], [0, 0], [1, 0]]})


# -- randomized invariants ----------------------------------------------------

rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
points_2d = st.lists(st.tuples(rational, rational), min_size=3, max_size=6)
points_1d_to_3d = st.one_of(
    st.lists(st.tuples(rational), min_size=2, max_size=4),
    points_2d,
    st.lists(st.tuples(rational, rational, rational), min_size=4, max_size=7),
)
points_1d_to_4d = st.one_of(
    points_1d_to_3d,
    st.lists(st.tuples(rational, rational, rational, rational), min_size=5, max_size=8),
)


def _full_dim_hull(pts):
    try:
        return from_vrep(pts)
    except (LowerDimensional, InvalidInput):
        return None


def _center_at_origin(p):
    c = [sum(v[j] for v in p.vrep) / len(p.vrep) for j in range(p.dim)]
    return translate(p, tuple(-x for x in c))


def _canonical(p):
    """A polytope in the brute-force oracle's output form."""
    return ("ok", tuple((h.normal, h.offset) for h in p.hrep), p.vrep)


def _outcome(build, *args):
    try:
        return _canonical(build(*args))
    except ReflexError as exc:
        return (type(exc).__name__, exc.message)


def _dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(points_1d_to_4d)
def test_hull_vertex_facet_round_trip(pts):
    p = _full_dim_hull(pts)
    if p is None:
        return
    assert from_vrep(p.vrep) == p
    assert from_hrep([(h.normal, h.offset) for h in p.hrep], p.dim) == p


@settings(max_examples=40, deadline=None)
@given(points_1d_to_3d)
def test_polar_dual_properties(pts):
    p = _full_dim_hull(pts)
    if p is None:
        return
    q = _center_at_origin(p)
    dual = polar_dual(q)
    # the brute-force hull of the facet points u/b is an independent construction
    facet_points = [tuple(c / h.offset for c in h.normal) for h in q.hrep]
    assert _canonical(dual) == brute_hull_from_vrep(facet_points)
    assert polar_dual(dual) == q
    assert len(dual.vrep) == len(q.hrep)
    assert len(dual.hrep) == len(q.vrep)
    assert polar_dual(dilate(q, 3)) == dilate(dual, Fraction(1, 3))


@settings(max_examples=30, deadline=None)
@given(points_2d, st.integers(-3, 3), st.integers(-3, 3))
def test_lattice_count_oracle_and_translation(pts, zx, zy):
    p = _full_dim_hull(pts)
    if p is None:
        return
    assert list(lattice_points(p).points) == brute_lattice_points(p)
    assert count_lattice_points(translate(p, (zx, zy))) == count_lattice_points(p)


# -- hull conversion against the brute-force oracle ----------------------------

@st.composite
def hrep_inputs(draw):
    """Up to 10 halfspaces in 1-4D with normals in [-2, 2] and offsets p/q;
    half of the systems include a simplex x >= -a, sum(x) <= c, so that
    bounded polytopes occur in every dimension."""
    d = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-2, 2)] * d)
    offset = st.builds(Fraction, st.integers(-3, 6), st.integers(1, 4))
    rows = []
    if draw(st.booleans()):
        corner = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))
        rows = [(tuple(-int(i == j) for j in range(d)), draw(corner)) for i in range(d)]
        rows.append(((1,) * d, draw(corner)))
    rows += draw(st.lists(st.tuples(normal, offset), min_size=1, max_size=10 - len(rows)))
    return rows, d


@st.composite
def degenerate_hrep_inputs(draw):
    """A 2-4D box with integer bounds and cuts with normals in [-1, 1] and
    integer offsets, so that many facets meet at one vertex."""
    d = draw(st.integers(2, 4))
    rows = [
        (tuple(s * int(i == j) for j in range(d)), draw(st.integers(0, 2)))
        for i in range(d)
        for s in (-1, 1)
    ]
    cut = st.tuples(st.tuples(*[st.integers(-1, 1)] * d), st.integers(0, 3))
    rows += draw(st.lists(cut, min_size=1, max_size=10 - len(rows)))
    return rows, d


vrep_inputs = st.one_of(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[rational] * d), min_size=d, max_size=8)
    ),
    # points of a 3x3x3(x3) grid: collinear and coplanar subsets everywhere
    st.integers(3, 4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=d + 1, max_size=8)
    ),
)


def _box_rows(d, lo, hi):
    return [
        (tuple(s * int(i == j) for j in range(d)), b)
        for i in range(d)
        for s, b in ((-1, -lo), (1, hi))
    ]


def _cube(d, side):
    return [tuple(side * ((k >> j) & 1) for j in range(d)) for k in range(1 << d)]


def _midpoints(pairs):
    return [tuple(Fraction(a + b, 2) for a, b in zip(v, w)) for v, w in pairs]


# the fixed examples are weakly redundant rows, tight at one vertex or along
# an edge, and non-vertex boundary points: edge midpoints, facet centroids
@settings(max_examples=80, deadline=None)
@given(st.one_of(hrep_inputs(), degenerate_hrep_inputs()))
@example((_box_rows(2, 0, 1) + [((1, 1), 2)], 2))
@example((_box_rows(3, 0, 1) + [((1, 1, 0), 2)], 3))
@example((_box_rows(3, -1, 1) + [((Fraction(1, 2), Fraction(-1, 2), 0), 1)], 3))
@example((_box_rows(4, 0, 1) + [((1, 1, 1, 1), 4)], 4))
def test_from_hrep_matches_oracle(args):
    rows, d = args
    assert _outcome(from_hrep, rows, d) == brute_hull_from_hrep(rows, d)


@settings(max_examples=60, deadline=None)
@given(vrep_inputs)
@example(_cube(2, 2) + _midpoints([((0, 0), (2, 0)), ((2, 0), (2, 2)), ((0, 2), (2, 2))]))
@example([(0, 0), (3, 0), (0, 3), (1, 0), (2, 1), (0, Fraction(5, 2))])
@example(_cube(3, 2) + _midpoints([((0, 0, 0), (2, 0, 0)), ((2, 2, 0), (2, 2, 2))]))
@example(_cube(3, 2) + [(1, 1, 0), (1, 1, 2), (0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1)])
@example(_cube(4, 2) + [(1, 1, 1, 0), (2, 1, 1, 1), (1, 1, 0, 0), (1, 0, 2, 2)])
def test_from_vrep_matches_oracle(pts):
    assert _outcome(from_vrep, pts) == brute_hull_from_vrep(pts)


@pytest.mark.parametrize("d, r", [(d, r) for d in (3, 4) for r in range(d)])
def test_lower_dimensional_rank(d, r):
    """An r-dimensional box: x_0..x_{r-1} in [0, 1] and each later x_j pinned
    to x_0 + ... + x_{r-1}, so that the flat is not a coordinate subspace."""
    rows = _box_rows(r, 0, 1)
    rows = [(u + (0,) * (d - r), b) for u, b in rows]
    for j in range(r, d):
        u = tuple(-int(i < r) + int(i == j) for i in range(d))
        rows += [(u, 0), (tuple(-c for c in u), 0)]
    with pytest.raises(LowerDimensional) as info:
        from_hrep(rows, d)
    assert info.value.context == {"rank": r}
    assert brute_hull_from_hrep(rows, d) == ("LowerDimensional", info.value.message)


@st.composite
def recessive_hreps(draw):
    """Systems that hold the origin, span the space and recede along a drawn
    w: every normal u is flipped so that <w, u> <= 0."""
    d = draw(st.integers(1, 4))
    w = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=8))
    normals += [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rows = []
    for u in normals:
        if _dot(u, w) > 0:
            u = tuple(-c for c in u)
        rows.append((u, draw(st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)))))
    return rows, d


@settings(max_examples=40, deadline=None)
@given(recessive_hreps())
def test_recession_witness(args):
    rows, d = args
    with pytest.raises(UnboundedInput, match="recession direction found") as info:
        from_hrep(rows, d)
    w = info.value.context["direction"]
    assert len(w) == d and any(w) and math.gcd(*w) == 1
    assert all(_dot(u, w) <= 0 for u, _ in rows)


# -- metamorphic relations -----------------------------------------------------

@st.composite
def unimodular_affine_maps(draw, d):
    """(U, U^-T, z): U a product of elementary integer matrices (a shear
    row_i += c row_j, or a sign flip of row i), z an integer shift."""
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    m, m_inv_t = [r[:] for r in eye], [r[:] for r in eye]
    steps = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.sampled_from((-1, 1)))
    for i, j, c in draw(st.lists(steps, max_size=4)):
        if i == j:
            m[i] = [-x for x in m[i]]
            m_inv_t[i] = [-x for x in m_inv_t[i]]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            m_inv_t[j] = [a - c * b for a, b in zip(m_inv_t[j], m_inv_t[i])]
    z = draw(st.tuples(*[st.integers(-3, 3)] * d))
    return m, m_inv_t, z


def _mat_vec(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hull_commutes_with_unimodular_maps(data):
    p = _full_dim_hull(data.draw(points_1d_to_4d))
    if p is None:
        return
    m, m_inv_t, z = data.draw(unimodular_affine_maps(p.dim))

    def image_of(v):
        return tuple(a + b for a, b in zip(_mat_vec(m, v), z))

    image = from_vrep([image_of(v) for v in p.vrep])
    assert image.vrep == tuple(sorted(image_of(v) for v in p.vrep))
    facets = []
    for h in p.hrep:
        u = _mat_vec(m_inv_t, h.normal)
        facets.append((u, h.offset + _dot(u, z)))
    assert [(h.normal, h.offset) for h in image.hrep] == sorted(facets)
    assert from_hrep(facets, p.dim) == image
    for strict in (False, True):
        assert count_lattice_points(image, strict) == count_lattice_points(p, strict)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translate_matches_hull_of_shifted_vertices(data):
    """An integer shift given as ints or as Fractions, and a rational shift,
    each equal the canonical hull of the shifted vertices; repr compares the
    coordinate and offset types too, so an int cannot stand in for a
    Fraction."""
    p = _full_dim_hull(data.draw(points_1d_to_4d))
    if p is None:
        return
    z = data.draw(st.tuples(*[st.integers(-5, 5)] * p.dim))
    r = data.draw(st.tuples(*[rational] * p.dim))
    by_ints = translate(p, z)
    by_fractions = translate(p, tuple(Fraction(c) for c in z))
    rebuilt = from_vrep([tuple(a + b for a, b in zip(v, z)) for v in p.vrep])
    assert repr(by_ints) == repr(by_fractions) == repr(rebuilt)
    shifted = translate(p, r)
    assert repr(shifted) == repr(from_vrep([tuple(a + b for a, b in zip(v, r)) for v in p.vrep]))


# -- desk-scale caps -----------------------------------------------------------

def _sphere_cloud(seed, d, n, radius):
    """n integer points within 1/2 of the radius-r sphere."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        v = tuple(rng.randint(-radius, radius) for _ in range(d))
        if abs(math.sqrt(sum(c * c for c in v)) - radius) <= 0.5:
            pts.add(v)
    return sorted(pts)


def _sphere_halfspaces(seed, d, m):
    """m distinct primitive normals in [-3, 3]^d, each facet hyperplane at
    distance about 2 from the origin."""
    rng = random.Random(seed)
    rows = {}
    while len(rows) < m:
        u = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(u) and math.gcd(*u) == 1:
            rows[u] = math.isqrt(4 * sum(c * c for c in u))
    return sorted(rows.items())


def test_hull_at_desk_scale_caps():
    """The documented caps (64 points or halfspaces, d <= 4) in well under the
    bound; each round trip runs where the other side is within the caps."""
    start = time.perf_counter()
    hulls = [
        (from_vrep(pts), pts)
        for pts in (_sphere_cloud(1, 3, 64, 7), _sphere_cloud(2, 4, 40, 4))
    ]
    rows = _sphere_halfspaces(3, 4, 54)
    hulls.append((from_hrep(rows, 4), None))
    for p, pts in hulls:
        if pts is not None:
            assert all(_dot(h.normal, v) <= h.offset for h in p.hrep for v in pts)
        if len(p.hrep) <= 64:
            assert from_hrep([(h.normal, h.offset) for h in p.hrep], p.dim) == p
        if len(p.vrep) <= 64:
            assert from_vrep(p.vrep) == p
    assert [(len(p.hrep), len(p.vrep)) for p, _ in hulls] == [(93, 52), (130, 37), (52, 237)]
    assert time.perf_counter() - start < 10


class TestWorkCounts:
    """Each hull conversion runs the cone routine once, and the polar dual
    runs none: its facets and vertices are read off the known ones."""

    @pytest.fixture
    def cone_calls(self, monkeypatch):
        calls = []
        original = polytope_module._cone

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polytope_module, "_cone", counted)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_vrep(_sphere_cloud(1, 3, 64, 7)),
            lambda: from_vrep(_sphere_cloud(2, 4, 40, 4)),
            lambda: from_hrep(_sphere_halfspaces(3, 4, 54), 4),
            lambda: from_vrep([(-1, 0), (0, -1), (2, 3)]),
            lambda: from_hrep(_box_rows(4, -1, 1), 4),
        ],
        ids=["cap-3d-points", "cap-4d-points", "cap-4d-halfspaces", "triangle", "4-cube"],
    )
    def test_one_cone_per_hull_none_per_dual(self, cone_calls, build):
        p = build()
        assert len(cone_calls) == 1
        if len(p.hrep) <= 64:
            cone_calls.clear()
            from_hrep([(h.normal, h.offset) for h in p.hrep], p.dim)
            assert len(cone_calls) == 1
        if len(p.vrep) <= 64:
            cone_calls.clear()
            from_vrep(p.vrep)
            assert len(cone_calls) == 1
        cone_calls.clear()
        polar_dual(_center_at_origin(p))
        assert cone_calls == []
