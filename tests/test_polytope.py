import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_lattice_points
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
        from reflexpoly._linalg import rank

        for p in (dual_fano_triangle, sym_square):
            for v in p.vrep:
                tight = [
                    h.normal
                    for h in p.hrep
                    if sum(Fraction(c) * x for c, x in zip(h.normal, v)) == h.offset
                ]
                assert rank(tight) == p.dim


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


def _full_dim_hull(pts):
    try:
        return from_vrep(pts)
    except (LowerDimensional, InvalidInput):
        return None


def _center_at_origin(p):
    c = [sum(v[j] for v in p.vrep) / len(p.vrep) for j in range(p.dim)]
    return translate(p, tuple(-x for x in c))


@settings(max_examples=40, deadline=None)
@given(points_2d)
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
    # the hull of the facet points u/b is an independent construction
    assert dual == from_vrep([tuple(c / h.offset for c in h.normal) for h in q.hrep])
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
