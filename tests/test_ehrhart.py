import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_box, brute_count, euclidean_volume, unseeded_fit
from reflexpoly import (
    QuasiPolynomial,
    count,
    count_interior,
    count_sequence,
    dilate,
    ehrhart_quasi_polynomial,
    evaluate,
    from_hrep,
    from_vrep,
    hibi_symmetry_check,
    hilbert_symmetry_check,
    is_quasi_lattice,
    reciprocity_check,
    round_down,
    round_up,
)
from reflexpoly.ehrhart import count_up_to, vertex_denominator_lcm
from reflexpoly.polytope import count_dilations, integer_bounding_box, integer_volume
from reflexpoly.errors import (
    CollapsedPolytope,
    InternalInconsistency,
    LowerDimensional,
    PeriodNotOne,
    ScaleExceeded,
    ValidationFailed,
)


class TestCounts:
    def test_half_segment_sequence(self, half_segment):
        assert [count(half_segment, n) for n in range(5)] == [1, 1, 2, 2, 3]

    def test_unit_square(self, unit_square):
        assert [count(unit_square, n) for n in range(4)] == [(n + 1) ** 2 for n in range(4)]

    def test_reflexive_triangle(self, reflexive_triangle):
        assert count(reflexive_triangle, 1) == 7
        assert count_interior(reflexive_triangle, 1) == 1

    def test_interior_square(self, unit_square):
        assert count_interior(unit_square, 1) == 0
        assert count_interior(unit_square, 2) == 1

    def test_count_validates_n(self, unit_square):
        with pytest.raises(ValueError):
            count(unit_square, -1)
        with pytest.raises(ValueError):
            count_interior(unit_square, 0)

    def test_count_up_to_empty_below_zero(self, half_segment):
        assert count_up_to(half_segment, -1) == []
        assert count_up_to(half_segment, 0) == [1]

    def test_count_sequence(self, half_segment):
        seq = count_sequence(half_segment, 4)
        assert seq.values[0] == 1
        assert seq.values == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
        assert seq.interior_values == {1: 0, 2: 0, 3: 1, 4: 1}

    def test_budget_propagates(self, reflexive_triangle):
        with pytest.raises(ScaleExceeded):
            count(reflexive_triangle, 500, budget=1000)


class TestQuasiPolynomial:
    def test_half_segment(self, half_segment):
        q = ehrhart_quasi_polynomial(half_segment)
        assert q.period == 2
        assert q.constituents[0] == (Fraction(1), Fraction(1, 2))
        assert q.constituents[1] == (Fraction(1, 2), Fraction(1, 2))

    def test_reflexive_triangle_polynomial(self, reflexive_triangle):
        q = ehrhart_quasi_polynomial(reflexive_triangle)
        assert q.period == 1
        assert q.constituents[0] == (Fraction(1), Fraction(3), Fraction(3))

    def test_unit_square(self, unit_square):
        q = ehrhart_quasi_polynomial(unit_square)
        assert q.period == 1
        assert q.constituents[0] == (Fraction(1), Fraction(2), Fraction(1))

    def test_degree_is_ambient_dimension(self, dual_integral_triangle):
        assert ehrhart_quasi_polynomial(dual_integral_triangle).degree == 2

    def test_matches_counts_beyond_samples(self, dual_integral_triangle):
        q = ehrhart_quasi_polynomial(dual_integral_triangle)
        d, T = 2, q.period
        for n in range(0, 2 * T * (d + 1) + 1):
            assert q.evaluate(n) == count(dual_integral_triangle, n)

    @pytest.mark.parametrize("period, constituents", [(0, ()), (2, ((Fraction(1),),))])
    def test_period_must_match_the_constituents(self, period, constituents):
        with pytest.raises(ValueError, match="period must match"):
            QuasiPolynomial(period=period, constituents=constituents, degree=0)

    def test_minimal_period_reduction(self):
        c = (Fraction(1), Fraction(2))
        q = QuasiPolynomial.from_constituents([c, c, c, c])
        assert q.period == 1
        q2 = QuasiPolynomial.from_constituents([c, (Fraction(0),), c, (Fraction(0),)])
        assert q2.period == 2

    def test_json_round_trip(self, half_segment):
        q = ehrhart_quasi_polynomial(half_segment)
        assert QuasiPolynomial.from_json(q.to_json()) == q

    def test_leading_coefficient_is_volume(self, reflexive_triangle, dual_fano_triangle, half_segment):
        gt = from_hrep(
            [
                ((1, 0, 0), 2),
                ((-1, 0, 0), -1),
                ((0, 1, 0), 1),
                ((0, -1, 0), 0),
                ((-1, 0, 1), 0),
                ((0, 1, -1), 0),
            ],
            3,
        )
        for p in (reflexive_triangle, dual_fano_triangle, half_segment, gt):
            q = ehrhart_quasi_polynomial(p)
            vol = euclidean_volume(p)
            for c in q.constituents:
                assert c[p.dim] == vol


class TestEvaluate:
    def test_negative_evaluation(self, reflexive_triangle):
        q = ehrhart_quasi_polynomial(reflexive_triangle)
        assert evaluate(q, -2) == 7
        assert evaluate(q, -2) == count_interior(reflexive_triangle, 2)

    def test_at_zero(self, half_segment):
        q = ehrhart_quasi_polynomial(half_segment)
        assert evaluate(q, 0) == 1

    def test_square_reciprocity_value(self, unit_square):
        q = ehrhart_quasi_polynomial(unit_square)
        assert evaluate(q, -1) == 0


class TestQuasiLattice:
    def test_lattice_polytopes_are_quasi_lattice(self, reflexive_triangle, unit_square):
        assert is_quasi_lattice(reflexive_triangle)
        assert is_quasi_lattice(unit_square)

    def test_half_segment_is_not(self, half_segment):
        assert not is_quasi_lattice(half_segment)

    def test_integral_supports_with_fractional_vertices(self):
        # support values (0, 0, 5) are integral yet the counting
        # quasi-polynomial has period 6: integrality of supports does not
        # force a polynomial
        p = from_hrep([((-1, 0), 0), ((0, -1), 0), ((2, 3), 5)], 2)
        q = ehrhart_quasi_polynomial(p)
        assert [q.evaluate(n) for n in range(5)] == [1, 5, 14, 27, 44]
        assert q.period == 6


class TestReciprocity:
    def test_suite(self, reflexive_triangle, dual_fano_triangle, dual_integral_triangle, half_segment, unit_square):
        for p in (reflexive_triangle, dual_fano_triangle, dual_integral_triangle, half_segment, unit_square):
            assert reciprocity_check(p, 5)

    @pytest.mark.parametrize("bad, holds", [(1, False), (3, False), (4, True)])
    def test_samples_exactly_1_to_n_max(self, reflexive_triangle, monkeypatch, bad, holds):
        # an interior count off by one at n = bad fails the check exactly
        # when 1 <= bad <= n_max = 3
        import reflexpoly.ehrhart as eh

        real = eh.count_interior
        monkeypatch.setattr(eh, "count_interior", lambda p, n, budget=None: real(p, n, budget) + (n == bad))
        assert reciprocity_check(reflexive_triangle, 3) == holds

    def test_square_values(self, unit_square):
        q = ehrhart_quasi_polynomial(unit_square)
        assert [evaluate(q, -n) for n in (1, 2, 3)] == [0, 1, 4]

    def test_half_segment_interior_counts(self, half_segment):
        assert [count_interior(half_segment, n) for n in (1, 2, 3, 4)] == [0, 0, 1, 1]


class TestHibiSymmetry:
    def test_reflexive_triangles(self, reflexive_triangle, dual_integral_triangle):
        assert hibi_symmetry_check(reflexive_triangle, 5)
        assert hibi_symmetry_check(dual_integral_triangle, 5)

    def test_unit_square_fails(self, unit_square):
        assert not hibi_symmetry_check(unit_square, 5)

    def test_unit_square_fails_at_zero(self, unit_square):
        # L(0) = 1, but the square has no interior lattice point
        assert not hibi_symmetry_check(unit_square, 0)

    @pytest.mark.parametrize("bad, raises", [(3, True), (4, False)])
    def test_count_form_samples_0_to_n_max(self, reflexive_triangle, monkeypatch, bad, raises):
        # with n_max = 2 the count form reads count_interior at n + 1 = 1..3
        import reflexpoly.ehrhart as eh

        real = eh.count_interior
        monkeypatch.setattr(eh, "count_interior", lambda p, n, budget=None: real(p, n, budget) + (n == bad))
        if raises:
            with pytest.raises(InternalInconsistency, match="symmetry test disagree"):
                hibi_symmetry_check(reflexive_triangle, 2)
        else:
            assert hibi_symmetry_check(reflexive_triangle, 2)

    @pytest.mark.parametrize("bad, raises", [(2, True), (3, False)])
    def test_qp_form_samples_0_to_n_max(self, reflexive_triangle, monkeypatch, bad, raises):
        # with n_max = 2 the quasi-polynomial form reads q at 0..2 and -1..-3
        evaluate = QuasiPolynomial.evaluate
        monkeypatch.setattr(QuasiPolynomial, "evaluate", lambda self, n: evaluate(self, n) + (n == bad))
        if raises:
            with pytest.raises(InternalInconsistency, match="symmetry test disagree"):
                hibi_symmetry_check(reflexive_triangle, 2)
        else:
            assert hibi_symmetry_check(reflexive_triangle, 2)

    def test_translated_triangle(self, reflexive_triangle):
        from reflexpoly import translate

        assert hibi_symmetry_check(translate(reflexive_triangle, (3, -2)), 4)


class TestHilbertSymmetry:
    def test_odd_cube(self):
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(6), Fraction(12), Fraction(8))])
        assert hilbert_symmetry_check(q, 3, 5)

    def test_square_polynomial_fails(self):
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(2), Fraction(1))])
        assert not hilbert_symmetry_check(q, 2, 5)

    def test_reflexive_triangle_polynomial(self):
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(3), Fraction(3))])
        assert hilbert_symmetry_check(q, 2, 5)

    def test_requires_period_one(self, half_segment):
        q = ehrhart_quasi_polynomial(half_segment)
        with pytest.raises(PeriodNotOne):
            hilbert_symmetry_check(q, 1, 5)

    def test_sample_below_the_degree_can_miss_asymmetry(self):
        # q = x(x+1)(2x+1)/4: q(0) = q(-1) = 0, but q(1) = 3/2 and q(-2) = -3/2
        q = QuasiPolynomial.from_constituents(
            [(Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1, 2))]
        )
        assert not hilbert_symmetry_check(q, 2, 0)
        assert not hilbert_symmetry_check(q, 2, 1)

    def test_sample_at_the_degree_can_miss_asymmetry(self):
        # q = x^2 + x: q(0) = -q(-1) = 0, yet q(x) = q(-x-1), not -q(-x-1);
        # one sampled pair of zeros does not outnumber the degree 2
        q = QuasiPolynomial.from_constituents([(Fraction(0), Fraction(1), Fraction(1))])
        assert not hilbert_symmetry_check(q, 1, 0)

    def test_sampled_pairs_start_at_zero(self):
        # q - q(-x-1) = (x + 1/2)(x + 2)(x - 1) vanishes at n = 1 but not at
        # n = 0, so the values disagree with symmetry, as the identity does
        q = QuasiPolynomial.from_constituents(
            [(Fraction(-1, 2), Fraction(-3, 4), Fraction(3, 4), Fraction(1, 2))]
        )
        assert not hilbert_symmetry_check(q, 2, 1)

    def test_corrupted_value_disagrees_with_identity(self, monkeypatch):
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(6), Fraction(12), Fraction(8))])
        evaluate = QuasiPolynomial.evaluate
        monkeypatch.setattr(
            QuasiPolynomial, "evaluate", lambda self, n: evaluate(self, n) + (n == 3)
        )
        with pytest.raises(InternalInconsistency, match="symmetry test disagree") as exc:
            hilbert_symmetry_check(q, 3, 5)
        assert exc.value.context == {"values_ok": False, "identity_ok": True}

    def test_corrupted_values_disagree_with_failed_identity(self, monkeypatch):
        # (n+1)^2 is not symmetric, and 2(n_max + 1) sampled zeros exceed its degree
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(2), Fraction(1))])
        monkeypatch.setattr(QuasiPolynomial, "evaluate", lambda self, n: Fraction(0))
        with pytest.raises(InternalInconsistency, match="symmetry test disagree") as exc:
            hilbert_symmetry_check(q, 2, 5)
        assert exc.value.context == {"values_ok": True, "identity_ok": False}


    def test_corrupted_values_at_the_smallest_deciding_sample(self, monkeypatch):
        # 2(n_max + 1) = 4 sampled zeros already exceed the degree 2 at n_max = 1
        q = QuasiPolynomial.from_constituents([(Fraction(1), Fraction(2), Fraction(1))])
        monkeypatch.setattr(QuasiPolynomial, "evaluate", lambda self, n: Fraction(0))
        with pytest.raises(InternalInconsistency, match="symmetry test disagree"):
            hilbert_symmetry_check(q, 2, 1)


def rounded_down_count(p, n):
    """Lattice count of the floored dilation, honest about collapse: the
    floored constraint set may be empty (count 0) or lower-dimensional (its
    lattice points still count), so it is scanned directly."""
    import math

    from reflexpoly.polytope import count_in_box, integer_bounding_box

    dil = dilate(p, n)
    rows = [(h.normal, math.floor(h.offset)) for h in dil.hrep]
    lo, hi = integer_bounding_box(dil)
    return count_in_box(rows, lo, hi)


class TestRoundingIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_via_round_down(self, dual_integral_triangle, half_segment, n):
        for p in (dual_integral_triangle, half_segment):
            assert count(p, n) == rounded_down_count(p, n)

    def test_round_down_collapse_to_point_still_counts(self, half_segment):
        # floor([0, 1/2]) is the single point {0}: one lattice point, not zero
        with pytest.raises(CollapsedPolytope):
            round_down(half_segment)
        assert rounded_down_count(half_segment, 1) == 1 == count(half_segment, 1)

    def test_round_down_collapse_to_empty_counts_zero(self):
        p = from_hrep([((-1,), Fraction(-1, 4)), ((1,), Fraction(1, 2))], 1)
        assert rounded_down_count(p, 1) == 0 == count(p, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_interior_via_round_up(self, dual_integral_triangle, half_segment, n):
        for p in (dual_integral_triangle, half_segment):
            assert count_interior(p, n) == count_interior(round_up(dilate(p, n)), 1)


def test_validation_guard_aborts_on_bad_counts(reflexive_triangle, monkeypatch):
    # corrupt exactly one held-out sample: reconstruction must refuse to
    # return rather than hand back a quasi-polynomial that disagrees
    import reflexpoly.ehrhart as eh

    real_counts = eh.count_boxes

    def corrupted(p, batch, strict=False):
        values = real_counts(p, batch, strict)
        # n=3 is the last validation sample (d=2, T=1); n=4 is not scanned
        return [c + 1 if n == 3 else c for (n, _, _), c in zip(batch, values)]

    monkeypatch.setattr(eh, "count_boxes", corrupted)
    with pytest.raises(ValidationFailed) as info:
        eh.ehrhart_quasi_polynomial(reflexive_triangle)
    assert info.value.payload()["context"] == {
        "residue": 0,
        "n": 3,
        "interpolated": "37",
        "counted": 38,
    }


def _held_out_failure(r, n, interpolated, counted):
    return {
        "error": "ValidationFailed",
        "message": "interpolant disagrees with a held-out count",
        "context": {"residue": r, "n": n, "interpolated": str(interpolated), "counted": counted},
    }


@pytest.mark.parametrize(
    "d, T, r", [(1, 1, 0), (1, 3, 2), (2, 1, 0), (2, 2, 1), (3, 1, 0), (3, 2, 1)]
)
def test_every_held_out_node_is_checked(d, T, r):
    # ys[k] is the value at node r + kT of a degree-d polynomial in k with
    # top Newton coefficient (d + 2) d!, so the Newton form through ys[0..d-1]
    # and that coefficient matches every held-out ys[d..2d-1]
    from reflexpoly.ehrhart import _constituent

    ys = [sum((j + 2) * k**j for j in range(d + 1)) for k in range(2 * d)]
    top = (d + 2) * math.factorial(d)
    _constituent(r, T, d, top, ys)
    for k in range(d, 2 * d):
        bad = ys[:k] + [ys[k] + 1] + ys[k + 1 :]
        with pytest.raises(ValidationFailed) as info:
            _constituent(r, T, d, top, bad)
        assert info.value.payload() == _held_out_failure(r, r + k * T, ys[k], ys[k] + 1)
    # a wrong volume shifts the value at node d by the difference
    with pytest.raises(ValidationFailed) as info:
        _constituent(r, T, d, top + 1, ys)
    assert info.value.payload() == _held_out_failure(r, r + d * T, ys[d] + 1, ys[d])


@pytest.mark.parametrize(
    "points, budget, box",
    [
        # box widths of nP for n = 1..4 are 0, 1, 2, 1: not monotone in n
        ([(Fraction(1, 3),), (Fraction(2, 3),)], 0, 2),
        ([(Fraction(1, 3),), (Fraction(2, 3),)], 1, 2),
        ([(Fraction(1, 3),), (Fraction(2, 3),)], 2, 3),
        ([(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3)),
          (Fraction(1, 3), Fraction(2, 3))], 10, 16),
        # T = 2: n = 8 of residue 0 is over budget before n = 9 of residue 1
        ([(Fraction(-1, 2), Fraction(-1, 2)), (Fraction(3, 2), Fraction(-1, 2)),
          (Fraction(-1, 2), Fraction(1))], 200, 221),
        ([(0, 0, 0), (Fraction(3, 2), 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)], 1500, 1729),
    ],
    ids=["segment-0", "segment-1", "segment-2", "triangle-off-origin", "half-triangle", "tetrahedron"],
)
def test_scale_exceeded_names_the_first_box_over_budget(points, budget, box):
    # the box and budget of the first node over budget, visiting residues in
    # order and each residue's nodes by increasing n, as the per-node counts did
    with pytest.raises(ScaleExceeded) as info:
        ehrhart_quasi_polynomial(from_vrep(points), budget)
    assert info.value.payload() == {
        "error": "ScaleExceeded",
        "message": "bounding box exceeds enumeration budget",
        "context": {"box": box, "budget": budget},
    }


def test_budget_checks_the_unscanned_node(half_segment):
    # T = 2, d = 1: the boxes of n = 1..6 hold 1, 2, 2, 3, 3, 4 points; n = 4
    # and 5 (k = 2d) are checked but not scanned, and n = 6 is neither
    assert ehrhart_quasi_polynomial(half_segment, budget=3) == ehrhart_quasi_polynomial(half_segment)
    with pytest.raises(ScaleExceeded) as info:
        ehrhart_quasi_polynomial(half_segment, budget=2)
    assert info.value.context == {"box": 3, "budget": 2}


def test_dilation_cap_counts_the_checked_nodes(monkeypatch):
    # T = 5, d = 1: 3T - 1 = 14 dilations are checked, 2dT - 1 = 9 scanned
    import reflexpoly.ehrhart as eh

    p = from_vrep([(0,), (Fraction(1, 5),)])
    monkeypatch.setattr(eh, "_MAX_DILATIONS", 14)
    assert eh.ehrhart_quasi_polynomial(p).period == 5
    monkeypatch.setattr(eh, "_MAX_DILATIONS", 13)
    with pytest.raises(ScaleExceeded) as info:
        eh.ehrhart_quasi_polynomial(p)
    assert info.value.context == {"period": 5, "dilations": 14, "max_dilations": 13}


def test_oracle_agreement_on_dilations(dual_fano_triangle, half_segment):
    for p in (dual_fano_triangle, half_segment):
        for n in range(0, 7):
            assert count(p, n) == brute_count(p, n)
            if n >= 1:
                assert count_interior(p, n) == brute_count(p, n, strict=True)


small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_clouds = st.one_of(
    st.lists(st.tuples(small_rational), min_size=2, max_size=3),
    st.lists(st.tuples(small_rational, small_rational), min_size=3, max_size=5),
)


@settings(max_examples=30, deadline=None)
@given(small_clouds, st.integers(2, 3))
def test_dilation_relation(pts, k):
    """L_{kP}(n) = L_P(kn), with kP the hull of the k-scaled points."""
    try:
        p = from_vrep(pts)
    except LowerDimensional:
        return
    kp = from_vrep([tuple(k * x for x in v) for v in pts])
    assert kp == dilate(p, k)
    q, qk = ehrhart_quasi_polynomial(p), ehrhart_quasi_polynomial(kp)
    for n in range(-3, 6):
        assert evaluate(qk, n) == evaluate(q, k * n)
        if n >= 0:
            assert count(kp, n) == count(p, k * n)


@settings(max_examples=40, deadline=None)
@given(small_clouds, st.integers(1, 7))
def test_budget_counts_the_bounding_box_of_the_dilation(pts, n):
    # the box checked against the budget is the integer bounding box of nP
    # read off its vertices, whatever the rounding of n * vertex
    try:
        p = from_vrep(pts)
    except LowerDimensional:
        return
    lo, hi = brute_box(p, n)
    assert integer_bounding_box(dilate(p, n)) == (tuple(lo), tuple(hi))
    box = math.prod(max(0, b - a + 1) for a, b in zip(lo, hi))
    if box == 0:
        assert count(p, n, budget=0) == 0
        return
    for counter in (count, count_interior):
        with pytest.raises(ScaleExceeded) as info:
            counter(p, n, budget=box - 1)
        assert info.value.context == {"box": box, "budget": box - 1}


def _cloud(coordinate, dim, sizes):
    return st.lists(st.tuples(*[coordinate] * dim), min_size=sizes[0], max_size=sizes[1])


oracle_clouds = st.one_of(
    _cloud(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)), 1, (2, 2)),
    _cloud(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)), 2, (3, 4)),
    _cloud(st.builds(Fraction, st.integers(0, 2), st.just(2)), 3, (4, 5)),
)


@settings(max_examples=40, deadline=None)
@given(oracle_clouds)
def test_quasi_polynomial_matches_brute_force(pts):
    """Checked against the brute-force oracle alone, never count or
    count_interior: q at the first node past the validated range, and
    reciprocity (-1)^d q(-n) = #(int(nP) meet Z^d) for n = 1, 2."""
    try:
        p = from_vrep(pts)
    except LowerDimensional:
        return
    q = ehrhart_quasi_polynomial(p)
    d, T = p.dim, vertex_denominator_lcm(p)
    n = (2 * d + 1) * T
    assert q.evaluate(n) == brute_count(p, n)
    for n in (1, 2):
        assert (-1) ** d * q.evaluate(-n) == brute_count(p, n, strict=True)


volume_clouds = st.one_of(
    oracle_clouds,
    _cloud(st.builds(Fraction, st.integers(0, 2), st.just(2)), 4, (5, 6)),
)


@settings(max_examples=100, deadline=None)
@given(volume_clouds)
def test_volume_seed_matches_the_unseeded_fit(pts):
    """integer_volume is the top Newton coefficient of every residue of the
    fit from 2d + 1 nodes, which takes no volume, and the two fits give the
    same quasi-polynomial."""
    try:
        p = from_vrep(pts)
    except LowerDimensional:
        return
    d, T = p.dim, vertex_denominator_lcm(p)
    values = [1] + count_dilations(p, range(1, (2 * d + 1) * T))
    tops, constituents = unseeded_fit(values, d, T)
    assert tops == [integer_volume(p)] * T
    assert ehrhart_quasi_polynomial(p) == QuasiPolynomial.from_constituents(constituents)


def test_non_positive_volume_aborts(reflexive_triangle, monkeypatch):
    import reflexpoly.ehrhart as eh

    for volume in (0, -18):
        monkeypatch.setattr(eh, "integer_volume", lambda p: volume)
        with pytest.raises(InternalInconsistency, match="volume is not positive") as info:
            eh.ehrhart_quasi_polynomial(reflexive_triangle)
        assert info.value.context == {"volume": volume}


@pytest.mark.parametrize(
    "coeffs, trimmed",
    [
        ([0], (0,)),
        ([0, 0, 0], (0,)),
        ([1, 0, 0], (1,)),
        ([0, 1, 0], (0, 1)),
        ([2, 0, -3, 0, 0], (2, 0, -3)),
        ([Fraction(1, 2), Fraction(0)], (Fraction(1, 2),)),
    ],
)
def test_trim_drops_trailing_zeros_only(coeffs, trimmed):
    from reflexpoly import _poly

    assert _poly.trim(coeffs) == trimmed


@pytest.mark.parametrize(
    "constituents, text",
    [
        ([[0]], "0"),
        ([[1]], "1"),
        ([[-1]], "-1"),
        ([[0, 1]], "n"),
        ([[0, -1]], "-n"),
        ([[1, -1, 1]], "n^2 - n + 1"),
        ([[-1, 0, -1]], "-n^2 - 1"),
        ([[0, 2, -3]], "-3*n^2 + 2*n"),
        ([[Fraction(1, 2), Fraction(-3, 4)]], "-3/4*n + 1/2"),
        ([[Fraction(-5, 2), 0, 0, Fraction(1, 6)]], "1/6*n^3 - 5/2"),
        (
            [[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
            "n = 0 (mod 2): 1/2*n + 1; n = 1 (mod 2): 1/2*n + 1/2",
        ),
        ([[0], [1], [0, 1]], "n = 0 (mod 3): 0; n = 1 (mod 3): 1; n = 2 (mod 3): n"),
    ],
)
def test_text_rendering(constituents, text):
    # the "text" field of the ehrhart and flag JSON output
    assert str(QuasiPolynomial.from_constituents(constituents)) == text
