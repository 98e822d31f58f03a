import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reflexpoly import (
    classify,
    dilate,
    ehrhart_quasi_polynomial,
    from_hrep,
    from_vrep,
    hibi_symmetry_check,
    is_dual_fano,
    is_dual_integral,
    is_fano,
    is_lattice_polytope,
    is_quasi_reflexive,
    is_reflexive,
    polar_dual,
    translate,
    two_dim_criterion,
)
from reflexpoly.errors import (
    DimensionMismatch,
    InternalInconsistency,
    LowerDimensional,
    NotQuasiLattice,
    ScaleExceeded,
)
from reflexpoly.fuzz import FuzzConfig, dual_integral_polytope, random_polytope, reverify_counterexample
from reflexpoly.fuzz import test_conjecture_dualfano as run_dualfano
from conftest import triangle
from test_polytope import _mat_vec, unimodular_affine_maps


class TestElementaryFlags:
    def test_is_lattice(self, reflexive_triangle, dual_fano_triangle, unit_square):
        assert is_lattice_polytope(reflexive_triangle)
        assert not is_lattice_polytope(dual_fano_triangle)  # vertex (-1, 2/3)
        assert is_lattice_polytope(unit_square)

    def test_is_fano_duals(self, dual_fano_triangle, dual_integral_triangle):
        assert is_fano(polar_dual(dual_fano_triangle))
        # dual vertex (3,3) = 3*(1,1) is not primitive
        assert not is_fano(polar_dual(dual_integral_triangle))

    def test_is_fano_nonprimitive_vertices(self):
        assert not is_fano(from_vrep([(2, 0), (0, 2), (-2, -2)]))

    def test_is_fano_origin_on_boundary(self):
        # primitive lattice vertices, but the origin lies on the facet y = 0
        assert not is_fano(from_vrep([(1, 0), (0, 1), (-1, 0)]))

    def test_is_reflexive(self, reflexive_triangle, dual_fano_triangle, sym_square):
        assert is_reflexive(reflexive_triangle)
        assert not is_reflexive(dual_fano_triangle)
        assert is_reflexive(sym_square)

    def test_reflexive_needs_interior_origin(self, unit_square):
        assert not is_reflexive(unit_square)


class TestDualIntegral:
    def test_dual_integral_triangle(self, dual_integral_triangle):
        flag, anchor, ks = is_dual_integral(dual_integral_triangle)
        assert flag and anchor == (0, 0) and ks == (1, 1, 3)

    def test_unit_square(self, unit_square):
        assert is_dual_integral(unit_square) == (False, None, None)

    def test_translation_invariance(self, reflexive_triangle):
        flag, anchor, ks = is_dual_integral(translate(reflexive_triangle, (5, 5)))
        assert flag and anchor == (5, 5) and ks == (1, 1, 1)

    def test_non_reciprocal_offset(self):
        # support values (1, 1, 2) on the long side: 2 is not of the form 1/k
        p = from_hrep([((-1, 0), 1), ((0, -1), 1), ((1, 1), 2)], 2)
        flag, _, _ = is_dual_integral(p)
        assert not flag


class TestDualFano:
    def test_reference_trio(self, reflexive_triangle, dual_fano_triangle, dual_integral_triangle):
        assert is_dual_fano(reflexive_triangle)
        assert is_dual_fano(dual_fano_triangle)
        assert not is_dual_fano(dual_integral_triangle)

    def test_translation_invariance(self, dual_fano_triangle):
        assert is_dual_fano(translate(dual_fano_triangle, (-3, 7)))


class TestQuasiReflexive:
    def test_reference_trio(self, reflexive_triangle, dual_fano_triangle):
        assert is_quasi_reflexive(reflexive_triangle)
        assert not is_quasi_reflexive(dual_fano_triangle)

    def test_translated_reflexive(self, reflexive_triangle):
        assert is_quasi_reflexive(translate(reflexive_triangle, (3, -2)))
        assert not is_reflexive(translate(reflexive_triangle, (3, -2)))


class TestClassifyReports:
    def test_reference_trio(self, reflexive_triangle, dual_fano_triangle, dual_integral_triangle):
        r1 = classify(reflexive_triangle)
        assert (r1.is_reflexive, r1.is_dual_fano, r1.is_dual_integral) == (True, True, True)
        assert r1.is_quasi_lattice

        r2 = classify(dual_fano_triangle)
        assert (r2.is_reflexive, r2.is_dual_fano, r2.is_dual_integral) == (False, True, True)

        r3 = classify(dual_integral_triangle)
        assert (r3.is_reflexive, r3.is_dual_fano, r3.is_dual_integral) == (False, False, True)
        assert r3.facet_integers == (1, 1, 3)

    def test_report_json_fields(self, reflexive_triangle):
        obj = classify(reflexive_triangle).to_json()
        assert set(obj) == {
            "is_lattice",
            "is_fano",
            "is_reflexive",
            "is_quasi_reflexive",
            "is_dual_fano",
            "is_dual_integral",
            "is_quasi_lattice",
            "interior_lattice_points",
            "anchor",
            "facet_integers",
        }
        assert obj["interior_lattice_points"] == [[0, 0]]

    def test_unique_interior_point_when_dual_integral(self, dual_integral_triangle):
        r = classify(dual_integral_triangle)
        assert r.interior_lattice_points.count == 1
        assert r.anchor == r.interior_lattice_points.points[0]


class TestTwoDimCriterion:
    def test_reflexive_triangle(self, reflexive_triangle):
        assert two_dim_criterion(reflexive_triangle)
        r = classify(reflexive_triangle)
        assert r.interior_lattice_points.count == 1

    def test_doubled_triangle(self, reflexive_triangle):
        doubled = dilate(reflexive_triangle, 2)
        assert not two_dim_criterion(doubled)
        assert classify(doubled).interior_lattice_points.count == 7

    def test_unit_square(self, unit_square):
        assert not two_dim_criterion(unit_square)
        assert classify(unit_square).interior_lattice_points.count == 0

    def test_wrong_dimension(self, unit_interval):
        with pytest.raises(DimensionMismatch):
            two_dim_criterion(unit_interval)

    def test_requires_quasi_lattice(self, half_segment):
        square_ish = from_hrep(
            [((-1, 0), 0), ((0, -1), 0), ((1, 0), Fraction(1, 2)), ((0, 1), 1)], 2
        )
        with pytest.raises(NotQuasiLattice):
            two_dim_criterion(square_ish)

    def test_matches_interior_count_on_quasi_lattice_samples(self):
        cfg = FuzzConfig(dim=2, samples=40, seed=7, max_coordinate=3, max_denominator=1)
        for i in range(cfg.samples):
            p = random_polytope(cfg, i)
            # lattice polytopes are always quasi-lattice
            flag = two_dim_criterion(p)
            from reflexpoly import lattice_points

            assert flag == (lattice_points(p, strict=True).count == 1)


class TestCrossOracles:
    def test_hibi_equals_dual_integral_on_samples(self):
        cfg = FuzzConfig(
            dim=2, samples=25, seed=11, max_coordinate=3, max_denominator=2,
            normal_entry_bound=1,
        )
        instances = [random_polytope(cfg, i) for i in range(0, 12)]
        instances += [dual_integral_polytope(cfg, i) for i in range(12)]
        for p in instances:
            flag, _, _ = is_dual_integral(p)
            assert flag == hibi_symmetry_check(p, 5)

    def test_implication_chain_on_samples(self):
        cfg = FuzzConfig(dim=2, samples=20, seed=13, max_coordinate=3, max_denominator=2)
        for i in range(cfg.samples):
            p = random_polytope(cfg, i)
            r = classify(p)  # classify asserts the chain internally
            assert not r.is_quasi_reflexive or r.is_dual_fano
            assert not r.is_dual_fano or r.is_dual_integral
            assert r.is_quasi_reflexive == (r.is_dual_integral and r.is_lattice)

    def test_lattice_translation_invariance_of_all_flags(self, dual_integral_triangle):
        p, t = dual_integral_triangle, translate(dual_integral_triangle, (2, -9))
        assert is_lattice_polytope(p) == is_lattice_polytope(t)
        assert is_dual_integral(p)[0] == is_dual_integral(t)[0]
        assert is_dual_fano(p) == is_dual_fano(t)
        assert is_quasi_reflexive(p) == is_quasi_reflexive(t)


_DUAL_INTEGRAL = FuzzConfig(
    dim=2, samples=1, seed=5, max_coordinate=3, max_denominator=2,
    normal_entry_bound=1, max_facet_integer=3,
)
_small_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))


@st.composite
def small_polytopes(draw):
    """Hulls of 1D-3D points with denominators <= 2, or dual-integral
    triangles and quadrilaterals, so both anchor outcomes are drawn."""
    if draw(st.booleans()):
        return dual_integral_polytope(_DUAL_INTEGRAL, draw(st.integers(0, 500)))
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[_small_rational] * d), min_size=d + 1, max_size=d + 3))
    try:
        return from_vrep(pts)
    except LowerDimensional:
        return draw(st.nothing())


class TestUnimodularInvariance:
    """classify commutes with x -> Ux + z for unimodular U and integer z:
    the flags and the quasi-polynomial stay, interior points and the anchor
    move with the map, and each facet integer moves with its normal
    (u -> U^-T u)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_classify_commutes_with_unimodular_maps(self, data):
        p = data.draw(small_polytopes())
        m, m_inv_t, z = data.draw(unimodular_affine_maps(p.dim))

        def image_of(v):
            return tuple(a + b for a, b in zip(_mat_vec(m, v), z))

        image = from_vrep([image_of(v) for v in p.vrep])
        try:
            before, after = classify(p), classify(image)
        except ScaleExceeded:
            return  # a shear can stretch a dilation box past the budget
        flags = ("is_lattice", "is_quasi_reflexive", "is_dual_fano", "is_dual_integral",
                 "is_quasi_lattice")
        if not any(z):  # Fano and reflexive refer to the origin itself
            flags += ("is_fano", "is_reflexive")
        assert [getattr(before, f) for f in flags] == [getattr(after, f) for f in flags]
        assert ehrhart_quasi_polynomial(image) == ehrhart_quasi_polynomial(p)
        moved = sorted(image_of(pt) for pt in before.interior_lattice_points.points)
        assert list(after.interior_lattice_points.points) == moved
        assert after.anchor == (None if before.anchor is None else image_of(before.anchor))
        if before.facet_integers is None:
            assert after.facet_integers is None
        else:
            ks = {_mat_vec(m_inv_t, h.normal): k for h, k in zip(p.hrep, before.facet_integers)}
            assert dict(zip((h.normal for h in image.hrep), after.facet_integers)) == ks


class TestBudgetOrder:
    def test_reconstruction_budget_raises_before_the_point_pass(self):
        """The cube [-20, 20]^3 has 59,319 interior points, but its sixth
        dilation's box (241^3 points) exceeds the default budget; classify
        raises that before visiting any interior point."""
        cube = from_hrep([(tuple(s * int(i == j) for j in range(3)), 20)
                          for i in range(3) for s in (1, -1)], 3)
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded) as exc:
            classify(cube)
        assert time.perf_counter() - start < 2.0
        assert exc.value.payload()["context"] == {"box": 13997521, "budget": 10000000}


ENTRY_POINTS = {
    "classify": classify,
    "is_dual_integral": is_dual_integral,
    "is_dual_fano": is_dual_fano,
    "is_quasi_reflexive": is_quasi_reflexive,
    "two_dim_criterion": two_dim_criterion,
    "reverify_dualfano": lambda p: reverify_counterexample("dualfano", {"polytope": p.to_json()}),
}


class TestCrossChecksAbort:
    """Each characterization that disagrees with its direct test aborts
    with the same payload, whichever entry point ran the pass."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_dual_fano_disagreement(self, monkeypatch, dual_integral_triangle, entry):
        # every translated dual reads as Fano, but the facet integers are (1, 1, 3);
        # the dual-integral triangle is not quasi-lattice, so two_dim_criterion
        # would refuse it first and gets the doubled reflexive triangle instead
        monkeypatch.setattr(sys.modules["reflexpoly.classify"], "is_fano", lambda q: True)
        p = dual_integral_triangle
        if entry == "two_dim_criterion":
            p = dilate(triangle(2, 3), 2)
        with pytest.raises(InternalInconsistency) as exc:
            ENTRY_POINTS[entry](p)
        assert exc.value.payload() == {
            "error": "InternalInconsistency",
            "message": "support-value and dual-polytope characterizations of dual-Fano disagree",
            "context": {"via_offsets": False, "via_dual": True},
        }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_quasi_reflexive_disagreement(self, monkeypatch, reflexive_triangle, entry):
        # duals pushed off the lattice: no translate reads as reflexive, though
        # the lattice triangle is anchored at the origin; this check runs first
        module = sys.modules["reflexpoly.classify"]
        original = module.polar_dual

        def off_lattice(q):
            return translate(original(q), (Fraction(1, 2),) * q.dim)

        monkeypatch.setattr(module, "polar_dual", off_lattice)
        with pytest.raises(InternalInconsistency) as exc:
            ENTRY_POINTS[entry](reflexive_triangle)
        assert exc.value.payload() == {
            "error": "InternalInconsistency",
            "message": "composed and direct quasi-reflexivity tests disagree",
            "context": {"composed": True, "direct": False},
        }


def _count_calls(monkeypatch, calls, name, strict_only=False):
    """Wrap polytope.<name> in every reflexpoly module that binds it."""
    original = getattr(sys.modules["reflexpoly.polytope"], name)

    def wrapper(*args, **kwargs):
        if not strict_only or kwargs.get("strict"):
            calls[name] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("reflexpoly"):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)


class TestWorkCounts:
    """Each fact is computed once: one interior collect per classify, one
    translate per interior point, and duals built without a hull."""

    def test_classify_visits_each_anchor_once(
        self, monkeypatch, reflexive_triangle, dual_fano_triangle, unit_square
    ):
        polytopes = [
            reflexive_triangle,
            dual_fano_triangle,
            unit_square,
            dilate(reflexive_triangle, 2),
            translate(dilate(reflexive_triangle, 3), (1, -2)),
        ]
        calls = Counter()
        for name in ("lattice_points", "translate", "from_vrep", "polar_dual"):
            _count_calls(monkeypatch, calls, name)
        for p in polytopes:
            calls.clear()
            interior = classify(p).interior_lattice_points.count
            assert calls["lattice_points"] == 1
            assert calls["translate"] == interior
            assert calls["polar_dual"] <= interior + 1  # one more in is_reflexive(p)
            assert calls["from_vrep"] == 0

    def test_dualfano_fuzz_collects_interior_once_per_instance(self, monkeypatch):
        calls = Counter()
        _count_calls(monkeypatch, calls, "lattice_points", strict_only=True)
        cfg = FuzzConfig(dim=2, samples=6, seed=42, max_coordinate=3, max_denominator=2)
        report = run_dualfano(cfg)
        assert report.instances_tested == cfg.samples
        assert calls["lattice_points"] == cfg.samples
