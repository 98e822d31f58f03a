import time
from fractions import Fraction

import pytest

from reflexpoly import flag
from reflexpoly import (
    ParabolicChoice,
    anticanonical_weight,
    build_root_system,
    detect_anticanonical,
    from_hrep,
    hilbert_polynomial,
    parabolic_positive_roots,
    string_polytope_cross_check,
)
from reflexpoly.errors import InternalInconsistency, NotPRegular, UnsupportedType
from reflexpoly.flag import dominant_p_regular_weights


@pytest.mark.parametrize(
    "label, rank, expected",
    [("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("B", 2, 4), ("B", 3, 9),
     ("C", 2, 4), ("C", 3, 9), ("D", 3, 6), ("D", 4, 12), ("G2", 2, 6)],
)
def test_positive_root_counts(label, rank, expected):
    rs = build_root_system(label, rank)
    assert len(rs.positive_roots) == expected
    assert len(rs.coroots) == expected


def test_unsupported_types():
    for label, rank in (("E", 6), ("F", 4), ("G2", 3), ("B", 1), ("D", 2)):
        with pytest.raises(UnsupportedType):
            build_root_system(label, rank)


def test_rank_below_type_minimum():
    for label, rank in (("A", 0), ("C", 1)):
        with pytest.raises(UnsupportedType) as exc:
            build_root_system(label, rank)
        assert exc.value.context == {"rank": rank}


def test_rank_cap_is_inclusive():
    assert len(build_root_system("A", 16).positive_roots) == 16 * 17 // 2
    with pytest.raises(UnsupportedType) as exc:
        build_root_system("A", 17)
    assert exc.value.context == {"rank": 17, "max_rank": 16}


def test_root_closure_stops_on_an_infinite_type(monkeypatch):
    """The affine A1 Cartan matrix has infinitely many positive roots; the
    closure raises as soon as it holds more than the expected count."""
    affine = ((2, -2), (-2, 2))
    monkeypatch.setattr(flag, "_cartan_and_norms", lambda label, rank: (affine, [2, 2], affine))
    start = time.perf_counter()
    with pytest.raises(InternalInconsistency, match="positive root count mismatch") as exc:
        build_root_system("A", 2)
    assert time.perf_counter() - start < 2.0
    assert exc.value.context == {"got": 4, "expected": 3}


def test_rho_pairs_to_one_on_simples():
    for label, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G2", 2)):
        rs = build_root_system(label, rank)
        for i in range(rank):
            simple = tuple(1 if j == i else 0 for j in range(rank))
            idx = rs.positive_roots.index(simple)
            assert rs.root_height_paired_with_rho(idx) == 1


class TestParabolic:
    def test_full_flag_takes_all_roots(self):
        rs = build_root_system("A", 2)
        assert len(parabolic_positive_roots(rs, ParabolicChoice((1, 2)))) == 3

    def test_projective_plane(self):
        rs = build_root_system("A", 2)
        moved = parabolic_positive_roots(rs, ParabolicChoice((1,)))
        assert sorted(moved) == [(1, 0), (1, 1)]

    def test_empty_choice(self):
        rs = build_root_system("G2", 2)
        assert parabolic_positive_roots(rs, ParabolicChoice(())) == []

    def test_excluded_index_out_of_range(self):
        rs = build_root_system("A", 2)
        for bad in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                parabolic_positive_roots(rs, ParabolicChoice((bad,)))

    def test_dominant_weights_up_to_the_cap(self):
        rs = build_root_system("A", 3)
        weights = dominant_p_regular_weights(rs, ParabolicChoice((1, 3)), 2)
        assert list(weights) == [(1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2)]


class TestHilbertPolynomial:
    def test_projective_line(self):
        rs = build_root_system("A", 1)
        q = hilbert_polynomial(rs, ParabolicChoice((1,)), (2,))
        assert q.constituents[0] == (Fraction(1), Fraction(2))

    def test_a2_full_flag_cube(self):
        rs = build_root_system("A", 2)
        q = hilbert_polynomial(rs, ParabolicChoice((1, 2)), (2, 2))
        assert q.constituents[0] == (Fraction(1), Fraction(6), Fraction(12), Fraction(8))

    def test_projective_plane_anticanonical(self):
        rs = build_root_system("A", 2)
        q = hilbert_polynomial(rs, ParabolicChoice((1,)), (3, 0))
        # (3n+1)(3n+2)/2
        assert q.constituents[0] == (Fraction(1), Fraction(9, 2), Fraction(9, 2))

    def test_degree_is_moved_root_count(self):
        rs = build_root_system("B", 2)
        pc = ParabolicChoice((1, 2))
        q = hilbert_polynomial(rs, pc, (1, 2))
        assert q.degree == len(parabolic_positive_roots(rs, pc)) == 4

    def test_weyl_positivity(self):
        rs = build_root_system("G2", 2)
        pc = ParabolicChoice((1, 2))
        for lam in dominant_p_regular_weights(rs, pc, 2):
            q = hilbert_polynomial(rs, pc, lam)
            for n in range(0, 5):
                value = q.evaluate(n)
                assert value.denominator == 1 and value > 0

    def test_classical_dimensions(self):
        # dim V(omega_1): A_3 -> 4, B_2 -> 5, C_3 -> 6, D_4 -> 8, G2 -> 7
        expected = {("A", 3): 4, ("B", 2): 5, ("C", 3): 6, ("D", 4): 8, ("G2", 2): 7}
        for (label, rank), dim in expected.items():
            rs = build_root_system(label, rank)
            pc = ParabolicChoice(tuple(range(1, rank + 1)))
            lam = (1,) * rank
            q = hilbert_polynomial(rs, pc, lam)
            # at n=1 the product over all positive roots is dim V(lambda+rho)/...
            # use the Borel case with highest weight omega_1 directly instead:
            moved = parabolic_positive_roots(rs, ParabolicChoice((1,)))
            prod = Fraction(1)
            omega1 = (1,) + (0,) * (rank - 1)
            for beta in moved:
                idx = rs.positive_roots.index(beta)
                prod *= Fraction(
                    rs.pairing(omega1, idx) + rs.root_height_paired_with_rho(idx),
                    rs.root_height_paired_with_rho(idx),
                )
            assert prod == dim

    def test_p_regularity_enforced(self):
        rs = build_root_system("A", 2)
        with pytest.raises(NotPRegular):
            hilbert_polynomial(rs, ParabolicChoice((1,)), (0, 0))
        with pytest.raises(NotPRegular):
            hilbert_polynomial(rs, ParabolicChoice((1,)), (2, 1))
        with pytest.raises(NotPRegular):
            hilbert_polynomial(rs, ParabolicChoice((1, 2)), (1,))


class TestAnticanonical:
    def test_a2_weights(self):
        rs = build_root_system("A", 2)
        assert anticanonical_weight(rs, ParabolicChoice((1, 2))) == (2, 2)
        assert anticanonical_weight(rs, ParabolicChoice((1,))) == (3, 0)

    def test_a1(self):
        rs = build_root_system("A", 1)
        assert anticanonical_weight(rs, ParabolicChoice((1,))) == (2,)

    def test_full_flag_weight_is_twice_rho(self):
        for label, rank in (("A", 3), ("B", 2), ("C", 2), ("D", 4), ("G2", 2)):
            rs = build_root_system(label, rank)
            pc = ParabolicChoice(tuple(range(1, rank + 1)))
            assert anticanonical_weight(rs, pc) == (2,) * rank

    def test_detect_examples(self):
        rs = build_root_system("A", 2)
        full = ParabolicChoice((1, 2))
        assert detect_anticanonical(rs, full, (2, 2))
        assert not detect_anticanonical(rs, full, (1, 1))
        assert detect_anticanonical(rs, ParabolicChoice((1,)), (3, 0))

    def test_grassmannian_index_exceeds_small_caps(self):
        # Gr(1,4): anticanonical weight 4*omega_1
        rs = build_root_system("A", 3)
        assert anticanonical_weight(rs, ParabolicChoice((1,))) == (4, 0, 0)

    def test_uniqueness_in_capped_family(self):
        for label, rank in (("A", 2), ("B", 2), ("G2", 2)):
            rs = build_root_system(label, rank)
            pc = ParabolicChoice(tuple(range(1, rank + 1)))
            lam_can = anticanonical_weight(rs, pc)
            passers = [
                lam
                for lam in dominant_p_regular_weights(rs, pc, 4)
                if detect_anticanonical(rs, pc, lam)
            ]
            assert passers == [lam_can]

    def test_criteria_agree_across_types_cap_4(self):
        # detect_anticanonical aborts internally if the value-at--1 and the
        # palindromic-symmetry criteria ever disagree; sweep them
        import itertools

        for label, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2),
                            ("C", 2), ("C", 3), ("D", 4), ("G2", 2)):
            rs = build_root_system(label, rank)
            for r in range(1, rank + 1):
                for excluded in itertools.combinations(range(1, rank + 1), r):
                    pc = ParabolicChoice(excluded)
                    for lam in dominant_p_regular_weights(rs, pc, 4):
                        detect_anticanonical(rs, pc, lam)


class TestStringPolytopeCrossCheck:
    def test_segment_a1(self):
        rs = build_root_system("A", 1)
        seg = from_hrep([((-1,), 0), ((1,), 2)], 1)
        assert string_polytope_cross_check(seg, rs, ParabolicChoice((1,)), (2,))

    def test_degree_mismatch(self, unit_square):
        rs = build_root_system("A", 2)
        assert not string_polytope_cross_check(
            unit_square, rs, ParabolicChoice((1, 2)), (2, 2)
        )

    def test_gelfand_tsetlin_rho(self):
        # inequality description of the weight-multiplicity pattern polytope
        # for sl_3 with highest weight rho: counts must match (n+1)^3
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
        rs = build_root_system("A", 2)
        assert string_polytope_cross_check(gt, rs, ParabolicChoice((1, 2)), (1, 1))
