"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -v -s`).

Corpus sizes, seeds, dilation ranges, and tolerances are pinned here; every
numeric comparison is exact (tolerance zero) because all arithmetic is
rational.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from reflexpoly import (
    ParabolicChoice,
    anticanonical_weight,
    build_root_system,
    classify,
    count,
    count_interior,
    detect_anticanonical,
    dilate,
    divisor_from_polytope,
    ehrhart_quasi_polynomial,
    evaluate,
    from_hrep,
    hibi_symmetry_check,
    hilbert_polynomial,
    hilbert_symmetry_check,
    is_dual_integral,
    polar_dual,
    polytope_from_divisor,
    round_up,
)
from reflexpoly.errors import InternalInconsistency
from reflexpoly.flag import dominant_p_regular_weights, parabolic_positive_roots
from reflexpoly.fuzz import FuzzConfig, dual_integral_polytope, random_polytope
from reflexpoly.fuzz import test_conjecture_dualfano as run_dualfano
from reflexpoly.fuzz import test_conjecture_quasilattice as run_quasilattice
from reflexpoly.polytope import count_in_box, integer_bounding_box
from reflexpoly.toric import ToricDivisorData


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def triangle_trio():
    def tri(a, b):
        return from_hrep([((-1, 0), 1), ((0, -1), 1), ((a, b), 1)], 2)

    return tri(2, 3), tri(1, 3), tri(3, 3)


@pytest.fixture(scope="module")
def corpus200():
    """200 seeded random rational polytopes across dimensions 1-3, with
    per-dimension denominator caps keeping every reconstruction inside the
    default enumeration budget (zero skips tolerated)."""
    polys = []
    for dim, howmany, coord, den in ((1, 60, 8, 12), (2, 80, 4, 3), (3, 60, 3, 2)):
        cfg = FuzzConfig(
            dim=dim, samples=howmany, seed=2024, max_coordinate=coord, max_denominator=den
        )
        polys.extend(random_polytope(cfg, i) for i in range(howmany))
    assert len(polys) == 200
    return polys


@pytest.fixture(scope="module")
def dual_integral_50():
    cfg = FuzzConfig(
        dim=2,
        samples=50,
        seed=77,
        max_coordinate=3,
        max_denominator=2,
        normal_entry_bound=1,
        max_facet_integer=3,
    )
    return [dual_integral_polytope(cfg, i) for i in range(50)]


def test_criterion_triangle_trio(triangle_trio):
    with criterion("triangle-trio-classification"):
        start = time.perf_counter()
        expected = [(True, True, True), (False, True, True), (False, False, True)]
        for p, flags in zip(triangle_trio, expected):
            r = classify(p)
            assert (r.is_reflexive, r.is_dual_fano, r.is_dual_integral) == flags
        assert time.perf_counter() - start < 1.0


def test_criterion_duality_golden_values(triangle_trio):
    with criterion("duality-golden-values"):
        goldens = [
            ((-1, 0), (0, -1), (2, 3)),
            ((-1, 0), (0, -1), (1, 3)),
            ((-1, 0), (0, -1), (3, 3)),
        ]
        for p, verts in zip(triangle_trio, goldens):
            dual = polar_dual(p)
            assert dual.vrep == tuple(
                tuple(Fraction(c) for c in v) for v in sorted(verts)
            )


def test_criterion_reciprocity_suite(corpus200):
    with criterion("reciprocity-suite-200"):
        start = time.perf_counter()
        failures = 0
        for p in corpus200:
            q = ehrhart_quasi_polynomial(p)
            sign = (-1) ** p.dim
            for n in range(1, 6):
                if evaluate(q, -n) != sign * count_interior(p, n):
                    failures += 1
        assert failures == 0
        assert time.perf_counter() - start < 300.0


def test_criterion_hibi_oracle_equivalence(corpus200, dual_integral_50):
    with criterion("hibi-oracle-equivalence-250"):
        disagreements = 0
        for p in corpus200 + dual_integral_50:
            flag, _, _ = is_dual_integral(p)
            if flag != hibi_symmetry_check(p, 5):
                disagreements += 1
        assert disagreements == 0


def test_criterion_implication_chain(corpus200, dual_integral_50):
    with criterion("implication-chain"):
        for p in corpus200 + dual_integral_50:
            r = classify(p)  # classify re-raises on any internal violation
            assert not r.is_quasi_reflexive or r.is_dual_fano
            assert not r.is_dual_fano or r.is_dual_integral
            assert r.is_quasi_reflexive == (r.is_dual_integral and r.is_lattice)


# sha256 of the 250 classify reports as compact, key-sorted JSON; any change
# to a flag, an interior point list, an anchor or a facet integer moves it
CORPUS250_CLASSIFY_SHA256 = "c80910a36a9ea1ad9a7adcd2b9c9fed30cc1f958e28561e2222cf81f07b3e200"


def test_corpus250_classify_digest(corpus200, dual_integral_50):
    reports = [classify(p).to_json() for p in corpus200 + dual_integral_50]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS250_CLASSIFY_SHA256


def _rounded_down_count(p, n):
    dil = dilate(p, n)
    rows = [(h.normal, Fraction(math.floor(h.offset))) for h in dil.hrep]
    lo, hi = integer_bounding_box(dil)
    return count_in_box(rows, lo, hi)


def test_criterion_rounding_identities(corpus200):
    with criterion("rounding-identities-100"):
        for p in corpus200[:100]:
            for n in range(1, 5):
                assert count(p, n) == _rounded_down_count(p, n)
                assert count_interior(p, n) == count_interior(round_up(dilate(p, n)), 1)


def test_criterion_dictionary_round_trips(corpus200):
    with criterion("dictionary-round-trips-100"):
        for p in corpus200[:100]:
            d = divisor_from_polytope(p)
            assert polytope_from_divisor(d) == p
            for k in (Fraction(1, 2), Fraction(2), Fraction(3)):
                scaled = ToricDivisorData(d.fan, tuple(c * k for c in d.coefficients))
                assert polytope_from_divisor(scaled) == dilate(p, k)


FLAG_FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4), ("G2", 2)]


def _nonempty_parabolics(rank):
    out = []
    for mask in range(1, 1 << rank):
        out.append(tuple(i + 1 for i in range(rank) if mask & (1 << i)))
    return out


def test_criterion_flag_anticanonical_detection():
    with criterion("flag-anticanonical-detection"):
        start = time.perf_counter()
        for label, rank in FLAG_FAMILIES:
            rs = build_root_system(label, rank)
            for excluded in _nonempty_parabolics(rank):
                pc = ParabolicChoice(excluded)
                lam_can = anticanonical_weight(rs, pc)  # validates itself
                d = len(parabolic_positive_roots(rs, pc))
                passers = {
                    lam
                    for lam in set(dominant_p_regular_weights(rs, pc, 3)) | {lam_can}
                    if detect_anticanonical(rs, pc, lam)
                }
                assert passers == {lam_can}, (label, rank, excluded, passers)
                q = hilbert_polynomial(rs, pc, lam_can)
                assert hilbert_symmetry_check(q, d, 5)
        assert time.perf_counter() - start < 60.0


def test_criterion_a2_closed_form():
    with criterion("a2-closed-form"):
        rs = build_root_system("A", 2)
        q = hilbert_polynomial(rs, ParabolicChoice((1, 2)), (2, 2))
        assert q.period == 1
        assert q.constituents[0] == (Fraction(1), Fraction(6), Fraction(12), Fraction(8))


def test_criterion_conjecture_fuzz_runs():
    with criterion("conjecture-fuzz-runs"):
        cfg = FuzzConfig(
            dim=2,
            samples=500,
            seed=42,
            max_coordinate=3,
            max_denominator=2,
            normal_entry_bound=1,
            max_facet_integer=3,
        )
        try:
            ql_report = run_quasilattice(cfg)
            df_report = run_dualfano(cfg)
        except InternalInconsistency as exc:  # proven-implication violation
            pytest.fail(f"proven implication violated: {exc}")
        for report in (ql_report, df_report):
            assert report.instances_tested + len(report.skipped) == 500
            assert report.verdict in ("no counterexample", "counterexample found")
        # reproducibility: identical config, byte-identical report
        assert run_quasilattice(cfg).dumps() == ql_report.dumps()
        assert run_dualfano(cfg).dumps() == df_report.dumps()
        print(
            f"\n  quasilattice: {ql_report.verdict} "
            f"({len(ql_report.counterexamples)} counterexamples, "
            f"{len(ql_report.skipped)} skipped)"
            f"\n  dualfano: {df_report.verdict} "
            f"({len(df_report.counterexamples)} counterexamples, "
            f"{len(df_report.skipped)} skipped)"
        )
