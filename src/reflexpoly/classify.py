"""Membership tests for the reflexivity hierarchy.

The hierarchy, from strongest to weakest:

    reflexive  =>  quasi-reflexive  =>  dual-Fano  =>  dual-integral

with quasi-reflexive equivalent to (dual-integral and lattice).  Each of the
translated notions admits two independent characterizations - the support
values of the translated polytope, and the shape of the translated dual - and
both are always computed; a disagreement aborts, turning the equivalence
proofs into permanent self-tests.  Both come from one pass over the interior
lattice points z, collected once, that translates and dualizes p - z once
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ehrhart
from .errors import DimensionMismatch, InternalInconsistency, NotQuasiLattice
from .polytope import LatticePointSet, Polytope, lattice_points, polar_dual, translate


@dataclass(frozen=True)
class ClassificationReport:
    is_lattice: bool
    is_fano: bool
    is_reflexive: bool
    is_quasi_reflexive: bool
    is_dual_fano: bool
    is_dual_integral: bool
    is_quasi_lattice: bool
    interior_lattice_points: LatticePointSet
    anchor: tuple[int, ...] | None
    facet_integers: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "is_lattice": self.is_lattice,
            "is_fano": self.is_fano,
            "is_reflexive": self.is_reflexive,
            "is_quasi_reflexive": self.is_quasi_reflexive,
            "is_dual_fano": self.is_dual_fano,
            "is_dual_integral": self.is_dual_integral,
            "is_quasi_lattice": self.is_quasi_lattice,
            "interior_lattice_points": [list(pt) for pt in self.interior_lattice_points.points],
            "anchor": list(self.anchor) if self.anchor is not None else None,
            "facet_integers": list(self.facet_integers)
            if self.facet_integers is not None
            else None,
        }


def is_lattice_polytope(p: Polytope) -> bool:
    """Every vertex coordinate is an integer."""
    return all(c.denominator == 1 for v in p.vrep for c in v)


def is_fano(p: Polytope) -> bool:
    """Origin strictly interior and every vertex a primitive lattice vector."""
    if any(h.offset <= 0 for h in p.hrep):
        return False
    for v in p.vrep:
        if any(c.denominator != 1 for c in v):
            return False
        if math.gcd(*(c.numerator for c in v)) != 1:
            return False
    return True


def is_reflexive(p: Polytope) -> bool:
    """p and its polar dual are both lattice polytopes (no translation)."""
    if not is_lattice_polytope(p):
        return False
    if any(h.offset <= 0 for h in p.hrep):
        return False
    return is_lattice_polytope(polar_dual(p))


def _anchor_pass(p: Polytope, interior: LatticePointSet):
    """Visit each interior lattice point z of p once, translating and
    dualizing once.  Returns the first z at which every support value of
    p - z is 1/k, its k-list, and the dual-Fano and quasi-reflexive flags,
    each checked against its direct test (some polar_dual(p - z) is Fano,
    some p - z is reflexive); a disagreement raises."""
    anchor = ks = None
    fano_dual = reflexive = False
    for z in interior.points:
        shifted = translate(p, tuple(-c for c in z))
        dual = polar_dual(shifted)
        if anchor is None and all(h.offset.numerator == 1 for h in shifted.hrep):
            anchor, ks = z, tuple(h.offset.denominator for h in shifted.hrep)
        fano_dual = fano_dual or is_fano(dual)
        reflexive = reflexive or (is_lattice_polytope(shifted) and is_lattice_polytope(dual))
    quasi_reflexive = is_lattice_polytope(p) and anchor is not None
    if quasi_reflexive != reflexive:
        raise InternalInconsistency(
            "composed and direct quasi-reflexivity tests disagree",
            composed=quasi_reflexive, direct=reflexive,
        )
    dual_fano = ks is not None and all(k == 1 for k in ks)
    if dual_fano != fano_dual:
        raise InternalInconsistency(
            "support-value and dual-polytope characterizations of dual-Fano disagree",
            via_offsets=dual_fano, via_dual=fano_dual,
        )
    return anchor, ks, dual_fano, quasi_reflexive


def is_dual_integral(
    p: Polytope, budget=None
) -> tuple[bool, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Search interior lattice anchors z for which every support value of
    p - z is 1/k with a positive integer k.  Returns (flag, anchor, k-list);
    the k-list follows the canonical facet order."""
    anchor, ks, _, _ = _anchor_pass(p, lattice_points(p, strict=True, budget=budget))
    return anchor is not None, anchor, ks


def is_dual_fano(p: Polytope, budget=None) -> bool:
    """Dual-integral with every facet integer 1; cross-checked against the
    direct definition (the translated dual is a Fano polytope)."""
    return _anchor_pass(p, lattice_points(p, strict=True, budget=budget))[2]


def is_quasi_reflexive(p: Polytope, budget=None) -> bool:
    """Lattice polytope and dual-integral; cross-checked against the direct
    definition (some lattice translate is reflexive)."""
    return _anchor_pass(p, lattice_points(p, strict=True, budget=budget))[3]


def classify(p: Polytope, budget=None) -> ClassificationReport:
    """Full report; the proven implications of the hierarchy are asserted
    before returning, so a malformed report can never escape.  The Ehrhart
    reconstruction runs before the per-point pass, so a dilation box over
    the budget raises ScaleExceeded before any interior point is visited."""
    interior = lattice_points(p, strict=True, budget=budget)
    quasi_lattice = ehrhart.is_quasi_lattice(p, budget)
    anchor, ks, dual_fano, quasi_reflexive = _anchor_pass(p, interior)
    report = ClassificationReport(
        is_lattice=is_lattice_polytope(p),
        is_fano=is_fano(p),
        is_reflexive=is_reflexive(p),
        is_quasi_reflexive=quasi_reflexive,
        is_dual_fano=dual_fano,
        is_dual_integral=anchor is not None,
        is_quasi_lattice=quasi_lattice,
        interior_lattice_points=interior,
        anchor=anchor,
        facet_integers=ks,
    )
    _assert_report_invariants(report)
    return report


def _assert_report_invariants(r: ClassificationReport) -> None:
    origin_anchor = r.anchor is not None and all(c == 0 for c in r.anchor)
    checks = [
        (not r.is_reflexive or r.is_quasi_reflexive, "reflexive => quasi-reflexive"),
        (not r.is_reflexive or origin_anchor, "reflexive => anchored at the origin"),
        (not r.is_quasi_reflexive or r.is_dual_fano, "quasi-reflexive => dual-Fano"),
        (not r.is_dual_fano or r.is_dual_integral, "dual-Fano => dual-integral"),
        (r.is_quasi_reflexive == (r.is_dual_integral and r.is_lattice),
         "quasi-reflexive <=> dual-integral and lattice"),
        (not r.is_dual_integral or r.interior_lattice_points.count == 1,
         "dual-integral => unique interior lattice point"),
        (not r.is_dual_integral or r.anchor == r.interior_lattice_points.points[0],
         "dual-integral => anchor is the unique interior point"),
        (r.is_dual_fano == (r.is_dual_integral and all(k == 1 for k in r.facet_integers or (0,))),
         "dual-Fano <=> dual-integral with unit facet integers"),
    ]
    for ok, name in checks:
        if not ok:
            raise InternalInconsistency(f"classification invariant violated: {name}")


def two_dim_criterion(p: Polytope, budget=None) -> bool:
    """In dimension 2, a quasi-lattice polytope is dual-integral exactly when
    it has a single interior lattice point; callers assert that equality."""
    if p.dim != 2:
        raise DimensionMismatch("criterion applies to dimension 2 only", dim=p.dim)
    if not ehrhart.is_quasi_lattice(p, budget):
        raise NotQuasiLattice("criterion applies to quasi-lattice polytopes only")
    flag, _, _ = is_dual_integral(p, budget)
    return flag
