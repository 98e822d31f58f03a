"""Hilbert polynomials of polarized partial flag varieties via the Weyl
dimension formula, and detection of the anticanonical weight.

Conventions.  Weights live in fundamental-weight coordinates (lambda_i =
<lambda, alpha_i-check>).  A positive root beta is stored twice: as its
expansion in simple roots (used for the parabolic support condition) and as
the expansion of its coroot in simple coroots (used for pairings, since
<omega_i, beta-check> is the i-th coroot coefficient).  Both expansions are
integral, so every pairing <n*lambda + rho, beta-check> is an exact integer
linear function of n.

Supported types: A (rank >= 1), B, C (rank >= 2), D (rank >= 3), G2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _poly
from .ehrhart import QuasiPolynomial, ehrhart_quasi_polynomial, hilbert_symmetry_check
from .errors import InternalInconsistency, NotPRegular, UnsupportedType, ValidationFailed
from .polytope import Polytope

# input guard at the documented desk scale: the root closure and a Hilbert
# polynomial grow about as rank^4, about 0.06 s at rank 16 (type B, every
# simple root excluded, 2 CPUs)
_MAX_RANK = 16

_KNOWN_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G2": lambda r: 6,
}


@dataclass(frozen=True)
class RootSystemData:
    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = <alpha_j, alpha_i-check>
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    coroots: tuple[tuple[int, ...], ...]  # matching coroot, simple-coroot coordinates

    def pairing(self, weight: Sequence[int], root_index: int) -> int:
        """<weight, beta-check> for a fundamental-coordinate weight."""
        cor = self.coroots[root_index]
        return sum(int(w) * c for w, c in zip(weight, cor))

    def root_height_paired_with_rho(self, root_index: int) -> int:
        return sum(self.coroots[root_index])

    def fundamental_coordinates(self, simple_combination: Sequence[int]) -> tuple[int, ...]:
        """Fundamental coordinates of an integer combination of simple roots."""
        return tuple(
            sum(int(c) * self.cartan[i][j] for j, c in enumerate(simple_combination))
            for i in range(self.rank)
        )


@dataclass(frozen=True)
class ParabolicChoice:
    """Simple roots excluded from the Levi, 1-based indices."""

    excluded_simples: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.excluded_simples)) != len(self.excluded_simples):
            raise ValueError("excluded simple roots must be distinct")
        object.__setattr__(self, "excluded_simples", tuple(sorted(self.excluded_simples)))


def _cartan_and_norms(type_label: str, rank: int):
    """Cartan matrix (convention above) and squared simple-root lengths."""
    if type_label == "A":
        if rank < 1:
            raise UnsupportedType("type A needs rank >= 1", rank=rank)
        norm2 = [2] * rank
        sym = _chain_form(rank, norm2, last_off=-1)
    elif type_label == "B":
        if rank < 2:
            raise UnsupportedType("type B needs rank >= 2", rank=rank)
        norm2 = [2] * (rank - 1) + [1]
        sym = _chain_form(rank, norm2, last_off=-1)
    elif type_label == "C":
        if rank < 2:
            raise UnsupportedType("type C needs rank >= 2", rank=rank)
        norm2 = [2] * (rank - 1) + [4]
        sym = _chain_form(rank, norm2, last_off=-2)
    elif type_label == "D":
        if rank < 3:
            raise UnsupportedType("type D needs rank >= 3", rank=rank)
        norm2 = [2] * rank
        sym = _chain_form(rank - 1, norm2[:-1], last_off=-1, total=rank)
        sym[rank - 3][rank - 1] = sym[rank - 1][rank - 3] = -1
        sym[rank - 1][rank - 1] = 2
    elif type_label == "G2":
        if rank != 2:
            raise UnsupportedType("type G2 has rank 2", rank=rank)
        norm2 = [2, 6]
        sym = [[2, -3], [-3, 6]]
    else:
        raise UnsupportedType(f"unsupported type {type_label!r}", type=type_label)
    cartan = tuple(
        tuple(2 * Fraction(sym[i][j], norm2[i]) for j in range(rank)) for i in range(rank)
    )
    if any(c.denominator != 1 for row in cartan for c in row):
        raise InternalInconsistency("non-integral Cartan entry", type=type_label, rank=rank)
    return tuple(tuple(int(c) for c in row) for row in cartan), norm2, sym


def _chain_form(links: int, norm2, last_off: int, total: int | None = None):
    """Symmetric bilinear form of a simple chain; off-diagonals -1 except the
    final link, which carries the multiple bond."""
    n = total if total is not None else links
    sym = [[0] * n for _ in range(n)]
    for i in range(links):
        sym[i][i] = norm2[i]
    for i in range(links - 1):
        off = last_off if i == links - 2 else -1
        sym[i][i + 1] = sym[i + 1][i] = off
    return sym


def build_root_system(type_label: str, rank: int) -> RootSystemData:
    """Exact root, coroot, and pairing tables for one of the supported types.

    Positive roots are generated by the standard root-string closure from
    the Cartan matrix; the count is asserted against the classical formula,
    and the closure stops as soon as it exceeds it, so a Cartan matrix of
    infinite type raises instead of running on.  Ranks above _MAX_RANK raise
    UnsupportedType.
    """
    if rank > _MAX_RANK:
        raise UnsupportedType("rank exceeds the supported maximum", rank=rank, max_rank=_MAX_RANK)
    label = type_label.upper()
    if label == "G":
        label = "G2"
    cartan, norm2, sym = _cartan_and_norms(label, rank)
    expected = _KNOWN_COUNTS[label](rank)

    roots: dict[tuple[int, ...], None] = {}
    for i in range(rank):
        roots[tuple(1 if j == i else 0 for j in range(rank))] = None
    frontier = list(roots)
    while frontier:
        new_frontier = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[i][j] for j in range(rank))
                q = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    candidate = tuple(probe)
                    if candidate in roots:
                        q += 1
                    else:
                        break
                p_up = q - pairing
                if p_up >= 1:
                    up = tuple(c + (1 if j == i else 0) for j, c in enumerate(beta))
                    if up not in roots:
                        roots[up] = None
                        new_frontier.append(up)
                        if len(roots) > expected:
                            raise InternalInconsistency(
                                "positive root count mismatch", got=len(roots), expected=expected
                            )
        frontier = new_frontier

    ordered = sorted(roots, key=lambda c: (sum(c), c))
    if len(ordered) != expected:
        raise InternalInconsistency(
            "positive root count mismatch", got=len(ordered), expected=expected
        )

    coroots = []
    for beta in ordered:
        norm_beta = sum(beta[i] * beta[j] * sym[i][j] for i in range(rank) for j in range(rank))
        cor, rems = zip(*(divmod(beta[j] * norm2[j], norm_beta) for j in range(rank)))
        if any(rems):
            raise InternalInconsistency("non-integral coroot expansion", root=beta)
        coroots.append(cor)

    return RootSystemData(
        type_label=label,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(ordered),
        coroots=tuple(coroots),
    )


def parabolic_positive_roots(rs: RootSystemData, pc: ParabolicChoice) -> list[tuple[int, ...]]:
    """Positive roots whose simple-root support meets the excluded set."""
    excluded = {i - 1 for i in pc.excluded_simples}
    if any(i < 0 or i >= rs.rank for i in excluded):
        raise ValueError("excluded simple index out of range")
    return [beta for beta in rs.positive_roots if any(beta[i] != 0 for i in excluded)]


def _check_p_regular(rs: RootSystemData, pc: ParabolicChoice, lam: Sequence[int]) -> None:
    if len(lam) != rs.rank:
        raise NotPRegular("weight length does not match rank", weight=tuple(lam))
    excluded = set(pc.excluded_simples)
    for i, coeff in enumerate(lam, start=1):
        if i in excluded and coeff <= 0:
            raise NotPRegular(
                "weight must be strictly positive on excluded simples", index=i, coeff=coeff
            )
        if i not in excluded and coeff != 0:
            raise NotPRegular(
                "weight must vanish on Levi simples", index=i, coeff=coeff
            )


def hilbert_polynomial(
    rs: RootSystemData, pc: ParabolicChoice, lam: Sequence[int]
) -> QuasiPolynomial:
    """Expand prod over moved roots of <n*lambda + rho, beta-check> /
    <rho, beta-check> as an exact polynomial in n (period-1 quasi-polynomial
    of degree = number of moved roots)."""
    _check_p_regular(rs, pc, lam)
    moved = set(parabolic_positive_roots(rs, pc))
    poly, denom = [1], 1
    for idx, beta in enumerate(rs.positive_roots):
        if beta in moved:
            height = rs.root_height_paired_with_rho(idx)
            poly = _poly.times_linear(poly, height, rs.pairing(lam, idx))
            denom *= height
    return QuasiPolynomial.from_constituents([[Fraction(c, denom) for c in poly]])


def anticanonical_weight(rs: RootSystemData, pc: ParabolicChoice) -> tuple[int, ...]:
    """Sum of the moved positive roots, in fundamental coordinates.  The
    candidate is only returned once detect_anticanonical confirms it."""
    if not pc.excluded_simples:
        raise ValueError("parabolic choice must exclude at least one simple root")
    moved = parabolic_positive_roots(rs, pc)
    total = tuple(sum(beta[j] for beta in moved) for j in range(rs.rank))
    lam = rs.fundamental_coordinates(total)
    if not detect_anticanonical(rs, pc, lam):
        raise ValidationFailed(
            "computed anticanonical candidate failed detection", weight=lam
        )
    return lam


def detect_anticanonical(
    rs: RootSystemData, pc: ParabolicChoice, lam: Sequence[int], n_max: int = 5
) -> bool:
    """True when the Hilbert polynomial evaluates to (-1)^d at n = -1, with
    d the number of moved roots.  Cross-checked against the full palindromic
    symmetry q(n) = (-1)^d q(-n-1); the two criteria agreeing is a theorem
    for these Weyl products, so disagreement aborts."""
    q = hilbert_polynomial(rs, pc, lam)
    d = len(parabolic_positive_roots(rs, pc))
    point_criterion = q.evaluate(-1) == (-1) ** d
    symmetry_criterion = hilbert_symmetry_check(q, d, n_max)
    if point_criterion != symmetry_criterion:
        raise InternalInconsistency(
            "evaluation-at--1 and palindromic-symmetry criteria disagree",
            point=point_criterion,
            symmetry=symmetry_criterion,
            weight=tuple(lam),
        )
    return point_criterion


def dominant_p_regular_weights(rs, pc, max_coeff: int):
    """All weights with coefficients in 1..max_coeff on the excluded simples
    and 0 elsewhere (the P-regular dominant weights up to the cap)."""
    excluded = set(pc.excluded_simples)
    slots = sorted(excluded)
    for combo in itertools.product(range(1, max_coeff + 1), repeat=len(slots)):
        lam = [0] * rs.rank
        for i, c in zip(slots, combo):
            lam[i - 1] = c
        yield tuple(lam)


def string_polytope_cross_check(
    p: Polytope, rs: RootSystemData, pc: ParabolicChoice, lam: Sequence[int], budget=None
) -> bool:
    """Compare the counting quasi-polynomial of an externally supplied
    degeneration polytope with the Weyl-product Hilbert polynomial."""
    q_poly = ehrhart_quasi_polynomial(p, budget)
    q_flag = hilbert_polynomial(rs, pc, lam)
    return q_poly.period == q_flag.period and q_poly.constituents == q_flag.constituents
