"""Randomized search for counterexamples to two open claims:

  * "quasilattice": the counting quasi-polynomial of a rational polytope is a
    polynomial exactly when all canonical support values are integers;
  * "dualfano": a polytope is dual-Fano exactly when it is dual-integral and
    quasi-lattice.

Both directions that are theorems (dual-Fano => dual-integral, dual-integral
=> unique interior lattice point) are asserted and abort the run if violated:
that would be an implementation bug.  The open directions are measured and
reported only - a "counterexample found" verdict is a legitimate outcome and
every reported counterexample re-verifies from its serialized form.

Uniform random hulls almost never satisfy the hypotheses, so each claim also
gets a targeted constructor (integral support values for "quasilattice",
reciprocal-integer support values for "dualfano") interleaved with the
uniform stream.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import ehrhart, toric
from .classify import _anchor_pass
from .errors import GenerationExhausted, InternalInconsistency, ReflexError, ScaleExceeded
from .polytope import Polytope, from_hrep, from_json, from_vrep, lattice_points, translate
from .rationals import format_rational

_RETRY_CAP = 64


@dataclass(frozen=True)
class FuzzConfig:
    dim: int = 2
    samples: int = 100
    seed: int = 0
    max_coordinate: int = 4
    max_denominator: int = 12
    budget: int | None = None
    normal_entry_bound: int = 2
    max_facet_integer: int = 3

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("fuzz dimensions 1-3 only")
        if self.samples < 1 or self.max_coordinate < 1 or self.max_denominator < 1:
            raise ValueError("all bounds must be positive")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class FuzzReport:
    conjecture: str
    config: FuzzConfig
    instances_tested: int = 0
    hypothesis_held: int = 0
    counterexamples: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "counterexample found" if self.counterexamples else "no counterexample"

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "config": self.config.to_json(),
            "instances_tested": self.instances_tested,
            "hypothesis_held": self.hypothesis_held,
            "counterexamples": self.counterexamples,
            "skipped": self.skipped,
            "verdict": self.verdict,
            "note": "statistical evidence only; open directions are measured, never asserted",
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _generate(cfg: FuzzConfig, stream: int, kind: str, build, message: str) -> Polytope:
    """Call build(rng) until it returns a polytope instead of raising a
    ReflexError, at most _RETRY_CAP times.  rng is seeded by (seed, kind,
    stream) alone, so every stream is reproducible on its own."""
    rng = random.Random(f"{cfg.seed}:{kind}:{stream}")
    for _ in range(_RETRY_CAP):
        try:
            return build(rng)
        except ReflexError:
            continue
    raise GenerationExhausted(message, stream=stream)


def random_polytope(cfg: FuzzConfig, stream: int) -> Polytope:
    """Hull of d+1 .. 2d+2 bounded random rational points; resamples until
    full-dimensional, deterministically in (seed, stream)."""
    d = cfg.dim

    def build(rng):
        pts = []
        for _ in range(rng.randint(d + 1, 2 * d + 2)):
            coords = []
            for _ in range(d):
                den = rng.randint(1, cfg.max_denominator)
                num = rng.randint(-cfg.max_coordinate * den, cfg.max_coordinate * den)
                coords.append(Fraction(num, den))
            pts.append(tuple(coords))
        return from_vrep(pts)

    return _generate(cfg, stream, "uniform", build, "no full-dimensional hull found")


def _random_primitive_normal(rng: random.Random, d: int, bound: int) -> tuple[int, ...]:
    while True:
        vec = tuple(rng.randint(-bound, bound) for _ in range(d))
        g = math.gcd(*vec)
        if g:
            return tuple(c // g for c in vec)


def integral_support_polytope(cfg: FuzzConfig, stream: int) -> Polytope:
    """Targeted generator: primitive normals with positive integer support
    values (the hypothesis family of the "quasilattice" claim)."""
    d = cfg.dim

    def build(rng):
        rows = [
            (
                _random_primitive_normal(rng, d, cfg.normal_entry_bound),
                rng.randint(1, cfg.max_coordinate),
            )
            for _ in range(rng.randint(d + 1, 2 * d + 2))
        ]
        return from_hrep(rows, d)

    return _generate(cfg, stream, "weil", build, "no bounded integral-support instance")


def dual_integral_polytope(cfg: FuzzConfig, stream: int) -> Polytope:
    """Targeted generator: support values 1/k with random positive integers
    k, then a random lattice translation (the hypothesis family of the
    "dualfano" claim, anchored away from the origin)."""
    d = cfg.dim

    def build(rng):
        rows = [
            (
                _random_primitive_normal(rng, d, cfg.normal_entry_bound),
                Fraction(1, rng.randint(1, cfg.max_facet_integer)),
            )
            for _ in range(rng.randint(d + 1, 2 * d + 2))
        ]
        return translate(from_hrep(rows, d), tuple(rng.randint(-2, 2) for _ in range(d)))

    return _generate(cfg, stream, "dualint", build, "no bounded reciprocal-support instance")


def _skip_entry(stream: int, poly: Polytope, exc: ReflexError) -> dict:
    return {"stream": stream, "polytope": poly.to_json(), "error": type(exc).__name__}


def test_conjecture_quasilattice(cfg: FuzzConfig) -> FuzzReport:
    """Measure: quasi-lattice <=> integral canonical support values.

    Even streams draw uniform hulls, odd streams the targeted
    integral-support family.  Any disagreement is serialized with the
    support values and the reconstructed quasi-polynomial as evidence.
    """
    report = FuzzReport("quasilattice", cfg)
    for stream in range(cfg.samples):
        poly = (
            random_polytope(cfg, stream)
            if stream % 2 == 0
            else integral_support_polytope(cfg, stream)
        )
        divisor = toric.divisor_from_polytope(poly)
        weil = toric.is_weil(divisor)
        try:
            qp = ehrhart.ehrhart_quasi_polynomial(poly, cfg.budget)
        except ScaleExceeded as exc:
            report.skipped.append(_skip_entry(stream, poly, exc))
            continue
        report.instances_tested += 1
        report.hypothesis_held += 1
        if weil != qp.is_polynomial():
            report.counterexamples.append(
                {
                    "stream": stream,
                    "polytope": poly.to_json(),
                    "is_weil": weil,
                    "support_values": [format_rational(c) for c in divisor.coefficients],
                    "is_quasi_lattice": qp.is_polynomial(),
                    "period": qp.period,
                    "quasi_polynomial": qp.to_json(),
                }
            )
    return report


def test_conjecture_dualfano(cfg: FuzzConfig) -> FuzzReport:
    """Measure: dual-Fano <=> dual-integral and quasi-lattice.

    Restricted to instances passing the dual-integrality test (even streams
    use the targeted constructor, odd streams uniform hulls).  The proven
    implications are asserted on the way and abort on violation.
    """
    report = FuzzReport("dualfano", cfg)
    for stream in range(cfg.samples):
        poly = (
            dual_integral_polytope(cfg, stream)
            if stream % 2 == 0
            else random_polytope(cfg, stream)
        )
        try:
            interior = lattice_points(poly, strict=True, budget=cfg.budget)
        except ScaleExceeded as exc:
            report.skipped.append(_skip_entry(stream, poly, exc))
            continue
        anchor, ks, dfano, _ = _anchor_pass(poly, interior)
        di = anchor is not None
        if dfano and not di:
            raise InternalInconsistency("dual-Fano without dual-integral", stream=stream)
        if di and interior.count != 1:
            raise InternalInconsistency(
                "dual-integral without unique interior point", stream=stream
            )
        report.instances_tested += 1
        if not di:
            continue
        report.hypothesis_held += 1
        try:
            qp = ehrhart.ehrhart_quasi_polynomial(poly, cfg.budget)
        except ScaleExceeded as exc:
            report.skipped.append(_skip_entry(stream, poly, exc))
            continue
        ql = qp.is_polynomial()
        if dfano != ql:
            report.counterexamples.append(
                {
                    "stream": stream,
                    "polytope": poly.to_json(),
                    "is_dual_fano": dfano,
                    "is_dual_integral": di,
                    "anchor": list(anchor),
                    "facet_integers": list(ks),
                    "is_quasi_lattice": ql,
                    "period": qp.period,
                    "quasi_polynomial": qp.to_json(),
                }
            )
    return report


def reverify_counterexample(conjecture: str, entry: dict, budget=None) -> bool:
    """Recompute a serialized counterexample from scratch and confirm the
    recorded disagreement still holds."""
    poly = from_json(entry["polytope"])
    qp = ehrhart.ehrhart_quasi_polynomial(poly, budget)
    if conjecture == "quasilattice":
        weil = toric.is_weil(toric.divisor_from_polytope(poly))
        return (
            weil == entry["is_weil"]
            and qp.is_polynomial() == entry["is_quasi_lattice"]
            and weil != qp.is_polynomial()
        )
    if conjecture == "dualfano":
        anchor, _, dfano, _ = _anchor_pass(poly, lattice_points(poly, strict=True, budget=budget))
        di = anchor is not None
        return (
            di == entry["is_dual_integral"]
            and dfano == entry["is_dual_fano"]
            and qp.is_polynomial() == entry["is_quasi_lattice"]
            and dfano != (di and qp.is_polynomial())
        )
    raise ValueError(f"unknown conjecture id {conjecture!r}")


def write_report(report: FuzzReport, outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"fuzz_{report.conjecture}_seed{report.config.seed}.json"
    path.write_text(report.dumps())
    return path
