"""The combinatorial dictionary between polytopes and torus-invariant
divisor data on the associated normal fan.

Only the ray set of the fan is kept: every operation in scope consumes
primitive ray generators and per-ray rational coefficients.  The two Euler
characteristic surrogates are *defined* through lattice counts, with the
twisted one double-computed through its explicit support polytope, so the
identities they realize are self-testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ehrhart
from .errors import EmptyInput, EmptyOrUnbounded, InternalInconsistency, InvalidInput, UnboundedInput
from .polytope import (
    Polytope,
    count_in_box,
    dilate,
    from_hrep,
    integer_bounding_box,
    normal_fan_rays,
    parse_integer_vector,
    round_up,
)
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class FanRays:
    """Primitive ray generators of a normal fan (the only fan data needed)."""

    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("fan rays must be pairwise distinct")


@dataclass(frozen=True)
class ToricDivisorData:
    fan: FanRays
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.fan.rays) != len(self.coefficients):
            raise ValueError("one coefficient per ray required")

    def to_json(self) -> dict:
        return {
            "rays": [list(r) for r in self.fan.rays],
            "coefficients": [format_rational(c) for c in self.coefficients],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ToricDivisorData":
        if not isinstance(obj, dict):
            raise InvalidInput("divisor JSON must be an object")
        # a string ray is not split into digits, and a float or a fraction is
        # refused rather than truncated
        rays = tuple(
            parse_integer_vector(r, "fan rays must be integer vectors", "ray")
            for r in obj["rays"]
        )
        coeffs = tuple(parse_rational(c) for c in obj["coefficients"])
        return cls(FanRays(rays), coeffs)


def divisor_from_polytope(p: Polytope) -> ToricDivisorData:
    """Support values along the normal-fan rays, in canonical facet order."""
    pairs = normal_fan_rays(p)
    return ToricDivisorData(
        FanRays(tuple(u for u, _ in pairs)), tuple(b for _, b in pairs)
    )


def polytope_from_divisor(d: ToricDivisorData) -> Polytope:
    """{x : <x, u> <= a_u over rays}; raises when this is not a polytope."""
    if not d.fan.rays:
        raise InvalidInput("a divisor needs at least one ray")
    dim = len(d.fan.rays[0])
    try:
        return from_hrep(list(zip(d.fan.rays, d.coefficients)), dim)
    except (EmptyInput, UnboundedInput) as exc:
        raise EmptyOrUnbounded(
            "divisor polytope is empty or unbounded", cause=type(exc).__name__
        ) from exc


def round_down_divisor(d: ToricDivisorData) -> ToricDivisorData:
    return ToricDivisorData(
        d.fan, tuple(Fraction(math.floor(c)) for c in d.coefficients)
    )


def round_up_divisor(d: ToricDivisorData) -> ToricDivisorData:
    return ToricDivisorData(d.fan, tuple(Fraction(math.ceil(c)) for c in d.coefficients))


def is_weil(d: ToricDivisorData) -> bool:
    """Integral coefficients on every ray."""
    return all(c.denominator == 1 for c in d.coefficients)


def anticanonical_divisor(fan: FanRays) -> ToricDivisorData:
    """All coefficients 1 (the torus-invariant anticanonical representative)."""
    return ToricDivisorData(fan, tuple(Fraction(1) for _ in fan.rays))


def euler_char_global(p: Polytope, n: int, budget=None) -> int:
    """Euler characteristic surrogate of the rounded-down n-th twist: equals
    the lattice count of the n-th dilation."""
    return ehrhart.count(p, n, budget)


def euler_char_canonical_twist(p: Polytope, n: int, budget=None) -> int:
    """Euler characteristic surrogate of the canonical twist: the interior
    count of nP, cross-checked against the explicit support polytope
    {<x,u> <= ceil(n*b) - 1} which may be empty or lower-dimensional."""
    if n < 1:
        raise ValueError("canonical twist surrogate is defined for n >= 1")
    primary = ehrhart.count_interior(p, n, budget)

    shrunk = [
        (h.normal, Fraction(math.ceil(h.offset * n) - 1)) for h in p.hrep
    ]
    box_lo, box_hi = integer_bounding_box(round_up(dilate(p, n)))
    explicit = count_in_box(shrunk, box_lo, box_hi, strict=False, budget=budget)
    if explicit != primary:
        raise InternalInconsistency(
            "interior count and explicit twist polytope count disagree",
            interior=primary,
            explicit=explicit,
            n=n,
        )
    return primary
