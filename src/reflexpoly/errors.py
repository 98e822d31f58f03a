"""Domain errors shared across the package.

Every error carries an optional ``context`` dict with the exact values that
triggered it, so callers (and the CLI) can emit machine-readable reports.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import format_rational


class ReflexError(Exception):
    """Base class for all domain errors raised by reflexpoly."""

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def payload(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": self.message,
            "context": {k: _wire(v) for k, v in self.context.items()},
        }


def _wire(value):
    """A context value in the JSON wire format: rationals as "p/q" strings,
    tuples and lists element-wise, other non-JSON values by repr."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_wire(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


# -- polytope kernel ---------------------------------------------------------

class InvalidInput(ReflexError):
    """Malformed or inconsistent input data (parse-level, not geometric)."""


class EmptyInput(ReflexError):
    """The halfspace intersection is infeasible."""


class UnboundedInput(ReflexError):
    """The halfspace intersection is an unbounded polyhedron."""


class LowerDimensional(ReflexError):
    """The set is not full-dimensional in its ambient space."""


class OriginNotInterior(ReflexError):
    """Polar dual requested but the origin is not strictly interior."""


class NonPositiveFactor(ReflexError):
    """Dilation factor must be strictly positive."""


class CollapsedPolytope(ReflexError):
    """Rounding down the facet offsets emptied or flattened the polytope."""


class ScaleExceeded(ReflexError):
    """A lattice scan would exceed the enumeration budget, or a
    reconstruction the desk-scale cap on its dilations."""


# -- ehrhart -----------------------------------------------------------------

class ValidationFailed(ReflexError):
    """A reconstructed object failed its held-out self-check (internal bug)."""


class PeriodNotOne(ReflexError):
    """Operation requires a genuine polynomial (quasi-period 1)."""


# -- classify / toric / flag -------------------------------------------------

class InternalInconsistency(ReflexError):
    """Two provably-equivalent computations disagreed; aborting is mandatory."""


class DimensionMismatch(ReflexError):
    """Operation restricted to a specific ambient dimension."""


class NotQuasiLattice(ReflexError):
    """Operation requires a polytope whose Ehrhart quasi-polynomial is a polynomial."""


class EmptyOrUnbounded(ReflexError):
    """Divisor polytope is empty or unbounded for the given coefficients."""


class UnsupportedType(ReflexError):
    """Root system type outside the supported families A-D, G2."""


class NotPRegular(ReflexError):
    """Weight is not strictly dominant on exactly the excluded simple roots."""


# -- fuzz --------------------------------------------------------------------

class GenerationExhausted(ReflexError):
    """Random generator hit its retry cap without a usable instance."""
