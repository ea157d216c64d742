"""Reduction of f(x) = (ax+b)/(x^2+cx+d) with a double fixed point.

The fixed points of the four-parameter map are the roots of the cubic
x^3 + c*x^2 + (d-a)*x - b. When that cubic has a (necessarily rational)
double root x2, shifting by h(t) = t + x2 conjugates f to

    (h^-1 o f o h)(t) = (-x2*t^2 + B*t) / (t^2 + D*t + B),

with B = x2^2 + c*x2 + d and D = 2*x2 + c. When x2 = 0 this collapses to
the two-parameter canonical form a*t/(t^2 + c*t + a); otherwise it is the
three-parameter family, which this package labels but does not analyze.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import CanonicalMap
from .errors import PoleHitError, UnsupportedCaseError, _verify
from .padic import _coerce_fraction, is_prime

__all__ = ["GeneralMap", "ConjugationResult", "conjugate", "verify_conjugacy"]


@dataclass(frozen=True)
class GeneralMap:
    """f(x) = (a*x + b)/(x^2 + c*x + d) over Q_p, with a != 0."""

    p: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        for name in "abcd":
            object.__setattr__(self, name, _coerce_fraction(getattr(self, name)))
        if self.a == 0:
            raise ValueError("parameter a must be nonzero")

    def fixed_point_cubic(self):
        """Coefficients (low to high) of x^3 + c*x^2 + (d-a)*x - b."""
        return [-self.b, self.d - self.a, self.c, Fraction(1)]

    def eval(self, x) -> Fraction:
        x = _coerce_fraction(x)
        den = x * x + self.c * x + self.d
        if den == 0:
            raise PoleHitError(x)
        return (self.a * x + self.b) / den


def _cubic_root_profile(m: GeneralMap):
    """("double", x1, x2) | ("triple", x, None) | ("distinct", None, None).

    The discriminant of x^3 + A*x^2 + B*x + C vanishes iff a root repeats. With roots (r, r, s), A^2 - 3B = (r - s)^2, so A^2 = 3B
    means a triple root -A/3; otherwise the double root is
    (9C - AB) / (2(A^2 - 3B)) and the simple one -A - 2r. A repeated root
    of a rational cubic is rational, so everything stays exact.
    """
    C, B, A, _ = m.fixed_point_cubic()
    if 18 * A * B * C - 4 * A**3 * C + A * A * B * B - 4 * B**3 - 27 * C * C != 0:
        return ("distinct", None, None)
    if A * A == 3 * B:
        return ("triple", -A / 3, None)
    x2 = (9 * C - A * B) / (2 * (A * A - 3 * B))
    return ("double", -A - 2 * x2, x2)


@dataclass(frozen=True)
class ConjugationResult:
    """Outcome of shifting the double fixed point to the origin."""

    x1: Fraction
    x2: Fraction
    B: Fraction
    D: Fraction
    family: str  # "two-parameter" when x2 == 0, else "three-parameter"
    canonical: Optional[CanonicalMap]


def conjugate(m: GeneralMap) -> ConjugationResult:
    """Shift the double fixed point x2 to 0 and report the conjugated map.

    Raises UnsupportedCaseError when there is no double fixed point. When
    x2 = 0 the result carries the canonical two-parameter map
    (then B = d = a and D = c); when x2 != 0 only B, D and the family label
    are returned.
    """
    kind, x1, x2 = _cubic_root_profile(m)
    if kind == "distinct":
        raise UnsupportedCaseError(
            "fixed-point cubic is squarefree: three distinct fixed points",
            label="three-distinct-fixed-points",
        )
    if kind == "triple":
        raise UnsupportedCaseError(
            "fixed-point cubic has a triple root: single fixed point of multiplicity three",
            label="triple-fixed-point",
        )
    # No Vieta identity of (x - x1)(x - x2)^2 can fail. For roots (r, r, s),
    # A = -(2r + s), B = r^2 + 2rs and C = -r^2*s, so 9C - AB = 2r(r - s)^2
    # and A^2 - 3B = (r - s)^2: _cubic_root_profile returns x2 = r and
    # x1 = -A - 2r = s exactly, and then x2^2 + 2*x1*x2 = B = d - a and
    # x1*x2^2 = -C = b.
    B = x2 * x2 + m.c * x2 + m.d
    D = 2 * x2 + m.c
    if x2 == 0:
        # B = d and D = c by their formulas, and d = a by x2^2 + 2*x1*x2 = d - a
        canonical = CanonicalMap(m.p, B, D)
        return ConjugationResult(x1, x2, B, D, "two-parameter", canonical)
    return ConjugationResult(x1, x2, B, D, "three-parameter", None)


def verify_conjugacy(m: GeneralMap, result: ConjugationResult, ts) -> int:
    """Check h^-1(f(h(t))) == (-x2*t^2 + B*t)/(t^2 + D*t + B) at sample points.

    Returns the number of points actually compared (poles are skipped).
    Raises VerificationError on any mismatch.
    """
    checked = 0
    x2, B, D = result.x2, result.B, result.D
    for t in ts:
        t = _coerce_fraction(t)
        d = t * t + D * t + B
        if d == 0:  # also f's denominator at t + x2, so eval hits no pole
            continue
        lhs = m.eval(t + x2) - x2
        rhs = (-x2 * t * t + B * t) / d
        _verify(lhs == rhs, f"conjugacy identity fails at t={t}", counterexample=t)
        checked += 1
    return checked
