"""2- and 3-periodic orbits of f(x) = a*x/(x^2 + c*x + a).

The 2-periodic points are the roots of x^2 + 2c*x + 2a (exactly one orbit,
{-c +- sqrt(c^2 - 2a)}, when that square root exists in Q_p). The
3-periodic points are the roots of a degree-6 polynomial P; requiring the
parameter a itself to be 3-periodic yields the one-parameter family
a = h(q), c = q*h(q) - 1 with h(q) = (3q^2+2q)/(6q^3+11q^2+6q+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .dynamics import (
    CanonicalMap,
    SphereSpec,
    _distance_exponent_pairs,
    _require_precision_budget,
    sphere_pairs,
    sphere_units,
)
from .ergodicity import rescale_to_unit, rho
from .errors import NotApplicableError, VerificationError
from .padic import (
    TruncatedPadic,
    Valuation,
    _coerce_fraction,
    _fraction_valuation,
    _int_valuation,
    _sqrt_in_qp,
)

__all__ = [
    "PeriodicOrbit",
    "QSweepRecord",
    "SphereConditions",
    "h_of_q",
    "q_sweep",
    "sphere_conditions",
    "three_periodic_from_q",
    "two_periodic",
    "verify_orbit_structure",
]

Point = Union[Fraction, TruncatedPadic]


@dataclass(frozen=True)
class PeriodicOrbit:
    points: tuple[Point, ...]  # one cycle; the period is its length
    # |(f^n)'(y0)|_p = p**(-multiplier_norm_exponent); INFINITY when the
    # multiplier vanishes (a superattracting cycle)
    multiplier_norm_exponent: Valuation
    exact: bool


def two_periodic(m: CanonicalMap, precision: int = 32) -> Optional[PeriodicOrbit]:
    """The unique 2-periodic orbit {-c + s, -c - s} with s^2 = c^2 - 2a.

    Exact rationals when c^2 - 2a is a perfect rational square; otherwise a
    truncated Hensel root at the requested precision. The precision is
    checked first, whichever case applies: it must be at least 1 and fit
    PRECISION_BIT_BUDGET (ValueError otherwise). Returns None when
    c^2 - 2a is not a square in Q_p or is zero (then -c +- s collapses onto
    the fixed point x2, not a 2-cycle).

    The multiplier is exact in both cases: the points are the roots of
    x^2 + 2c*x + 2a, where x^2 + c*x + a = -(c*x + a) and a - x^2 = 3a + 2c*x,
    so f'(x) = a*(3a + 2c*x)/(c*x + a)^2. Over the two roots (sum -2c,
    product 2a) the numerators multiply to a*a*(9a - 4c^2) and the
    factors c*x + a to a^2, so (f^2)'(y0) = 9 - 4c^2/a.

    The swap holds for every a and c, so f is never evaluated on the cycle;
    padic._sqrt_in_qp checks a truncated s exactly. No root t is a pole: a
    common root of x^2 + 2c*x + 2a and x^2 + c*x + a has c*t + a = 0 and
    t^2 = 0, so a = 0, which CanonicalMap refuses. So f(t) = -a*t/(c*t + a),
    and f(t1) = t2 iff -a*t1 = t2*(c*t1 + a), i.e. -a*(t1 + t2) = c*t1*t2,
    which is 2ac = 2ac; likewise f(t2) = t1.
    """
    _require_precision_budget(m.p, precision)
    disc = m.c * m.c - 2 * m.a
    s = None if disc == 0 else _sqrt_in_qp(disc, m.p, precision)
    if s is None:
        return None
    mult = _fraction_valuation(9 - 4 * m.c * m.c / m.a, m.p)
    return PeriodicOrbit((s - m.c, -s - m.c), mult, isinstance(s, Fraction))


def h_of_q(q: Fraction) -> Fraction:
    """h(q) = (3q^2 + 2q) / (6q^3 + 11q^2 + 6q + 1).

    In integers, with q = n/d: n*d*(3n + 2d) / (6n^3 + 11n^2 d + 6n d^2 + d^3).
    """
    q = _coerce_fraction(q)
    n, d = q.numerator, q.denominator
    den = ((6 * n + 11 * d) * n + 6 * d * d) * n + d**3
    if den == 0:
        raise ValueError(f"h(q) is undefined at q = {q} (denominator vanishes)")
    return Fraction(n * d * (3 * n + 2 * d), den)


# q = 0, -1 and -2/3 as (numerator, denominator)
_EXCLUDED_Q = ((0, 1), (-1, 1), (-2, 3))


def _family_map(p: int, q: Fraction) -> CanonicalMap:
    """The map with a = h(q) and c = q*a - 1, c built from the integers of
    q and a. ValueError for q in _EXCLUDED_Q and at the poles of h."""
    if (q.numerator, q.denominator) in _EXCLUDED_Q:
        raise ValueError(f"q = {q} is excluded (construction degenerates)")
    a = h_of_q(q)
    an, ad = a.numerator, a.denominator
    return CanonicalMap(p, a, Fraction(q.numerator * an - q.denominator * ad, q.denominator * ad))


def three_periodic_from_q(p: int, q) -> tuple[CanonicalMap, PeriodicOrbit]:
    """The map with a = h(q), c = q*h(q) - 1 and its 3-cycle
    {a, 1/(q+1), (3q+2)/(2q+1)}, in closed form.

    q must avoid {0, -1, -2/3} (where the construction degenerates) and the
    poles -1/2 and -1/3 of h. Nothing is evaluated or checked at run time:
    each fact below is a polynomial identity in q, true for every admitted q.

    With a = q(3q+2)/((q+1)(2q+1)(3q+1)), c = -(3q^3+9q^2+6q+1)/((q+1)(2q+1)(3q+1))
    and D(x) = x^2 + c*x + a:
    - f(a) = a^2/D(a) = a/(a + c + 1), and a + c + 1 = q(3q+2)/((2q+1)(3q+1)),
      so f(a) = 1/(q+1);
    - f(a) - a = (3q^2+3q+1)/((q+1)(2q+1)(3q+1)), and 3q^2 + 3q + 1 has
      discriminant -3, so a is not fixed;
    - D(a) = q^2(3q+2)^2/((q+1)(2q+1)^2(3q+1)^2), D(1/(q+1)) =
      q/((q+1)^2(3q+1)) and D((3q+2)/(2q+1)) = (3q+2)/(2q+1), zero only at
      q in {0, -2/3}: no point is a pole. Then f(1/(q+1)) =
      a/((q+1)D(1/(q+1))) = (3q+2)/(2q+1), and f((3q+2)/(2q+1)) = a;
    - P is the dynatomic polynomial Phi_3 of f (Silverman, The Arithmetic of
      Dynamical Systems, 4.1): f^3(x) - x = -x^2(x + c)P(x)/D3(x) with D3 the
      cleared denominator of f^3, and f^3(a) = a, a != 0 and
      a + c = (q+1)a - 1 = -(3q^2+3q+1)/((2q+1)(3q+1)) != 0, so P(a) = 0;
    - with f'(x) = a(a - x^2)/D(x)^2, N1 = 3q^3-q^2-3q-1, N2 = 6q^3+8q^2+4q+1
      and N3 = 9q^3+16q^2+10q+2, f'(a) = (2q+1)(3q+1)N2/(q^2(q+1)(3q+2)^2),
      f'(1/(q+1)) = (q+1)(3q+2)N1/(q(2q+1)^2) and f'((3q+2)/(2q+1)) =
      -q*N3/((q+1)^2(2q+1)(3q+1)^2), so
      (f^3)'(a) = -N1*N2*N3/(q^2(q+1)^2(2q+1)^2(3q+1)(3q+2)).
      By the rational root test no N_i vanishes at a rational q (N1 is -2 at
      +-1 and 1/3, -2/9 at -1/3; N2 > 0 for q >= 0 and is -1, 1/4, 1/3,
      19/36 at -1, -1/2, -1/3, -1/6; N3 > 0 for q >= 0 and is -1, -26, 1/9,
      -2/9, 29/27, 38/81 at -1, -2, -1/3, -2/3, -1/9, -2/9), so the
      multiplier is never 0.
    With q = n/d, N_i(q) = N_i(n, d)/d^3 and the denominator is
    n^2(n+d)^2(2n+d)^2(3n+d)(3n+2d)/d^8, so the valuation of the multiplier is
    sum v(N_i(n, d)) - v(d) - 2v(n) - 2v(n+d) - 2v(2n+d) - v(3n+d) - v(3n+2d),
    read here as the valuations of the two products.
    """
    q = _coerce_fraction(q)
    m = _family_map(p, q)
    n, d = q.numerator, q.denominator
    nn, dd = n * n, d * d
    n1 = (3 * n - d) * nn - (3 * n + d) * dd
    n2 = (6 * n + 8 * d) * nn + (4 * n + d) * dd
    n3 = (9 * n + 16 * d) * nn + (10 * n + 2 * d) * dd
    linear = d * (n * (n + d) * (2 * n + d)) ** 2 * (3 * n + d) * (3 * n + 2 * d)
    mult = _int_valuation(n1 * n2 * n3, p) - _int_valuation(linear, p)
    points = (m.a, Fraction(d, n + d), Fraction(3 * n + 2 * d, 2 * n + d))
    return m, PeriodicOrbit(points, mult, True)


@dataclass(frozen=True)
class SphereConditions:
    """The spheres S_r(x_i) through the family parameter a, as radius
    exponents, and whether each is invariant. x2_radius_exponent is None
    when a = x2."""

    x1_radius_exponent: int
    x1_sphere_invariant: bool
    x2_radius_exponent: Optional[int]
    x2_sphere_invariant: bool


def sphere_conditions(m: CanonicalMap) -> SphereConditions:
    """Which invariant spheres the parameter a lies on.

    Around x1: |a|_p = r, i.e. |h(q)|_p = r. Around x2: |a - x2|_p =
    |a + c|_p = r, i.e. |h(q)(q+1) - 1|_p = r, with v(a + c) read off the
    integer pairs of a and -c. Invariance reads the map's pole valuations
    and case (sphere_is_invariant), not a classification. Raises
    InconsistentParametersError when the map's pole norms are not in p**Z.
    """
    e1 = -m.va
    c = m.c
    e2 = _distance_exponent_pairs(m.p, m.a.numerator, m.a.denominator, -c.numerator, c.denominator)
    e2 = None if e2 == "-inf" else e2
    return SphereConditions(
        e1, m.sphere_is_invariant(SphereSpec("x1", e1)),
        e2, e2 is not None and m.sphere_is_invariant(SphereSpec("x2", e2)),
    )


def verify_orbit_structure(
    m: CanonicalMap,
    orbit: PeriodicOrbit,
    sphere: SphereSpec,
    samples: int = 8,
    seed: Optional[int] = None,
) -> tuple[int, int]:
    """Structural checks for a periodic orbit lying on an invariant sphere.

    (1) every orbit point lies in the ball V_rho(r)(y0);
    (2) the cycle multiplier has norm exactly 1 (indifferent);
    (3) spheres around consecutive orbit points map into each other:
        f(S_rho'(y_k)) inside S_rho'(y_(k+1)) for rho' = rho(r)/p, sampled.

    Returns (rho, checked): the exponent rho(m, sphere) of the displacement
    radius that (1) reads, and the number of sampled points checked in (3),
    samples times the period. Raises VerificationError (with the counterexample) if any check fails;
    the orbit must genuinely lie on the given invariant sphere. A truncated
    orbit raises NotApplicableError: the checks compare exact points.
    """
    if not orbit.exact:
        raise NotApplicableError("structure checks need an exact orbit; this one is truncated")
    center = m.center_point(sphere.center)
    for y in orbit.points:
        if _fraction_valuation(y - center, m.p) != -sphere.radius_exponent:
            raise VerificationError(
                f"orbit point {y} is not on the sphere", counterexample=y
            )
    rho_exp = rho(rescale_to_unit(m, sphere))
    y0 = orbit.points[0]
    for y in orbit.points[1:]:
        if -_fraction_valuation(y - y0, m.p) > rho_exp:
            raise VerificationError(
                f"orbit point {y} escapes V_(p^{rho_exp})(y0)", counterexample=y
            )
    mult = orbit.multiplier_norm_exponent
    if mult != 0:
        raise VerificationError(
            f"on-sphere periodic orbit must be indifferent; got exponent {mult}"
        )
    # sphere-to-sphere mapping around consecutive points, one level inside rho:
    # isometry + f(y_k) = y_(k+1) force |f(x) - y_(k+1)| = |x - y_k| exactly
    rho_inner = rho_exp - 1
    pts = orbit.points + (orbit.points[0],)
    units = sphere_units(m.p, samples, seed)
    for yk, yk1 in zip(pts, pts[1:]):
        for x in sphere_pairs(yk, m.p, rho_inner, units):
            fx = m._eval_pair(*x)
            if _distance_exponent_pairs(m.p, *fx, yk1.numerator, yk1.denominator) != rho_inner:
                raise VerificationError(f"f(S_(p^{rho_inner})({yk})) leaves "
                                        f"S_(p^{rho_inner})({yk1})", counterexample=Fraction(*x))
    return rho_exp, len(units) * len(orbit.points)


@dataclass(frozen=True)
class QSweepRecord:
    q: Fraction
    a: Fraction
    c: Fraction
    on_x1_sphere_exponent: Optional[int]  # |a|_p as exponent when that sphere is invariant
    on_x2_sphere_exponent: Optional[int]


def q_sweep(p: int, max_height: int = 6) -> list[QSweepRecord]:
    """Scan height-bounded rationals q and record which 3-periodic family
    parameters land on invariant spheres of their own map.

    Height bound: |numerator| <= max_height and denominator <= max_height.
    Deterministic order (by denominator, then numerator). A q not in lowest
    terms is skipped by its gcd before any Fraction is built. Each map is
    built as in three_periodic_from_q, whose docstring proves its 3-cycle;
    neither the cycle nor its multiplier is computed. The spheres are those
    of sphere_conditions.
    """
    out = []
    for den in range(1, max_height + 1):
        for num in range(-max_height, max_height + 1):
            if num == 0 or gcd(num, den) != 1:  # q = 0, or visited in lowest terms
                continue
            q = Fraction(num, den)
            try:
                m = _family_map(p, q)
            except ValueError:  # excluded q, or a pole of h
                continue
            # sphere_conditions refuses only when v(kappa) < 0 is odd, kappa = a/c^2 =
            # q(q+1)(2q+1)(3q+1)(3q+2)/N^2 with N = 3q^3 + 9q^2 + 6q + 1. For v(q) < 0,
            # v(kappa) = v(2) - v(q) > 0. Otherwise, where p | N (never p = 3: N = 1
            # mod 3), the five factors are units, as their resultants with N are +-1
            # or +-3, so a negative v(kappa) = -2v(N) is even
            sc = sphere_conditions(m)
            out.append(QSweepRecord(
                q, m.a, m.c,
                sc.x1_radius_exponent if sc.x1_sphere_invariant else None,
                sc.x2_radius_exponent if sc.x2_sphere_invariant else None,
            ))
    return out
