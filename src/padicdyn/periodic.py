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
from typing import Optional, Union

from .dynamics import CanonicalMap, SphereSpec, _require_precision_budget, sphere_units
from .ergodicity import rho
from .errors import (
    InconsistentParametersError,
    NotApplicableError,
    PoleHitError,
    PrecisionError,
    VerificationError,
    _verify,
)
from .padic import (
    INFINITY,
    TruncatedPadic,
    Valuation,
    _coerce_fraction,
    _fraction_valuation,
    hensel_sqrt,
    is_square,
    rational_sqrt,
)

__all__ = [
    "PeriodicOrbit",
    "SphereConditions",
    "StructureReport",
    "ThreePeriodicResult",
    "h_of_q",
    "p6_eval",
    "q_sweep",
    "sphere_conditions",
    "three_periodic_from_q",
    "two_periodic",
    "verify_orbit_structure",
]

Point = Union[Fraction, TruncatedPadic]


@dataclass(frozen=True)
class PeriodicOrbit:
    period: int
    points: tuple[Point, ...]
    # |(f^n)'(y0)|_p = p**(-multiplier_norm_exponent); INFINITY when the
    # multiplier vanishes (a superattracting cycle)
    multiplier_norm_exponent: Valuation
    exact: bool


def two_periodic(m: CanonicalMap, precision: int = 32) -> Optional[PeriodicOrbit]:
    """The unique 2-periodic orbit {-c + s, -c - s} with s^2 = c^2 - 2a.

    Exact rationals when c^2 - 2a is a perfect rational square; otherwise a
    truncated Hensel root at the requested precision, which must fit
    PRECISION_BIT_BUDGET (ValueError otherwise). Returns None when
    c^2 - 2a is not a square in Q_p or is zero (then -c +- s collapses onto
    the fixed point x2, not a 2-cycle).

    The multiplier is exact in both cases: the points are the roots of
    x^2 + 2c*x + 2a, where x^2 + c*x + a = -(c*x + a) and a - x^2 = 3a + 2c*x,
    so f'(x) = a*(3a + 2c*x)/(c*x + a)^2. Over the two roots (sum -2c,
    product 2a) the numerators multiply to a*a*(9a - 4c^2) and the
    factors c*x + a to a^2, so (f^2)'(y0) = 9 - 4c^2/a.
    """
    disc = m.c * m.c - 2 * m.a
    if disc == 0:
        return None
    mult = _fraction_valuation(9 - 4 * m.c * m.c / m.a, m.p)
    s = rational_sqrt(disc) if disc > 0 else None
    if s is not None:
        t1, t2 = -m.c + s, -m.c - s
        try:
            _verify(m.eval(t1) == t2 and m.eval(t2) == t1, "f does not swap -c +- s")
        except PoleHitError as exc:
            raise VerificationError(
                f"2-periodic candidate {exc.point} is a pole; orbit invalid"
            ) from exc
        return PeriodicOrbit(2, (t1, t2), mult, True)
    if not is_square(disc, m.p):
        return None
    _require_precision_budget(m.p, precision)
    s = hensel_sqrt(disc, precision, m.p)
    t1 = s - m.c
    t2 = -s - m.c
    try:
        f_t1 = m.eval_truncated(t1)
        f_t2 = m.eval_truncated(t2)
    except PrecisionError as exc:
        raise PrecisionError(
            f"2-cycle check became indeterminate at precision {precision}; "
            f"rerun with a higher precision ({exc})"
        ) from exc
    if not (f_t1.approx_equal(t2) and f_t2.approx_equal(t1)):
        raise VerificationError(
            f"truncated 2-cycle verification failed at precision {precision}"
        )
    return PeriodicOrbit(2, (t1, t2), mult, False)


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


_EXCLUDED_Q = (Fraction(0), Fraction(-1), Fraction(-2, 3))


@dataclass(frozen=True)
class ThreePeriodicResult:
    q: Fraction
    h: Fraction
    map: CanonicalMap
    orbit: PeriodicOrbit


def three_periodic_from_q(p: int, q) -> ThreePeriodicResult:
    """Build the map with a = h(q), c = q*h(q) - 1 and its 3-cycle {a, f(a), f^2(a)}.

    q must avoid {0, -1, -2/3} (where the construction degenerates) and the
    poles of h. The orbit is verified exactly: f^3(a) = a, f(a) != a, and
    P(a) = 0 for the degree-6 polynomial of 3-periodic points.
    """
    q = _coerce_fraction(q)
    if q in _EXCLUDED_Q:
        raise ValueError(f"q = {q} is excluded (construction degenerates)")
    a = h_of_q(q)
    c = q * a - 1
    m = CanonicalMap(p, a, c)
    try:
        y1 = m.eval(a)
        y2 = m.eval(y1)
        back = m.eval(y2)
    except PoleHitError as exc:
        raise VerificationError(
            f"3-periodic candidate hits a pole at {exc.point}"
        ) from exc
    _verify(back == a, f"f^3(a) != a for q = {q}")
    _verify(y1 != a, f"a is a fixed point for q = {q}")
    _verify(p6_eval(m, a) == 0, f"P6(a) != 0 for q = {q}")
    mult = sum(_fraction_valuation(m.derivative(y), p) for y in (a, y1, y2))
    orbit = PeriodicOrbit(3, (a, y1, y2), mult, True)
    return ThreePeriodicResult(q, a, m, orbit)


# The terms of P as (coefficient, power of a, power of c, power of x); the
# weights 2, 1, 1 of a, c, x make every term of weight 6.
_P6_TERMS = ((1, 0, 0, 6), (6, 0, 1, 5), (11, 0, 2, 4), (6, 1, 0, 4), (6, 0, 3, 3),
             (20, 1, 1, 3), (15, 1, 2, 2), (9, 2, 0, 2), (12, 2, 1, 1), (3, 3, 0, 0))


def p6_eval(m: CanonicalMap, x) -> Fraction:
    """Exact value of P(x); P(x) = 0 iff x is a 3-periodic (non-fixed) candidate.

    Evaluated in integers: with a = an/ad, c = cn/cd and x = xn/xd, each term
    k * a^i c^j x^l times ad^3 cd^3 xd^6 is k * an^i ad^(3-i) cn^j cd^(3-j)
    xn^l xd^(6-l), and the sum is divided by ad^3 cd^3 xd^6 once.
    """
    x = _coerce_fraction(x)
    an, ad, cn, cd = m.a.numerator, m.a.denominator, m.c.numerator, m.c.denominator
    xn, xd = x.numerator, x.denominator
    pa = [an**i * ad ** (3 - i) for i in range(4)]
    pc = [cn**j * cd ** (3 - j) for j in range(4)]
    px = [xn**l * xd ** (6 - l) for l in range(7)]
    total = sum(k * pa[i] * pc[j] * px[l] for k, i, j, l in _P6_TERMS)
    return Fraction(total, ad**3 * cd**3 * xd**6)


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
    |a + c|_p = r, i.e. |h(q)(q+1) - 1|_p = r. Raises
    InconsistentParametersError when the map's pole norms are not in p**Z.
    """
    e1 = -_fraction_valuation(m.a, m.p)
    v2 = _fraction_valuation(m.a + m.c, m.p)
    e2 = None if v2 is INFINITY else -v2
    return SphereConditions(
        e1, m.sphere_is_invariant(SphereSpec("x1", e1)),
        e2, e2 is not None and m.sphere_is_invariant(SphereSpec("x2", e2)),
    )


@dataclass(frozen=True)
class StructureReport:
    sphere: SphereSpec
    rho_exponent: int
    containment_ok: bool
    multiplier_norm_exponent: Valuation
    ball_mapping_checked: int


def verify_orbit_structure(
    m: CanonicalMap,
    orbit: PeriodicOrbit,
    sphere: SphereSpec,
    samples: int = 8,
    seed: Optional[int] = None,
) -> StructureReport:
    """Structural checks for a periodic orbit lying on an invariant sphere.

    (1) every orbit point lies in the ball V_rho(r)(y0);
    (2) the cycle multiplier has norm exactly 1 (indifferent);
    (3) spheres around consecutive orbit points map into each other:
        f(S_rho'(y_k)) inside S_rho'(y_(k+1)) for rho' = rho(r)/p, sampled.

    Raises VerificationError (with the counterexample) if any check fails;
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
    rho_exp = rho(m, sphere)
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
    checked = 0
    pts = orbit.points + (orbit.points[0],)
    units = sphere_units(m.p, samples, seed)
    for k in range(len(orbit.points)):
        yk, yk1 = pts[k], pts[k + 1]
        for u in units:
            x = yk + u * Fraction(m.p) ** -rho_inner
            diff = m.eval(x) - yk1
            image_dist = None if diff == 0 else -_fraction_valuation(diff, m.p)
            if image_dist != rho_inner:
                raise VerificationError(
                    f"f(S_(p^{rho_inner})({yk})) leaves S_(p^{rho_inner})({yk1})",
                    counterexample=x,
                )
            checked += 1
    return StructureReport(sphere, rho_exp, True, mult, checked)


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
    Deterministic order (by denominator, then numerator).
    """
    out = []
    for den in range(1, max_height + 1):
        for num in range(-max_height, max_height + 1):
            if num == 0:
                continue
            q = Fraction(num, den)
            if q.denominator != den:  # not in lowest terms; already visited
                continue
            try:
                res = three_periodic_from_q(p, q)
            except (VerificationError, ValueError):
                continue
            try:
                sc = sphere_conditions(res.map)
            except InconsistentParametersError:
                continue
            out.append(QSweepRecord(
                q, res.h, res.map.c,
                sc.x1_radius_exponent if sc.x1_sphere_invariant else None,
                sc.x2_radius_exponent if sc.x2_sphere_invariant else None,
            ))
    return out
