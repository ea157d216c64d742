"""Shared helpers for the test suite: seeded generators and brute-force oracles."""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from padicdyn.dynamics import SphereSpec, sphere_points
from padicdyn.ergodicity import OracleLevel, _cycle_lengths, rescale_to_unit
from padicdyn.errors import PoleHitError, PrecisionError
from padicdyn.padic import INFINITY, TruncatedPadic, _fraction_valuation, _horner, _unit_residue


def random_nonzero_rational(rng: random.Random, height: int = 10**6) -> Fraction:
    num = rng.randint(1, height) * rng.choice((1, -1))
    den = rng.randint(1, height)
    return Fraction(num, den)


def random_rational(rng: random.Random, height: int = 10**6) -> Fraction:
    if rng.random() < 0.02:
        return Fraction(0)
    return random_nonzero_rational(rng, height)


def random_unit(rng: random.Random, p: int, height: int = 500) -> Fraction:
    """A rational with valuation exactly 0 at p."""
    while True:
        u = random_nonzero_rational(rng, height)
        if u.numerator % p and u.denominator % p:
            return u


def square_residue_set(p: int, k: int = 6) -> set[int]:
    """All residues of squares of units mod p**k."""
    mod = p**k
    return {w * w % mod for w in range(1, mod) if w % p}


def brute_force_is_square(x: Fraction, p: int, residues: set[int]) -> bool:
    """Squareness in Q_p by exhaustive residue squaring mod p**6."""
    v = _fraction_valuation(x, p)
    if v % 2:
        return False
    return _unit_residue(x, p, p**6) in residues


def ultrametric_valuations(x: Fraction, y: Fraction, p: int):
    """(v(x), v(y), v(x+y)) after checking the strong triangle inequality
    |x+y|_p <= max(|x|_p, |y|_p), with equality when the norms differ."""
    vx, vy = _fraction_valuation(x, p), _fraction_valuation(y, p)
    vs = _fraction_valuation(x + y, p)
    assert vs >= min(vx, vy), f"|x+y| > max(|x|, |y|) for x={x}, y={y} at p={p}"
    if vx != vy:
        assert vs == min(vx, vy), f"|x+y| != max(|x|, |y|) for x={x}, y={y} at p={p}"
    return vx, vy, vs


def representative(t: TruncatedPadic) -> Fraction:
    """The canonical exact representative p**valuation * unit of t (0 for a
    tagged zero)."""
    if t.is_zero:
        return Fraction(0)
    return Fraction(t.prime) ** t.valuation * t.unit


def agrees_on_reported_digits(x: Fraction, t: TruncatedPadic, p: int) -> bool:
    """Whether the exact x reduces to t: x = t + O(p**abs_precision)."""
    diff = x - representative(t)
    return diff == 0 or _fraction_valuation(diff, p) >= t.abs_precision


def p6_coefficients(m) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the 3-periodic-point polynomial

    P(x) = x^6 + 6c x^5 + (11c^2+6a) x^4 + (6c^3+20ac) x^3
           + (15ac^2+9a^2) x^2 + 12a^2 c x + 3a^3,

    the Fraction reference of periodic.p6_eval.
    """
    a, c = m.a, m.c
    return (
        3 * a**3,
        12 * a**2 * c,
        15 * a * c**2 + 9 * a**2,
        6 * c**3 + 20 * a * c,
        11 * c**2 + 6 * a,
        6 * c,
        Fraction(1),
    )


# -- operator-path reference for the truncated orbit kernel ----------------------


def reference_eval_truncated(m, t: TruncatedPadic) -> TruncatedPadic:
    """f(t) composed from TruncatedPadic operators, step by step."""
    den = t * t + t * m.c + m.a
    num = t * m.a
    return num / den


def reference_derivative_truncated(m, t: TruncatedPadic) -> TruncatedPadic:
    """f'(t) = a*(a - t^2)/(t^2 + c*t + a)^2 composed from TruncatedPadic
    operators (the division raises PrecisionError when the denominator is
    indistinguishable from zero)."""
    den = t * t + m.c * t + m.a
    return m.a * (m.a - t * t) / (den * den)


def _reference_distance(t: TruncatedPadic, center: Fraction):
    diff = t - center
    return "-inf" if diff.is_zero else -diff.valuation


def reference_orbit_truncated(m, x0: Fraction, steps: int, precision: int):
    """(points, dist_x1, dist_x2, failure) of a truncated orbit by operators.

    ``failure`` is None or (step, PrecisionError) for the first step whose
    division became indeterminate; the lists stop before that step.
    """
    t = TruncatedPadic.from_rational(x0, m.p, precision)
    points, d1, d2 = [t], [_reference_distance(t, m.x1)], [_reference_distance(t, m.x2)]
    for k in range(1, steps + 1):
        try:
            t = reference_eval_truncated(m, t)
        except PrecisionError as exc:
            return points, d1, d2, (k, exc)
        points.append(t)
        d1.append(_reference_distance(t, m.x1))
        d2.append(_reference_distance(t, m.x2))
    return points, d1, d2, None


# -- Fraction reference for the residue oracle's integer kernel --------------------


def reference_ball_permutation(m, sphere: SphereSpec, level: int) -> dict[int, int]:
    """f on the radius-r*p^-level balls of the sphere, read off exact values
    of f at two representatives, u and u + p^level, of every ball."""
    p = m.p
    center = m.center_point(sphere.center)
    scale = Fraction(p) ** -sphere.radius_exponent
    mod = p**level
    perm = {}
    for u in range(1, mod):
        if u % p == 0:
            continue
        images = set()
        for rep in (u, u + mod):
            w = (m.eval(center + rep * scale) - center) / scale
            assert _fraction_valuation(w, p) == 0, f"image left the sphere at ball u={u}"
            images.add(_unit_residue(w, p, mod))
        assert len(images) == 1, f"induced ball map not well defined at u={u}"
        perm[u] = images.pop()
    assert sorted(perm.values()) == sorted(perm), "induced ball map is not a permutation"
    return perm


def reference_oracle_levels(m, sphere: SphereSpec, depth: int) -> tuple:
    """The residue oracle's level table, every level evaluated on its own."""
    levels = []
    for k in range(1, depth + 1):
        lengths = _cycle_lengths(reference_ball_permutation(m, sphere, k))
        levels.append(OracleLevel(k, sum(lengths), len(lengths), tuple(lengths)))
    return tuple(levels)


# -- paper results that only the tests state: image norms and Haar measure --------


@dataclass(frozen=True)
class NormImagePrediction:
    """|f(x)|_p for x on S_r(0): exact value or a lower bound, as p-exponents."""

    kind: Literal["exact", "lower_bound"]
    exponent: int


def norm_image_profile(m, radius_exponent: int) -> NormImagePrediction:
    """Predicted |f(x)|_p on the sphere |x|_p = p**radius_exponent.

    Three regimes: below alpha the norm is preserved; between alpha and
    beta only the lower bound alpha holds (the exact value depends on the
    point); above beta the norm is |a|_p / r.
    """
    v_alpha, v_beta = m.alpha_beta()
    e = radius_exponent
    if e < -v_alpha:
        return NormImagePrediction("exact", e)
    if e > -v_beta:
        va = _fraction_valuation(m.a, m.p)
        return NormImagePrediction("exact", -va - e)
    return NormImagePrediction("lower_bound", -v_alpha)


@dataclass(frozen=True)
class HaarMeasureContext:
    """Normalized Haar measure on a sphere S_r(x_i).

    A ball V_rho(s) inside the sphere has measure p*rho/((p-1)*r), an exact
    rational; the whole sphere has measure 1.
    """

    p: int
    sphere: SphereSpec

    def measure(self, ball_radius_exponent: int) -> Fraction:
        d, e = ball_radius_exponent, self.sphere.radius_exponent
        if d >= e:
            raise ValueError(
                f"ball radius p^{d} is not strictly inside the sphere radius p^{e}"
            )
        return Fraction(self.p) ** (d - e + 1) / (self.p - 1)

    def ball_count(self, ball_radius_exponent: int) -> int:
        d, e = ball_radius_exponent, self.sphere.radius_exponent
        if d >= e:
            raise ValueError("ball radius must be strictly below the sphere radius")
        return (self.p - 1) * self.p ** (e - d - 1)


# -- sampled checks of the norm-image profile and the unit-coordinate form -------


def validate_norm_image(m, radius_exponent: int, count: int = 32, seed=None) -> int:
    """Check the profile prediction on sampled points of S_r(0).

    Returns the number of points checked (pole hits are skipped).
    """
    pred = norm_image_profile(m, radius_exponent)
    pts = sphere_points(m, SphereSpec("x1", radius_exponent), count, seed)
    checked = 0
    for x in pts:
        try:
            y = m.eval(x)
        except PoleHitError:
            continue
        v = _fraction_valuation(y, m.p)
        exp = None if v is INFINITY else -v
        if pred.kind == "exact":
            assert exp == pred.exponent, f"|f({x})| = p^{exp}, predicted p^{pred.exponent}"
        else:
            assert exp is not None and exp >= pred.exponent, (
                f"|f({x})| = p^{exp} below bound p^{pred.exponent}"
            )
        checked += 1
    return checked


def verify_rescaled(m, sphere: SphereSpec, units) -> int:
    """Check (f(x_i + u*s) - x_i)/s == N(u)/D(u), s = p^-e, at sample units u,
    with N and D the coefficients of rescale_to_unit; returns the count."""
    rm = rescale_to_unit(m, sphere)
    center = m.center_point(sphere.center)
    scale = Fraction(m.p) ** -sphere.radius_exponent
    checked = 0
    for u in units:
        u = Fraction(u)
        lhs = (m.eval(center + u * scale) - center) / scale
        assert lhs == _horner(rm.numerator, u) / _horner(rm.denominator, u), (
            f"unit form of f on {sphere} fails at u={u}"
        )
        checked += 1
    return checked
