"""Shared helpers for the test suite: seeded generators and brute-force oracles."""

import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from types import NoneType
from typing import Literal

from padicdyn.dynamics import (
    CanonicalMap,
    SphereSpec,
    _distance_exponent_pairs,
    sphere_units,
)
from padicdyn.ergodicity import (
    IsometryReport,
    OracleLevel,
    _cycle_lengths,
    _require_invariant,
    _sample,
    rescale_to_unit,
)
from padicdyn.errors import (
    InconsistentParametersError,
    NotApplicableError,
    PoleHitError,
    PrecisionError,
    VerificationError,
)
from padicdyn.padic import (
    INFINITY,
    TruncatedPadic,
    _fraction_valuation,
    _horner,
    _inverse_unit,
    _sqrt_mod_prime,
    _unit_residue,
    hensel_sqrt,
)
from padicdyn.periodic import PeriodicOrbit, QSweepRecord


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
    return _unit_residue(x, p, 6) in residues


def int_valuation_loop(n: int, p: int) -> int:
    """Largest e with p**e dividing n != 0, one factor of p at a time: the
    reference of padic._int_valuation."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


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


def on_the_two_cycle(m, t: TruncatedPadic) -> bool:
    """Whether t agrees with a root of x^2 + 2c*x + 2a on its reported digits.

    With A = t.abs_precision, r = representative(t) and y, y' the roots
    (y - y' = +-2s, s^2 = c^2 - 2a), r^2 + 2c*r + 2a = (r - y)(r - y'). It
    has valuation at least A + min(A, v(2s)) exactly when v(r - y) >= A for
    one of the roots.
    """
    r = representative(t)
    value = r * r + 2 * m.c * r + 2 * m.a
    d = m.c * m.c - 2 * m.a
    v_2s = _fraction_valuation(Fraction(2), m.p) + _fraction_valuation(d, m.p) // 2
    prec = t.abs_precision
    return value == 0 or _fraction_valuation(value, m.p) >= prec + min(prec, v_2s)


def on_a_pole(m, t: TruncatedPadic) -> bool:
    """Whether t agrees with a root of x^2 + c*x + a on its reported digits.

    As on_the_two_cycle, with the roots y, y' differing by +-s, s^2 = c^2 - 4a:
    with A = t.abs_precision and r = representative(t), r^2 + c*r + a =
    (r - y)(r - y') has valuation at least A + min(A, v(s)) exactly when
    v(r - y) >= A for one of the roots.
    """
    r = representative(t)
    value = r * r + m.c * r + m.a
    v_s = _fraction_valuation(m.discriminant, m.p) // 2
    prec = t.abs_precision
    return value == 0 or _fraction_valuation(value, m.p) >= prec + min(prec, v_s)


def approx_equal(x: TruncatedPadic, y) -> bool:
    """True when x - y is indistinguishable from zero."""
    return (x - y).is_zero


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap the method ``name`` of ``owner``; each call appends its receiver to
    the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def last_digit_wrong(x, precision: int, prime: int) -> TruncatedPadic:
    """hensel_sqrt with the last of its digits changed (precision >= 2)."""
    s = hensel_sqrt(x, precision, prime)
    unit = (s.unit + prime ** (precision - 1)) % prime ** precision
    return TruncatedPadic(prime, s.valuation, unit, precision)


def _lift_sqrt_odd(u_mod: int, p: int, k: int) -> int:
    """r with r*r = u mod p**k by Newton doubling (p odd)."""
    r = _sqrt_mod_prime(u_mod, p)
    reached = 1
    while reached < k:
        reached = min(2 * reached, k)
        mod = p ** reached
        r = (r - (r * r - u_mod) * _inverse_unit(2 * r, p, reached)) % mod
    return r % p ** k


def _lift_sqrt_two(u_mod: int, k: int) -> int:
    """r with r*r = u mod 2**k (k >= 3, u = 1 mod 8); r is normalized to 1 mod 4.

    r is determined mod 2**(k-1); the returned representative lies in
    [0, 2**(k-1)).
    """
    r = 1
    for j in range(3, k):
        if (r * r - u_mod) % (1 << (j + 1)):
            r += 1 << (j - 1)
    # r = 1 mod 4 already: it starts at 1 and grows by multiples of 4, and
    # reducing mod 2**(k-1) >= 4 keeps that
    return r % (1 << (k - 1))


def reference_hensel_sqrt(x: Fraction, precision: int, prime: int) -> TruncatedPadic:
    """hensel_sqrt by two separate lifts of the unit's root: Newton steps on
    r for odd p, and one bit per pass at p = 2. x is a nonzero square in
    Q_p and precision >= 1."""
    v = _fraction_valuation(x, prime)
    if prime == 2:
        work = precision + 2
        r = _lift_sqrt_two(_unit_residue(x, 2, work), work)
    else:
        work = precision
        r = _lift_sqrt_odd(_unit_residue(x, prime, work), prime, work)
        if r % prime > (prime - 1) // 2:
            r = prime ** work - r
    return TruncatedPadic(prime, v // 2, r % prime ** precision, precision)


def parse_truncated(text: str, prime: int) -> TruncatedPadic:
    """The nonzero TruncatedPadic whose str() is text."""
    head, rest = text.split(" * (", 1)
    terms = rest.split(") [", 1)[0].split(" + ")
    unit = sum(int(term.split("*")[0]) * prime**i for i, term in enumerate(terms))
    t = TruncatedPadic(prime, int(head.split("^")[1]), unit, len(terms))
    assert str(t) == text
    return t


def p6_coefficients(m) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the 3-periodic-point polynomial

    P(x) = x^6 + 6c x^5 + (11c^2+6a) x^4 + (6c^3+20ac) x^3
           + (15ac^2+9a^2) x^2 + 12a^2 c x + 3a^3,

    the dynatomic polynomial Phi_3 of f: f^3(x) - x = -x^2 (x + c) P(x) / D3(x).
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


def reference_p6(m, x: Fraction) -> Fraction:
    """P(x) by Horner's rule on p6_coefficients in Fraction arithmetic."""
    value = Fraction(0)
    for coefficient in reversed(p6_coefficients(m)):
        value = value * x + coefficient
    return value


def reference_derivative(m, x: Fraction) -> Fraction:
    """f'(x) = a*(a - x^2)/(x^2 + c*x + a)^2 in Fraction arithmetic."""
    den = x * x + m.c * x + m.a
    return m.a * (m.a - x * x) / (den * den)


# -- Fraction references for the 3-periodic family and the case of x2 ------------


def reference_three_periodic_from_q(p: int, q) -> tuple:
    """periodic.three_periodic_from_q by evaluating f, where the library
    reads closed forms in q: a = h(q) and c = q*a - 1 by Fraction formulas,
    the orbit by a*x/(x^2 + c*x + a) in Fraction arithmetic, f^3(a) = a,
    f(a) != a and P(a) = 0 (reference_p6) checked, and the multiplier as the
    sum of v(f'(y)) by reference_derivative."""
    q = Fraction(q)
    if q in (0, -1, Fraction(-2, 3)):
        raise ValueError(f"q = {q} is excluded (construction degenerates)")
    den = 6 * q**3 + 11 * q**2 + 6 * q + 1
    if den == 0:
        raise ValueError(f"h(q) is undefined at q = {q} (denominator vanishes)")
    a = (3 * q**2 + 2 * q) / den
    m = CanonicalMap(p, a, q * a - 1)

    def f(x):
        return m.a * x / (x * x + m.c * x + m.a)

    y1 = f(a)
    y2 = f(y1)
    if f(y2) != a or y1 == a or reference_p6(m, a) != 0:
        raise VerificationError(f"the 3-cycle of q = {q} fails its checks")
    mult = sum(_fraction_valuation(reference_derivative(m, y), p) for y in (a, y1, y2))
    return m, PeriodicOrbit((a, y1, y2), mult, True)


def reference_q_sweep(p: int, max_height: int) -> list:
    """The Fraction path of periodic.q_sweep: every q of the height box,
    reduced by Fraction, built by reference_three_periodic_from_q, with the
    radius exponents -v(a) and -v(a + c) in Fraction arithmetic and the
    invariance bounds of reference_case."""
    out = []
    for den in range(1, max_height + 1):
        for num in range(-max_height, max_height + 1):
            if num == 0:
                continue
            q = Fraction(num, den)
            if q.denominator != den:
                continue
            try:
                m, _ = reference_three_periodic_from_q(p, q)
            except ValueError:
                continue
            case, v_alpha, _ = reference_case(m)
            e1 = -_fraction_valuation(m.a, p)
            e2 = -_fraction_valuation(m.a + m.c, p)  # a + c is never 0 on the family
            out.append(QSweepRecord(
                q, m.a, m.c,
                e1 if e1 < -v_alpha else None,
                e2 if case in (2, 3) and e2 < -v_alpha else None,
            ))
    return out


def reference_case(m) -> tuple[int, int, int]:
    """(case, v_alpha, v_beta) by the paper's comparisons in Fraction
    arithmetic: the pole valuations from the roots of x^2 + c*x + a when
    they are rational, otherwise from the Newton polygon; then case 5 when
    alpha < beta, case 2 when |c| < alpha, and cases 3 and 4 by
    |a - c^2| = alpha^2 or < alpha^2. InconsistentParametersError when the
    pole norms are not powers of p."""
    p = m.p
    poles = m.poles()
    if poles.kind == "rational":
        vs = [_fraction_valuation(x, p) for x in poles.values]
        v_alpha, v_beta = max(vs), min(vs)
    else:
        va, vc = _fraction_valuation(m.a, p), _fraction_valuation(m.c, p)
        if 2 * vc < va:
            v_alpha, v_beta = va - vc, vc
        elif va % 2:
            raise InconsistentParametersError(f"v(a) = {va} is odd with 2*v(c) >= v(a)")
        else:
            v_alpha = v_beta = va // 2
    if v_alpha > v_beta:
        return 5, v_alpha, v_beta
    if _fraction_valuation(m.c, p) > v_alpha:
        return 2, v_alpha, v_beta
    gap = _fraction_valuation(m.a - m.c * m.c, p)
    return (3 if gap == 2 * v_alpha else 4), v_alpha, v_beta


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


# -- sphere samples as Fractions, and the displacement's closed forms -------------


def sphere_points(m, sphere: SphereSpec, count: int = 32, seed=None) -> list[Fraction]:
    """Points center + u * p**(-e) on S_{p**e}(x_i), u running over units:
    the Fraction reference of dynamics.sphere_pairs.

    (|x - center|_p = p**e means v(x - center) = -e.)
    """
    center = m.center_point(sphere.center)
    scale = Fraction(m.p) ** -sphere.radius_exponent
    return [center + u * scale for u in sphere_units(m.p, count, seed)]


def displacement_table(m, sphere: SphereSpec, count: int = 32, seed=None) -> list:
    """Per-point displacement exponents (x, E) with |f(x)-x|_p = p**E, read
    off the integer pairs of ergodicity's samples; E is "-inf" at a point
    that f fixes (x2 on the sphere of radius |c| around x1)."""
    _, points, images = _sample(rescale_to_unit(m, sphere), count, seed)
    return [(Fraction(*x), _distance_exponent_pairs(m.p, *fx, *x))
            for x, fx in zip(points, images)]


def reference_rho(m, sphere: SphereSpec) -> int:
    """The paper's closed forms of the displacement exponent rho(r), case by
    case (ergodicity.rho's docstring lists them): the reference of
    ergodicity.rho, which reads one rule off the unit form of f."""
    _require_invariant(m, sphere)
    v_alpha, v_beta = m.alpha_beta()
    vc = _fraction_valuation(m.c, m.p)
    e = sphere.radius_exponent
    if sphere.center == "x1" or m.classify().case == 2:
        if e == -vc:
            raise NotApplicableError(
                f"rho is undefined on the sphere of radius |c| = p^{-vc}; "
                "the displacement varies with the point"
            )
        if e < -vc:
            base = 2 * e - vc if sphere.center == "x1" else e - 2 * vc
            return base + v_alpha + v_beta
        return 3 * e + v_alpha + v_beta
    # x2-centered, |c| = alpha = beta regime
    return e


def reference_radius_rule(m, sphere: SphereSpec) -> bool:
    """The paper's p = 2 ergodicity rule, on its pole norms: S_r(0) is
    ergodic iff |c|_2 = beta and r = alpha/2, and no sphere around x2 is.
    The reference of ergodicity_theorem, which reads v(t1) = 1 and
    v(t2) >= 2 off the unit form instead."""
    if sphere.center == "x2":
        return False
    v_alpha, v_beta = m.alpha_beta()
    vc = _fraction_valuation(m.c, m.p)
    return vc == v_beta and sphere.radius_exponent == -v_alpha - 1


# -- Fraction reference for the residue oracle's integer kernel --------------------


def reference_ball_permutation(m, sphere: SphereSpec, level: int) -> list[int]:
    """f on the radius-r*p^-level balls of the sphere, read off exact values
    of f at two representatives, u and u + p^level, of every ball, in the
    kernel's list form: the image of every unit u, and 0 at non-units."""
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
            images.add(_unit_residue(w, p, level))
        assert len(images) == 1, f"induced ball map not well defined at u={u}"
        perm[u] = images.pop()
    assert sorted(perm.values()) == sorted(perm), "induced ball map is not a permutation"
    return [perm.get(u, 0) for u in range(mod)]


def reference_oracle_levels(m, sphere: SphereSpec, depth: int) -> tuple:
    """The residue oracle's level table, every level evaluated on its own."""
    levels = []
    for k in range(1, depth + 1):
        lengths = _cycle_lengths(reference_ball_permutation(m, sphere, k))
        levels.append(OracleLevel(k, sum(lengths), len(lengths), tuple(lengths)))
    return tuple(levels)


def faulty_eval_pair(image):
    """A stand-in for CanonicalMap._eval_pair that makes f(x) = image(m, x, f),
    with f the true map on Fractions. CanonicalMap.eval wraps _eval_pair, so
    the integer checks and the Fraction references see the same fault."""
    real = CanonicalMap._eval_pair

    def eval_pair(m, xn, xd):
        y = image(m, Fraction(xn, xd), lambda x: Fraction(*real(m, x.numerator, x.denominator)))
        return y.numerator, y.denominator

    return eval_pair


# -- pair-scan reference for the isometry check's level classes ------------------


def reference_isometry_check(m, sphere: SphereSpec, count: int = 32,
                             seed=None) -> IsometryReport:
    """ergodicity.isometry_check with every valuation taken of a Fraction
    difference: v(f(x) - f(y)) = v(x - y) and v(a - x*y) = v(a) on all
    sampled pairs, or VerificationError with the first failing pair."""
    pts = sphere_points(m, sphere, count, seed)
    images = [m.eval(x) for x in pts]
    va = _fraction_valuation(m.a, m.p)
    pairs = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            x, y = pts[i], pts[j]
            lhs = _fraction_valuation(images[i] - images[j], m.p)
            rhs = _fraction_valuation(x - y, m.p)
            if lhs != rhs:
                raise VerificationError(
                    f"isometry violated for x={x}, y={y}: v={lhs} != {rhs}",
                    counterexample=(x, y),
                )
            vf = _fraction_valuation(m.a - x * y, m.p)
            if vf != va:
                raise VerificationError(
                    f"numerator factor |a - xy| != |a| for x={x}, y={y}",
                    counterexample=(x, y),
                )
            pairs += 1
    return IsometryReport(pairs)


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
    form = rescale_to_unit(m, sphere)
    center = m.center_point(sphere.center)
    scale = Fraction(m.p) ** -sphere.radius_exponent
    checked = 0
    for u in units:
        u = Fraction(u)
        lhs = (m.eval(center + u * scale) - center) / scale
        assert lhs == _horner(form.numerator, u) / _horner(form.denominator, u), (
            f"unit form of f on {sphere} fails at u={u}"
        )
        checked += 1
    return checked


# -- two-pass reference for the CLI's JSON writer ----------------------------------


def reference_json(value, *names):
    """The JSON form of a report value, which json.dumps then writes: the
    CLI's serializer before it wrote reports in one pass.

    Exact rationals and truncated p-adics become strings, INFINITY becomes
    "inf", tuples and lists become lists and dicts are mapped value by
    value. A dataclass becomes the dict of the attributes ``names`` (all of
    its fields when none are given); a CanonicalMap of ``p``, ``a``, ``c``
    by default.
    """
    if type(value) in (int, str, bool, NoneType):
        return value
    if isinstance(value, (Fraction, TruncatedPadic)):
        return str(value)
    if value is INFINITY:
        return "inf"
    if isinstance(value, (tuple, list)):
        return [reference_json(x) for x in value]
    if isinstance(value, dict):
        return {key: reference_json(x) for key, x in value.items()}
    if isinstance(value, CanonicalMap):
        names = names or ("p", "a", "c")
    elif is_dataclass(value):
        names = names or [f.name for f in fields(value)]
    else:
        return value
    return {name: reference_json(getattr(value, name)) for name in names}
