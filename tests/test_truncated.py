"""Soundness of truncated p-adic arithmetic and of the integer orbit kernel.

Every digit a TruncatedPadic reports must agree with exact Fraction
arithmetic on the rationals it truncates; the fused orbit step must equal
the TruncatedPadic operator composition it replaces.
"""

import operator
import random
from fractions import Fraction

import pytest

from padicdyn import (
    CanonicalMap,
    PoleHitError,
    PrecisionError,
    TruncatedPadic,
    hensel_sqrt,
    is_square,
)
from padicdyn.dynamics import orbit
from padicdyn.padic import _fraction_valuation
from util import (
    agrees_on_reported_digits,
    random_nonzero_rational,
    random_unit,
    reference_eval_truncated,
    reference_orbit_truncated,
)

PRIMES = (2, 3, 5, 7)


def _sound(exact: Fraction, t: TruncatedPadic, p: int) -> bool:
    """t reports only digits that the exact value has."""
    if t.is_zero:
        return exact == 0 or _fraction_valuation(exact, p) >= t.valuation
    return agrees_on_reported_digits(exact, t, p)


def _random_operand(rng: random.Random, p: int):
    """(exact value, truncation of it): nonzero, exact zero, or O(p**M)."""
    roll = rng.random()
    if roll < 0.05:
        return Fraction(0), TruncatedPadic.zero(p)
    if roll < 0.15:
        bound = rng.randint(-3, 6)
        exact = random_unit(rng, p) * Fraction(p) ** (bound + rng.randint(0, 3))
        return exact, TruncatedPadic.zero(p, bound)
    exact = random_nonzero_rational(rng, 10**4) * Fraction(p) ** rng.randint(-3, 3)
    return exact, TruncatedPadic.from_rational(exact, p, rng.choice((1, 2, 5, 12, 30)))


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_operators_agree_with_exact_reduction():
    rng = random.Random(2301)
    checked = 0
    for _ in range(1500):
        p = rng.choice(PRIMES)
        x_exact, x = _random_operand(rng, p)
        y_exact, y = _random_operand(rng, p)
        for op in BINARY_OPS:
            # truncated op truncated, truncated op exact, and the reflected
            # forms: exact op truncated
            for left, right in ((x, y), (x, y_exact), (x_exact, y)):
                try:
                    result = op(left, right)
                except PrecisionError:
                    continue
                assert _sound(op(x_exact, y_exact), result, p), (op, left, right, result)
                checked += 1
        assert _sound(-x_exact, -x, p)
    assert checked > 10000


def test_large_precision_quotients_agree_with_exact_reduction():
    # moduli of several hundred bits
    rng = random.Random(2303)
    for _ in range(100):
        p = rng.choice(PRIMES)
        x_exact = random_nonzero_rational(rng, 10**9)
        y_exact = random_nonzero_rational(rng, 10**9)
        x = TruncatedPadic.from_rational(x_exact, p, rng.randint(60, 300))
        y = TruncatedPadic.from_rational(y_exact, p, rng.randint(60, 300))
        assert _sound(x_exact / y_exact, x / y, p)
        assert _sound(x_exact / y_exact, x / y_exact, p)


@pytest.mark.parametrize("p", PRIMES)
def test_hensel_sqrt_agrees_with_exact_square(p):
    rng = random.Random(2304 + p)
    squares = 0
    while squares < 40:
        x = random_nonzero_rational(rng, 10**4) * Fraction(p) ** (2 * rng.randint(-2, 2))
        if not is_square(x, p):
            continue
        squares += 1
        for precision in (1, 8, 24, 64):
            s = hensel_sqrt(x, precision, p)
            sq = s * s
            assert sq.abs_precision == _fraction_valuation(x, p) + precision
            assert _sound(x, sq, p)


# -- truncated orbits against exact iteration ---------------------------------------


def _basin_map(rng: random.Random, p: int) -> CanonicalMap:
    """Case 4: c a unit and a = c^2 (1 + p w), so |a - c^2| < |c|^2 = alpha^2."""
    c = random_unit(rng, p, 30)
    return CanonicalMap(p, c * c * (1 + p * random_unit(rng, p, 30)), c)


def _starts(rng: random.Random, p: int):
    """(map, x0) pairs: sphere around x1, basin of x2, arbitrary start."""
    # v(a) = 2, v(c) = 0: alpha = p^-2, so |x0| = p^-3 is an invariant sphere
    m = CanonicalMap(p, random_unit(rng, p, 30) * p**2, random_unit(rng, p, 30))
    yield m, random_unit(rng, p, 30) * p**3
    bm = _basin_map(rng, p)
    yield bm, bm.x2 + random_unit(rng, p, 30) * p
    yield bm, Fraction(0)
    yield (CanonicalMap(p, random_nonzero_rational(rng, 50), random_nonzero_rational(rng, 50)),
           random_nonzero_rational(rng, 50))


@pytest.mark.parametrize("precision", (24, 64, 256))
@pytest.mark.parametrize("p", PRIMES)
def test_truncated_orbit_agrees_with_exact_iteration(p, precision):
    rng = random.Random(f"orbit-vs-exact:{p}:{precision}")
    checked = 0
    for _ in range(3):
        for m, x0 in _starts(rng, p):
            exact = orbit(m, x0, 8, mode="exact")
            try:
                trunc = orbit(m, x0, 8, mode="truncated", precision=precision)
            except PrecisionError:
                continue
            assert trunc.pole_hit == exact.pole_hit
            assert len(trunc.points) == len(exact.points)
            for k, (x, t) in enumerate(zip(exact.points, trunc.points)):
                assert _sound(x, t, p), (m, x0, k)
                for e_exact, e_trunc, center in (
                    (exact.dist_x1_exponents[k], trunc.dist_x1_exponents[k], m.x1),
                    (exact.dist_x2_exponents[k], trunc.dist_x2_exponents[k], m.x2),
                ):
                    if e_trunc == "-inf":
                        assert e_exact == "-inf" or -e_exact >= t.abs_precision
                    else:
                        assert e_trunc == e_exact, (m, x0, k, center)
            checked += 1
    assert checked >= 9


# -- the fused kernel against the operator composition -------------------------------


def _random_truncated(rng: random.Random, p: int) -> TruncatedPadic:
    roll = rng.random()
    if roll < 0.1:
        return TruncatedPadic.zero(p)
    if roll < 0.2:
        return TruncatedPadic.zero(p, rng.randint(-3, 8))
    x = random_nonzero_rational(rng, 10**4) * Fraction(p) ** rng.randint(-3, 4)
    return TruncatedPadic.from_rational(x, p, rng.choice((1, 2, 4, 24, 64, 256)))


def _random_map(rng: random.Random, p: int) -> CanonicalMap:
    a = random_nonzero_rational(rng, 100) * Fraction(p) ** rng.randint(-2, 3)
    return CanonicalMap(p, a, random_nonzero_rational(rng, 100) * Fraction(p) ** rng.randint(-2, 2))


def test_eval_truncated_equals_operator_composition():
    rng = random.Random(2305)
    raised = 0
    for _ in range(2000):
        p = rng.choice(PRIMES)
        m = _random_map(rng, p)
        t = _random_truncated(rng, p)
        try:
            expected = reference_eval_truncated(m, t)
        except PrecisionError as exc:
            raised += 1
            with pytest.raises(PrecisionError) as info:
                m.eval_truncated(t)
            assert str(info.value) == str(exc)
            continue
        assert m.eval_truncated(t) == expected, (m, t)
    assert raised > 0


def _assert_orbit_matches_reference(m, x0, steps, precision):
    points, d1, d2, failure = reference_orbit_truncated(m, x0, steps, precision)
    if failure is not None:
        step, exc = failure
        with pytest.raises(PrecisionError) as info:
            orbit(m, x0, steps, mode="truncated", precision=precision)
        assert str(info.value) == (
            f"orbit step {step} became indeterminate at precision {precision}; "
            f"rerun with a higher precision ({exc})"
        )
        return None
    result = orbit(m, x0, steps, mode="truncated", precision=precision)
    assert result.points == tuple(points)
    assert result.dist_x1_exponents == tuple(d1)
    assert result.dist_x2_exponents == tuple(d2)
    assert result.pole_hit is None
    return result


def test_orbit_equals_reference_from_zero():
    rng = random.Random(2306)
    for _ in range(20):
        p = rng.choice(PRIMES)
        result = _assert_orbit_matches_reference(_random_map(rng, p), Fraction(0), 10, 24)
        assert set(result.dist_x1_exponents) == {"-inf"}


def test_orbit_equals_reference_on_basin_starts():
    rng = random.Random(2307)
    reached = 0
    for _ in range(12):
        p = rng.choice(PRIMES)
        m = _basin_map(rng, p)
        result = _assert_orbit_matches_reference(
            m, m.x2 + random_unit(rng, p, 30) * p, 40, rng.choice((24, 64)))
        reached += "-inf" in result.dist_x2_exponents
    # the README's case-4 orbit, pinned byte for byte by the CLI golden too
    result = _assert_orbit_matches_reference(CanonicalMap(3, -2, 1), Fraction(5), 40, 24)
    assert result.dist_x2_exponents[23:] == ("-inf",) * 18
    assert reached >= 6


def test_orbit_equals_reference_when_precision_runs_out():
    # rational poles r1, r2; a start p**k-close to r1 leaves no digits in f's denominator
    rng = random.Random(2308)
    failures = 0
    for _ in range(20):
        p = rng.choice(PRIMES)
        r1, r2 = random_unit(rng, p, 30), random_unit(rng, p, 30) * p
        m = CanonicalMap(p, r1 * r2, -(r1 + r2))
        precision = rng.choice((4, 8, 24))
        x0 = r1 + Fraction(p) ** (precision + rng.randint(0, 3))
        failures += _assert_orbit_matches_reference(m, x0, 6, precision) is None
    assert failures == 20


def test_orbit_equals_reference_on_random_starts():
    rng = random.Random(2309)
    for _ in range(150):
        p = rng.choice(PRIMES)
        m = _random_map(rng, p)
        x0 = random_nonzero_rational(rng, 100) * Fraction(p) ** rng.randint(-2, 3)
        try:
            m.eval(x0)
        except PoleHitError:
            continue
        _assert_orbit_matches_reference(m, x0, 30, rng.choice((4, 8, 24, 64)))
