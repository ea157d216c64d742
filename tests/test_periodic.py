import random
from fractions import Fraction

import pytest

from padicdyn import (
    CanonicalMap,
    InconsistentParametersError,
    NotApplicableError,
    SphereSpec,
    VerificationError,
)
from padicdyn.errors import PrecisionError
from padicdyn.padic import INFINITY, _fraction_valuation
from padicdyn.periodic import (
    h_of_q,
    p6_eval,
    q_sweep,
    sphere_conditions,
    three_periodic_from_q,
    two_periodic,
    verify_orbit_structure,
)
from util import (
    agrees_on_reported_digits,
    p6_coefficients,
    random_nonzero_rational,
    reference_derivative_truncated,
)


# -- 2-periodic orbits -----------------------------------------------------------


def test_two_periodic_exact_example():
    m = CanonicalMap(7, 4, 3)  # c^2 - 2a = 1
    orb = two_periodic(m)
    assert orb.exact and orb.points == (-2, -4)
    assert m.eval(-2) == -4 and m.eval(-4) == -2
    # f'(-2) = 0: superattracting cycle (not on any invariant sphere)
    assert orb.multiplier_norm_exponent is INFINITY


def test_two_periodic_truncated():
    m = CanonicalMap(3, 3, 1)  # c^2 - 2a = -5, a 3-adic square
    orb = two_periodic(m, precision=24)
    assert not orb.exact and orb.period == 2
    t1, t2 = orb.points
    assert m.eval_truncated(t1).approx_equal(t2)
    assert m.eval_truncated(t2).approx_equal(t1)
    # valuations of the two points: {1, 0} (product 2a = 6, sum -2c = -2)
    assert sorted([t1.valuation, t2.valuation]) == [0, 1]


def test_two_periodic_none_when_not_square():
    assert two_periodic(CanonicalMap(5, 3, 1)) is None  # v(-5) odd at p=5


def test_two_periodic_none_when_degenerate():
    assert two_periodic(CanonicalMap(3, 2, 2)) is None  # c^2 = 2a: s = 0


def test_two_periodic_swap_verified_for_random_exact_cases():
    rng = random.Random(31337)
    built = 0
    while built < 30:
        s = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        a = (c * c - s * s) / 2  # forces c^2 - 2a = s^2
        if a == 0 or c == 0:
            continue
        m = CanonicalMap(7, a, c)
        orb = two_periodic(m)
        assert orb is not None and orb.exact
        t1, t2 = orb.points
        assert t1 != t2 and m.eval(t1) == t2 and m.eval(t2) == t1
        built += 1


def test_two_cycle_multiplier_is_exact_at_low_precision():
    # 9 - 4c^2/a = 128/15: exponent 7, though the points carry only 4 digits
    orb = two_periodic(CanonicalMap(2, Fraction(60, 7), -1), precision=4)
    assert not orb.exact and orb.multiplier_norm_exponent == 7


def test_two_cycle_multiplier_closed_form_matches_the_chain_rule():
    # (f^2)'(y0) = f'(t1) * f'(t2) = 9 - 4c^2/a: exactly on rational cycles,
    # on every reported digit of the operator product on truncated ones
    rng = random.Random(2718)
    exact = truncated = 0
    while exact < 200:
        s = random_nonzero_rational(rng, 30)
        c = random_nonzero_rational(rng, 30)
        a = (c * c - s * s) / 2
        if a == 0:
            continue
        m = CanonicalMap(rng.choice((2, 3, 5, 7)), a, c)
        orb = two_periodic(m)
        closed = 9 - 4 * c * c / a
        product = m.derivative(orb.points[0]) * m.derivative(orb.points[1])
        assert orb.exact and product == closed
        assert orb.multiplier_norm_exponent == _fraction_valuation(closed, m.p)
        exact += 1
    while truncated < 200:
        m = CanonicalMap(rng.choice((2, 3, 5, 7)), random_nonzero_rational(rng, 50),
                         random_nonzero_rational(rng, 50))
        try:
            orb = two_periodic(m, precision=64)
            if orb is None or orb.exact:
                continue
            t1, t2 = orb.points
            product = reference_derivative_truncated(m, t1) * reference_derivative_truncated(m, t2)
        except PrecisionError:
            continue
        closed = 9 - 4 * m.c * m.c / m.a
        assert agrees_on_reported_digits(closed, product, m.p)
        if not product.is_zero:
            assert orb.multiplier_norm_exponent == product.valuation
        truncated += 1


def test_two_cycle_factor_is_unique():
    # (f^2(x)-x)/(f(x)-x) == (x^2 + 2cx + 2a) * D / D2 with D = x^2+cx+a,
    # D2 = a x^2 + c x D + D^2: the only 2-cycle factor is x^2 + 2cx + 2a
    for (p, a, c) in [(7, 4, 3), (3, 3, 1), (5, -1, 5)]:
        m = CanonicalMap(p, a, c)
        a, c = m.a, m.c
        for k in range(1, 12):
            x = Fraction(k, 5)
            D = x * x + c * x + a
            D2 = a * x * x + c * x * D + D * D
            if D == 0 or D2 == 0 or m.eval(x) == x:
                continue
            lhs = (m.eval(m.eval(x)) - x) / (m.eval(x) - x)
            assert lhs == (x * x + 2 * c * x + 2 * a) * D / D2


# -- 3-periodic family ------------------------------------------------------------


def test_three_periodic_q1():
    res = three_periodic_from_q(5, 1)
    assert res.h == Fraction(5, 24)
    assert res.map.a == Fraction(5, 24) and res.map.c == Fraction(-19, 24)
    a = res.orbit.points[0]
    assert a == Fraction(5, 24)
    assert res.map.eval(res.map.eval(res.map.eval(a))) == a
    assert res.map.eval(a) != a
    assert p6_eval(res.map, a) == 0


def test_three_periodic_q2():
    res = three_periodic_from_q(5, 2)
    assert res.h == Fraction(16, 105)
    assert res.map.c == Fraction(32, 105) - 1 == Fraction(-73, 105)
    assert p6_eval(res.map, res.h) == 0


def test_three_periodic_exclusions():
    for bad in (0, -1, Fraction(-2, 3)):
        with pytest.raises(ValueError):
            three_periodic_from_q(5, bad)
    for pole in (Fraction(-1, 2), Fraction(-1, 3)):
        with pytest.raises(ValueError):
            three_periodic_from_q(5, pole)


def test_h_identity_and_family_equation():
    rng = random.Random(271828)
    built = 0
    while built < 50:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if q in (0, -1, Fraction(-2, 3)) or 6 * q**3 + 11 * q**2 + 6 * q + 1 == 0:
            continue
        h = h_of_q(q)
        assert (6 * q**3 + 11 * q**2 + 6 * q + 1) * h - (3 * q**2 + 2 * q) == 0
        a, c = h, q * h - 1
        # the parameter constraint satisfied by every family member
        assert (
            a**3
            + 6 * (c + 1) * a**2
            + (11 * c + 9) * (c + 1) * a
            + 3 * (2 * c + 1) * (c + 1) ** 2
            == 0
        )
        # i=2 sphere condition measures the distance |a - x2| = |a + c|
        assert h * (q + 1) - 1 == a + c
        built += 1


def test_h_and_p6_match_the_fraction_formulas():
    # the integer forms of h(q) and P(x) against the formula for h and
    # Horner's rule on p6_coefficients in Fraction arithmetic
    rng = random.Random(1618)
    checked = 0
    while checked < 200:
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        den = 6 * q**3 + 11 * q**2 + 6 * q + 1
        if den == 0:
            continue
        assert h_of_q(q) == (3 * q**2 + 2 * q) / den
        m = CanonicalMap(rng.choice((2, 3, 5)), Fraction(rng.randint(1, 99), rng.randint(1, 99)),
                         Fraction(-rng.randint(1, 99), rng.randint(1, 99)))
        expected = Fraction(0)
        for coefficient in reversed(p6_coefficients(m)):
            expected = expected * q + coefficient
        assert p6_eval(m, q) == expected
        checked += 1
    assert h_of_q(2) == Fraction(16, 105)
    with pytest.raises(ValueError):
        h_of_q(Fraction(-1, 2))  # 6q^3 + 11q^2 + 6q + 1 = (q + 1)(2q + 1)(3q + 1)


def test_p6_constant_term():
    m = CanonicalMap(7, 4, 3)
    assert p6_eval(m, 0) == 3 * Fraction(4) ** 3
    coeffs = p6_coefficients(m)
    assert coeffs[6] == 1 and coeffs[5] == 6 * 3 and coeffs[0] == 3 * 4**3


def test_p6_divides_cleared_third_iterate():
    # (f^3(x) - x) * D3(x) == -x^2 (x + c) P(x) at 12 sample points, where
    # D3 is the cleared denominator of f^3 (degree bound makes 10+ samples
    # a polynomial identity check)
    for (p, a, c) in [(5, 3, 1), (3, -2, 1), (7, 4, 3)]:
        m = CanonicalMap(p, a, c)
        a, c = m.a, m.c
        checked = 0
        k = 0
        while checked < 12:
            k += 1
            x = Fraction(k, 7)
            D = x * x + c * x + a
            D2 = a * x * x + c * x * D + D * D
            D3 = a * x * x * D * D + c * x * D * D2 + D2 * D2
            if D == 0 or D2 == 0 or D3 == 0:
                continue
            f3 = m.eval(m.eval(m.eval(x)))
            assert (f3 - x) * D3 == -x * x * (x + c) * p6_eval(m, x)
            checked += 1


def test_sphere_condition_examples():
    # q = 1 at p = 2: |5/24|_2 = 8, on S_8(0); that sphere is never invariant
    res = three_periodic_from_q(2, 1)
    m = res.map
    sc = sphere_conditions(m)
    assert sc.x1_radius_exponent == 3 and not sc.x1_sphere_invariant
    assert not m.sphere_is_invariant(SphereSpec("x1", 3))
    # q = 1 at p = 5: |5/24|_5 = 1/5, but invariance needs exponent < -1
    res = three_periodic_from_q(5, 1)
    m = res.map
    sc = sphere_conditions(m)
    assert sc.x1_radius_exponent == -1 and not sc.x1_sphere_invariant
    assert not m.sphere_is_invariant(SphereSpec("x1", -1))
    # |a + c|_5 = |-7/12|_5 = 1, and case 3 at p = 5 has no invariant unit sphere
    assert sc.x2_radius_exponent == 0 and not sc.x2_sphere_invariant
    # case 4 has no invariant sphere around x2, although |a + c|_3 = 1/3 < alpha
    m = CanonicalMap(3, 4, -1)
    sc = sphere_conditions(m)
    assert sc.x2_radius_exponent == -1 and not sc.x2_sphere_invariant
    assert m.sphere_is_invariant(SphereSpec("x1", -1))


def test_sphere_conditions_when_a_is_x2():
    # a = -c puts the parameter on x2 itself: no sphere around x2 through it
    sc = sphere_conditions(CanonicalMap(5, Fraction(1, 25), Fraction(-1, 25)))
    assert sc.x2_radius_exponent is None and not sc.x2_sphere_invariant
    assert sc.x1_radius_exponent == 2 and not sc.x1_sphere_invariant


def test_sphere_conditions_need_pole_norms_in_p_z():
    # v(a) = 1 is odd with 2 v(c) >= v(a): the pole norms are not powers of 3
    with pytest.raises(InconsistentParametersError):
        sphere_conditions(CanonicalMap(3, 3, 3))


def test_three_periodic_on_invariant_sphere_p7():
    # q = 1 at p = 7: a + c = -7/12, so the orbit sits on S_{1/7}(x2), which
    # is invariant (the map lands in the disjoint-disk regime)
    res = three_periodic_from_q(7, 1)
    m = res.map
    assert m.classify().case == 3
    sc = sphere_conditions(m)
    assert sc.x2_radius_exponent == -1 and sc.x2_sphere_invariant
    sphere = SphereSpec("x2", -1)
    assert m.sphere_is_invariant(sphere)
    report = verify_orbit_structure(m, res.orbit, sphere)
    assert report.multiplier_norm_exponent == 0
    assert report.rho_exponent == -1
    assert report.containment_ok and report.ball_mapping_checked == 24


def test_structure_checks_on_invariant_sphere_2_cycle():
    # (p=3, a=-4, c=1): 2-cycle {2, -4} on the invariant sphere S_{1/3}(x2)
    m = CanonicalMap(3, -4, 1)
    assert m.classify().case == 3
    orb = two_periodic(m)
    assert orb.exact and set(orb.points) == {2, -4}
    assert orb.multiplier_norm_exponent == 0  # multiplier 10, |10|_3 = 1
    report = verify_orbit_structure(m, orb, SphereSpec("x2", -1))
    assert report.rho_exponent == -1
    # both points inside one ball of radius rho(r): |2 - (-4)|_3 = 1/3
    assert _fraction_valuation(Fraction(6), 3) == 1


def test_structure_rejects_orbit_off_sphere():
    m = CanonicalMap(7, 4, 3)
    orb = two_periodic(m)
    with pytest.raises(VerificationError):
        verify_orbit_structure(m, orb, SphereSpec("x2", -1))
    m = CanonicalMap(2, 1, Fraction(1, 2))
    orb = two_periodic(m)
    assert not orb.exact
    with pytest.raises(NotApplicableError, match="truncated"):
        verify_orbit_structure(m, orb, SphereSpec("x2", -1))


def test_two_cycle_check_names_the_precision():
    m = CanonicalMap(2, Fraction(32, 7), Fraction(23, 12))
    with pytest.raises(PrecisionError, match="at precision 16; rerun with a higher precision"):
        two_periodic(m, precision=16)
    assert not two_periodic(m).exact


def test_q_sweep_deterministic_and_verified():
    recs = q_sweep(7, max_height=4)
    assert recs == q_sweep(7, max_height=4)
    hits = [r for r in recs if r.on_x2_sphere_exponent is not None]
    assert hits, "expected on-sphere 3-cycles at p=7"
    for rec in hits[:3]:
        res = three_periodic_from_q(7, rec.q)
        sphere = SphereSpec("x2", rec.on_x2_sphere_exponent)
        report = verify_orbit_structure(res.map, res.orbit, sphere)
        assert report.multiplier_norm_exponent == 0
