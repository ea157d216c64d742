import random
import re
from fractions import Fraction
from math import gcd

import pytest

from padicdyn import (
    CanonicalMap,
    InconsistentParametersError,
    NotApplicableError,
    SphereSpec,
    VerificationError,
)
from padicdyn import padic
from padicdyn.ergodicity import rescale_to_unit, rho
from padicdyn.errors import PrecisionError
from padicdyn.padic import INFINITY, _fraction_valuation
from padicdyn.periodic import (
    PeriodicOrbit,
    h_of_q,
    q_sweep,
    sphere_conditions,
    three_periodic_from_q,
    two_periodic,
    verify_orbit_structure,
)
from util import (
    agrees_on_reported_digits,
    approx_equal,
    count_calls,
    faulty_eval_pair,
    last_digit_wrong,
    on_the_two_cycle,
    p6_coefficients,
    random_nonzero_rational,
    reference_derivative,
    reference_derivative_truncated,
    reference_p6,
    reference_q_sweep,
    reference_rho,
    reference_three_periodic_from_q,
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
    assert not orb.exact and len(orb.points) == 2
    t1, t2 = orb.points
    assert approx_equal(m.eval_truncated(t1), t2)
    assert approx_equal(m.eval_truncated(t2), t1)
    # valuations of the two points: {1, 0} (product 2a = 6, sum -2c = -2)
    assert sorted([t1.valuation, t2.valuation]) == [0, 1]


def test_two_periodic_refuses_a_truncated_cycle_that_f_does_not_swap(monkeypatch):
    # a square root wrong in its last digit gives points that f does not swap
    monkeypatch.setattr(padic, "hensel_sqrt", last_digit_wrong)
    with pytest.raises(VerificationError,
                       match="^truncated square root of -5 failed its check at precision 24$"):
        two_periodic(CanonicalMap(3, 3, 1), precision=24)


def test_truncated_two_cycles_hold_on_every_reported_digit():
    # each point is checked on its exact representative, also where f cannot
    # map the points at that precision (a division that runs out of digits)
    rng = random.Random(4343)
    unmappable = 0
    for p in (2, 3, 5, 7, 11):
        for precision in (8, 16, 32):
            found = 0
            while found < 20:
                a, c = (random_nonzero_rational(rng) * Fraction(p) ** rng.randint(-6, 6)
                        for _ in range(2))
                m = CanonicalMap(p, a, c)
                orb = two_periodic(m, precision)
                if orb is None or orb.exact:
                    continue
                found += 1
                assert all(on_the_two_cycle(m, t) for t in orb.points)
                try:
                    for t in orb.points:
                        m.eval_truncated(t)
                except PrecisionError:
                    unmappable += 1
    assert unmappable >= 90  # 102 of the 300 maps


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
        t1, t2 = orb.points
        product = reference_derivative(m, t1) * reference_derivative(m, t2)
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
    m, orb = three_periodic_from_q(5, 1)
    assert m.a == h_of_q(1) == Fraction(5, 24)
    assert m.c == Fraction(-19, 24)
    assert len(orb.points) == 3
    a = orb.points[0]
    assert a == Fraction(5, 24)
    assert m.eval(m.eval(m.eval(a))) == a
    assert m.eval(a) != a
    assert reference_p6(m, a) == 0


def test_three_periodic_q2():
    m, _ = three_periodic_from_q(5, 2)
    assert m.a == h_of_q(2) == Fraction(16, 105)
    assert m.c == Fraction(32, 105) - 1 == Fraction(-73, 105)
    assert reference_p6(m, m.a) == 0


def test_three_periodic_exclusions():
    for bad in (0, -1, Fraction(-2, 3)):
        with pytest.raises(ValueError, match=rf"^q = {bad} is excluded \(construction "
                                             r"degenerates\)$"):
            three_periodic_from_q(5, bad)
    for pole in (Fraction(-1, 2), Fraction(-1, 3)):
        with pytest.raises(ValueError, match=rf"^h\(q\) is undefined at q = {pole} "
                                             r"\(denominator vanishes\)$"):
            three_periodic_from_q(5, pole)


def test_three_cycle_evaluates_f_nowhere(monkeypatch):
    # the cycle and its multiplier are closed forms in q, and the sweep
    # builds only the maps, so neither evaluates f
    calls = count_calls(monkeypatch, CanonicalMap, "_eval_pair")
    assert q_sweep(5, 8) and three_periodic_from_q(5, 1) and three_periodic_from_q(7, -3)
    assert calls == []


def _admissible_q(height: int) -> list[Fraction]:
    """The q of height <= height in sweep order, less the excluded q and the
    poles of h."""
    refused = {Fraction(-1), Fraction(-2, 3), Fraction(-1, 2), Fraction(-1, 3)}
    return [Fraction(n, d) for d in range(1, height + 1) for n in range(-height, height + 1)
            if n and gcd(n, d) == 1 and Fraction(n, d) not in refused]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_integer_three_cycle_matches_the_fraction_reference(p):
    # the closed-form cycle and multiplier, and the sweep, against the
    # Fraction path: every admissible q of height <= 12, and seeded q of
    # larger height
    rng = random.Random(4000 + p)
    qs = _admissible_q(12)
    for _ in range(40):
        qs.append(Fraction(rng.randint(1, 10**4) * rng.choice((1, -1)), rng.randint(1, 10**4)))
    for q in qs:
        assert three_periodic_from_q(p, q) == reference_three_periodic_from_q(p, q)
    for height in range(1, 13):
        assert q_sweep(p, height) == reference_q_sweep(p, height)


def test_closed_form_three_cycle_matches_the_fraction_reference():
    # map, points and multiplier against f evaluated in Fraction arithmetic,
    # and the same ValueError, on q = +-k/m * p^j of every p-adic size
    rng = random.Random(47)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7, 11, 13, 1021))
        q = (Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 50))
             * Fraction(p) ** rng.randint(-3, 3))
        try:
            expected = reference_three_periodic_from_q(p, q)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                three_periodic_from_q(p, q)
            continue
        assert three_periodic_from_q(p, q) == expected, (p, q)


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
    # the integer form of h(q) against its Fraction formula, and P(a) = 0 on
    # each family map, by Horner's rule on p6_coefficients (reference_p6): the
    # "p6_at_a" that `periodic --q` prints without computing it
    rng = random.Random(1618)
    checked = 0
    while checked < 200:
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        den = 6 * q**3 + 11 * q**2 + 6 * q + 1
        if q in (0, -1, Fraction(-2, 3)) or den == 0:
            continue
        assert h_of_q(q) == (3 * q**2 + 2 * q) / den
        m, _ = three_periodic_from_q(rng.choice((2, 3, 5)), q)
        assert reference_p6(m, m.a) == 0
        checked += 1
    assert h_of_q(2) == Fraction(16, 105)
    with pytest.raises(ValueError):
        h_of_q(Fraction(-1, 2))  # 6q^3 + 11q^2 + 6q + 1 = (q + 1)(2q + 1)(3q + 1)


def test_p6_constant_term():
    m = CanonicalMap(7, 4, 3)
    assert reference_p6(m, 0) == 3 * Fraction(4) ** 3
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
            assert (f3 - x) * D3 == -x * x * (x + c) * reference_p6(m, x)
            checked += 1


def test_sphere_condition_examples():
    # q = 1 at p = 2: |5/24|_2 = 8, on S_8(0); that sphere is never invariant
    m, _ = three_periodic_from_q(2, 1)
    sc = sphere_conditions(m)
    assert sc.x1_radius_exponent == 3 and not sc.x1_sphere_invariant
    assert not m.sphere_is_invariant(SphereSpec("x1", 3))
    # q = 1 at p = 5: |5/24|_5 = 1/5, but invariance needs exponent < -1
    m, _ = three_periodic_from_q(5, 1)
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


def test_sphere_conditions_match_fraction_valuations():
    # the radius exponents -v(a) and -v(a + c), read off integers, against
    # Fraction arithmetic on seeded maps, a + c = 0 among them
    rng = random.Random(4042)
    on_x2 = 0
    for k in range(600):
        p = rng.choice((2, 3, 5, 7))
        a, c = (random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-3, 3)
                for _ in range(2))
        if k % 5 == 0:
            c = -a
        try:
            sc = sphere_conditions(CanonicalMap(p, a, c))
        except InconsistentParametersError:
            continue
        assert sc.x1_radius_exponent == -_fraction_valuation(a, p)
        v2 = _fraction_valuation(a + c, p)
        assert sc.x2_radius_exponent == (None if v2 is INFINITY else -v2)
        on_x2 += v2 is INFINITY
    assert on_x2 > 0


def test_sphere_conditions_need_pole_norms_in_p_z():
    # v(a) = 1 is odd with 2 v(c) >= v(a): the pole norms are not powers of 3
    with pytest.raises(InconsistentParametersError):
        sphere_conditions(CanonicalMap(3, 3, 3))


def test_three_periodic_on_invariant_sphere_p7():
    # q = 1 at p = 7: a + c = -7/12, so the orbit sits on S_{1/7}(x2), which
    # is invariant (the map lands in the disjoint-disk regime)
    m, orb = three_periodic_from_q(7, 1)
    assert m.classify().case == 3
    sc = sphere_conditions(m)
    assert sc.x2_radius_exponent == -1 and sc.x2_sphere_invariant
    sphere = SphereSpec("x2", -1)
    assert m.sphere_is_invariant(sphere)
    assert verify_orbit_structure(m, orb, sphere) == (-1, 24)
    assert orb.multiplier_norm_exponent == 0
    assert rho(rescale_to_unit(m, sphere)) == -1


def test_structure_checks_on_invariant_sphere_2_cycle():
    # (p=3, a=-4, c=1): 2-cycle {2, -4} on the invariant sphere S_{1/3}(x2)
    m = CanonicalMap(3, -4, 1)
    assert m.classify().case == 3
    orb = two_periodic(m)
    assert orb.exact and set(orb.points) == {2, -4}
    assert orb.multiplier_norm_exponent == 0  # multiplier 10, |10|_3 = 1
    assert verify_orbit_structure(m, orb, SphereSpec("x2", -1)) == (-1, 16)
    assert rho(rescale_to_unit(m, SphereSpec("x2", -1))) == -1
    # both points inside one ball of radius rho(r): |2 - (-4)|_3 = 1/3
    assert _fraction_valuation(Fraction(6), 3) == 1


@pytest.mark.parametrize("samples", [1, 5, 8, 32])
@pytest.mark.parametrize("seed", [None, 3])
def test_structure_check_count_is_samples_times_period(samples, seed):
    # one sampled point per sample and orbit point: the 2-cycle {2, -4} of
    # (3, -4, 1) and the 3-cycle of q = 1 at p = 7, both on S_(p^-1)(x2)
    sphere = SphereSpec("x2", -1)
    m2 = CanonicalMap(3, -4, 1)
    m3, orb3 = three_periodic_from_q(7, 1)
    for m, orb in ((m2, two_periodic(m2)), (m3, orb3)):
        _, got = verify_orbit_structure(m, orb, sphere, samples=samples, seed=seed)
        assert got == samples * len(orb.points)
    assert len(orb3.points) == 3


@pytest.mark.parametrize("samples", [1, 8])
def test_structure_check_evaluates_f_once_per_sample_on_integer_pairs(monkeypatch, samples):
    # check (3) evaluates f through CanonicalMap's integer form, never eval
    sphere = SphereSpec("x2", -1)
    m2 = CanonicalMap(3, -4, 1)
    m3, orb3 = three_periodic_from_q(7, 1)
    for m, orb in ((m2, two_periodic(m2)), (m3, orb3)):
        calls, evals = [], []
        real_pair, real_eval = CanonicalMap._eval_pair, CanonicalMap.eval
        monkeypatch.setattr(CanonicalMap, "_eval_pair", lambda self, xn, xd: (
            calls.append((xn, xd)) or real_pair(self, xn, xd)))
        monkeypatch.setattr(CanonicalMap, "eval", lambda self, x: (
            evals.append(x) or real_eval(self, x)))
        assert verify_orbit_structure(m, orb, sphere, samples=samples)[1] == len(calls)
        assert len(calls) == samples * len(orb.points) and evals == []
        monkeypatch.undo()


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


def test_structure_check_1_catches_a_point_outside_the_displacement_ball():
    # on S_(3^-1)(0) of (3, -2, 1) rho = -2 < -1, so two points of the sphere
    # can lie farther apart than rho: |6 - 3|_3 = 3^-1
    m, sphere = CanonicalMap(3, -2, 1), SphereSpec("x1", -1)
    orb = PeriodicOrbit((Fraction(3), Fraction(6)), 0, True)
    with pytest.raises(VerificationError) as exc:
        verify_orbit_structure(m, orb, sphere)
    assert str(exc.value) == "orbit point 6 escapes V_(p^-2)(y0)"
    assert exc.value.counterexample == 6


def test_structure_check_2_catches_a_multiplier_that_is_not_indifferent():
    m = CanonicalMap(3, -4, 1)
    orb = PeriodicOrbit(two_periodic(m).points, 1, True)
    with pytest.raises(VerificationError) as exc:
        verify_orbit_structure(m, orb, SphereSpec("x2", -1))
    assert str(exc.value) == "on-sphere periodic orbit must be indifferent; got exponent 1"
    assert exc.value.counterexample is None


def test_structure_check_3_catches_an_image_off_the_inner_sphere(monkeypatch):
    # the 2-cycle {2, -4} of (3, -4, 1): rho = -1, so check (3) samples
    # x = -4 + 9u around -4; the image of x = -4 + 9*4 = 32 is moved by 3,
    # so |f(32) - 2|_3 = 3^-1 instead of 3^-2
    m = CanonicalMap(3, -4, 1)
    orb = two_periodic(m)
    assert orb.points == (2, -4)
    monkeypatch.setattr(CanonicalMap, "_eval_pair", faulty_eval_pair(lambda m, x, f: (
        f(x) + (3 if x == 32 else 0))))
    with pytest.raises(VerificationError) as exc:
        verify_orbit_structure(m, orb, SphereSpec("x2", -1))
    assert str(exc.value) == "f(S_(p^-2)(-4)) leaves S_(p^-2)(2)"
    assert exc.value.counterexample == 32


def test_two_cycle_check_names_the_precision(monkeypatch):
    # f cannot map this cycle at 16 digits, and the cycle is still answered
    m = CanonicalMap(2, Fraction(32, 7), Fraction(23, 12))
    orb = two_periodic(m, precision=16)
    assert not orb.exact and all(on_the_two_cycle(m, t) for t in orb.points)
    with pytest.raises(PrecisionError):
        m.eval_truncated(orb.points[0])
    # at p = 2 the check reaches the last digit of s, one digit past those of s*s
    monkeypatch.setattr(padic, "hensel_sqrt", last_digit_wrong)
    with pytest.raises(VerificationError, match="^truncated square root of -5513/1008 failed "
                                                "its check at precision 16$"):
        two_periodic(m, precision=16)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_q_sweep_keeps_every_admissible_q(p):
    # the sweep skips only the q that the construction refuses, the excluded
    # values and the poles of h: every other q of height <= 12 has a record
    assert [rec.q for rec in q_sweep(p, 12)] == _admissible_q(12)


def test_q_sweep_deterministic_and_verified():
    recs = q_sweep(7, max_height=4)
    assert recs == q_sweep(7, max_height=4)
    hits = [r for r in recs if r.on_x2_sphere_exponent is not None]
    assert hits, "expected on-sphere 3-cycles at p=7"
    for rec in hits[:3]:
        m, orb = three_periodic_from_q(7, rec.q)
        assert m.a == rec.a == h_of_q(rec.q)
        sphere = SphereSpec("x2", rec.on_x2_sphere_exponent)
        assert verify_orbit_structure(m, orb, sphere) == (reference_rho(m, sphere), 8 * 3)
        assert orb.multiplier_norm_exponent == 0
