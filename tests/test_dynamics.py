import random
from fractions import Fraction

import pytest

from padicdyn import (
    CanonicalMap,
    DegenerateMapError,
    InconsistentParametersError,
    PoleHitError,
    SphereSpec,
    UnsupportedCaseError,
)
from padicdyn.cli import main
from padicdyn.dynamics import (
    EXACT_HEIGHT_BUDGET,
    InvariantSpheres,
    PoleHitRecord,
    _height,
    _height_loss,
    orbit,
)
from padicdyn.ergodicity import decide_ergodicity
from padicdyn.padic import INFINITY, _fraction_valuation
from padicdyn.periodic import two_periodic

from util import (
    count_calls,
    norm_image_profile,
    on_a_pole,
    random_nonzero_rational,
    random_rational,
    random_unit,
    reference_case,
    reference_derivative,
    representative,
    sphere_points,
    validate_norm_image,
)

# the four worked parameter sets and their expected regimes
CASE2 = CanonicalMap(5, -1, 5)
CASE3 = CanonicalMap(5, 3, 1)
CASE4 = CanonicalMap(3, -2, 1)
CASE5 = CanonicalMap(3, 3, 1)


def test_eval_fixed_points():
    for m in (CASE2, CASE3, CASE4, CASE5):
        assert m.eval(0) == 0
        assert m.eval(-m.c) == -m.c


def test_eval_example():
    m = CanonicalMap(7, 4, 3)
    assert m.eval(-2) == Fraction(-4)


def test_eval_and_derivative_match_the_fraction_formulas():
    # the integer forms of f(x) and of the multiplier f'(x2) = 1 - c^2/a against
    # a*x/(x^2 + c*x + a) and a*(a - x^2)/(x^2 + c*x + a)^2 in Fraction
    # arithmetic, on signed parameters and points of mixed sizes
    rng = random.Random(3141)
    checked = 0
    while checked < 300:
        height = rng.choice((9, 10**3, 10**12))
        m = CanonicalMap(rng.choice((2, 3, 5, 7)), random_nonzero_rational(rng, height),
                         random_nonzero_rational(rng, height))
        x = random_rational(rng, height)
        den = x * x + m.c * x + m.a
        if den == 0:
            continue
        value = m.eval(x)
        assert value == m.a * x / den and type(value) is Fraction
        assert m.multiplier_x2() == reference_derivative(m, -m.c)
        checked += 1
    assert CASE4.eval(2) == Fraction(-1)


def test_eval_pole_raises():
    # (p=3, c=1, a=-2): denominator (x+2)(x-1), poles {1, -2}
    with pytest.raises(PoleHitError):
        CASE4.eval(1)
    with pytest.raises(PoleHitError):
        CASE4.eval(-2)


def test_degenerate_parameters_rejected():
    with pytest.raises(DegenerateMapError):
        CanonicalMap(3, 0, 1)
    with pytest.raises(DegenerateMapError):
        CanonicalMap(3, 1, 0)


def test_alpha_beta_worked_examples():
    assert CanonicalMap(3, 3, 1).alpha_beta() == (1, 0)    # alpha=1/3, beta=1
    assert CanonicalMap(5, -1, 5).alpha_beta() == (0, 0)   # alpha=beta=1
    assert CanonicalMap(2, 2, 1).alpha_beta() == (1, 0)    # alpha=1/2, beta=1


def test_map_facts_are_computed_at_construction():
    # v(a) and v(c) are plain fields, outside equality and hashing
    m = CanonicalMap(3, Fraction(2, 9), Fraction(27, 5))
    assert (m.va, m.vc) == (-2, 3)
    assert m == CanonicalMap(3, Fraction(2, 9), Fraction(27, 5))
    assert hash(m) == hash(CanonicalMap(3, Fraction(2, 9), Fraction(27, 5)))
    assert not hasattr(m, "_ab")
    assert repr(m) == "CanonicalMap(p=3, a=2/9, c=27/5)"
    assert repr(CanonicalMap(5, -1, 5)) == "CanonicalMap(p=5, a=-1, c=5)"


def test_map_facts_equal_fresh_valuations():
    rng = random.Random(3232)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        a = random_nonzero_rational(rng, 10**4) * Fraction(p) ** rng.randint(-3, 3)
        c = random_nonzero_rational(rng, 10**4) * Fraction(p) ** rng.randint(-3, 3)
        m = CanonicalMap(p, a, c)
        assert (m.va, m.vc) == (_fraction_valuation(a, p), _fraction_valuation(c, p))
        # the integer form of f'(x2) is the rational 1 - c^2/a
        lam = m.multiplier_x2()
        assert lam == 1 - c * c / a and type(lam) is Fraction


def test_alpha_beta_inconsistent_parameters():
    # 2 v(c) >= v(a) with v(a) odd: roots of x^2+cx+a leave Q_p
    with pytest.raises(InconsistentParametersError):
        CanonicalMap(3, 3, 3).alpha_beta()


def test_alpha_beta_matches_hensel_pole_norms():
    rng = random.Random(424242)
    checked = 0
    while checked < 25:
        p = rng.choice([2, 3, 5])
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30)) * Fraction(p) ** rng.randint(-2, 2)
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 30)) * Fraction(p) ** rng.randint(-2, 2)
        if a == 0 or c == 0:
            continue
        m = CanonicalMap(p, a, c)
        poles = m.poles(precision=64)
        if m.discriminant == 0 or poles.kind == "absent":
            continue
        va, vb = m.alpha_beta()
        vals = sorted(
            x.valuation if not isinstance(x, Fraction) else _fraction_valuation(x, p)
            for x in poles.values
        )
        assert vals == sorted([va, vb])
        # Vieta for the poles: sum -c, product a
        if poles.kind == "rational":
            x1h, x2h = poles.values
            assert x1h + x2h == -c and x1h * x2h == a
        else:
            s = poles.values[0] + poles.values[1]
            prod = poles.values[0] * poles.values[1]
            assert (s + c).is_zero and (prod - a).is_zero
        checked += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_truncated_poles_hold_on_every_reported_digit(p):
    # each pole t, at each precision, against x^2 + c*x + a on its exact
    # representative, as the truncated 2-cycle is checked
    rng = random.Random(1300 + p)
    found = 0
    while found < 40:
        a = random_nonzero_rational(rng, 400) * Fraction(p) ** rng.randint(-3, 3)
        c = random_nonzero_rational(rng, 400) * Fraction(p) ** rng.randint(-3, 3)
        m = CanonicalMap(p, a, c)
        if m.poles(precision=1).kind != "truncated":
            continue
        found += 1
        for n in (1, 8, 24, 64):
            poles = m.poles(precision=n)
            assert poles.kind == "truncated" and all(on_a_pole(m, t) for t in poles.values)


def test_classification_case2():
    cls = CASE2.classify()
    assert cls.case == 2
    assert cls.x1.kind == "indifferent" and cls.x1.case == 1
    assert cls.x2.kind == "indifferent"
    assert cls.x2.multiplier_norm_exponent == 0
    # shared Siegel disk U_1(0)
    assert cls.x2.region.kind == "siegel_disk"
    assert cls.x2.region.center == 0 and cls.x2.region.radius_exponent == 0
    assert cls.x1.region == cls.x2.region


def test_classification_case3():
    cls = CASE3.classify()
    assert cls.case == 3
    assert cls.x2.kind == "indifferent"
    assert cls.x2.multiplier_norm_exponent == 0
    # own disk U_1(-1), disjoint from U_1(0)
    assert cls.x2.region.kind == "siegel_disk"
    assert cls.x2.region.center == -1 and cls.x2.region.radius_exponent == 0
    # |a - c^2|_5 = |2|_5 = 1 = alpha^2
    assert _fraction_valuation(CASE3.a - CASE3.c**2, 5) == 0


def test_classification_case4():
    cls = CASE4.classify()
    assert cls.case == 4
    assert cls.x2.kind == "attracting" and not cls.x2.superattracting
    # |f'(x2)|_3 = |3/2|_3 = 1/3
    assert cls.x2.multiplier == Fraction(3, 2)
    assert cls.x2.multiplier_norm_exponent == 1
    assert cls.x2.region.kind == "basin"
    assert cls.x2.region.center == -1 and cls.x2.region.radius_exponent == 0
    # poles are exactly {1, -2} since c^2 - 4a = 9
    poles = CASE4.poles()
    assert poles.kind == "rational" and set(poles.values) == {1, -2}


def test_classification_case5():
    cls = CASE5.classify()
    assert cls.case == 5
    assert cls.x2.kind == "repelling"
    assert cls.x2.multiplier_norm_exponent == -1  # |f'(x2)|_3 = 3 = beta/alpha
    assert cls.x2.region.kind == "repelling_ball"
    assert cls.x2.region.radius_exponent == 0  # U_beta(x2), beta = 1


def test_superattracting_flag():
    m = CanonicalMap(3, 1, 1)  # a = c^2: multiplier exactly 0
    cls = m.classify()
    assert cls.case == 4 and cls.x2.superattracting
    assert cls.x2.multiplier == 0
    assert cls.x2.multiplier_norm_exponent is INFINITY
    assert cls.x2.kind == "attracting"  # |0| < 1


def test_multiplier_kind_consistency_property():
    rng = random.Random(77)
    seen = set()
    tried = 0
    while tried < 400:
        tried += 1
        p = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 20)) * Fraction(p) ** rng.randint(-2, 2)
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 20)) * Fraction(p) ** rng.randint(-2, 2)
        if a == 0 or c == 0:
            continue
        m = CanonicalMap(p, a, c)
        try:
            cls = m.classify()
        except InconsistentParametersError:
            continue
        mv = cls.x2.multiplier_norm_exponent
        if cls.x2.kind == "attracting":
            assert mv > 0
        elif cls.x2.kind == "indifferent":
            assert mv == 0
        else:
            assert mv < 0
        # direct multiplier recomputation through the derivative
        assert reference_derivative(m, -m.c) == m.multiplier_x2()
        seen.add(cls.case)
    assert seen >= {2, 3, 4, 5}


def test_classification_is_computed_once_per_map(capsys, monkeypatch):
    # one Classification per request, and f'(x2) computed once per map
    multipliers = count_calls(monkeypatch, CanonicalMap, "multiplier_x2")
    classified = count_calls(monkeypatch, CanonicalMap, "classify")
    assert main(["analyze", "--p", "5", "--a", "3", "--c", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert multipliers == classified == [CanonicalMap(5, 3, 1)]


def test_sphere_is_invariant_builds_no_classification(monkeypatch):
    classified = count_calls(monkeypatch, CanonicalMap, "classify")
    m = CanonicalMap(5, 3, 1)
    assert m.sphere_is_invariant(SphereSpec("x2", -1))
    assert m.sphere_is_invariant(SphereSpec("x1", -1))
    assert classified == []


def test_integer_case_matches_the_papers_comparisons(monkeypatch):
    # the case of x2, the invariant-sphere bounds and the superattracting
    # flag against reference_case on seeded maps: maps with rational poles,
    # maps with a = c^2 and maps with random p-adic sizes of a and c
    rng = random.Random(4041)
    classified = count_calls(monkeypatch, CanonicalMap, "classify")
    seen, refused, superattracting = set(), 0, 0
    for k in range(2000):
        p = rng.choice((2, 3, 5, 7))
        scale = [Fraction(p) ** rng.randint(-3, 3) for _ in range(2)]
        r1, r2 = (random_nonzero_rational(rng, 30) * s for s in scale)
        if k % 4 == 0:  # poles r1 and r2
            a, c = r1 * r2, -(r1 + r2)
        elif k % 4 == 1:
            a, c = r2 * r2, r2
        else:
            a, c = r1, r2
        if c == 0:
            continue
        m = CanonicalMap(p, a, c)
        classified.clear()
        try:
            case, v_alpha, v_beta = reference_case(m)
        except InconsistentParametersError:
            refused += 1
            for read in (m.invariant_spheres, m.classify):
                with pytest.raises(InconsistentParametersError, match="is odd"):
                    read()
            continue
        assert m.alpha_beta() == (v_alpha, v_beta)
        assert m.invariant_spheres() == InvariantSpheres(
            -v_alpha, -v_alpha if case in (2, 3) else None)
        assert classified == []
        cls = m.classify()
        assert (cls.case, cls.x1.case, cls.x2.case) == (case, 1, case)
        assert cls.x2.superattracting == (a == c * c)
        superattracting += cls.x2.superattracting
        seen.add(case)
    assert seen == {2, 3, 4, 5} and refused > 0 and superattracting > 0


def test_case_follows_the_kappa_table():
    # with kappa = a/c^2 and f'(x2) = 1 - 1/kappa: case 5 iff v(kappa) > 0,
    # case 2 iff v(kappa) < 0 is even, InconsistentParametersError iff
    # v(kappa) < 0 is odd, and at v(kappa) = 0 case 4 iff v(f'(x2)) > 0, else
    # case 3. Seeded maps with a and c scaled by powers of p, maps with
    # kappa = 1 mod p and maps with a = c^2; both the map's case and
    # reference_case must follow the table
    rng = random.Random(4412)
    seen = set()
    for k in range(3000):
        p = rng.choice((2, 3, 5, 7, 11))
        c = random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-4, 4)
        if k % 3 == 0:
            a = random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-4, 4)
        elif k % 3 == 1:  # kappa = 1 + p^j u with u a unit
            a = (1 + Fraction(p) ** rng.randint(1, 4) * random_unit(rng, p, 30)) * c * c
        else:
            a = c * c
        m = CanonicalMap(p, a, c)
        kappa = a / (c * c)
        vk = _fraction_valuation(kappa, p)
        if vk > 0:
            expected = 5
        elif vk < 0:
            expected = "refused" if vk % 2 else 2
        else:
            expected = 4 if _fraction_valuation(1 - 1 / kappa, p) > 0 else 3
        for read in (lambda: m._case_facts()[0], lambda: reference_case(m)[0]):
            try:
                got = read()
            except InconsistentParametersError:
                got = "refused"
            assert got == expected, (p, a, c)
        seen.add(expected)
    assert seen == {2, 3, 4, 5, "refused"}


def test_scaling_conjugacy_keeps_every_answer():
    # x -> x/lam conjugates (a, c) to (a/lam^2, c/lam): kappa, and so the
    # case, stays; |x - x_i| scales by |lam|^-1, so both invariance bounds
    # and every sphere's radius exponent shift by v(lam), and each unit
    # coordinate is multiplied by a unit, so each sphere keeps its verdict,
    # theorem rule and ball cycle lengths; c^2 - 2a scales by lam^-2, so
    # the 2-cycle exists, and is exact, exactly when it was. lam is a unit
    # or a power of p
    rng = random.Random(4413)
    seen = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 11))
        c = random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-3, 3)
        kind = rng.randrange(4)
        if kind == 0:  # a of any size
            a = random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-3, 3)
        elif kind == 1:  # kappa = 1 mod p
            a = (1 + Fraction(p) ** rng.randint(1, 3) * random_unit(rng, p, 30)) * c * c
        elif kind == 2:  # kappa a unit
            a = random_unit(rng, p, 30) * c * c
        else:  # c^2 - 2a = t^2: an exact 2-cycle
            t = random_nonzero_rational(rng, 30) * Fraction(p) ** rng.randint(-2, 2)
            a = (c * c - t * t) / 2 or c * c
        if rng.random() < 0.5:
            lam, vl = random_unit(rng, p, 30), 0
        else:
            vl = rng.choice((-3, -2, -1, 1, 2, 3))
            lam = rng.choice((1, -1)) * Fraction(p) ** vl
        m, scaled = CanonicalMap(p, a, c), CanonicalMap(p, a / lam**2, c / lam)
        cases = []
        for mm in (m, scaled):
            try:
                cases.append(mm._case_facts()[0])
            except InconsistentParametersError:
                cases.append("refused")
        assert cases[0] == cases[1], (p, a, c, lam)
        seen.add((cases[0], vl != 0))
        cycles = [None if o is None else o.exact for o in map(two_periodic, (m, scaled))]
        assert cycles[0] == cycles[1], (p, a, c, lam)
        if cases[0] == "refused":
            continue
        bounds, moved = m.invariant_spheres(), scaled.invariant_spheres()
        assert moved.x1_exponent_bound == bounds.x1_exponent_bound + vl
        x2 = bounds.x2_exponent_bound
        assert moved.x2_exponent_bound == (None if x2 is None else x2 + vl)
        depth = 4 if p == 2 else 3
        for center, bound in (("x1", bounds.x1_exponent_bound), ("x2", x2)):
            for e in () if bound is None else range(bound - 3, bound):
                one = decide_ergodicity(m, SphereSpec(center, e), depth)
                other = decide_ergodicity(scaled, SphereSpec(center, e + vl), depth)
                assert (one.verdict, one.theorem) == (other.verdict, other.theorem)
                assert [lv.cycle_lengths for lv in one.oracle.levels] == \
                    [lv.cycle_lengths for lv in other.oracle.levels], (p, a, c, lam, center, e)
    assert {case for case, _ in seen} == {2, 3, 4, 5, "refused"}
    assert {power for _, power in seen} == {False, True}


def test_invariant_spheres():
    # around x1: invariant iff radius exponent < -v_alpha
    m = CanonicalMap(2, 2, 1)
    inv = m.invariant_spheres()
    assert inv.x1_exponent_bound == -1
    assert m.sphere_is_invariant(SphereSpec("x1", -2))
    assert not m.sphere_is_invariant(SphereSpec("x1", -1))
    # case 4 and 5: no invariant spheres around x2
    assert CASE4.invariant_spheres().x2_exponent_bound is None
    assert CASE5.invariant_spheres().x2_exponent_bound is None
    assert not CASE4.sphere_is_invariant(SphereSpec("x2", -5))
    # cases 2 and 3: same bound as x1
    assert CASE2.invariant_spheres().x2_exponent_bound == 0
    assert CASE3.invariant_spheres().x2_exponent_bound == 0


def test_sphere_points_lie_on_sphere():
    for m, sph in [
        (CASE3, SphereSpec("x2", -2)),
        (CanonicalMap(2, 2, 1), SphereSpec("x1", -3)),
    ]:
        for x in sphere_points(m, sph, 16):
            center = m.center_point(sph.center)
            assert _fraction_valuation(x - center, m.p) == -sph.radius_exponent


def test_sphere_points_seeded_mode_is_reproducible():
    a = sphere_points(CASE3, SphereSpec("x1", -1), 8, seed=5)
    b = sphere_points(CASE3, SphereSpec("x1", -1), 8, seed=5)
    c = sphere_points(CASE3, SphereSpec("x1", -1), 8, seed=6)
    assert a == b and a != c


# -- orbits ---------------------------------------------------------------------


def test_orbit_confined_on_invariant_sphere():
    m = CanonicalMap(2, 2, 1)
    o = orbit(m, 4, 50, mode="truncated", precision=48)  # |4|_2 = 1/4 < alpha
    assert set(o.dist_x1_exponents) == {-2}
    assert o.pole_hit is None


def test_orbit_exact_and_truncated_agree():
    m = CanonicalMap(2, 2, 1)
    oe = orbit(m, 4, 12, mode="exact")
    ot = orbit(m, 4, 12, mode="truncated", precision=48)
    assert oe.dist_x1_exponents == ot.dist_x1_exponents
    assert oe.dist_x2_exponents == ot.dist_x2_exponents
    # truncated points reduce the exact ones
    for xe, xt in zip(oe.points, ot.points):
        diff = xe - representative(xt)
        assert diff == 0 or _fraction_valuation(diff, 2) >= xt.abs_precision


def test_orbit_case4_contraction():
    # x0 = 5 lies in the basin U_1(-1); each step contracts by >= 1/p
    o = orbit(CASE4, 5, 45, mode="truncated", precision=80)
    ints = [e for e in o.dist_x2_exponents if isinstance(e, int)]
    assert all(b <= a - 1 for a, b in zip(ints, ints[1:]))
    assert min(ints) <= -40


def test_orbit_case5_first_step_expansion():
    # x in U_beta(x2) \ {x2}: the first step strictly increases |x - x2|
    o = orbit(CASE5, 2, 1, mode="exact")
    assert o.dist_x2_exponents[1] > o.dist_x2_exponents[0]


def test_orbit_pole_hit_recorded():
    o = orbit(CASE4, 1, 5, mode="exact")
    assert o.pole_hit is not None and o.pole_hit.step == 0
    assert o.steps_completed == 0


def test_truncated_orbit_reports_pole_at_start():
    # x0 = 2 is a root of x^2 + x - 6: an exact pole, as exact mode reports
    m = CanonicalMap(5, -6, 1)
    exact = orbit(m, 2, 5, mode="exact")
    trunc = orbit(m, 2, 5, mode="truncated", precision=24)
    assert trunc.pole_hit == exact.pole_hit == PoleHitRecord(0, Fraction(2))
    assert trunc.steps_completed == 0 and trunc.mode == "truncated"
    assert trunc.dist_x1_exponents == exact.dist_x1_exponents
    assert trunc.dist_x2_exponents == exact.dist_x2_exponents


def test_orbit_validates_arguments():
    with pytest.raises(ValueError):
        orbit(CASE4, 5, 0)
    with pytest.raises(ValueError):
        orbit(CASE4, 5, 30, mode="truncated", precision=2)
    # auto mode may run truncated, so its precision is checked before any step
    with pytest.raises(ValueError):
        orbit(CASE4, 5, 3, precision=2)
    with pytest.raises(ValueError):
        orbit(CASE4, 5, 3, mode="fast")



def test_sphere_spec_refuses_an_unknown_center():
    with pytest.raises(ValueError, match="center must be 'x1' or 'x2'"):
        SphereSpec("x3", -1)


def test_height_loss_bounds_every_step():
    # _height(f(x)) >= 2 _height(x) - L; the bound is nearly tight next to
    # a real root of the denominator: at x = 268/33 for (a, c) = (-1, -7) in
    # log2 terms, and at x = -259/10 for (-7, 16) within one bit
    maps = [CanonicalMap(3, a, c) for a, c in ((-1, -7), (-7, 16), (-2, 1), (9, 6), (-12, 5),
                                                (Fraction(-2, 9), Fraction(1, 3)),
                                                (Fraction(4, 27), Fraction(-2, 3)),
                                                (Fraction(1, 1024), 3), (4096, Fraction(1, 5)))]
    xs = [Fraction(n, d) for d in range(1, 40) for n in range(-120, 121)]
    xs += [Fraction(268, 33), Fraction(-259, 10), Fraction(1, 2048), Fraction(4097, 3)]
    for m in maps:
        loss = _height_loss(m)
        for x in xs:
            try:
                y = m.eval(x)
            except PoleHitError:
                assert _height(x) <= loss
                continue
            assert _height(y) >= 2 * _height(x) - loss, (m, x)


def test_auto_orbit_sure_to_go_over_the_height_budget_starts_truncated(monkeypatch):
    evals = []
    exact_eval = CanonicalMap.eval
    monkeypatch.setattr(CanonicalMap, "eval", lambda m, x: evals.append(x) or exact_eval(m, x))
    assert orbit(CASE4, 5, 12).mode == "exact"
    evals.clear()
    result = orbit(CASE4, 5, 150)
    # two exact steps, then the pole check at x0: without the height bound
    # the exact prefix would run to step 13
    assert evals == [Fraction(5), Fraction(-5, 14), Fraction(5)]
    assert result == orbit(CASE4, 5, 150, mode="truncated")
    evals.clear()
    with pytest.raises(UnsupportedCaseError, match=f"more than {EXACT_HEIGHT_BUDGET} bits"):
        orbit(CASE4, 5, 150, mode="exact")
    assert len(evals) == 2


# -- image norm profile ------------------------------------------------------------


def test_norm_image_profile_branches():
    m = CanonicalMap(2, 2, 1)  # alpha = 1/2, beta = 1, |a| = 1/2
    below = norm_image_profile(m, -3)
    assert (below.kind, below.exponent) == ("exact", -3)
    above = norm_image_profile(m, 2)
    # |f(x)| = |a|/r: exponent = -v(a) - e = -1 - 2
    assert (above.kind, above.exponent) == ("exact", -3)
    middle = norm_image_profile(m, -1)
    assert (middle.kind, middle.exponent) == ("lower_bound", -1)


@pytest.mark.parametrize("e", [-3, -1, 0, 2])
def test_norm_image_profile_empirical(e):
    m = CanonicalMap(2, 2, 1)
    assert validate_norm_image(m, e, count=24) > 0


def test_norm_image_profile_middle_band_p5():
    m = CanonicalMap(5, 3, 1)  # alpha = beta = 1
    pred = norm_image_profile(m, 0)
    assert pred.kind == "lower_bound" and pred.exponent == 0
    assert validate_norm_image(m, 0, count=40) > 0
