import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicdyn import (
    CanonicalMap,
    DegenerateMapError,
    InconsistentParametersError,
    PoleHitError,
    SphereSpec,
)
from padicdyn.dynamics import (
    PoleHitRecord,
    orbit,
    sphere_points,
)
from padicdyn.padic import INFINITY, _fraction_valuation

from util import (
    norm_image_profile,
    random_nonzero_rational,
    random_rational,
    representative,
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
    # the integer forms against a*x/(x^2 + c*x + a) and a*(a - x^2)/(x^2 + c*x + a)^2
    # in Fraction arithmetic, on signed parameters and points of mixed sizes
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
        value, slope = m.eval(x), m.derivative(x)
        assert value == m.a * x / den and type(value) is Fraction
        assert slope == m.a * (m.a - x * x) / (den * den) and type(slope) is Fraction
        checked += 1
    # an integer point and a pole (x^2 + x - 2 = (x + 2)(x - 1))
    assert CASE4.derivative(0) == 1 and CASE4.eval(2) == Fraction(-1)
    with pytest.raises(PoleHitError):
        CASE4.derivative(-2)


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
        if m.discriminant == 0 or not m.discriminant_is_square():
            continue
        va, vb = m.alpha_beta()
        poles = m.poles(precision=64)
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
        assert m.derivative(-m.c) == m.multiplier_x2()
        seen.add(cls.case)
    assert seen >= {2, 3, 4, 5}


def test_classification_check_survives_python_O():
    # python -O strips assert statements; the case invariants must still run
    script = (
        "from fractions import Fraction\n"
        "from padicdyn import CanonicalMap, VerificationError\n"
        "assert False, 'assert statements are not stripped'\n"
        "CanonicalMap.multiplier_x2 = lambda self: Fraction(5)  # breaks case 3\n"
        "try:\n"
        "    CanonicalMap(5, 3, 1).classify()\n"
        "except VerificationError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "VerificationError case 3 needs |f'(x2)| = 1, got v = 1\n"


def test_classification_is_computed_once_per_map(monkeypatch):
    calls = []
    real = CanonicalMap.multiplier_x2
    monkeypatch.setattr(CanonicalMap, "multiplier_x2",
                        lambda self: calls.append(self) or real(self))
    m = CanonicalMap(5, 3, 1)
    first = m.classify()
    assert m.sphere_is_invariant(SphereSpec("x2", -1))
    assert m.classify() is first and calls == [m]


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
