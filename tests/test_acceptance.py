"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance here is
zero: all comparisons are exact integer-exponent or exact-rational equality.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from padicdyn import CanonicalMap, SphereSpec, is_square
from padicdyn.cli import main as cli_main
from padicdyn.dynamics import orbit, sphere_points
from padicdyn.ergodicity import (
    decide_ergodicity,
    isometry_check,
    rescale_to_unit,
    mod4_criterion,
    residue_cycle_oracle,
    rho,
    verify_rho,
)
from padicdyn.padic import _fraction_valuation
from padicdyn.periodic import (
    p6_eval,
    three_periodic_from_q,
    two_periodic,
    verify_orbit_structure,
)
from util import (
    brute_force_is_square,
    random_rational,
    square_residue_set,
    ultrametric_valuations,
)

WORKED_MAPS = {
    2: CanonicalMap(5, -1, 5),
    3: CanonicalMap(5, 3, 1),
    4: CanonicalMap(3, -2, 1),
    5: CanonicalMap(3, 3, 1),
}


def _invariant_sphere_sample(m):
    """Representative invariant spheres of a worked map: one around x1, and
    one around x2 when any exists (avoiding the excluded radius |c|)."""
    inv = m.invariant_spheres()
    vc = _fraction_valuation(m.c, m.p)
    out = []
    e = inv.x1_exponent_bound - 1
    if e == -vc:
        e -= 1
    out.append(SphereSpec("x1", e))
    if inv.x2_exponent_bound is not None:
        e = inv.x2_exponent_bound - 1
        if e == -vc:
            e -= 1
        out.append(SphereSpec("x2", e))
    return out


def test_criterion_1_ultrametric_suite():
    for p in (2, 3, 5, 7):
        rng = random.Random(10_000 + p)
        for _ in range(10_000):
            x, y = random_rational(rng), random_rational(rng)
            vx, vy, _ = ultrametric_valuations(x, y, p)  # triangle + refinement, exact
            assert _fraction_valuation(x * y, p) == vx + vy
    print("\nACCEPTANCE 1 (ultrametric suite, 10000 pairs x p in {2,3,5,7}): PASS")


def test_criterion_2_classification_suite():
    expectations = {
        2: ("indifferent", 0, "siegel_disk", 0, Fraction(0)),
        3: ("indifferent", 0, "siegel_disk", 0, Fraction(-1)),
        4: ("attracting", 1, "basin", 0, Fraction(-1)),
        5: ("repelling", -1, "repelling_ball", 0, Fraction(-1)),
    }
    for case, m in WORKED_MAPS.items():
        kind, mult_exp, region_kind, region_exp, region_center = expectations[case]
        cls = m.classify()
        assert cls.case == case
        assert cls.x1.kind == "indifferent" and cls.x1.multiplier_norm_exponent == 0
        assert cls.x1.region.kind == "siegel_disk"
        assert cls.x2.kind == kind
        assert cls.x2.multiplier_norm_exponent == mult_exp
        assert cls.x2.region.kind == region_kind
        assert cls.x2.region.radius_exponent == region_exp
        assert cls.x2.region.center == region_center
    # case-2 disks coincide; case-3 disk sits on S_alpha(0), disjoint from U_alpha(0)
    c2 = WORKED_MAPS[2].classify()
    assert c2.x1.region == c2.x2.region
    c3 = WORKED_MAPS[3].classify()
    assert c3.x1.region != c3.x2.region
    assert _fraction_valuation(WORKED_MAPS[3].x2, 5) == 0
    print("ACCEPTANCE 2 (classification of the four worked maps): PASS")


def test_criterion_3_siegel_confinement_and_contraction():
    for case, m in WORKED_MAPS.items():
        for sphere in _invariant_sphere_sample(m):
            for x0 in sphere_points(m, sphere, 32):
                o = orbit(m, x0, 200, mode="truncated", precision=24)
                assert o.pole_hit is None
                key = "x1" if sphere.center == "x1" else "x2"
                dists = o.dist_x1_exponents if key == "x1" else o.dist_x2_exponents
                assert set(dists) == {sphere.radius_exponent}, (case, sphere, x0)
    # case-4 contraction by a factor >= p per step inside U_alpha(x2)
    m = WORKED_MAPS[4]
    contracted = 0
    for u in range(1, 151):
        if u % 3 == 0:
            continue
        x0 = m.x2 + 3 * u  # |x0 - x2| = 1/3 < alpha = 1
        o = orbit(m, x0, 30, mode="truncated", precision=64)
        ints = [e for e in o.dist_x2_exponents if isinstance(e, int)]
        assert all(b <= a - 1 for a, b in zip(ints, ints[1:])), x0
        assert min(ints) <= -20 or len(ints) < len(o.dist_x2_exponents)
        contracted += 1
        if contracted == 100:
            break
    assert contracted == 100
    print("ACCEPTANCE 3 (200-step sphere confinement + case-4 contraction): PASS")


def test_criterion_4_isometry_and_rho():
    for case, m in WORKED_MAPS.items():
        for sphere in _invariant_sphere_sample(m):
            rep = isometry_check(m, sphere, count=32)  # exact on all 496 pairs
            assert rep.pairs_checked == 496
            assert verify_rho(m, sphere, count=32) == 32
    print("ACCEPTANCE 4 (isometry and displacement rho(r) on invariant spheres): PASS")


def test_criterion_5_ergodicity_triple_agreement():
    m = CanonicalMap(2, 2, 1)
    verdicts = {}
    for e in range(-2, -7, -1):
        sphere = SphereSpec("x1", e)
        decision = decide_ergodicity(m, sphere, depth=8)  # raises on any disagreement
        rm = rescale_to_unit(m, sphere)
        assert mod4_criterion(rm.numerator, rm.denominator).ergodic == (
            decision.verdict == "ergodic"
        )
        verdicts[e] = decision.verdict
    assert verdicts == {
        -2: "ergodic",
        -3: "notErgodic",
        -4: "notErgodic",
        -5: "notErgodic",
        -6: "notErgodic",
    }
    # p = 3: oracle confirms non-ergodicity on invariant spheres
    for m3 in (WORKED_MAPS[4], WORKED_MAPS[5]):
        sphere = SphereSpec("x1", m3.invariant_spheres().x1_exponent_bound - 1)
        res = residue_cycle_oracle(m3, sphere, depth=5)
        assert not res.ergodic
        assert decide_ergodicity(m3, sphere).verdict == "notErgodic"
    print("ACCEPTANCE 5 (theorem + mod-4 + oracle agree; exactly r=1/4 ergodic): PASS")


def test_criterion_6_periodic_orbits_exact():
    # 2-cycle of (a=4, c=3): {-2, -4}, verified by exact evaluation
    m = CanonicalMap(7, 4, 3)
    orb = two_periodic(m)
    assert orb.points == (-2, -4)
    assert m.eval(-2) == -4 and m.eval(-4) == -2
    # q = 1: a = 5/24, c = -19/24, f^3(a) = a and P(a) = 0 exactly
    res = three_periodic_from_q(5, 1)
    assert res.map.a == Fraction(5, 24) and res.map.c == Fraction(-19, 24)
    a = Fraction(5, 24)
    assert res.map.eval(res.map.eval(res.map.eval(a))) == a
    assert p6_eval(res.map, a) == 0
    # excluded parameters rejected
    for bad in (0, -1, Fraction(-2, 3)):
        with pytest.raises(ValueError):
            three_periodic_from_q(5, bad)
    # every on-sphere periodic orbit is indifferent (multiplier norm 1)
    on_sphere = []
    m34 = CanonicalMap(3, -4, 1)
    orb2 = two_periodic(m34)
    on_sphere.append((m34, orb2, SphereSpec("x2", -1)))
    res7 = three_periodic_from_q(7, 1)
    on_sphere.append((res7.map, res7.orbit, SphereSpec("x2", -1)))
    for mm, oo, sphere in on_sphere:
        assert mm.sphere_is_invariant(sphere)
        assert oo.multiplier_norm_exponent == 0
        report = verify_orbit_structure(mm, oo, sphere)
        assert report.multiplier_norm_exponent == 0
    print("ACCEPTANCE 6 (exact 2-/3-periodic orbits, exclusions, indifference): PASS")


def test_criterion_7_oracle_cross_checks():
    # Newton-polygon (v_alpha, v_beta) vs Hensel-root norms, 50 seeded maps
    rng = random.Random(20260810)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 5])
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 40)) * Fraction(p) ** rng.randint(-3, 3)
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 40)) * Fraction(p) ** rng.randint(-3, 3)
        if a == 0 or c == 0:
            continue
        m = CanonicalMap(p, a, c)
        if m.discriminant == 0 or not is_square(m.discriminant, p):
            continue
        va, vb = m.alpha_beta()
        poles = m.poles(precision=64)
        vals = sorted(
            x.valuation if not isinstance(x, Fraction) else _fraction_valuation(x, p)
            for x in poles.values
        )
        assert vals == sorted([va, vb]), (p, a, c)
        checked += 1
    # is_square vs exhaustive residue squaring mod p^6 for |v| <= 4
    for p in (2, 3, 5):
        residues = square_residue_set(p)
        rng = random.Random(900 + p)
        n = 0
        while n < 500:
            v = rng.randint(-4, 4)
            u = Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 400))
            if u == 0 or u.numerator % p == 0 or u.denominator % p == 0:
                continue
            x = u * Fraction(p) ** v
            assert is_square(x, p) == brute_force_is_square(x, p, residues), (x, p)
            n += 1
    print("ACCEPTANCE 7 (Newton polygon vs Hensel norms; is_square vs residues): PASS")


GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "analyze_case4.json": ["analyze", "--p", "3", "--a", "-2", "--c", "1"],
    "analyze_case2.json": ["analyze", "--p", "5", "--a", "-1", "--c", "5"],
    "ergodic_p2_ergodic.json": ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"],
    "ergodic_p3_notergodic.json": ["ergodic", "--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1"],
    "periodic_two_cycle.json": ["periodic", "--p", "7", "--a", "4", "--c", "3"],
    "conjugate_double_root.json": ["conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1"],
}


def test_criterion_8_cli_golden_determinism(capsys):
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        expected = (GOLDEN / name).read_bytes()
        for _ in range(2):  # byte-identical across runs
            code = cli_main(argv + ["--json"])
            out = capsys.readouterr().out
            assert code == 0
            assert out.encode() == expected, name
        doc = json.loads(expected)
        assert doc["version"]
    print("ACCEPTANCE 8 (six golden CLI commands, byte-identical JSON): PASS")
