import random
from fractions import Fraction

import pytest

from padicdyn import CanonicalMap, NotApplicableError, SphereSpec, ergodicity
from padicdyn.dynamics import sphere_units
from padicdyn.errors import InconsistentParametersError, VerificationError
from padicdyn.ergodicity import (
    ORACLE_BALL_BUDGET,
    _ball_permutation,
    _verify_permutation,
    decide_ergodicity,
    displacement_table,
    ergodicity_theorem,
    isometry_check,
    mod4_criterion,
    rescale_to_unit,
    residue_cycle_oracle,
    rho,
    verify_rho,
)

from util import HaarMeasureContext, random_unit, reference_oracle_levels, verify_rescaled

M2 = CanonicalMap(2, 2, 1)     # alpha = 1/2, beta = 1, the ergodic workhorse
CASE2 = CanonicalMap(5, -1, 5)
CASE3 = CanonicalMap(5, 3, 1)
CASE4 = CanonicalMap(3, -2, 1)


# -- rho -------------------------------------------------------------------------


def test_rho_p2_example():
    # r = 1/4 < |c| = 1: rho = r^2 |c| / (alpha beta) = (1/16)/(1/2) = 1/8
    assert rho(M2, SphereSpec("x1", -2)) == -3


def test_rho_case3_x2_sphere_is_radius():
    for e in (-1, -2, -3):
        assert rho(CASE3, SphereSpec("x2", e)) == e


def test_rho_matches_sampled_displacement():
    spheres = [
        (M2, SphereSpec("x1", -2)),
        (M2, SphereSpec("x1", -4)),
        (CASE3, SphereSpec("x1", -1)),
        (CASE3, SphereSpec("x2", -2)),
        (CASE4, SphereSpec("x1", -2)),
        (CASE2, SphereSpec("x1", -2)),   # r < |c|
        (CASE2, SphereSpec("x2", -2)),   # r < |c|, derived branch
    ]
    for m, sph in spheres:
        assert verify_rho(m, sph, count=32) == 32


def test_rho_excluded_at_radius_equal_c_norm():
    # case-2 map: |c|_5 = 1/5; the sphere of that exact radius is excluded
    with pytest.raises(NotApplicableError):
        rho(CASE2, SphereSpec("x1", -1))
    with pytest.raises(NotApplicableError):
        rho(CASE2, SphereSpec("x2", -1))
    # per-point table still available there
    table = displacement_table(CASE2, SphereSpec("x1", -1), count=24)
    assert len(table) == 24


def test_rho_requires_invariant_sphere():
    with pytest.raises(NotApplicableError):
        rho(M2, SphereSpec("x1", -1))  # r = alpha is not invariant
    with pytest.raises(NotApplicableError):
        rho(CASE4, SphereSpec("x2", -1))  # case 4: nothing invariant around x2


# -- isometry -----------------------------------------------------------------------


def test_isometry_on_worked_spheres():
    for m, sph in [
        (M2, SphereSpec("x1", -2)),
        (M2, SphereSpec("x1", -3)),
        (CASE2, SphereSpec("x1", -2)),
        (CASE3, SphereSpec("x2", -1)),
        (CASE4, SphereSpec("x1", -1)),
    ]:
        rep = isometry_check(m, sph, count=16)
        assert rep.pairs_checked == 120


def test_isometry_includes_seeded_mode():
    rep = isometry_check(M2, SphereSpec("x1", -2), count=12, seed=99)
    assert rep.pairs_checked == 66


# -- minimal invariant ball -----------------------------------------------------------


def _minimal_invariant_ball(m, sphere):
    """rho(r), checked on the induced residue permutations: every ball of
    radius p^rho is fixed, and no ball one level finer is."""
    rho_exp = rho(m, sphere)
    level = sphere.radius_exponent - rho_exp
    if level >= 1:
        assert all(u == w for u, w in _ball_permutation(m, sphere, level).items())
    assert all(u != w for u, w in _ball_permutation(m, sphere, level + 1).items())
    return rho_exp


def test_minimal_invariant_ball_with_oracle():
    assert _minimal_invariant_ball(M2, SphereSpec("x1", -2)) == -3
    # case-3 sphere: the minimal ball is the whole-radius level
    assert _minimal_invariant_ball(CASE3, SphereSpec("x2", -1)) == -1
    # p = 3 sphere with rho two levels inside the radius
    assert _minimal_invariant_ball(CASE4, SphereSpec("x1", -1)) == -2


# -- theorem ---------------------------------------------------------------------------


def test_theorem_p2_center_x1():
    assert ergodicity_theorem(M2, SphereSpec("x1", -2)).verdict == "ergodic"
    assert ergodicity_theorem(M2, SphereSpec("x1", -3)).verdict == "notErgodic"


def test_theorem_p_ge_3_rule():
    v = ergodicity_theorem(CASE4, SphereSpec("x1", -1))
    assert v.verdict == "notErgodic" and v.reason == "pGe3Rule"


def test_theorem_p2_center_x2_rule():
    m = CanonicalMap(2, 1, 4)  # case 2 at p = 2: x2-centered spheres exist
    v = ergodicity_theorem(m, SphereSpec("x2", -1))
    assert v.verdict == "notErgodic" and v.reason == "radiusRule"


def test_theorem_requires_invariance():
    with pytest.raises(NotApplicableError):
        ergodicity_theorem(M2, SphereSpec("x1", 0))


# -- rescaling and the mod-4 criterion ---------------------------------------------------


def test_rescale_coefficients_and_bounds():
    rm = rescale_to_unit(M2, SphereSpec("x1", -2))
    assert rm.numerator == (0, 1)
    assert rm.denominator == (1, 2, 8)
    # numerator sums are fixed: A1 = 1, A2 = 0
    assert sum(rm.numerator[1::2]) == 1 and sum(rm.numerator[0::2]) == 0


def test_rescale_rejects_non_invariant_radius():
    with pytest.raises(NotApplicableError, match="do not map to balls"):
        rescale_to_unit(M2, SphereSpec("x1", -1))  # r = alpha: t1 = 1 is a unit
    with pytest.raises(NotApplicableError, match="do not map to balls"):
        rescale_to_unit(CASE4, SphereSpec("x2", -1))  # case 4: f'(x2) = 3/2, not a unit


def test_rescaled_identity_on_unit_samples():
    # both unit forms against exact f: around x1 and x2, for p = 2, 3, 5, 7
    spheres = [(M2, SphereSpec("x1", e)) for e in (-2, -3, -4)] + [
        (CanonicalMap(2, 1, 4), SphereSpec("x2", -1)),
        (CanonicalMap(3, 2, 1), SphereSpec("x1", -1)),
        (CanonicalMap(3, 2, 1), SphereSpec("x2", -2)),
        (CASE3, SphereSpec("x1", -1)),
        (CASE3, SphereSpec("x2", -1)),
        (CASE2, SphereSpec("x2", -2)),
        (CanonicalMap(7, 3, 1), SphereSpec("x1", -2)),
        (CanonicalMap(7, 3, 1), SphereSpec("x2", -1)),
    ]
    for m, sphere in spheres:
        units = sphere_units(m.p, 6) + sphere_units(m.p, 6, seed=11)
        assert verify_rescaled(m, sphere, units) == 12


def test_mod4_identity_map_is_not_ergodic():
    v = mod4_criterion([0, 1], [1])
    assert not v.ergodic and v.case is None
    assert (v.sums.A1, v.sums.A2, v.sums.B1, v.sums.B2) == (1, 0, 0, 1)


def test_mod4_on_rescaled_maps():
    rm = rescale_to_unit(M2, SphereSpec("x1", -2))
    v = mod4_criterion(rm.numerator, rm.denominator)
    assert v.ergodic and v.case == 3
    assert v.sums.B1 == 2 and v.sums.B2 == 9
    rm = rescale_to_unit(M2, SphereSpec("x1", -3))
    v = mod4_criterion(rm.numerator, rm.denominator)
    assert not v.ergodic


def test_mod4_swapped_case_detected():
    # swap numerator and denominator of an ergodic case-3 instance
    rm = rescale_to_unit(M2, SphereSpec("x1", -2))
    v = mod4_criterion(rm.denominator, rm.numerator)
    assert v.ergodic and v.case == 5


def test_mod4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mod4_criterion([0, Fraction(1, 2)], [1])  # not a 2-adic integer
    with pytest.raises(ValueError):
        mod4_criterion([0, 2], [1])  # 2t does not preserve the odd units


# -- residue cycle oracle ------------------------------------------------------------------


def test_oracle_single_cycle_structure_when_ergodic():
    res = residue_cycle_oracle(M2, SphereSpec("x1", -2), depth=8)
    assert res.ergodic
    for lv in res.levels:
        assert lv.ball_count == 2 ** (lv.level - 1)
        assert lv.cycle_count == 1
        assert lv.cycle_lengths == (lv.ball_count,)


def test_oracle_detects_non_ergodicity():
    res = residue_cycle_oracle(M2, SphereSpec("x1", -3), depth=8)
    assert not res.ergodic
    assert any(lv.cycle_count >= 2 for lv in res.levels)


def test_oracle_p3_multiple_cycles():
    res = residue_cycle_oracle(CASE4, SphereSpec("x1", -1), depth=5)
    assert not res.ergodic
    assert all(lv.ball_count == 2 * 3 ** (lv.level - 1) for lv in res.levels)


def test_oracle_csv_format():
    res = residue_cycle_oracle(M2, SphereSpec("x1", -2), depth=3)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "level,ball_count,cycle_count,cycle_lengths"
    assert lines[1] == "1,1,1,1"
    assert lines[2] == "2,2,1,2"
    assert lines[3] == "3,4,1,4"


def test_oracle_validates_arguments():
    with pytest.raises(ValueError):
        residue_cycle_oracle(M2, SphereSpec("x1", -2), depth=1)
    with pytest.raises(NotApplicableError):
        residue_cycle_oracle(M2, SphereSpec("x1", 3))


def test_oracle_ball_budget(monkeypatch):
    # p^depth - 1 balls in all: 2^20 - 1 fits at p = 2, 2^21 - 1 does not
    assert ORACLE_BALL_BUDGET == 2**20
    calls = []
    monkeypatch.setattr("padicdyn.ergodicity._ball_permutation",
                        lambda *args: calls.append(args))
    for depth in (21, 40, 10**9):
        with pytest.raises(ValueError, match="largest depth that fits is 20"):
            residue_cycle_oracle(M2, SphereSpec("x1", -2), depth=depth)
    # depth 5 at p = 101 (about 10^10 balls) is refused up front
    with pytest.raises(ValueError, match="101\\^5 - 1 balls.*largest depth that fits is 3"):
        residue_cycle_oracle(CanonicalMap(101, -2, 1), SphereSpec("x1", -1), depth=5)
    for depth in (2, None):
        with pytest.raises(ValueError, match="no depth >= 2 fits for p = 1031"):
            residue_cycle_oracle(CanonicalMap(1031, -2, 1), SphereSpec("x1", -1), depth)
    assert calls == []


def test_kernel_refuses_a_sphere_whose_balls_do_not_map_to_balls():
    # r = alpha: t1 = c*s/a = 1 is a unit, so the ball map is not defined
    with pytest.raises(NotApplicableError, match="do not map to balls"):
        _ball_permutation(M2, SphereSpec("x1", -1), 3)


def test_ball_map_checks_catch_broken_tables(monkeypatch):
    with pytest.raises(VerificationError, match="image left the sphere at ball u=2"):
        _verify_permutation({1: 1, 2: 3}, 3, 1)
    with pytest.raises(VerificationError, match="level 1 is not a permutation"):
        _verify_permutation({1: 2, 2: 2}, 3, 1)
    # swap the images of balls 1 and 3 mod 8: still a bijection at level 3,
    # but ball 5 no longer maps into the image of its parent ball 1 mod 4
    real = ergodicity._ball_permutation

    def swapped(m, sphere, level):
        perm = real(m, sphere, level)
        perm[1], perm[3] = perm[3], perm[1]
        return perm

    monkeypatch.setattr(ergodicity, "_ball_permutation", swapped)
    with pytest.raises(VerificationError, match="not well defined at level 2: ball u=5"):
        residue_cycle_oracle(M2, SphereSpec("x1", -2), depth=3)


def _differential_spheres(p: int, rng: random.Random, count: int):
    """``count`` invariant spheres of seeded maps, around each centre that has
    any and at one of the two outermost radii. Three maps in four have
    v(a) = 2 v(c) (cases 3 and 4 for odd p), the others a free v(a)."""
    out = []
    while len(out) < count:
        k = rng.randint(-1, 1)
        c = random_unit(rng, p, 40) * Fraction(p) ** k
        if len(out) % 4 == 0:
            a = random_unit(rng, p, 40) * Fraction(p) ** rng.randint(-2, 3)
        else:
            a = c * c * (1 + random_unit(rng, p, 40) * Fraction(p) ** rng.randint(0, 1))
        try:
            m = CanonicalMap(p, a, c)
            inv = m.invariant_spheres()
        except InconsistentParametersError:
            continue
        for center, bound in (("x1", inv.x1_exponent_bound), ("x2", inv.x2_exponent_bound)):
            if bound is not None:
                out.append((m, SphereSpec(center, bound - 1 - rng.randint(0, 1))))
    return out


@pytest.mark.parametrize("p,depth", [(2, 6), (3, 5), (5, 4), (7, 3), (11, 3)])
def test_kernel_levels_equal_the_fraction_reference(p, depth):
    rng = random.Random(f"oracle-kernel:{p}")
    spheres = _differential_spheres(p, rng, 12 if p < 7 else 6)
    for m, sphere in spheres:
        levels = residue_cycle_oracle(m, sphere, depth).levels
        assert levels == reference_oracle_levels(m, sphere, depth), (m, sphere)
    centers = {(sphere.center, m.classify().case) for m, sphere in spheres}
    assert ("x1", 3) in centers or p == 2
    assert ("x2", 3) in centers or p == 2


@pytest.mark.parametrize("m,sphere,depth,target", [
    (M2, SphereSpec("x1", -2), 8, Fraction(2)),         # t1 = c*s/a, s = 4
    (CASE3, SphereSpec("x2", -1), 4, Fraction(2, 3)),   # lam = 1 - c^2/a
])
def test_anchor_catches_a_corrupted_coefficient_residue(monkeypatch, m, sphere, depth,
                                                        target):
    # off by p^(depth-1): the corrupted map is still a bijection of units that
    # reduces level by level, so only the comparison with exact f catches it
    rm = rescale_to_unit(m, sphere)
    assert target in rm.numerator + rm.denominator
    real = ergodicity._residue

    def corrupted(x, mod):
        return (real(x, mod) + (mod // m.p if x == target else 0)) % mod

    monkeypatch.setattr(ergodicity, "_residue", corrupted)
    with pytest.raises(VerificationError, match="differs from the exact image"):
        residue_cycle_oracle(m, sphere, depth)


# -- Haar measure -----------------------------------------------------------------------


def test_haar_measure_examples():
    # in Q_2 the sphere S_r(0) is a single ball of radius r/2
    ctx = HaarMeasureContext(2, SphereSpec("x1", -2))
    assert ctx.measure(-3) == 1
    # p=3, r=1, ball radius 1/3: half the sphere
    ctx = HaarMeasureContext(3, SphereSpec("x1", 0))
    assert ctx.measure(-1) == Fraction(1, 2)


def test_haar_measure_agrees_with_residue_counting():
    # S_1(0) in Q_3: units mod 9 are {1,2,4,5,7,8}; V_{1/3}(1) keeps {1,4,7}
    units = [u for u in range(1, 9) if u % 3]
    hit = [u for u in units if (u - 1) % 3 == 0]
    ctx = HaarMeasureContext(3, SphereSpec("x1", 0))
    assert ctx.measure(-1) == Fraction(len(hit), len(units))


def test_haar_measure_normalization():
    for p, e, d in [(2, -2, -5), (3, 0, -2), (5, -1, -3)]:
        ctx = HaarMeasureContext(p, SphereSpec("x1", e))
        assert ctx.ball_count(d) * ctx.measure(d) == 1


def test_haar_measure_containment_errors():
    ctx = HaarMeasureContext(3, SphereSpec("x1", 0))
    with pytest.raises(ValueError):
        ctx.measure(0)
    with pytest.raises(ValueError):
        ctx.measure(1)


# -- combined agreement ---------------------------------------------------------------------


def test_triple_agreement_p2():
    for e in range(-2, -7, -1):
        d = decide_ergodicity(M2, SphereSpec("x1", e))
        assert d.verdict == ("ergodic" if e == -2 else "notErgodic")
        if e == -2:
            assert d.mod4.case == 3 and d.oracle.ergodic


def test_agreement_on_x2_spheres():
    d = decide_ergodicity(CASE3, SphereSpec("x2", -1))
    assert d.verdict == "notErgodic" and d.mod4 is None
    m = CanonicalMap(2, 1, 4)
    d = decide_ergodicity(m, SphereSpec("x2", -1))
    assert d.verdict == "notErgodic"


def test_radius_twice_displacement_iff_ergodic_p2():
    # on every invariant x1-centered sphere of a p = 2 map, the theorem
    # verdict is "ergodic" exactly when r = 2 rho(r)
    import random

    from padicdyn import InconsistentParametersError
    from padicdyn.padic import _fraction_valuation

    rng = random.Random(1212)
    tried = 0
    seen_ergodic = 0
    while tried < 200:
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        if a == 0 or c == 0:
            continue
        m = CanonicalMap(2, a, c)
        try:
            bound = m.invariant_spheres().x1_exponent_bound
        except InconsistentParametersError:
            continue
        tried += 1
        vc = _fraction_valuation(c, 2)
        for e in range(bound - 1, bound - 4, -1):
            if e == -vc:
                continue
            sphere = SphereSpec("x1", e)
            verdict = ergodicity_theorem(m, sphere).verdict
            assert (e == rho(m, sphere) + 1) == (verdict == "ergodic")
            seen_ergodic += verdict == "ergodic"
    assert seen_ergodic > 0


def test_measure_preservation_via_permutation():
    # the oracle's well-definedness + bijectivity checks passing means each
    # level is a permutation of equal-measure balls: preimages preserve measure
    res = residue_cycle_oracle(CASE3, SphereSpec("x2", -1), depth=3)
    ctx = HaarMeasureContext(5, SphereSpec("x2", -1))
    for lv in res.levels:
        mu = ctx.measure(-1 - lv.level)
        assert lv.ball_count * mu == 1
