import dataclasses
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from padicdyn import CanonicalMap, NotApplicableError, SphereSpec, cli, ergodicity
from padicdyn.dynamics import sphere_units
from padicdyn.errors import InconsistentParametersError, VerificationError
from padicdyn.ergodicity import (
    ORACLE_BALL_BUDGET,
    ErgodicityVerdict,
    UnitForm,
    _ball_permutation,
    _cycle_lengths,
    _inverse_table,
    decide_ergodicity,
    ergodicity_theorem,
    isometry_check,
    mod4_criterion,
    rescale_to_unit,
    residue_cycle_oracle,
    rho,
    sampled_checks,
    verify_rho,
)
from padicdyn.padic import _fraction_valuation, _horner

from util import (
    HaarMeasureContext,
    count_calls,
    displacement_table,
    faulty_eval_pair,
    random_unit,
    reference_isometry_check,
    reference_oracle_levels,
    reference_radius_rule,
    reference_rho,
    sphere_points,
    verify_rescaled,
)

M2 = CanonicalMap(2, 2, 1)     # alpha = 1/2, beta = 1, the ergodic workhorse
CASE2 = CanonicalMap(5, -1, 5)
CASE3 = CanonicalMap(5, 3, 1)
CASE4 = CanonicalMap(3, -2, 1)


# -- rho -------------------------------------------------------------------------


def test_rho_p2_example():
    # r = 1/4 < |c| = 1: rho = r^2 |c| / (alpha beta) = (1/16)/(1/2) = 1/8
    assert rho(rescale_to_unit(M2, SphereSpec("x1", -2))) == -3


def test_rho_case3_x2_sphere_is_radius():
    for e in (-1, -2, -3):
        assert rho(rescale_to_unit(CASE3, SphereSpec("x2", e))) == e


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
        assert verify_rho(rescale_to_unit(m, sph), count=32) == 32


def test_rho_excluded_at_radius_equal_c_norm():
    # case-2 map: |c|_5 = 1/5; the sphere of that exact radius is excluded
    with pytest.raises(NotApplicableError):
        rho(rescale_to_unit(CASE2, SphereSpec("x1", -1)))
    with pytest.raises(NotApplicableError):
        rho(rescale_to_unit(CASE2, SphereSpec("x2", -1)))
    # per-point table still available there
    table = displacement_table(CASE2, SphereSpec("x1", -1), count=24)
    assert len(table) == 24


def test_displacement_table_gives_x2_the_exponent_minus_inf():
    # on the sphere of radius |c| = 1/5 around x1 the first unit, u = 1,
    # draws x = 5 = x2, which f fixes; the other points move
    m, sphere = CanonicalMap(5, 1, -5), SphereSpec("x1", -1)
    table = displacement_table(m, sphere, 8)
    assert table[0] == (m.x2, "-inf")
    assert [e for _, e in table] == [
        "-inf" if x == m.x2 else -_fraction_valuation(m.eval(x) - x, 5) for x, _ in table]
    assert sampled_checks(rescale_to_unit(m, sphere), 8)[0] is None


def _rho_outcome(rho_of):
    """rho_of(), or the message of its NotApplicableError."""
    try:
        return rho_of()
    except NotApplicableError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rho_rule_equals_the_closed_forms(p):
    # the rule read off the unit form against the paper's case-by-case
    # closed forms, on the five radii below each bound and on r = |c|: both
    # are undefined on the same spheres, with the same message
    rng = random.Random(f"rho-rule:{p}")
    outcomes = Counter()
    for _ in range(80):
        a = random_unit(rng, p, 40) * Fraction(p) ** rng.randint(-3, 3)
        c = random_unit(rng, p, 40) * Fraction(p) ** rng.randint(-3, 3)
        m = CanonicalMap(p, a, c)
        try:
            inv = m.invariant_spheres()
        except InconsistentParametersError:
            continue
        for center, bound in (("x1", inv.x1_exponent_bound), ("x2", inv.x2_exponent_bound)):
            if bound is None:
                continue
            radii = {bound - k for k in range(1, 6)}
            if -m.val(c) < bound:  # the sphere of radius |c|
                radii.add(-m.val(c))
            for e in sorted(radii):
                sphere = SphereSpec(center, e)
                got = _rho_outcome(lambda: rho(rescale_to_unit(m, sphere)))
                assert got == _rho_outcome(lambda: reference_rho(m, sphere)), (m, sphere)
                outcomes[center, type(got)] += 1
    assert set(outcomes) == {("x1", int), ("x1", str), ("x2", int), ("x2", str)}, outcomes


def test_rho_requires_invariant_sphere():
    with pytest.raises(NotApplicableError):
        rho(rescale_to_unit(M2, SphereSpec("x1", -1)))  # r = alpha is not invariant
    with pytest.raises(NotApplicableError):
        rho(rescale_to_unit(CASE4, SphereSpec("x2", -1)))  # case 4: nothing invariant around x2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_displacement_exponents_equal_the_fraction_valuation(p):
    # the exponents come from numerators and denominators of x and f(x);
    # the reference subtracts Fractions
    rng = random.Random(f"displacement:{p}")
    spheres = _sample_corpus(p, rng)
    for m, sphere in spheres:
        for seed in (None, rng.randrange(1 << 30)):
            table = displacement_table(m, sphere, 16, seed)
            points = sphere_points(m, sphere, 16, seed)
            assert [x for x, _ in table] == points
            assert [e for _, e in table] == [-_fraction_valuation(m.eval(x) - x, p)
                                             for x in points], (m, sphere, seed)
    assert any(m.val(x) < 0 for m, sphere in spheres for x in sphere_points(m, sphere, 8))


def test_sampled_checks_equal_the_separate_checks():
    # one draw feeds both checks; on the sphere of radius |c| rho is None
    # and only the isometry is checked
    for m, sphere, seed in [(M2, SphereSpec("x1", -2), None), (CASE3, SphereSpec("x2", -1), 4),
                            (CASE2, SphereSpec("x1", -1), None)]:
        form = rescale_to_unit(m, sphere)
        try:
            expected = rho(form)
        except NotApplicableError:
            expected = None
        else:
            assert verify_rho(form, 12, seed) == 12
        assert sampled_checks(form, 12, seed) == (expected, isometry_check(form, 12, seed))
    assert sampled_checks(rescale_to_unit(CASE2, SphereSpec("x1", -1)), 12)[0] is None


def test_sampled_checks_read_one_unit_form(monkeypatch):
    # the displacement rule and the numerator-factor conditions both read
    # the form they are given; neither passes the gate again
    forms = [rescale_to_unit(m, sphere) for m, sphere in [
        (M2, SphereSpec("x1", -2)), (CASE3, SphereSpec("x2", -1)), (CASE2, SphereSpec("x1", -1))]]
    calls = []
    for name in ("rescale_to_unit", "_require_invariant"):
        monkeypatch.setattr(ergodicity, name, lambda *args, name=name: calls.append(name))
    for form in forms:
        sampled_checks(form, 8)
    assert calls == []


def test_sampled_checks_check_the_displacement_first(monkeypatch):
    # an image moved by s*p: the displacement of that point and the isometry
    # of its pairs both fail; the displacement is reported, as the CLI did
    # when it ran verify_rho before isometry_check
    m, sphere = M2, SphereSpec("x1", -2)
    moved = sphere_points(m, sphere, 8)[3]
    monkeypatch.setattr(CanonicalMap, "_eval_pair", faulty_eval_pair(lambda m, x, f: (
        f(x) + (Fraction(8) if x == moved else 0))))
    with pytest.raises(VerificationError, match=f"displacement mismatch at x={moved}"):
        sampled_checks(rescale_to_unit(m, sphere), 8)
    with pytest.raises(VerificationError, match="isometry violated"):
        isometry_check(rescale_to_unit(m, sphere), 8)


# -- isometry -----------------------------------------------------------------------


def test_isometry_on_worked_spheres():
    for m, sph in [
        (M2, SphereSpec("x1", -2)),
        (M2, SphereSpec("x1", -3)),
        (CASE2, SphereSpec("x1", -2)),
        (CASE3, SphereSpec("x2", -1)),
        (CASE4, SphereSpec("x1", -1)),
    ]:
        rep = isometry_check(rescale_to_unit(m, sph), count=16)
        assert rep.pairs_checked == 120


def test_isometry_includes_seeded_mode():
    rep = isometry_check(rescale_to_unit(M2, SphereSpec("x1", -2)), count=12, seed=99)
    assert rep.pairs_checked == 66


def _isometry_on(m, sphere, count, seed):
    """isometry_check on the unit form of f on the sphere, called as
    reference_isometry_check is."""
    return isometry_check(rescale_to_unit(m, sphere), count, seed)


def _isometry_outcome(check, m, sphere, count, seed):
    """The report, or the message and counterexample of the VerificationError."""
    try:
        return check(m, sphere, count, seed)
    except VerificationError as exc:
        return str(exc), exc.counterexample


def _scaled(m, sphere, k):
    """The map (a*p^-2k, c*p^-k), conjugate to m by x -> x*p^-k, and the image
    of ``sphere`` under that scaling: its points carry p^k in the denominator."""
    s = Fraction(m.p) ** -k
    return CanonicalMap(m.p, m.a * s * s, m.c * s), SphereSpec(sphere.center,
                                                               sphere.radius_exponent + k)


#: Spheres of radius 1 (e = 0) around both centres of a case-2 map with
#: alpha = 3: there the denominator of f(x) - f(x_0) can be prime to p, which
#: takes the isometry kernel's branch that scales the image coordinate up
RADIUS_ONE_SPHERES = [(CanonicalMap(3, Fraction(-13, 63), Fraction(144, 5)),
                       SphereSpec(center, 0)) for center in ("x1", "x2")]


def _sample_corpus(p: int, rng: random.Random):
    """The sampled checks' differential corpus at p: seeded invariant
    spheres, three of them scaled so that their points carry p^2 in the
    denominator, and at p = 3 the spheres of radius 1."""
    spheres = _differential_spheres(p, rng, 6)
    spheres += [_scaled(m, sphere, 2) for m, sphere in spheres[:3]]
    return spheres + [(m, sphere) for m, sphere in RADIUS_ONE_SPHERES if m.p == p]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_isometry_kernel_equals_the_fraction_reference(p):
    rng = random.Random(f"isometry-kernel:{p}")
    spheres = _sample_corpus(p, rng)
    for m, sphere in spheres:
        for count in (8, 16, 32):
            for seed in (None, rng.randrange(1 << 30)):
                got = _isometry_outcome(_isometry_on, m, sphere, count, seed)
                assert got == _isometry_outcome(reference_isometry_check, m, sphere,
                                                count, seed), (m, sphere, count, seed)
    assert {sphere.center for _, sphere in spheres} == {"x1", "x2"}
    # the corpus has sample points and values of a with p in the denominator
    assert any(m.val(m.a) < 0 for m, _ in spheres)
    assert any(m.val(x) < 0 for m, sphere in spheres for x in sphere_points(m, sphere, 8))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_isometry_level_check_alone_passes_every_isometric_sphere(monkeypatch, p):
    # the pair scan runs only once the level check has failed, and on an
    # isometric sphere it finds no pair, so a faulty level check would pass
    # unseen: on the corpus, all isometric, the scan must never run
    def scan(p, points, images):
        raise AssertionError("the pair scan ran on an isometric sphere")

    rng = random.Random(f"isometry-kernel:{p}")
    spheres = _sample_corpus(p, rng)
    monkeypatch.setattr(ergodicity, "_scan_pairs", scan)
    for m, sphere in spheres:
        for count in (8, 32):
            for seed in (None, rng.randrange(1 << 30)):
                report = isometry_check(rescale_to_unit(m, sphere), count, seed)
                assert report.pairs_checked == count * (count - 1) // 2
                assert sampled_checks(rescale_to_unit(m, sphere), count, seed)[1] == report


@pytest.mark.parametrize("m,sphere,seed", [
    (M2, SphereSpec("x1", -2), None),
    (M2, SphereSpec("x1", -3), 5),
    (CASE3, SphereSpec("x2", -1), None),
    (CASE2, SphereSpec("x2", -2), 11),
    (CASE4, SphereSpec("x1", -1), 3),
    (*_scaled(CASE3, SphereSpec("x2", -1), 2), None),
])
@pytest.mark.parametrize("reach", ["far", "near"])
def test_isometry_kernel_and_reference_catch_a_moved_image(monkeypatch, m, sphere, seed,
                                                            reach):
    # move the image of the 6th sample point by p^k: "far" breaks every pair
    # with it, "near" only the pairs with its nearest neighbours
    pts = sphere_points(m, sphere, 16, seed)
    moved = pts[5]
    if reach == "far":
        k = -sphere.radius_exponent - 1
    else:
        k = max(m.val(moved - y) for y in pts if y != moved) - 1
    monkeypatch.setattr(CanonicalMap, "_eval_pair", faulty_eval_pair(lambda m, x, f: (
        f(x) + (Fraction(m.p) ** k if x == moved else 0))))
    got = _isometry_outcome(_isometry_on, m, sphere, 16, seed)
    assert isinstance(got, tuple) and moved in got[1], got
    assert got == _isometry_outcome(reference_isometry_check, m, sphere, 16, seed)


@pytest.mark.parametrize("m,sphere,seed", [
    (M2, SphereSpec("x1", -2), None),
    (CASE3, SphereSpec("x2", -1), 7),
    (*_scaled(CASE2, SphereSpec("x2", -2), 2), None),
])
def test_isometry_kernel_and_reference_catch_images_drawn_together(monkeypatch, m, sphere,
                                                                   seed):
    # put the image of the 6th sample point within p^40 of its nearest
    # neighbour's image: that pair's images are closer than its points,
    # and a pair alone in its ball class one level up must still be caught
    pts = sphere_points(m, sphere, 16, seed)
    moved = pts[5]
    partner = max((y for y in pts if y != moved), key=lambda y: m.val(moved - y))
    monkeypatch.setattr(CanonicalMap, "_eval_pair", faulty_eval_pair(lambda m, x, f: (
        f(partner) + Fraction(m.p) ** 40 if x == moved else f(x))))
    got = _isometry_outcome(_isometry_on, m, sphere, 16, seed)
    assert isinstance(got, tuple) and moved in got[1], got
    assert got == _isometry_outcome(reference_isometry_check, m, sphere, 16, seed)
    if seed is None and m is M2:  # u = 11 and 27 share no level-4 ball with another sample
        assert sum(m.val(moved - y) >= m.val(moved - partner) for y in pts) == 2


def test_isometry_levels_reach_units_that_agree_to_many_digits(monkeypatch):
    # two units of about 21 bits that agree mod 2^40: the level check must
    # run to level 41 to tell them apart, and an image moved by s*2^40 shows
    # only there
    units = [Fraction(1), Fraction(3), Fraction(1572865, 1048577), Fraction(524287, 1048575)]
    assert M2.val(units[2] - units[3]) == 40
    for module in ("padicdyn.ergodicity", "util"):
        monkeypatch.setattr(f"{module}.sphere_units", lambda p, count, seed=None: units)
    sphere = SphereSpec("x1", -2)
    assert _isometry_on(M2, sphere, 4, None) == reference_isometry_check(M2, sphere, 4)
    pts = sphere_points(M2, sphere, 4)
    monkeypatch.setattr(CanonicalMap, "_eval_pair", faulty_eval_pair(lambda m, x, f: (
        f(x) + (Fraction(2) ** 42 if x == pts[3] else 0))))
    got = _isometry_outcome(_isometry_on, M2, sphere, 4, None)
    assert isinstance(got, tuple) and got[1] == (pts[2], pts[3]), got
    assert got == _isometry_outcome(reference_isometry_check, M2, sphere, 4, None)


def test_isometry_checks_the_numerator_factor_conditions_once_per_sphere(monkeypatch):
    # the boundary sphere r = alpha = |c| of this map is not invariant, and
    # f is not an isometry on it: v(t1) = v(t2) = 0 there, so the conditions
    # that give |a - xy| = |a| for every pair fail before any pair is built
    m, sphere = CanonicalMap(3, Fraction(-9), Fraction(-6)), SphereSpec("x1", -1)
    assert not m.sphere_is_invariant(sphere)
    monkeypatch.setattr(CanonicalMap, "sphere_is_invariant", lambda self, sphere: True)
    with pytest.raises(VerificationError) as exc:
        isometry_check(rescale_to_unit(m, sphere), 32)
    assert str(exc.value) == (
        "balls of invariant SphereSpec(center='x1', radius_exponent=-1) do not map "
        "to balls: v(t1) = 0 < 1, v(t2) = 0 < 1")
    # the pair scan finds the same sphere non-isometric
    with pytest.raises(VerificationError, match="isometry violated for x=3, y=6: v=2 != 1"):
        reference_isometry_check(m, sphere, 32)


@pytest.mark.parametrize("m,sphere,failed", [
    (CanonicalMap(3, -9, -6), SphereSpec("x1", -1), "v(t1) = 0 < 1, v(t2) = 0 < 1"),
    (CASE4, SphereSpec("x2", -1), "v(f'(center)) = 1 != 0"),
    (CanonicalMap(3, 9, 1), SphereSpec("x2", -3), "v(f'(center)) = -2 != 0"),  # case 5
])
def test_every_sphere_reader_reports_a_gate_disagreement_as_verification(
        monkeypatch, capsys, m, sphere, failed):
    # the invariance bound admits the sphere (patched), the unit form's
    # conditions do not: the one gate raises VerificationError naming the
    # failed conditions, and every reader takes the gated form, so none can
    # be reached past it; ``ergodic`` exits 3
    assert not m.sphere_is_invariant(sphere)
    monkeypatch.setattr(CanonicalMap, "sphere_is_invariant", lambda self, sphere: True)
    message = f"balls of invariant {sphere} do not map to balls: {failed}"
    for check in (rescale_to_unit, decide_ergodicity):
        with pytest.raises(VerificationError) as exc:
            check(m, sphere)
        assert str(exc.value) == message, check
    for reader in (rho, verify_rho, isometry_check, sampled_checks, residue_cycle_oracle,
                   _ball_permutation, ergodicity_theorem):
        assert next(iter(inspect.signature(reader).parameters.values())).annotation \
            == "UnitForm", reader
    assert cli.main(["ergodic", f"--p={m.p}", f"--a={m.a}", f"--c={m.c}",
                     f"--radius-exp={sphere.radius_exponent}",
                     f"--center={sphere.center}"]) == 3
    assert capsys.readouterr().err == f"internal verification failed: {message}\n"


def test_rho_and_sampled_checks_take_no_fraction_valuation(monkeypatch):
    # the displacement rule and the gate read integer valuations; the case
    # facts, which the invariance bound and the gate read, are computed first
    calls = []
    for module in ("padic", "dynamics", "ergodicity"):
        monkeypatch.setattr(f"padicdyn.{module}._fraction_valuation",
                            lambda x, p: calls.append(x) or _fraction_valuation(x, p))
    for m, sphere in [(M2, SphereSpec("x1", -2)), (CASE3, SphereSpec("x2", -1)),
                      (CASE2, SphereSpec("x1", -1)), (CASE2, SphereSpec("x2", -2))]:
        m._case_facts()
        calls.clear()
        try:
            rho(rescale_to_unit(m, sphere))
        except NotApplicableError:
            pass
        sampled_checks(rescale_to_unit(m, sphere), 8)
        assert calls == [], (m, sphere)


def test_x2_gate_builds_no_classification(monkeypatch):
    # the gate reads f'(x2) and its valuation off the map's case facts
    classified = count_calls(monkeypatch, CanonicalMap, "classify")
    m = CanonicalMap(5, 3, 1)
    form = rescale_to_unit(m, SphereSpec("x2", -1))
    assert classified == []
    assert form.numerator[1] == m.classify().x2.multiplier


# -- minimal invariant ball -----------------------------------------------------------


def _minimal_invariant_ball(m, sphere):
    """rho(r), checked on the induced residue permutations: every ball of
    radius p^rho is fixed, and no ball one level finer is."""
    rho_exp = rho(rescale_to_unit(m, sphere))
    level = sphere.radius_exponent - rho_exp
    if level >= 1:
        perm = _ball_permutation(rescale_to_unit(m, sphere), level)
        assert all(u == w for u, w in enumerate(perm) if u % m.p)
    perm = _ball_permutation(rescale_to_unit(m, sphere), level + 1)
    assert all(u != w for u, w in enumerate(perm) if u % m.p)
    return rho_exp


def test_minimal_invariant_ball_with_oracle():
    assert _minimal_invariant_ball(M2, SphereSpec("x1", -2)) == -3
    # case-3 sphere: the minimal ball is the whole-radius level
    assert _minimal_invariant_ball(CASE3, SphereSpec("x2", -1)) == -1
    # p = 3 sphere with rho two levels inside the radius
    assert _minimal_invariant_ball(CASE4, SphereSpec("x1", -1)) == -2


# -- theorem ---------------------------------------------------------------------------


def test_theorem_p2_center_x1():
    assert ergodicity_theorem(rescale_to_unit(M2, SphereSpec("x1", -2))).verdict == "ergodic"
    assert ergodicity_theorem(rescale_to_unit(M2, SphereSpec("x1", -3))).verdict == "notErgodic"


def test_theorem_p_ge_3_rule():
    v = ergodicity_theorem(rescale_to_unit(CASE4, SphereSpec("x1", -1)))
    assert v.verdict == "notErgodic" and v.reason == "pGe3Rule"


def test_theorem_p2_center_x2_rule():
    m = CanonicalMap(2, 1, 4)  # case 2 at p = 2: x2-centered spheres exist
    v = ergodicity_theorem(rescale_to_unit(m, SphereSpec("x2", -1)))
    assert v.verdict == "notErgodic" and v.reason == "radiusRule"


def _random_x2_sphere(rng, p):
    """An invariant x2-sphere whose multiplier lam = f'(x2) is drawn first:
    a random unit not 1 mod p, a third of the time with lam^(p-1) = 1 mod p^2."""
    while True:
        g = rng.randrange(2, p)
        lam = g ** p % p ** 2 if rng.random() < 1 / 3 else g + p * rng.randrange(p)
        lam += p ** 2 * rng.randint(-3, 3)
        c = random_unit(rng, p, 40) * Fraction(p) ** rng.randint(-1, 1)
        m = CanonicalMap(p, c * c / (1 - lam), c)  # so that 1 - c^2/a = lam
        bound = m.invariant_spheres().x2_exponent_bound
        if bound is not None:
            return m, SphereSpec("x2", bound - 1 - rng.randint(0, 1))


@pytest.mark.parametrize("p,depth", [(3, 6), (5, 4), (7, 3), (11, 3)])
def test_theorem_on_x2_spheres_matches_the_oracle(p, depth):
    # around x2 the theorem reads f'(x2) alone: ergodic iff it generates
    # Z_p^*, i.e. a primitive root mod p with lam^(p-1) != 1 (mod p^2)
    rng = random.Random(f"x2-generator:{p}")
    seen = set()
    for _ in range(30):
        m, sphere = _random_x2_sphere(rng, p)
        theorem = ergodicity_theorem(rescale_to_unit(m, sphere))
        oracle = residue_cycle_oracle(rescale_to_unit(m, sphere), depth)
        assert theorem.verdict == ("ergodic" if oracle.ergodic else "notErgodic"), (m, sphere)
        seen.add((theorem.reason, theorem.verdict))
    # at p = 3 every unit other than 1 mod 3 is a primitive root
    assert seen == {("generatorRule", "ergodic"), ("generatorRule", "notErgodic"),
                    *[("pGe3Rule", "notErgodic")] * (p > 3)}


def test_theorem_x2_split_multiplier():
    # lam = 17 is a primitive root mod 3 but 17^2 = 1 (mod 9): the level-1
    # balls form one cycle, the level-2 balls three
    m, sphere = CanonicalMap(3, Fraction(-9, 16), 3), SphereSpec("x2", -2)
    assert m.multiplier_x2() == 17
    assert ergodicity_theorem(rescale_to_unit(m, sphere)) == ErgodicityVerdict("notErgodic",
                                                                               "generatorRule")
    levels = residue_cycle_oracle(rescale_to_unit(m, sphere), 2).levels
    assert [lv.cycle_lengths for lv in levels] == [(2,), (2, 2, 2)]
    assert decide_ergodicity(m, sphere).verdict == "notErgodic"
    # lam = 5 generates Z_3^*
    m = CanonicalMap(3, Fraction(-9, 16), Fraction(3, 2))
    assert m.multiplier_x2() == 5
    assert decide_ergodicity(m, sphere).verdict == "ergodic"


def test_theorem_requires_invariance():
    with pytest.raises(NotApplicableError):
        ergodicity_theorem(rescale_to_unit(M2, SphereSpec("x1", 0)))


def _gated_spheres(rng, p, count, below=4):
    """``count`` invariant spheres, as (map, sphere), of seeded random maps:
    around each centre that has invariant spheres, the ``below`` radii just
    under the bound."""
    out = []
    while len(out) < count:
        a, c = (random_unit(rng, p, 40) * Fraction(p) ** rng.randint(-3, 3) for _ in range(2))
        m = CanonicalMap(p, a, c)
        try:
            bounds = m.invariant_spheres()
        except InconsistentParametersError:  # odd v(kappa) < 0, refused
            continue
        for center, bound in (("x1", bounds.x1_exponent_bound),
                              ("x2", bounds.x2_exponent_bound)):
            if bound is not None:
                out += [(m, SphereSpec(center, bound - k)) for k in range(1, below + 1)]
    return out[:count]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_theorem_reads_only_p_off_the_map(p):
    # the theorem is a function of the form's integers: with the map replaced
    # by a stub that holds only p, every verdict and reason stays the same
    rng = random.Random(f"theorem-stub:{p}")
    spheres = _gated_spheres(rng, p, 300)
    if p > 2:
        spheres += [_random_x2_sphere(rng, p) for _ in range(60)]
    seen = Counter()
    for m, sphere in spheres:
        form = rescale_to_unit(m, sphere)
        verdict = ergodicity_theorem(form)
        stub = dataclasses.replace(form, m=SimpleNamespace(p=p))
        assert ergodicity_theorem(stub) == verdict, (m, sphere)
        seen[sphere.center, verdict.reason, verdict.verdict] += 1
    assert {center for center, _, _ in seen} == {"x1", "x2"}
    expected = ({("x1", "radiusRule", "ergodic"), ("x1", "radiusRule", "notErgodic"),
                 ("x2", "radiusRule", "notErgodic")} if p == 2 else
                {("x1", "pGe3Rule", "notErgodic"), ("x2", "pGe3Rule", "notErgodic"),
                 ("x2", "generatorRule", "ergodic"), ("x2", "generatorRule", "notErgodic")})
    assert set(seen) == expected


def test_p2_theorem_is_the_papers_radius_rule():
    # at p = 2 the theorem reads v(t1) = 1 and v(t2) >= 2; on every gated
    # sphere that is the paper's |c|_2 = beta and r = alpha/2 around x1 (and
    # never ergodic around x2), and around x1 it is the mod-4 criterion
    rng = random.Random("p2-radius-rule")
    seen = Counter()
    for m, sphere in _gated_spheres(rng, 2, 3000):
        form = rescale_to_unit(m, sphere)
        verdict = ergodicity_theorem(form)
        assert verdict.reason == "radiusRule"
        ergodic = verdict.verdict == "ergodic"
        assert ergodic == reference_radius_rule(m, sphere), (m, sphere)
        if sphere.center == "x1":
            assert ergodic == mod4_criterion(form.numerator, form.denominator).ergodic, (m, sphere)
        seen[sphere.center, ergodic] += 1
    assert seen["x1", True] > 100 and seen["x1", False] > 100 and seen["x2", False] > 100


def test_radius_rule_needs_v2_on_a_ramified_sphere():
    # a = c = 2, e = -1: v(a) is odd, so the gate refuses the sphere today
    # (ROADMAP item 10); its unit form u/(1 + 2u + 2u^2) has v1 = v2 = 1.
    # v1 = 1 alone would call it ergodic; the mod-4 test and the level-2
    # balls (both fixed) say it is not, and so does the theorem's v2 >= 2
    num, den = (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2), Fraction(2))
    form = UnitForm(SimpleNamespace(p=2), SphereSpec("x1", -1), 1, 1, num, den)
    assert ergodicity_theorem(form) == ErgodicityVerdict("notErgodic", "radiusRule")
    assert not mod4_criterion(num, den).ergodic
    assert _odd_unit_cycles(num, den, 2) == [1, 1]


# -- rescaling and the mod-4 criterion ---------------------------------------------------


def test_rescale_coefficients_and_bounds():
    form = rescale_to_unit(M2, SphereSpec("x1", -2))
    assert form.numerator == (0, 1)
    assert form.denominator == (1, 2, 8)
    assert (form.v1, form.v2) == (1, 3)  # t1 = 2, t2 = 8
    # numerator sums are fixed: A1 = 1, A2 = 0
    assert sum(form.numerator[1::2]) == 1 and sum(form.numerator[0::2]) == 0


def test_rescale_rejects_non_invariant_radius():
    # the gate's text: r = alpha, where t1 = 1 is a unit, and case 4, where
    # f'(x2) = 3/2 is not a unit
    with pytest.raises(NotApplicableError, match=r"^S_\(p\^-1\)\(x1\) is not invariant: "
                       "requires radius exponent < -1$"):
        rescale_to_unit(M2, SphereSpec("x1", -1))
    with pytest.raises(NotApplicableError, match=r"^S_\(p\^-1\)\(x2\) is not invariant: "
                       "no sphere around x2 is invariant for this map$"):
        rescale_to_unit(CASE4, SphereSpec("x2", -1))


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


def _coefficients(m, sphere):
    """The numerator and the denominator coefficients of f's unit form."""
    form = rescale_to_unit(m, sphere)
    return form.numerator, form.denominator


def test_mod4_on_rescaled_maps():
    v = mod4_criterion(*_coefficients(M2, SphereSpec("x1", -2)))
    assert v.ergodic and v.case == 3
    assert v.sums.B1 == 2 and v.sums.B2 == 9
    v = mod4_criterion(*_coefficients(M2, SphereSpec("x1", -3)))
    assert not v.ergodic


def test_mod4_swapped_case_detected():
    # swap numerator and denominator of an ergodic case-3 instance
    numerator, denominator = _coefficients(M2, SphereSpec("x1", -2))
    v = mod4_criterion(denominator, numerator)
    assert v.ergodic and v.case == 5


def test_mod4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mod4_criterion([0, Fraction(1, 2)], [1])  # not a 2-adic integer
    with pytest.raises(ValueError):
        mod4_criterion([0, 2], [1])  # 2t does not preserve the odd units


def _odd_unit_cycles(num, den, k):
    """Cycle lengths of t -> num(t)/den(t) on the odd residues mod 2^k, each
    image an exact Fraction reduced mod 2^k."""
    mod = 2 ** k
    perm = [0] * mod
    for t in range(1, mod, 2):
        w = _horner(num, Fraction(t)) / _horner(den, Fraction(t))
        perm[t] = w.numerator * pow(w.denominator, -1, mod) % mod
    return _cycle_lengths(perm)


def test_mod4_criterion_equals_a_cycle_census():
    # random maps of degree <= 3 with 2-adic integer coefficients; such a
    # map preserves the odd units iff the coefficient sums of numerator and
    # denominator are odd. Ergodic on the units iff the odd residues mod 2^8
    # form one cycle (non-ergodic maps split by level 3 here)
    rng = random.Random("mod4-census")

    def poly():
        return [Fraction(rng.randint(-8, 8), rng.choice((1, 1, 1, 3, 5, 7)))
                for _ in range(rng.randint(1, 4))]

    cases, checked = Counter(), 0
    while checked < 500:
        num, den = poly(), poly()
        if not (_horner(num, 1).numerator % 2 and _horner(den, 1).numerator % 2):
            continue
        verdict = mod4_criterion(num, den)
        assert verdict.ergodic == (len(_odd_unit_cycles(num, den, 8)) == 1), (num, den, verdict)
        cases[verdict.case] += 1
        checked += 1
    assert set(cases) == {1, 2, 3, 4, 5, None}
    assert cases[None] > 100


# -- residue cycle oracle ------------------------------------------------------------------


def test_oracle_single_cycle_structure_when_ergodic():
    res = residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)), depth=8)
    assert res.ergodic
    for lv in res.levels:
        assert lv.ball_count == 2 ** (lv.level - 1)
        assert lv.cycle_count == 1
        assert lv.cycle_lengths == (lv.ball_count,)


def test_oracle_detects_non_ergodicity():
    res = residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -3)), depth=8)
    assert not res.ergodic
    assert any(lv.cycle_count >= 2 for lv in res.levels)


def test_oracle_p3_multiple_cycles():
    res = residue_cycle_oracle(rescale_to_unit(CASE4, SphereSpec("x1", -1)), depth=5)
    assert not res.ergodic
    assert all(lv.ball_count == 2 * 3 ** (lv.level - 1) for lv in res.levels)


def test_oracle_csv_format():
    res = residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)), depth=3)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "level,ball_count,cycle_count,cycle_lengths"
    assert lines[1] == "1,1,1,1"
    assert lines[2] == "2,2,1,2"
    assert lines[3] == "3,4,1,4"


def test_oracle_validates_arguments():
    with pytest.raises(ValueError):
        residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)), depth=1)
    with pytest.raises(NotApplicableError):
        residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", 3)))


def test_oracle_ball_budget(monkeypatch):
    # p^depth - 1 balls in all: 2^20 - 1 fits at p = 2, 2^21 - 1 does not
    assert ORACLE_BALL_BUDGET == 2**20
    calls = []
    monkeypatch.setattr("padicdyn.ergodicity._ball_permutation",
                        lambda *args: calls.append(args))
    for depth in (21, 40, 10**9):
        with pytest.raises(ValueError, match="largest depth that fits is 20"):
            residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)), depth=depth)
    # depth 5 at p = 101 (about 10^10 balls) is refused up front
    with pytest.raises(ValueError, match="101\\^5 - 1 balls.*largest depth that fits is 3"):
        residue_cycle_oracle(rescale_to_unit(CanonicalMap(101, -2, 1), SphereSpec("x1", -1)),
                             depth=5)
    for depth in (2, None):
        with pytest.raises(ValueError, match="no depth >= 2 fits for p = 1031"):
            residue_cycle_oracle(rescale_to_unit(CanonicalMap(1031, -2, 1), SphereSpec("x1", -1)),
                                 depth)
    assert calls == []


def test_kernel_refuses_a_sphere_whose_balls_do_not_map_to_balls():
    # r = alpha: t1 = c*s/a = 1 is a unit, so the ball map is not defined,
    # and the gate refuses the sphere as not invariant
    with pytest.raises(NotApplicableError, match="is not invariant: requires radius exponent < -1"):
        _ball_permutation(rescale_to_unit(M2, SphereSpec("x1", -1)), 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_inverse_table_inverts_the_group_one_plus_p(p):
    level = 1
    while p ** level <= 2 ** 12:
        mod = p ** level
        table = _inverse_table(p, mod)
        assert table == [pow(x, -1, mod) if x % p == 1 else 0 for x in range(mod)], mod
        level += 1


# The ergodic p = 2 sphere at the default depth 8: ball 1 is anchored, ball
# 255 is not (it shares its denominator residue with ball 127, not anchored
# either). "missing" drops the ball's table entry, "wrong" multiplies it by
# 1 + p, so it stays a unit.
TABLE_FAULTS = [
    (1, "missing", "image left the sphere at ball u=1"),
    (1, "wrong", "induced ball map at level 8 is not a permutation"),
    (255, "missing", "image left the sphere at ball u=127"),
    (255, "wrong", "induced ball map at level 8 is not a permutation"),
]
TABLE_FAULT_ARGV = ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"]


def _denominator_residue(form, u: int, mod: int) -> int:
    """1 + d1*u + d2*u^2 mod ``mod``, on Fractions: the table entry ball u reads."""
    x = _horner(form.denominator, Fraction(u))
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _install_table_fault(monkeypatch, ball: int, fault: str) -> None:
    form = rescale_to_unit(M2, SphereSpec("x1", -2))
    key, real = _denominator_residue(form, ball, 2 ** 8), ergodicity._inverse_table

    def table(p, mod):
        out = real(p, mod)
        out[key] = 0 if fault == "missing" else out[key] * (1 + p) % mod
        return out

    monkeypatch.setattr(ergodicity, "_inverse_table", table)


@pytest.mark.parametrize("ball,fault,message", TABLE_FAULTS)
def test_a_table_with_one_wrong_entry_is_refused(monkeypatch, capsys, ball, fault, message):
    _install_table_fault(monkeypatch, ball, fault)
    with pytest.raises(VerificationError) as exc:
        residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)))
    assert str(exc.value) == message
    assert cli.main(TABLE_FAULT_ARGV) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"internal verification failed: {message}\n")


def test_table_refusal_survives_python_O():
    # python -O strips assert statements; the kernel's checks must still run
    form = rescale_to_unit(M2, SphereSpec("x1", -2))
    key = _denominator_residue(form, 1, 2 ** 8)
    script = (
        "import sys\n"
        "from padicdyn import cli, ergodicity\n"
        "assert False, 'assert statements are not stripped'\n"
        "real = ergodicity._inverse_table\n"
        "def table(p, mod):\n"
        "    out = real(p, mod)\n"
        f"    out[{key}] = 0\n"
        "    return out\n"
        "ergodicity._inverse_table = table\n"
        f"sys.exit(cli.main({TABLE_FAULT_ARGV!r}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "internal verification failed: image left the sphere at ball u=1\n")


def test_ball_map_checks_catch_broken_tables(monkeypatch):
    # swap the images of balls 1 and 3 mod 8: still a bijection at level 3,
    # but ball 5 no longer maps into the image of its parent ball 1 mod 4
    real = ergodicity._ball_permutation
    pair = [1, 3]

    def swapped(form, level):
        perm = real(form, level)
        i, j = pair
        perm[i], perm[j] = perm[j], perm[i]
        return perm

    monkeypatch.setattr(ergodicity, "_ball_permutation", swapped)
    with pytest.raises(VerificationError, match="not well defined at level 2: ball u=5"):
        residue_cycle_oracle(rescale_to_unit(M2, SphereSpec("x1", -2)), depth=3)
    # at p = 3, swap balls 19 and 20 mod 27, in the top third (18-26) of level
    # 3: ball 19 no longer maps into the image of its parent ball 1 mod 9
    pair[:] = [19, 20]
    with pytest.raises(VerificationError, match="not well defined at level 2: ball u=19"):
        residue_cycle_oracle(rescale_to_unit(CASE4, SphereSpec("x1", -1)), depth=3)


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
        levels = residue_cycle_oracle(rescale_to_unit(m, sphere), depth).levels
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
    form = rescale_to_unit(m, sphere)
    assert target in form.numerator + form.denominator
    real = ergodicity._residue

    def corrupted(x, mod):
        return (real(x, mod) + (mod // m.p if x == target else 0)) % mod

    monkeypatch.setattr(ergodicity, "_residue", corrupted)
    with pytest.raises(VerificationError, match="differs from the exact image"):
        residue_cycle_oracle(form, depth)


@pytest.mark.parametrize("m,sphere,depth,index", [
    (M2, SphereSpec("x1", -2), 8, (1, 1)),     # t1 in the denominator
    (CASE3, SphereSpec("x2", -1), 4, (0, 1)),  # lam in the numerator
])
def test_anchor_catches_corrupted_unit_coordinate_coefficients(m, sphere, depth, index):
    # one coefficient of the unit form off by p^(depth-1): still a ball map
    # that reduces level by level, so only exact evaluation of f from a and c
    # catches it
    form = rescale_to_unit(m, sphere)
    coefficients = [list(form.numerator), list(form.denominator)]
    coefficients[index[0]][index[1]] += m.p ** (depth - 1)
    corrupted = dataclasses.replace(form, numerator=tuple(coefficients[0]),
                                    denominator=tuple(coefficients[1]))
    with pytest.raises(VerificationError, match="differs from the exact image"):
        residue_cycle_oracle(corrupted, depth)


@pytest.mark.parametrize("m,sphere", [(M2, SphereSpec("x1", -2)),
                                      (CASE3, SphereSpec("x2", -1))])
def test_anchor_with_a_zero_image_coordinate_left_the_sphere(monkeypatch, m, sphere):
    # f forced to the centre: the image coordinate w = (f(x) - centre)/s is
    # 0, which has no finite valuation; the anchor reports that the image
    # left the sphere
    center = m.center_point(sphere.center)
    monkeypatch.setattr(CanonicalMap, "_eval_pair",
                        lambda self, xn, xd: (center.numerator, center.denominator))
    with pytest.raises(VerificationError, match="image left the sphere at ball u=1") as exc:
        residue_cycle_oracle(rescale_to_unit(m, sphere), 3)
    assert exc.value.counterexample == 1


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
            verdict = ergodicity_theorem(rescale_to_unit(m, sphere)).verdict
            assert (e == rho(rescale_to_unit(m, sphere)) + 1) == (verdict == "ergodic")
            seen_ergodic += verdict == "ergodic"
    assert seen_ergodic > 0


def test_measure_preservation_via_permutation():
    # the oracle's well-definedness + bijectivity checks passing means each
    # level is a permutation of equal-measure balls: preimages preserve measure
    res = residue_cycle_oracle(rescale_to_unit(CASE3, SphereSpec("x2", -1)), depth=3)
    ctx = HaarMeasureContext(5, SphereSpec("x2", -1))
    for lv in res.levels:
        mu = ctx.measure(-1 - lv.level)
        assert lv.ball_count * mu == 1
