import random
from fractions import Fraction

import pytest

from padicdyn import PoleHitError, UnsupportedCaseError
from padicdyn.conjugation import GeneralMap, _cubic_root_profile, conjugate, verify_conjugacy


def test_double_root_at_origin():
    # cubic x^3 - x^2 = x^2 (x - 1): double root 0, simple root 1
    m = GeneralMap(3, 1, 0, -1, 1)
    assert _cubic_root_profile(m) == ("double", Fraction(1), Fraction(0))
    assert (conjugate(m).x1, conjugate(m).x2) == (1, 0)


def test_double_root_shifted():
    # (x-1)(x-2)^2 = x^3 - 5x^2 + 8x - 4: c=-5, d-a=8, b=4 (take a=1, d=9)
    m = GeneralMap(5, 1, 4, -5, 9)
    assert _cubic_root_profile(m) == ("double", Fraction(1), Fraction(2))
    # a double root that is not an integer: (x - 1/2)(x + 2/3)^2
    x1, x2 = Fraction(1, 2), Fraction(-2, 3)
    m = GeneralMap(7, 1, x1 * x2 * x2, -(x1 + 2 * x2), 1 + x2 * x2 + 2 * x1 * x2)
    assert _cubic_root_profile(m) == ("double", x1, x2)


def test_three_distinct_roots_give_none():
    # cubic x^3 - x = x(x-1)(x+1)
    m = GeneralMap(5, 1, 0, 0, 0)
    assert _cubic_root_profile(m) == ("distinct", None, None)
    # squarefree cubic with irrational roots: x^3 - 2
    m = GeneralMap(5, 1, 2, 0, 1)
    assert _cubic_root_profile(m) == ("distinct", None, None)
    # one rational and two complex roots: x^3 + x = x(x^2 + 1)
    m = GeneralMap(5, 1, 0, 0, 2)
    assert _cubic_root_profile(m) == ("distinct", None, None)


def test_triple_root_gives_none():
    m = GeneralMap(5, 1, 0, 0, 1)  # cubic x^3
    assert _cubic_root_profile(m) == ("triple", 0, None)
    # (x - 2/3)^3 = x^3 - 2x^2 + 4/3 x - 8/27
    m = GeneralMap(5, 1, Fraction(8, 27), -2, Fraction(7, 3))
    assert _cubic_root_profile(m) == ("triple", Fraction(2, 3), None)


def test_conjugate_canonical_branch():
    m = GeneralMap(3, 1, 0, -1, 1)
    r = conjugate(m)
    assert r.x2 == 0 and r.family == "two-parameter"
    # with the double root at the origin, B = d = a and D = c
    assert r.B == m.d == m.a and r.D == m.c
    assert r.canonical is not None
    assert (r.canonical.a, r.canonical.c) == (m.a, m.c)
    assert verify_conjugacy(m, r, [Fraction(k, 7) for k in range(1, 21)]) >= 18


def test_conjugate_three_parameter_branch():
    m = GeneralMap(5, 1, 4, -5, 9)
    r = conjugate(m)
    assert (r.x1, r.x2) == (1, 2)
    assert r.D == 2 * 2 - 5 == -1
    assert r.B == Fraction(2) ** 2 + (-5) * 2 + 9 == 3
    assert r.family == "three-parameter" and r.canonical is None
    assert verify_conjugacy(m, r, [Fraction(k, 7) for k in range(1, 25)]) >= 20


def test_conjugate_raises_on_unsupported_cases():
    with pytest.raises(UnsupportedCaseError) as exc:
        conjugate(GeneralMap(5, 1, 0, 0, 0))
    assert exc.value.label == "three-distinct-fixed-points"
    with pytest.raises(UnsupportedCaseError) as exc:
        conjugate(GeneralMap(5, 1, 0, 0, 1))
    assert exc.value.label == "triple-fixed-point"


def test_general_map_eval_raises_at_a_pole():
    m = GeneralMap(3, 1, 0, 0, -1)  # x/(x^2 - 1): poles at +-1
    assert m.eval(2) == Fraction(2, 3)
    with pytest.raises(PoleHitError):
        m.eval(1)


def test_a_must_be_nonzero():
    with pytest.raises(ValueError):
        GeneralMap(5, 0, 1, 1, 1)


def _map_from_roots(p, x1, x2, a):
    # Vieta for (x - x1)(x - x2)^2: c = -(x1 + 2 x2), d = a + x2^2 + 2 x1 x2, b = x1 x2^2
    c = -(x1 + 2 * x2)
    d = a + x2 * x2 + 2 * x1 * x2
    b = x1 * x2 * x2
    return GeneralMap(p, a, b, c, d)


def test_vieta_roundtrip_and_conjugacy_property():
    rng = random.Random(2024)
    built = 0
    while built < 40:
        x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        x2 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if a == 0 or x1 == x2:
            continue
        m = _map_from_roots(7, x1, x2, a)
        assert _cubic_root_profile(m) == ("double", x1, x2)
        r = conjugate(m)
        assert (r.x1, r.x2) == (x1, x2)
        # B and D exactly as defined
        assert r.B == x2 * x2 + m.c * x2 + m.d
        assert r.D == 2 * x2 + m.c
        ts = [Fraction(k, 11) for k in range(1, 12)]
        assert verify_conjugacy(m, r, ts) >= 8
        built += 1
