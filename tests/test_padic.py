import random
from fractions import Fraction

import pytest

from padicdyn import (
    INFINITY,
    CanonicalMap,
    NotASquareError,
    PrecisionError,
    PrimeMismatchError,
    TruncatedPadic,
    hensel_sqrt,
    is_prime,
    is_square,
    parse_rational,
)
from padicdyn.conjugation import GeneralMap
from padicdyn.padic import PRIME_BOUND, _fraction_valuation
from util import (
    brute_force_is_square,
    random_rational,
    random_unit,
    representative,
    square_residue_set,
    ultrametric_valuations,
)


# -- valuation / norm exponent ------------------------------------------------


def test_valuation_examples():
    assert _fraction_valuation(Fraction(0), 3) is INFINITY
    assert _fraction_valuation(Fraction(12), 3) == 1
    assert _fraction_valuation(Fraction(50, 7), 5) == 2


def test_norm_exponent_examples():
    # |x|_p = p**(-v): the norm exponent of an exact rational is its valuation
    assert _fraction_valuation(Fraction(1), 2) == 0
    assert _fraction_valuation(Fraction(2, 3), 3) == -1
    assert CanonicalMap(3, 1, 1).val(-11) == 0


def test_prime_validated_at_construction():
    for p in (4, 1):
        with pytest.raises(ValueError):
            CanonicalMap(p, 1, 1)
        with pytest.raises(ValueError):
            GeneralMap(p, 1, 0, -1, 1)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprime to the bases 2..37 is caught by base 41
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    # the least one to the bases 2..41 is the bound: undecided, so refused
    assert PRIME_BOUND == 3317044064679887385961981
    for n in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)


def test_arithmetic_and_prime_mismatch():
    x = TruncatedPadic.from_rational(Fraction(1, 3), 3, 8)
    y = TruncatedPadic.from_rational(Fraction(2, 3), 3, 8)
    assert (x + y).approx_equal(TruncatedPadic.from_rational(1, 3, 8))
    assert (x * y).approx_equal(TruncatedPadic.from_rational(Fraction(2, 9), 3, 8))
    assert (x / y).approx_equal(TruncatedPadic.from_rational(Fraction(1, 2), 3, 8))
    z5 = TruncatedPadic.from_rational(1, 5, 8)
    with pytest.raises(PrimeMismatchError):
        x * z5
    with pytest.raises(PrimeMismatchError):
        CanonicalMap(3, 1, 1).eval_truncated(z5)
    with pytest.raises(TypeError):  # derivative, like eval, takes exact rationals only
        CanonicalMap(3, 1, 1).derivative(z5)
    with pytest.raises(TypeError):  # a literal goes through parse_rational first
        CanonicalMap(3, "1/2", 1)


def test_ultrametric_examples():
    # unequal norms: equality case of the strong triangle inequality
    assert ultrametric_valuations(Fraction(9), Fraction(1), 3) == (2, 0, 0)
    # total cancellation
    assert ultrametric_valuations(Fraction(1), Fraction(-1), 5)[2] is INFINITY
    # equal norms: bound only
    assert ultrametric_valuations(Fraction(1, 3), Fraction(2, 3), 3) == (-1, -1, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ultrametric_and_multiplicativity_property(p):
    rng = random.Random(1000 + p)
    for _ in range(1000):
        x, y = random_rational(rng), random_rational(rng)
        vx, vy, _ = ultrametric_valuations(x, y, p)
        # |xy| = |x||y| as exact integer exponents
        assert _fraction_valuation(x * y, p) == vx + vy


# -- squareness ----------------------------------------------------------------


def test_is_square_examples():
    assert is_square(-7, 2)       # -7 = 1 mod 8
    assert is_square(-11, 3)      # unit 1 mod 3 is a QR
    assert not is_square(2, 5)    # 2 is not a QR mod 5
    assert not is_square(3, 3)    # odd valuation
    with pytest.raises(ValueError):
        is_square(0, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_square_against_residue_oracle(p):
    residues = square_residue_set(p)
    rng = random.Random(40 + p)
    for _ in range(300):
        v = rng.randint(-4, 4)
        x = random_unit(rng, p) * Fraction(p) ** v
        assert is_square(x, p) == brute_force_is_square(x, p, residues), (x, p)


def test_hensel_sqrt_exact_square():
    s = hensel_sqrt(9, 5, 3)
    assert s.valuation == 1 and s.digits() == [1, 0, 0, 0, 0]


def test_hensel_sqrt_examples_verified_by_squaring():
    s = hensel_sqrt(-7, 8, 2)
    r = representative(s)
    assert (r * r + 7) % 2**8 == 0
    s = hensel_sqrt(-11, 6, 3)
    r = representative(s)
    assert (r * r + 11) % 3**6 == 0


def test_hensel_sqrt_sign_convention():
    # odd p: first digit in 1..(p-1)/2; p=2: root = 1 mod 4
    for x, p in [(-11, 3), (Fraction(4, 9), 7), (6, 5), (Fraction(44, 9), 5)]:
        if not is_square(x, p):
            continue
        s = hensel_sqrt(x, 6, p)
        assert 1 <= s.unit % p <= (p - 1) // 2
    s = hensel_sqrt(17, 10, 2)
    assert s.unit % 4 == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hensel_sqrt_random_squares(p):
    rng = random.Random(99 + p)
    n = 0
    while n < 60:
        u = random_unit(rng, p, height=200)
        k = rng.randint(-3, 3)
        x = u * u * Fraction(p) ** (2 * k)
        s = hensel_sqrt(x, 8, p)
        assert s.valuation == k
        # square of the truncated root agrees with x to the working modulus
        diff = s * s - x
        assert diff.is_zero and diff.valuation >= 2 * k + 8
        n += 1


def test_hensel_sqrt_rejects_non_squares():
    with pytest.raises(NotASquareError):
        hensel_sqrt(2, 6, 5)
    with pytest.raises(ValueError):
        hensel_sqrt(4, 0, 5)


# -- truncated arithmetic --------------------------------------------------------


def test_truncated_add_full_cancellation_is_tagged_zero():
    one = TruncatedPadic.from_rational(1, 3, 10)
    z = one + TruncatedPadic.from_rational(-1, 3, 10)
    assert z.is_zero and z.valuation == 10


def test_truncated_inverse_pair():
    t = TruncatedPadic.from_rational(3, 3, 8) * TruncatedPadic.from_rational(
        Fraction(1, 3), 3, 8
    )
    assert t.valuation == 0 and t.unit == 1 and t.precision == 8


def test_truncated_sqrt_self_consistency():
    s = hensel_sqrt(-7, 8, 2)
    assert (s * s + 7).is_zero


def test_truncated_subtraction_tracks_cancelled_digits():
    a = TruncatedPadic.from_rational(1 + 3**5, 3, 8)
    b = TruncatedPadic.from_rational(1, 3, 8)
    d = a - b
    assert d.valuation == 5 and d.precision == 3  # 8 digits minus 5 cancelled


def test_truncated_division_by_indistinguishable_zero():
    z = TruncatedPadic.from_rational(1, 5, 6) - 1
    assert z.is_zero
    with pytest.raises(PrecisionError):
        TruncatedPadic.from_rational(7, 5, 6) / z


def test_truncated_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        TruncatedPadic.from_rational(1, 3, 4) + TruncatedPadic.from_rational(1, 5, 4)


def test_truncated_mixed_exact_operands():
    t = TruncatedPadic.from_rational(Fraction(7, 4), 2, 10)
    assert (t * Fraction(4, 7)).approx_equal(TruncatedPadic.from_rational(1, 2, 10))
    assert (t - Fraction(7, 4)).is_zero
    assert (Fraction(7, 2) / t).approx_equal(TruncatedPadic.from_rational(2, 2, 10))


def test_truncated_display_format():
    s = str(TruncatedPadic.from_rational(12, 3, 4))
    assert s == "3^1 * (1 + 1*3 + 0*3^2 + 0*3^3) [4 digits]"
    assert str(TruncatedPadic.zero(3, 7)) == "O(3^7)"


def test_truncated_digits_leading_nonzero():
    rng = random.Random(5)
    for _ in range(50):
        x = random_unit(rng, 7) * Fraction(7) ** rng.randint(-4, 4)
        t = TruncatedPadic.from_rational(x, 7, 6)
        d = t.digits()
        assert len(d) == 6 and d[0] != 0 and all(0 <= di < 7 for di in d)


def test_truncated_agrees_with_exact_reduction():
    # representative of a truncation reproduces the value mod p**absprec
    x = Fraction(-19, 24)
    t = TruncatedPadic.from_rational(x, 5, 6)
    diff = x - representative(t)
    num = diff.numerator
    assert num % 5 ** (t.valuation + 6) == 0 or num == 0


# -- parsing ----------------------------------------------------------------------


def test_parse_rational_accepts_spec_format():
    assert parse_rational("-19/24") == Fraction(-19, 24)
    assert parse_rational("+7") == 7
    assert parse_rational("0") == 0
    assert parse_rational("5/3") == Fraction(5, 3)


@pytest.mark.parametrize("bad", ["1.5", "abc", "1/0", "", "1/-2", "2/", "/3", "1e3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
