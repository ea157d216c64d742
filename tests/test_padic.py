import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicdyn import (
    INFINITY,
    CanonicalMap,
    NotASquareError,
    PrecisionError,
    PrimeMismatchError,
    TruncatedPadic,
    VerificationError,
    hensel_sqrt,
    is_prime,
    is_square,
    parse_rational,
)
from padicdyn import padic
from padicdyn.conjugation import GeneralMap
from padicdyn.dynamics import PRECISION_BIT_BUDGET
from padicdyn.padic import (
    PRIME_BOUND,
    _fraction_valuation,
    _int_valuation,
    _inverse_unit,
    _prime_factors,
    _sqrt_in_qp,
    rational_sqrt,
)
from util import (
    approx_equal,
    brute_force_is_square,
    int_valuation_loop,
    last_digit_wrong,
    random_rational,
    random_unit,
    reference_hensel_sqrt,
    representative,
    square_residue_set,
    ultrametric_valuations,
)


# -- valuation / norm exponent ------------------------------------------------


def test_valuation_examples():
    assert _fraction_valuation(Fraction(0), 3) is INFINITY
    assert _fraction_valuation(Fraction(12), 3) == 1
    assert _fraction_valuation(Fraction(50, 7), 5) == 2


DIFFERENTIAL_PRIMES = (2, 3, 5, 7, 1021)


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_int_valuation_matches_the_plain_loop(p):
    rng = random.Random(p)
    power = 1
    for v in range(601):
        for cofactor in (1, rng.randrange(p, p**40)):
            if cofactor % p == 0:
                cofactor += 1
            n = power * cofactor
            assert _int_valuation(n, p) == int_valuation_loop(n, p) == v, (v, cofactor)
            assert _int_valuation(-n, p) == v
        power *= p


def test_int_valuation_of_zero_raises():
    # the squaring loop never ended on 0 for odd p, so the calls run in a
    # child process that the test can time out
    script = (
        "from padicdyn.padic import _int_valuation\n"
        "for p in (2, 3, 5, 1021):\n"
        "    try:\n"
        "        _int_valuation(0, p)\n"
        "    except ValueError as exc:\n"
        "        print(p, exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{p} the valuation of 0 is not an integer\n"
                                  for p in (2, 3, 5, 1021))


# for these no power of p fits the modulus at which pow inverts directly
# (_POW_INVERSE_BITS), so the Newton lift starts at p itself; the first is
# the least prime past 2**32, the last the largest below PRIME_BOUND
WIDE_PRIMES = (4294967311, 3317044064679887385961813)


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES + WIDE_PRIMES)
def test_inverse_unit_matches_pow(p):
    rng = random.Random(p)
    largest = PRECISION_BIT_BUDGET // p.bit_length()
    for n in [*range(1, 41), 64, 255, 256, 257, largest]:
        mod = p**n
        units = [1, mod - 1, rng.randrange(1, mod), rng.randrange(mod, mod**2),
                 -rng.randrange(1, mod)]
        for u in units:
            if u % p == 0:
                u += 1
            assert _inverse_unit(u, p, n) == pow(u, -1, mod), (n, u)


def test_inverse_unit_matches_pow_on_random_units():
    # every digit count from 1 to 300, which holds those on each side of
    # the 24-bit pow limit for every prime below (none for the two widest,
    # whose p alone is wider); a Newton lift that never reached its modulus
    # hung at primes wider than 32 bits, so the calls run in a child process
    # that the test can time out
    script = (
        "import random\n"
        "from padicdyn.padic import _POW_INVERSE_BITS, _inverse_unit\n"
        "for p in (2, 3, 7, 1021, 2**31 - 1, 2**61 - 1):\n"
        "    rng, sides = random.Random(p), set()\n"
        "    for n in range(1, 301):\n"
        "        mod = p**n\n"
        "        sides.add(mod.bit_length() <= _POW_INVERSE_BITS)\n"
        "        u = rng.randrange(1, mod)\n"
        "        u += u % p == 0\n"
        "        assert _inverse_unit(u, p, n) == pow(u, -1, mod), (p, n, u)\n"
        "    print(p, sorted(sides))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("2 [False, True]\n3 [False, True]\n7 [False, True]\n"
                           "1021 [False, True]\n2147483647 [False]\n"
                           "2305843009213693951 [False]\n")


def test_wide_primes_are_the_primes_next_to_their_bounds():
    assert all(is_prime(p) for p in WIDE_PRIMES)
    assert WIDE_PRIMES[0] > 2**32 and not any(is_prime(q) for q in range(2**32 + 1, WIDE_PRIMES[0]))
    assert not any(is_prime(q) for q in range(WIDE_PRIMES[1] + 2, PRIME_BOUND, 2))


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


def _trial_division_factors(n):
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    return factors | ({n} if n > 1 else set())


def test_prime_factors_match_trial_division():
    rng = random.Random("prime-factors")
    for n in [*range(1, 2000), *(rng.randrange(2, 10**8) for _ in range(100))]:
        assert _prime_factors(n) == _trial_division_factors(n), n
    # two 31-bit primes and a prime square: the cofactors that trial division
    # below the square root leaves to Pollard's rho
    q1, q2 = 2147483647, 2147483629
    assert _prime_factors(2 * q1 * q2) == {2, q1, q2}
    assert _prime_factors(4 * q1 * q1) == {2, q1}
    # the largest n taken: its factors are prime and divide it out completely
    n, factors = PRIME_BOUND - 1, _prime_factors(PRIME_BOUND - 1)
    assert factors == {2, 3, 5, 127, 18778597, 858557454841}
    for q in factors:
        assert is_prime(q)
        while n % q == 0:
            n //= q
    assert n == 1


def test_arithmetic_and_prime_mismatch():
    x = TruncatedPadic.from_rational(Fraction(1, 3), 3, 8)
    y = TruncatedPadic.from_rational(Fraction(2, 3), 3, 8)
    assert approx_equal(x + y, TruncatedPadic.from_rational(1, 3, 8))
    assert approx_equal(x * y, TruncatedPadic.from_rational(Fraction(2, 9), 3, 8))
    assert approx_equal(x / y, TruncatedPadic.from_rational(Fraction(1, 2), 3, 8))
    z5 = TruncatedPadic.from_rational(1, 5, 8)
    with pytest.raises(PrimeMismatchError):
        x * z5
    with pytest.raises(PrimeMismatchError):
        CanonicalMap(3, 1, 1).eval_truncated(z5)
    with pytest.raises(TypeError, match=r"cannot interpret TruncatedPadic\("):  # eval is exact
        CanonicalMap(3, 1, 1).eval(z5)
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


@pytest.mark.parametrize("p", (2, 3, 5, 7, 17, 1021) + WIDE_PRIMES)
def test_hensel_sqrt_matches_the_separate_lifts(p):
    # one Newton lift gives the digits of the bit loop at p = 2 and of Newton
    # on r at odd p, up to the bit budget; each root squares back to x and
    # keeps the sign rule
    rng = random.Random(5000 + p)
    largest = PRECISION_BIT_BUDGET // p.bit_length()
    xs = []
    while len(xs) < 6:
        x = random_rational(rng, 10**6) * Fraction(p) ** rng.randint(-4, 4)
        if x and is_square(x, p):
            xs.append(x)
    for n in (1, 2, 3, 4, 8, 24, 64, 257, largest):
        for x in xs:
            s = hensel_sqrt(x, n, p)
            ref = reference_hensel_sqrt(x, n, p)
            assert (s.valuation, s.unit, s.precision) == (ref.valuation, ref.unit, n), (x, n)
            r = Fraction(s.unit) * Fraction(p) ** s.valuation
            if r * r != x:
                assert _fraction_valuation(r * r - x, p) >= 2 * s.valuation + n + (p == 2)
            if p == 2:
                assert s.unit % 4 == 1
            else:
                assert 1 <= s.unit % p <= (p - 1) // 2


@pytest.mark.parametrize("x", [2, -1, 8, 13])
def test_hensel_sqrt_searches_past_two_for_a_non_residue(x):
    # 17 = 1 mod 8: 2 is a square mod 17, so Tonelli-Shanks must try z = 3
    s = hensel_sqrt(x, 6, 17)
    r = representative(s)
    assert (r * r - x) % 17**6 == 0
    assert 1 <= s.unit % 17 <= 8


def test_hensel_sqrt_rejects_non_squares():
    with pytest.raises(NotASquareError):
        hensel_sqrt(2, 6, 5)
    with pytest.raises(ValueError):
        hensel_sqrt(4, 0, 5)


def test_sqrt_in_qp_kinds():
    assert _sqrt_in_qp(Fraction(9, 4), 5, 8) == Fraction(3, 2)
    assert _sqrt_in_qp(Fraction(0), 5, 8) == 0
    assert _sqrt_in_qp(Fraction(2), 5, 8) is None  # 2 is not a QR mod 5
    assert _sqrt_in_qp(Fraction(-4), 5, 8) == hensel_sqrt(-4, 8, 5)
    assert _sqrt_in_qp(Fraction(-7), 2, 8) == hensel_sqrt(-7, 8, 2)
    # only a rational square needs no precision
    assert _sqrt_in_qp(Fraction(9, 4), 5, 0) == Fraction(3, 2)
    for x in (Fraction(2), Fraction(-4)):
        with pytest.raises(ValueError, match="^precision must be >= 1$"):
            _sqrt_in_qp(x, 5, 0)


def test_sqrt_in_qp_decides_squareness_once(monkeypatch):
    calls = []
    real = padic.is_square
    monkeypatch.setattr(padic, "is_square", lambda x, p: calls.append(x) or real(x, p))
    assert _sqrt_in_qp(Fraction(2), 5, 8) is None and _sqrt_in_qp(Fraction(-4), 5, 8)
    assert calls == [2, -4]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 1021])
def test_sqrt_in_qp_checks_every_digit_of_the_lift(p, monkeypatch):
    # a correct root passes the check at every precision; the same root with
    # its last digit changed fails it, also at p = 2, where the check reaches
    # one digit past those that s*s fixes (except at two digits, where the
    # change turns s = 1 mod 4 into -s mod 4, the other root); so does the
    # root with its valuation off by one, at every precision
    rng = random.Random(7000 + p)
    xs = []
    while len(xs) < 12:
        x = random_rational(rng, 10**4) * Fraction(p) ** rng.randint(-4, 4)
        if x and is_square(x, p) and rational_sqrt(x) is None:
            xs.append(x)
    roots = [(x, n) for x in xs for n in (1, 2, 8, 64, 256)]
    for x, n in roots:
        assert _sqrt_in_qp(x, p, n) == hensel_sqrt(x, n, p)

    def valuation_off(x, precision, prime):
        s = hensel_sqrt(x, precision, prime)
        return TruncatedPadic(prime, s.valuation + rng.choice((-1, 1)), s.unit, precision)

    for fault, least in ((last_digit_wrong, 2 + (p == 2)), (valuation_off, 1)):
        monkeypatch.setattr(padic, "hensel_sqrt", fault)
        for x, n in roots:
            if n >= least:
                with pytest.raises(VerificationError, match=f"at precision {n}$"):
                    _sqrt_in_qp(x, p, n)


# -- truncated arithmetic --------------------------------------------------------


@pytest.mark.parametrize("args,message", [
    ((5, 0, 0, 3), "tagged zero must carry precision 0"),
    ((5, 0, 2, 0), "precision must be >= 1"),
    ((5, 0, 10, 1), "unit must be a reduced p-coprime residue"),
    ((5, 0, 10, 2), "unit must be a reduced p-coprime residue"),
    ((5, INFINITY, 2, 1), "INFINITY valuation is reserved for zero"),
])
def test_truncated_padic_refuses_malformed_triples(args, message):
    # a nonzero tagged zero, no digits, a unit out of range or divisible by
    # p, and the zero valuation on a unit
    with pytest.raises(ValueError, match=f"^{message}$"):
        TruncatedPadic(*args)


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
    assert approx_equal(t * Fraction(4, 7), TruncatedPadic.from_rational(1, 2, 10))
    assert (t - Fraction(7, 4)).is_zero
    assert approx_equal(Fraction(7, 2) / t, TruncatedPadic.from_rational(2, 2, 10))


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
