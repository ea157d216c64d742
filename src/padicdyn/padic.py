"""Exact p-adic valuation and norm arithmetic over the rationals.

Everything here is integer/rational arithmetic: a p-adic norm is only ever
handled through its exponent (|x|_p = p**(-valuation)), never as a float.
Irrational square roots are represented by ``TruncatedPadic`` values that
carry a finite number of significant base-p digits together with a sound
precision-tracking rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt
from typing import Union

from .errors import (
    NotASquareError,
    PrecisionError,
    PrimeMismatchError,
    _verify,
)

__all__ = [
    "INFINITY",
    "PRIME_BOUND",
    "TruncatedPadic",
    "hensel_sqrt",
    "is_prime",
    "is_square",
    "parse_rational",
]


class _PlusInfinity:
    """The valuation of zero: larger than every integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("padic-plus-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        return self

    def __neg__(self):
        raise ArithmeticError("-INFINITY is not representable here")

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _PlusInfinity()

#: A p-adic valuation: an integer, or INFINITY for zero.
Valuation = Union[int, _PlusInfinity]


_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _PRIME_WITNESSES
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < PRIME_BOUND (about 3.3e24). n >= PRIME_BOUND raises
    ValueError: PRIME_BOUND itself is a strong pseudoprime to every base.
    """
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise ValueError(f"primality of {n} is not decided: p must be below {PRIME_BOUND}")
    for q in _PRIME_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> set[int]:
    """The distinct prime factors of 1 <= n < PRIME_BOUND.

    Composite parts are split by Pollard's rho, which finds a prime factor q
    in about sqrt(q) steps on average. A composite n < PRIME_BOUND < 2^82
    has a factor below 2^41, so it splits in about 2^21 steps at most: half
    a second for p - 1 = 2 * q1 * q2 with 40-bit q1 and q2 (Intel Xeon,
    Python 3.11).
    """
    factors, pending = set(), [n]
    while pending:
        n = pending.pop()
        if n == 1:
            continue
        if is_prime(n):
            factors.add(n)
            continue
        d = _rho_divisor(n)
        pending += [d, n // d]
    return factors


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of a composite n: Pollard's rho with Brent's cycle
    search, taking the gcd once per 64 steps (Brent, BIT 20, 1980)."""
    if n % 2 == 0:
        return 2
    for c in count(1):
        y, r, product, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                saved = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                d = gcd(product, n)
                k += 64
            r *= 2
        if d == n:  # the batch overshot: redo it one step at a time
            y, d = saved, 1
            while d == 1:
                y = (y * y + c) % n
                d = gcd(x - y, n)
        if d != n:
            return d


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional "/" integer.

    Stricter than Fraction's constructor (no decimals, no exponents); raises
    ValueError pointing at the first offending column.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a string literal, got {type(text).__name__}")
    if not _RATIONAL_RE.match(text):
        col = 0
        for i, ch in enumerate(text):
            ok = ch.isdigit() or (ch in "+-" and i == 0) or (ch == "/" and 0 < i < len(text) - 1)
            if not ok:
                col = i
                break
        else:
            col = len(text)
        raise ValueError(f"invalid rational literal {text!r} (column {col})")
    num, slash, den = text.partition("/")
    if slash and int(den) == 0:
        raise ValueError(f"invalid rational literal {text!r}: zero denominator")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


#: Bits up to which _inverse_unit calls pow(u, -1, m). CPython's pow
#: inverts by extended Euclid, quadratic in the bits of m; a Newton lift
#: costs a few multiplications per doubling. On random units (timeit,
#: Intel Xeon, Python 3.11) pow and a lift from a smaller modulus are
#: within about 5% of each other up to 24 bits; from 25 bits on the lift
#: is faster (0.74 against 0.97 us at 32 bits of p = 3; 2.8 against 13.8
#: us at 257 bits, as tools/time_layers.py prints).
_POW_INVERSE_BITS = 24


@lru_cache(maxsize=1024)
def _newton_moduli(p: int, n: int) -> tuple:
    """The moduli an inverse mod p**n is lifted through, smallest first.

    Digit counts halve (rounding up) from n until one is 1 or its modulus
    has at most _POW_INVERSE_BITS bits; pow inverts at that first modulus,
    and each later one takes one Newton step.
    """
    moduli = [p ** n]
    while n > 1 and moduli[-1].bit_length() > _POW_INVERSE_BITS:
        n = (n + 1) // 2
        moduli.append(p ** n)
    return tuple(reversed(moduli))


def _inverse_unit(u: int, p: int, n: int) -> int:
    """u**-1 mod p**n for an integer u prime to p.

    pow inverts at p**n when n is 1 or p**n has at most _POW_INVERSE_BITS
    bits (p**n has more than n bits, so only n < _POW_INVERSE_BITS is
    tried, without a cache lookup). Otherwise the inverse from pow at the
    first of _newton_moduli(p, n) is lifted through the others by Newton
    steps x <- x*(2 - u*x) mod m, each doubling the digits.
    """
    if n < _POW_INVERSE_BITS:
        mod = p ** n
        if n == 1 or mod.bit_length() <= _POW_INVERSE_BITS:
            return pow(u, -1, mod)
    moduli = _newton_moduli(p, n)
    x = pow(u, -1, moduli[0])
    for mod in moduli[1:]:
        x = x * (2 - u % mod * x) % mod
    return x


def _int_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n == 0 raises ValueError.

    Most valuations are small, so the first three factors of p are divided
    out one at a time. Past them, p, p**2, p**4, ... are divided out by
    repeated squaring while they divide, and the remainder, below the last
    power tried, in binary descent: O(log e) divisions in all. Zero is
    refused only on the paths that are past the small valuations, so the
    check costs nothing when v <= 2.
    """
    if p == 2:
        if n & 1:
            return 0
        if not n:
            raise ValueError("the valuation of 0 is not an integer")
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    n //= p
    if n % p:
        return 1
    n //= p
    if n % p:
        return 2
    n //= p
    if not n:
        raise ValueError("the valuation of 0 is not an integer")
    v = 3
    powers = [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def _fraction_valuation(x: Fraction, p: int) -> Valuation:
    if x == 0:
        return INFINITY
    num, den = x.numerator, x.denominator
    if num % p == 0:
        return _int_valuation(num, p)
    if den % p == 0:
        return -_int_valuation(den, p)
    return 0


def _unit_residue(x: Fraction, p: int, n: int) -> int:
    """The unit part of x != 0 reduced mod p**n."""
    num, den = x.numerator, x.denominator
    if num % p == 0:
        num //= p ** _int_valuation(num, p)
    elif den % p == 0:
        den //= p ** _int_valuation(den, p)
    return num * _inverse_unit(den, p, n) % p ** n


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _horner(coeffs, x) -> Fraction | int:
    """Value at x of the polynomial with coefficients ``coeffs`` (low to high):
    an int for int coefficients and x, a Fraction when either is one."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when x is not a perfect square."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def is_square(x, prime: int) -> bool:
    """Whether x != 0 is a square in Q_p.

    True iff the valuation is even and the unit part is a quadratic residue
    mod p (odd p), respectively is 1 mod 8 (p = 2).
    """
    frac = _coerce_fraction(x)
    if frac == 0:
        raise ValueError("is_square is undefined at zero (zero is trivially a square)")
    v = _fraction_valuation(frac, prime)
    if v % 2 != 0:
        return False
    if prime == 2:
        return _unit_residue(frac, 2, 3) == 1
    u = _unit_residue(frac, prime, 1)
    return pow(u, (prime - 1) // 2, prime) == 1


def _sqrt_mod_prime(u: int, p: int) -> int:
    """Tonelli-Shanks: r with r*r = u mod p, for u a quadratic residue, p odd."""
    u %= p
    if p % 4 == 3:
        return pow(u, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(u, (q + 1) // 2, p)
    t = pow(u, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _lift_sqrt(u: int, p: int, k: int) -> int:
    """r = u*y mod p**k with r*r = u mod p**k, by Newton's iteration for
    y = u**(-1/2): y <- y*(3 - u*y*y)/2. u is a unit mod p**k; at p = 2,
    u = 1 mod 8 and k >= 3.

    One step. If u*y*y = 1 + e with v(e) >= j, the new y gives
    u*y*y*(3 - u*y*y)**2/4 = (1 + e)*(2 - e)**2/4 = 1 - 3e**2/4 + e**3/4,
    so u*y*y = 1 mod p**(2j) at odd p and mod 2**(2j-2) at p = 2, where the
    4 costs two digits. A step must gain digits, 2j - 2 > j, so at p = 2 y
    starts at 1 with j = 3 (u = 1 mod 8); at odd p it starts at the inverse
    of _sqrt_mod_prime's root, with j = 1. The step goes to j' = min(2j, k),
    respectively min(2j - 2, k), and reduces t = y*(3 - u*y*y) mod p**j'.
    At odd p, t/2 or (t + p**j')/2, whichever is an integer, is the new y
    mod p**j', and as y is a unit that fixes u*y*y mod p**j'. At p = 2, y
    and u are odd, so t is even, and t/2 is the new y mod 2**(j'-1). That
    still fixes u*y*y mod 2**j', as j' >= 2:
    (y + 2**(j'-1)*z)**2 = y*y + 2**j'*y*z + 2**(2j'-2)*z*z. Once j = k,
    r*r = u*(u*y*y) = u mod p**k.

    The root. At p = 2, y = 1 mod 4 after every step: u*y*y = 1 mod 8 gives
    (3 - u*y*y)/2 = 1 mod 4, and the new y is kept mod 2**(j'-1) with
    j' >= 3. So r = u*y = 1 mod 4, and as r + rho = 2 mod 4 for the root
    rho = 1 mod 4 of u, r = rho mod 2**(k-1). At odd p, r = u*y = s*s/s = s
    mod p for _sqrt_mod_prime's root s, and a root mod p**k of a unit is
    fixed by its residue mod p (r - rho and r + rho are not both divisible
    by p), so r is the one lift of s.
    """
    if p == 2:
        y, j, lost = 1, 3, 2
    else:
        y, j, lost = _inverse_unit(_sqrt_mod_prime(u, p), p, 1), 1, 0
    while j < k:
        j = min(2 * j - lost, k)
        mod = p ** j
        t = y * (3 - u * y * y) % mod
        y = (t + (t & 1) * mod) >> 1
    return u * y % p ** k


# -- digit-level rules of truncated arithmetic -----------------------------------
#
# A truncated value is the triple (v, u, n): p**v * (u + O(p**n)) with u a
# p-coprime residue mod p**n, or the tagged zero (M, 0, 0), known to be
# O(p**M) (M may be INFINITY). Its absolute precision is v + n in both forms.
# TruncatedPadic's operators go through these helpers. CanonicalMap's orbit
# kernel fuses the same rule into one step of f and calls them for tagged
# zeros and for a divisor indistinguishable from zero; tests/test_truncated.py
# checks it against the operator composition digit for digit.


def _coerce_digits(v: int, min_absprec, precision: int):
    """Digits an exact nonzero operand of valuation v is truncated to.

    The operand is combined with a value of absolute precision
    ``min_absprec`` (INFINITY: a product or quotient, which keeps the
    ``precision`` digits of the truncated side). None means the operand is
    O(p**min_absprec), i.e. the tagged zero (v, 0, 0).
    """
    if min_absprec is INFINITY:
        return max(1, precision)
    if v >= min_absprec:
        return None
    return min_absprec - v


def _add_triples(p: int, v1, u1: int, n1: int, v2, u2: int, n2: int) -> tuple:
    """Sum of two triples; digits cancelled by the sum are lost."""
    absprec = min(v1 + n1, v2 + n2)
    if not (u1 and u2):
        # a tagged zero contributes only its bound to the joint precision
        if u2:
            v1, u1 = v2, u2
        if not u1 or absprec <= v1:
            return absprec, 0, 0
        window = absprec - v1
        return v1, u1 % p ** window, window
    vmin = min(v1, v2)
    window = absprec - vmin
    s = (u1 * p ** (v1 - vmin) + u2 * p ** (v2 - vmin)) % p ** window
    if not s:
        return absprec, 0, 0
    vs = _int_valuation(s, p)
    return vmin + vs, s // p ** vs, window - vs


def _mul_triples(p: int, v1, u1: int, n1: int, v2, u2: int, n2: int) -> tuple:
    """Product of two triples: valuations add, the shorter unit wins."""
    if not (u1 and u2):
        # valuation lower bounds add: v(xy) >= M1 + M2
        return v1 + v2, 0, 0
    n = min(n1, n2)
    return v1 + v2, u1 * u2 % p ** n, n


def _div_triples(p: int, v1, u1: int, n1: int, v2, u2: int, n2: int) -> tuple:
    """Quotient of two triples; a divisor indistinguishable from zero raises."""
    if not u2:
        raise PrecisionError(
            f"division by a value indistinguishable from zero (O({p}^{v2}))"
        )
    if not u1:
        return v1 - v2, 0, 0
    n = min(n1, n2)
    return v1 - v2, u1 * _inverse_unit(u2, p, n) % p ** n, n


@dataclass(frozen=True, slots=True, repr=False)
class TruncatedPadic:
    """A p-adic number to finite precision: p**valuation * (unit + O(p**precision)).

    ``unit`` is an integer in [1, p**precision) with unit % p != 0, so the
    value is known modulo p**(valuation + precision) ("absolute precision").

    Zero is a distinguished tagged value (unit == 0, precision == 0) whose
    ``valuation`` field holds the absolute precision M: the value is known
    to satisfy v(x) >= M, i.e. x = O(p**M). M may be INFINITY (exact zero).

    Precision rule: a result carries the minimum surviving precision of its
    operands; digits cancelled by subtraction are genuinely lost. Division
    by a value indistinguishable from zero raises PrecisionError.
    """

    prime: int
    valuation: Valuation
    unit: int
    precision: int

    def __post_init__(self):
        prime, unit, precision = self.prime, self.unit, self.precision
        if unit == 0:
            if precision != 0:
                raise ValueError("tagged zero must carry precision 0")
        else:
            if precision < 1:
                raise ValueError("precision must be >= 1")
            if not 0 < unit < prime ** precision or unit % prime == 0:
                raise ValueError("unit must be a reduced p-coprime residue")
            if self.valuation is INFINITY:
                raise ValueError("INFINITY valuation is reserved for zero")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prime: int, abs_precision=INFINITY) -> "TruncatedPadic":
        return cls(prime, abs_precision, 0, 0)

    @classmethod
    def from_rational(cls, value, prime: int, precision: int) -> "TruncatedPadic":
        """Truncate an exact rational to ``precision`` significant digits."""
        frac = _coerce_fraction(value)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if frac == 0:
            return cls.zero(prime)
        return _truncate_fraction(frac, prime, precision)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for the tagged zero (indistinguishable from 0)."""
        return self.unit == 0

    @property
    def abs_precision(self):
        """The value is known modulo p**abs_precision."""
        if self.is_zero:
            return self.valuation
        return self.valuation + self.precision

    def digits(self) -> list[int]:
        """Base-p digits d0..d(N-1) of the unit part (d0 != 0)."""
        if self.is_zero:
            return []
        out, n = [], self.unit
        for _ in range(self.precision):
            n, d = divmod(n, self.prime)
            out.append(d)
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other, min_absprec) -> "TruncatedPadic":
        """Bring ``other`` to TruncatedPadic form with abs precision >= min_absprec."""
        if isinstance(other, TruncatedPadic):
            if other.prime != self.prime:
                raise PrimeMismatchError(f"mixed primes {self.prime} and {other.prime}")
            return other
        frac = _coerce_fraction(other)
        if frac == 0:
            return TruncatedPadic.zero(self.prime)
        v = _fraction_valuation(frac, self.prime)
        digits = _coerce_digits(v, min_absprec, self.precision)
        if digits is None:
            return TruncatedPadic.zero(self.prime, v)
        return TruncatedPadic.from_rational(frac, self.prime, digits)

    def _combine(self, rule, other: "TruncatedPadic") -> "TruncatedPadic":
        """Apply a digit rule (_add_triples, ...) to the triples of self, other."""
        p = self.prime
        return TruncatedPadic(p, *rule(p, self.valuation, self.unit, self.precision,
                                       other.valuation, other.unit, other.precision))

    def __add__(self, other):
        return self._combine(_add_triples, self._coerce(other, self.abs_precision))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        mod = self.prime ** self.precision
        return TruncatedPadic(self.prime, self.valuation, (-self.unit) % mod, self.precision)

    def __sub__(self, other):
        return self + (-self._coerce(other, self.abs_precision))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._combine(_mul_triples, self._coerce(other, INFINITY))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(_div_triples, self._coerce(other, INFINITY))

    def __rtruediv__(self, other):
        return self._coerce(other, INFINITY).__truediv__(self)

    def __repr__(self):
        if self.is_zero:
            return f"TruncatedPadic.zero({self.prime}, {self.valuation!r})"
        return (
            f"TruncatedPadic(prime={self.prime}, valuation={self.valuation}, "
            f"unit={self.unit}, precision={self.precision})"
        )

    def __str__(self):
        p = self.prime
        if self.is_zero:
            return f"O({p}^{self.valuation})"
        terms = []
        for i, d in enumerate(self.digits()):
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append(f"{d}*{p}")
            else:
                terms.append(f"{d}*{p}^{i}")
        return f"{p}^{self.valuation} * ({' + '.join(terms)}) [{self.precision} digits]"


@lru_cache(maxsize=4096)
def _truncate_fraction(frac: Fraction, prime: int, precision: int) -> TruncatedPadic:
    # exact operands of TruncatedPadic operators (and orbit starts) recur
    # with the same digit counts; orbits read the map's own residue cache
    v = _fraction_valuation(frac, prime)
    unit = _unit_residue(frac, prime, precision)
    return TruncatedPadic(prime, v, unit, precision)


def hensel_sqrt(x, precision: int, prime: int) -> TruncatedPadic:
    """Canonical square root of x in Q_p to ``precision`` significant digits.

    Decides squareness itself: x = 0 or a precision below 1 raises
    ValueError, and an x that is no square in Q_p raises NotASquareError.
    The unit part's root comes from one Newton lift, _lift_sqrt. Of the two
    roots +-s, returns the one whose first digit lies in
    {1, ..., (p-1)/2} for odd p, respectively s = 1 mod 4 for p = 2. The
    square of the result agrees with x modulo p**(v(x) + precision), one
    digit more at p = 2.
    """
    frac = _coerce_fraction(x)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if frac == 0:
        raise ValueError("hensel_sqrt is undefined at zero")
    if not is_square(frac, prime):
        raise NotASquareError(f"{frac} is not a square in Q_{prime}")
    v = _fraction_valuation(frac, prime)
    # p = 2: r*r = u mod 2**(N+2) pins the root = 1 mod 4 down to N+1 bits
    work = precision + 2 if prime == 2 else precision
    r = _lift_sqrt(_unit_residue(frac, prime, work), prime, work) % prime ** precision
    if prime != 2 and r % prime > (prime - 1) // 2:
        r = prime ** precision - r
    return TruncatedPadic(prime, v // 2, r, precision)


def _sqrt_in_qp(x: Fraction, prime: int, precision: int) -> Fraction | TruncatedPadic | None:
    """A square root of x in Q_p: the exact root when x is a rational square
    (0 included), hensel_sqrt's root to ``precision`` digits when x is only
    a square in Q_p, else None. Squareness is decided once, by hensel_sqrt,
    so a precision below 1 raises ValueError for every x that is not a
    rational square.

    A truncated s = p^v * (u + O(p^N)) is checked by its square on its
    representative r = p^v * u, not by the lift: v(r^2 - x) >= 2v + k, with
    k = N, and N + 1 at p = 2. For a root y = r + O(p^(v+N)), r^2 - x =
    (r - y)(r + y) with v(r - y) >= v + N and v(r + y) >= v, one more at
    p = 2; conversely (r/y)^2 = 1 mod p^k gives r/y = +-1 mod p^N. On
    integers, with e = 2v, x = n/d and q+, q- = p^max(e, 0), p^max(-e, 0),
    r^2 - x = (u^2*d*q+ - n*q-) / (d*q-) and v(d*q-) = 2*max(-e, 0) when
    v(x) = e, so the bound is p^(|e| + k) | u^2*d*q+ - n*q-; when v(x) != e
    that numerator has valuation at most |e|. VerificationError otherwise.
    """
    s = rational_sqrt(x)
    if s is not None:
        return s
    try:
        s = hensel_sqrt(x, precision, prime)
    except NotASquareError:
        return None
    e = 2 * s.valuation
    num = s.unit ** 2 * x.denominator * prime ** max(e, 0) - x.numerator * prime ** max(-e, 0)
    _verify(num % prime ** (abs(e) + precision + (prime == 2)) == 0,
            f"truncated square root of {x} failed its check at precision {precision}")
    return s
