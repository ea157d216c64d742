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
from math import isqrt
from typing import Union

from .errors import (
    NotASquareError,
    PrecisionError,
    PrimeMismatchError,
)

__all__ = [
    "INFINITY",
    "PRIME_BOUND",
    "TruncatedPadic",
    "Valuation",
    "hensel_sqrt",
    "is_prime",
    "is_square",
    "parse_rational",
    "rational_sqrt",
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


def _int_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0)."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
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


def _unit_residue(x: Fraction, p: int, modulus: int) -> int:
    """The unit part of x != 0 reduced mod ``modulus`` (a power of p)."""
    num, den = x.numerator, x.denominator
    if num % p == 0:
        num //= p ** _int_valuation(num, p)
    elif den % p == 0:
        den //= p ** _int_valuation(den, p)
    return num * pow(den, -1, modulus) % modulus


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _horner(coeffs, x) -> Fraction:
    """Value at x of the polynomial with coefficients ``coeffs`` (low to high)."""
    acc = Fraction(0)
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
        return _unit_residue(frac, 2, 8) == 1
    u = _unit_residue(frac, prime, prime)
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


def _lift_sqrt_odd(u_mod: int, p: int, k: int) -> int:
    """r with r*r = u mod p**k by Newton doubling (p odd)."""
    r = _sqrt_mod_prime(u_mod, p)
    reached = 1
    while reached < k:
        reached = min(2 * reached, k)
        mod = p ** reached
        r = (r - (r * r - u_mod) * pow(2 * r, -1, mod)) % mod
    return r % p ** k


def _lift_sqrt_two(u_mod: int, k: int) -> int:
    """r with r*r = u mod 2**k (k >= 3, u = 1 mod 8); r is normalized to 1 mod 4.

    r is determined mod 2**(k-1); the returned representative lies in
    [0, 2**(k-1)).
    """
    r = 1
    for j in range(3, k):
        if (r * r - u_mod) % (1 << (j + 1)):
            r += 1 << (j - 1)
    half = 1 << (k - 1)
    r %= half
    if r % 4 == 3:
        r = (half - r) % half
    return r


# -- digit-level rules of truncated arithmetic -----------------------------------
#
# A truncated value is the triple (v, u, n): p**v * (u + O(p**n)) with u a
# p-coprime residue mod p**n, or the tagged zero (M, 0, 0), known to be
# O(p**M) (M may be INFINITY). Its absolute precision is v + n in both forms.
# TruncatedPadic's operators and CanonicalMap's orbit kernel both go through
# these helpers, so the precision rule exists once.


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
    return v1 - v2, u1 * pow(u2, -1, p ** n) % p ** n, n


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

    def approx_equal(self, other) -> bool:
        """True when self - other is indistinguishable from zero."""
        return (self - other).is_zero

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
    unit = _unit_residue(frac, prime, prime ** precision)
    return TruncatedPadic(prime, v, unit, precision)


def hensel_sqrt(x, precision: int, prime: int) -> TruncatedPadic:
    """Canonical square root of x in Q_p to ``precision`` significant digits.

    Requires is_square(x). Of the two roots +-s, returns the one whose first
    digit lies in {1, ..., (p-1)/2} for odd p, respectively s = 1 mod 4 for
    p = 2. The square of the result agrees with x modulo
    p**(v(x) + precision).
    """
    frac = _coerce_fraction(x)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if frac == 0:
        raise ValueError("hensel_sqrt is undefined at zero")
    if not is_square(frac, prime):
        raise NotASquareError(f"{frac} is not a square in Q_{prime}")
    v = _fraction_valuation(frac, prime)
    if prime == 2:
        # r*r = u mod 2**(N+2) pins the root = 1 mod 4 down to N+1 bits
        work = precision + 2
        u = _unit_residue(frac, 2, 1 << work)
        r = _lift_sqrt_two(u, work)
    else:
        work = precision
        u = _unit_residue(frac, prime, prime ** work)
        r = _lift_sqrt_odd(u, prime, work)
        if r % prime > (prime - 1) // 2:
            r = prime ** work - r
    r %= prime ** precision
    return TruncatedPadic(prime, v // 2, r, precision)
