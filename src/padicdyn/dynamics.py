"""Dynamics of the canonical map f(x) = a*x/(x^2 + c*x + a) over Q_p.

The two fixed points are x1 = 0 and x2 = -c. All structure is governed by
the norms of the denominator's roots ("poles") xh1, xh2:

    alpha = min(|xh1|_p, |xh2|_p),  beta = max(|xh1|_p, |xh2|_p),

computed exactly, without square roots, from the Newton polygon of
x^2 + c*x + a. Radii and norms are handled as integer exponents of p
throughout; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Optional

from .errors import (
    DegenerateMapError,
    InconsistentParametersError,
    PoleHitError,
    PrecisionError,
    PrimeMismatchError,
    UnsupportedCaseError,
)
from .padic import (
    TruncatedPadic,
    Valuation,
    _add_triples,
    _coerce_digits,
    _coerce_fraction,
    _div_triples,
    _fraction_valuation,
    _int_valuation,
    _inverse_unit,
    _sqrt_in_qp,
    _unit_residue,
    is_prime,
)

__all__ = [
    "EXACT_HEIGHT_BUDGET",
    "ORBIT_STEP_BIT_BUDGET",
    "PRECISION_BIT_BUDGET",
    "CanonicalMap",
    "Classification",
    "FixedPointReport",
    "InvariantSpheres",
    "OrbitResult",
    "PolePair",
    "Region",
    "SphereSpec",
    "orbit",
]

CenterKind = Literal["x1", "x2"]


@dataclass(frozen=True)
class SphereSpec:
    """A sphere S_r(x_i) with radius r = p**radius_exponent."""

    center: CenterKind
    radius_exponent: int

    def __post_init__(self):
        if self.center not in ("x1", "x2"):
            raise ValueError("center must be 'x1' or 'x2'")


@dataclass(frozen=True)
class Region:
    """An open ball U_r(center) attached to a fixed point."""

    kind: Literal["siegel_disk", "basin", "repelling_ball"]
    center: Fraction
    radius_exponent: int  # r = p**radius_exponent


@dataclass(frozen=True)
class FixedPointReport:
    point: Fraction
    multiplier: Fraction
    # |f'(x0)|_p = p**(-multiplier_norm_exponent); INFINITY when f'(x0) = 0
    multiplier_norm_exponent: Valuation
    kind: Literal["attracting", "indifferent", "repelling"]
    region: Region
    case: int
    superattracting: bool = False


@dataclass(frozen=True)
class Classification:
    case: int
    x1: FixedPointReport
    x2: FixedPointReport


@dataclass(frozen=True)
class PolePair:
    """Roots of x^2 + c*x + a: exact when the discriminant is a rational
    square, truncated Hensel lifts when it is only a p-adic square, absent
    from Q_p otherwise."""

    kind: Literal["rational", "truncated", "absent"]
    values: tuple


@dataclass(frozen=True)
class InvariantSpheres:
    """S_r(x_i) is invariant, in the sense of
    ``CanonicalMap.invariant_spheres``, iff radius_exponent < the recorded
    bound (None: no invariant sphere around that point)."""

    x1_exponent_bound: int
    x2_exponent_bound: Optional[int]


@dataclass(frozen=True, slots=True, repr=False)
class CanonicalMap:
    """f(x) = a*x/(x^2 + c*x + a) with a*c != 0 over Q_p.

    Construction checks p and a, c != 0 and computes ``va`` = v(a) and
    ``vc`` = v(c), the two numbers every structural fact of the map follows
    from; every reader takes them from here. The case of x2 (with f'(x2)
    and its valuation) and the orbit kernel's per-precision residues of a
    and c are built on first use and kept on the map.
    """

    p: int
    a: Fraction
    c: Fraction
    va: int = field(init=False, compare=False)
    vc: int = field(init=False, compare=False)
    _case: Optional[tuple] = field(default=None, init=False, compare=False)
    _digits: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        for name in "ac":
            object.__setattr__(self, name, _coerce_fraction(getattr(self, name)))
        if self.a == 0:
            raise DegenerateMapError("a must be nonzero")
        if self.c == 0:
            raise DegenerateMapError("c must be nonzero")
        object.__setattr__(self, "va", _fraction_valuation(self.a, self.p))
        object.__setattr__(self, "vc", _fraction_valuation(self.c, self.p))

    def __repr__(self):
        return f"CanonicalMap(p={self.p}, a={self.a}, c={self.c})"

    # -- basic data ----------------------------------------------------------

    @property
    def x1(self) -> Fraction:
        return Fraction(0)

    @property
    def x2(self) -> Fraction:
        return -self.c

    @property
    def discriminant(self) -> Fraction:
        return self.c * self.c - 4 * self.a

    def val(self, x) -> Valuation:
        return _fraction_valuation(_coerce_fraction(x), self.p)

    def poles(self, precision: int = 24) -> PolePair:
        """(+-s - c)/2 with s^2 = c^2 - 4a, s from padic._sqrt_in_qp (checked)."""
        s = _sqrt_in_qp(self.discriminant, self.p, precision)
        if s is None:
            return PolePair("absent", ())
        half = Fraction(1, 2)
        return PolePair("rational" if isinstance(s, Fraction) else "truncated",
                        ((s - self.c) * half, (-s - self.c) * half))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value of f(x); raises PoleHitError on the denominator's roots."""
        x = _coerce_fraction(x)
        return Fraction(*self._eval_pair(x.numerator, x.denominator))

    def _eval_pair(self, xn: int, xd: int) -> tuple[int, int]:
        """f(xn/xd) as an unreduced (numerator, denominator) pair, xd != 0;
        raises PoleHitError on the denominator's roots.

        With a = an/ad and c = cn/cd, f(x) is
        an*cd*xn*xd / (ad*cd*xn^2 + ad*cn*xn*xd + an*cd*xd^2), homogeneous
        in (xn, xd), so xn/xd need not be in lowest terms.
        """
        an, ad = self.a.numerator, self.a.denominator
        cn, cd = self.c.numerator, self.c.denominator
        den = ad * xn * (cd * xn + cn * xd) + an * cd * xd * xd
        if den == 0:
            raise PoleHitError(Fraction(xn, xd))
        return an * cd * xn * xd, den

    def eval_truncated(self, t: TruncatedPadic) -> TruncatedPadic:
        """f(t) in truncated arithmetic, digit for digit equal to the
        operator composition t*a / (t*t + t*c + a)."""
        if t.prime != self.p:
            raise PrimeMismatchError(f"mixed primes {self.p} and {t.prime}")
        return TruncatedPadic(self.p, *self._step_triple(t.valuation, t.unit, t.precision)[:3])

    # -- integer orbit kernel --------------------------------------------------
    #
    # Truncated iterates travel as (valuation, unit, precision) triples (see
    # padic._add_triples). One step of f, t*a / ((t*t + t*c) + a), runs as
    # one fused integer computation on the units that follows the precision
    # rule of TruncatedPadic's operators digit for digit: the valuations and
    # windows of the two sums, the digits they cancel, and the digit counts
    # that a and c are cut to (a to nothing, a tagged zero, when the
    # denominator's sum is known to fewer digits than v(a)).
    #
    # ``_digits`` is the map's per-precision context: digit count k ->
    # (p**k, v(a), v(c), unit of a mod p**k, unit of c mod p**k), built on
    # first use. An orbit keeps its digit count, so after its first step a
    # step reads its modulus and coefficient residues from one entry; the
    # few other counts a step asks for (a at the digits the denominator's
    # sum keeps, the digits left after a cancellation) are entries of the
    # same table.
    #
    # The step also returns the distance exponent of t to x2 = -c, the
    # negated valuation of t + c. When v(t) != v(c) it is -min(v(t), v(c)),
    # with no arithmetic on units; when they are equal, t*t + t*c =
    # p**(2v) * u (u + u_c) has the valuation of t + c plus v(t), so the
    # step reads it off the sum it computes anyway. A tagged-zero t and a
    # divisor indistinguishable from zero go to padic's shared rules
    # (_add_triples, _div_triples), so PrecisionError's message is made in
    # one place.

    def _digit_context(self, k: int) -> tuple:
        """(p**k, v(a), v(c), unit of a mod p**k, unit of c mod p**k), built
        on first use."""
        entry = self._digits.get(k)
        if entry is None:
            p = self.p
            entry = self._digits[k] = (p ** k, self.va, self.vc, _unit_residue(self.a, p, k),
                                       _unit_residue(self.c, p, k))
        return entry

    def _step_triple(self, v, u: int, n: int) -> tuple:
        """(v', u', n', d): f of the triple t = (v, u, n), and the distance
        exponent d of t to x2 (as _distance_x2_triple)."""
        p = self.p
        if not u:
            return self._step_tagged_zero(v)
        digits = self._digits
        mod, va, vc, ua, uc = digits.get(n) or self._digit_context(n)
        # the sum s = t*t + t*c = p**sv * (su + O(p**sn))
        k = v - vc
        if k < 0:
            su = u * (u + uc * p ** -k) % mod if -k < n else u * u % mod
            sv, sn, dist = v + v, n, -v
        elif k > 0:
            su = u * (u * p ** k + uc) % mod if k < n else u * uc % mod
            sv, sn, dist = v + vc, n, -vc
        else:
            su = u * (u + uc) % mod
            if su:
                vs = _int_valuation(su, p) if not su % p else 0
                sv, sn, dist = v + v + vs, n - vs, -(v + vs)
                su //= p ** vs
            else:  # every digit cancels: s = O(p**(2v + n))
                sv, sn, dist = v + v + n, 0, "-inf"
        # the denominator s + a = p**dv * (du + O(p**dn)), a cut to the
        # d digits that s's absolute precision keeps
        d = sv + sn - va
        if d <= 0:
            dv, du, dn = sv, su, sn
        else:
            amod, _, _, ua_d, _ = digits.get(d) or self._digit_context(d)
            j = va - sv
            if j < 0:
                dv, du, dn = va, (su * p ** -j + ua_d) % amod, d
            else:
                smod = mod if sn == n else (digits.get(sn) or self._digit_context(sn))[0]
                if j:
                    dv, du, dn = sv, (su + ua_d * p ** j) % smod, sn
                else:
                    du = (su + ua_d) % smod
                    vd = _int_valuation(du, p) if du and not du % p else 0
                    dv, dn = sv + vd, sn - vd
                    du //= p ** vd
        if not du:  # s + a = O(p**(sv + sn)): the division raises
            return _div_triples(p, v + va, u * ua % mod, n, sv + sn, 0, 0)
        # the quotient t*a / (s + a) keeps the shorter unit
        if dn < n:
            n, mod = dn, (digits.get(dn) or self._digit_context(dn))[0]
        return v + va - dv, u * ua * _inverse_unit(du, p, n) % mod, n, dist

    def _step_tagged_zero(self, m) -> tuple:
        """_step_triple of the tagged zero O(p**m), m possibly INFINITY."""
        p, va, vc = self.p, self.va, self.vc
        sv = m + min(m, vc)  # t*t + t*c = O(p**sv)
        count = _coerce_digits(va, sv, 0)  # digits of a in the denominator
        a = (va, 0, 0) if count is None else (va, self._digit_context(count)[3], count)
        den = _add_triples(p, sv, 0, 0, *a)
        return (*_div_triples(p, m + va, 0, 0, *den), "-inf" if vc >= m else -vc)

    def _distance_x2_triple(self, v, u: int, n: int):
        """Distance exponent of a triple t to x2 = -c: the valuation of t + c."""
        vc = self.vc
        if not u:
            return "-inf" if vc >= v else -vc
        if v != vc:
            return -min(v, vc)
        mod, _, _, _, uc = self._digit_context(n)
        s = (u + uc) % mod
        return -(v + _int_valuation(s, self.p)) if s else "-inf"

    def multiplier_x2(self) -> Fraction:
        """f'(-c) = 1 - c^2/a = (an*cd^2 - ad*cn^2) / (an*cd^2)."""
        an, ad = self.a.numerator, self.a.denominator
        cn, cd = self.c.numerator, self.c.denominator
        return Fraction(an * cd * cd - ad * cn * cn, an * cd * cd)

    def center_point(self, center: CenterKind) -> Fraction:
        return self.x1 if center == "x1" else self.x2

    # -- pole norms ------------------------------------------------------------

    def alpha_beta(self) -> tuple[int, int]:
        """(v_alpha, v_beta) with alpha = p**(-v_alpha), beta = p**(-v_beta).

        Newton polygon of x^2 + c*x + a: when 2*v(c) < v(a) the root
        valuations are v(c) and v(a) - v(c); otherwise both equal v(a)/2,
        and v(a) must then be even for the roots to have norms in p**Z.
        """
        va, vc = self.va, self.vc
        if 2 * vc < va:
            v_beta = vc
            v_alpha = va - vc
        else:
            if va % 2 != 0:
                raise InconsistentParametersError(
                    f"v(a) = {va} is odd with 2*v(c) >= v(a): pole norms are not "
                    f"integer powers of {self.p} (roots of x^2+cx+a lie outside Q_p)"
                )
            v_alpha = v_beta = va // 2
        # |a| = alpha*beta, alpha <= beta and the |c| relations hold for all integers va, vc: the
        # sum is va; 2vc < va gives v_alpha = va - vc > vc = v_beta, else v_alpha = va/2 <= vc
        return v_alpha, v_beta

    # -- classification --------------------------------------------------------

    def _case_facts(self) -> tuple:
        """(case, f'(x2), v(f'(x2))), computed once per map on integers.

        With kappa = a/c^2, v(kappa) = va - 2vc and f'(x2) = 1 - 1/kappa
        (multiplier_x2), so mv = v(f'(x2)) = v(a - c^2) - va. The case is
        read off v(kappa), by the Newton polygon of alpha_beta(), and off mv:

          5: v(kappa) > 0, alpha < beta; then v(a - c^2) = 2vc < va, so
             mv = vc - (va - vc) = v_beta - v_alpha < 0;
          2: v(kappa) < 0 and even (alpha_beta refuses odd), |c| < alpha;
             then v(a - c^2) = va, so mv = 0;
          3, 4: v(kappa) = 0, |c| = alpha = beta; then v(a - c^2) >= va,
             so mv >= 0, and |a - c^2| = alpha^2 iff mv = 0 (case 3), else
             mv > 0 (case 4; mv is INFINITY when a = c^2).

        Each case thus fixes the norm of f'(x2), so the case is not checked
        against it again.
        """
        cached = self._case
        if cached is not None:
            return cached
        v_alpha, v_beta = self.alpha_beta()
        mult = self.multiplier_x2()
        mv = _fraction_valuation(mult, self.p)
        if v_alpha > v_beta:
            case = 5
        elif self.vc > v_alpha:
            case = 2
        else:
            case = 3 if mv == 0 else 4
        result = (case, mult, mv)
        object.__setattr__(self, "_case", result)
        return result

    def classify(self) -> Classification:
        """Type and local structure of both fixed points.

        x1 = 0 is always indifferent (f'(0) = 1) with maximal Siegel disk
        U_alpha(0): case 1. The five-way case index records the regime of
        x2 = -c determined by comparing |c|, alpha, beta and |a - c^2|:

          2: |c| <  alpha = beta            -> indifferent, shares x1's disk
          3: |c| = alpha = beta, |a-c^2| = alpha^2
                                            -> indifferent, disjoint disk U_alpha(x2)
          4: |c| = alpha = beta, |a-c^2| < alpha^2
                                            -> attracting, basin U_alpha(x2)
          5: alpha < beta                   -> repelling on U_beta(x2),
                                               |f'(x2)| = beta/alpha

        The case, f'(x2) and its valuation come from _case_facts, which reads
        the case off v(a), v(c) and v(f'(x2)); this method builds the reports
        from them on every call.
        """
        case, mult, mv = self._case_facts()
        v_alpha, v_beta = self.alpha_beta()
        x1_report = FixedPointReport(
            point=self.x1,
            multiplier=Fraction(1),
            multiplier_norm_exponent=0,
            kind="indifferent",
            region=Region("siegel_disk", self.x1, -v_alpha),
            case=1,
        )
        if case == 5:
            kind, region = "repelling", Region("repelling_ball", self.x2, -v_beta)
        elif case == 2:
            kind, region = "indifferent", Region("siegel_disk", self.x1, -v_alpha)
        elif case == 3:
            kind, region = "indifferent", Region("siegel_disk", self.x2, -v_alpha)
        else:
            kind, region = "attracting", Region("basin", self.x2, -v_alpha)
        # cases 2, 3 and 5 have a finite mv, so only case 4 can be superattracting
        x2_report = FixedPointReport(self.x2, mult, mv, kind, region, case,
                                     superattracting=(mult == 0))
        return Classification(case, x1_report, x2_report)

    def invariant_spheres(self) -> InvariantSpheres:
        """Exponent bounds below which S_r(x_i) is invariant.

        Invariant here means what the ball kernel of the oracle needs: f
        maps every ball inside the sphere onto a ball of the same radius
        inside the sphere, so f is an isometry of the sphere onto itself.
        In that sense S_r(x1) is invariant iff r < alpha. S_r(x2) is
        invariant iff the map is in case 2 or 3 and r < alpha; in cases 4
        and 5 no sphere around x2 is invariant. Reads alpha_beta() and the
        case of _case_facts; no Classification is built.

        The weaker definition f(S) ⊆ S (Albeverio, Khrennikov, Tirozzi and
        De Smedt, "p-adic dynamical systems", Theor. Math. Phys. 114, 1998)
        can also admit the boundary sphere r = alpha. At p = 3, a = -9,
        c = -6 (alpha = 3^-1), f maps every point 3u of S_(3^-1)(0) into
        that sphere, but f is not an isometry there (v(f(3) - f(6)) = 2,
        v(3 - 6) = 1), so that sphere is not invariant here and ``ergodic``
        refuses it.
        """
        v_alpha, _ = self.alpha_beta()
        bound = -v_alpha
        return InvariantSpheres(bound, bound if self._case_facts()[0] in (2, 3) else None)

    def sphere_is_invariant(self, sphere: SphereSpec) -> bool:
        inv = self.invariant_spheres()
        if sphere.center == "x1":
            return sphere.radius_exponent < inv.x1_exponent_bound
        if inv.x2_exponent_bound is None:
            return False
        return sphere.radius_exponent < inv.x2_exponent_bound


# -- sphere sampling ---------------------------------------------------------


def sphere_units(p: int, count: int, seed: Optional[int] = None) -> list[Fraction]:
    """Deterministic p-adic units of small height; seeded random mode optional.

    Default: the first ``count`` positive integers coprime to p. With a
    seed: random fractions n/m with p coprime to both n and m.
    """
    if seed is None:
        out, k = [], 1
        while len(out) < count:
            if k % p:
                out.append(Fraction(k))
            k += 1
        return out
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 10**6) * rng.choice((1, -1))
        m_ = rng.randint(1, 10**6)
        if n % p and m_ % p:
            out.append(Fraction(n, m_))
    return out


def sphere_pairs(center: Fraction, p: int, e: int, units) -> list[tuple[int, int]]:
    """The points center + u * p**(-e) of S_{p**e}(center), u running over
    ``units``, as unreduced integer (numerator, denominator) pairs."""
    xn, xd = center.numerator, center.denominator
    sn, sd = (p ** -e, 1) if e <= 0 else (1, p ** e)  # p**(-e) = sn/sd
    return [(xn * sd * u.denominator + u.numerator * sn * xd, xd * sd * u.denominator)
            for u in units]


def _distance_exponent_pairs(p: int, xn: int, xd: int, yn: int, yd: int):
    """-v(x - y) for x = xn/xd and y = yn/yd given as unreduced pairs, or
    "-inf" when x = y."""
    diff = xn * yd - yn * xd
    return _int_valuation(xd * yd, p) - _int_valuation(diff, p) if diff else "-inf"


# -- orbits -------------------------------------------------------------------


@dataclass(frozen=True)
class PoleHitRecord:
    step: int
    point: Fraction


@dataclass(frozen=True)
class OrbitResult:
    """Iterates of f with per-step distance exponents to both fixed points.

    distance exponents: E with |x_k - x_i|_p = p**E; the string "-inf"
    stands for a difference that is zero (exact mode) or indistinguishable
    from zero at working precision (truncated mode).
    """

    mode: Literal["exact", "truncated"]
    points: tuple
    dist_x1_exponents: tuple
    dist_x2_exponents: tuple
    pole_hit: Optional[PoleHitRecord]

    @property
    def steps_completed(self) -> int:
        return len(self.points) - 1


#: Most bits that p**precision, counted as precision * p.bit_length(), may
#: have in a truncated orbit or 2-cycle. At the budget one orbit step took
#: 0.33-0.36 ms at p = 2 and 0.86-0.94 ms at p = 3, nearly all of it
#: big-integer products, their reductions mod p**precision and the
#: Newton-lifted inverse, and printing one iterate's digits 4-6 ms (4096
#: digits; Intel Xeon, Python 3.11).
PRECISION_BIT_BUDGET = 1 << 13


def _require_precision_budget(p: int, precision: int) -> None:
    """Refuse a truncated precision below 1 or whose p**precision is over budget."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if precision * p.bit_length() > PRECISION_BIT_BUDGET:
        raise ValueError(
            f"truncated precision {precision} needs {precision} digits of "
            f"{p.bit_length()} bits, over the budget of {PRECISION_BIT_BUDGET} bits; "
            f"the largest precision that fits is {PRECISION_BIT_BUDGET // p.bit_length()}"
        )


#: Most bits the numerator or the denominator of an exact orbit's iterate
#: may have. Heights roughly double per step; the highest 11-step orbit
#: from the small inputs x0 = n/d (|n| <= 9, d <= 3) of maps with integer
#: |a|, |c| <= 9 reaches 9,259 bits, and printing an integer of more than
#: about 14,280 bits (4300 decimal digits) is refused by Python.
EXACT_HEIGHT_BUDGET = 12_000

#: Most steps times precision bits (precision * p.bit_length(), counted as
#: at least ORBIT_STEP_MIN_BITS; an exact step counts as ORBIT_STEP_MIN_BITS)
#: that an orbit may ask for. Every step is kept and reported, so time and
#: memory grow with the product. At the budget, `orbit --p 3 --a -2 --c 1
#: --x0 5 --json` took 3.2-4.7 s and 162 MB for 65536 steps at 64 digits,
#: about 1 s of it the orbit and most of the rest printing the iterates'
#: digits, and 7.9-8.3 s and 147 MB for 1024 steps at 4096 digits (whole
#: process; Intel Xeon, Python 3.11).
ORBIT_STEP_BIT_BUDGET = 1 << 23

#: Below this many precision bits a step costs interpreter overhead, not
#: digits, so a step is counted as no cheaper than one at this precision.
ORBIT_STEP_MIN_BITS = 128


def _require_step_budget(steps: int, bits: int) -> None:
    """Refuse an orbit of ``steps`` steps of ``bits`` precision bits each
    whose product is over budget."""
    bits = max(bits, ORBIT_STEP_MIN_BITS)
    if steps * bits > ORBIT_STEP_BIT_BUDGET:
        raise ValueError(
            f"{steps} orbit steps of {bits} bits each are over the budget of "
            f"{ORBIT_STEP_BIT_BUDGET} step bits (steps times precision bits); "
            f"at most {ORBIT_STEP_BIT_BUDGET // bits} steps fit"
        )


def _height(x: Fraction) -> int:
    """Bits of the larger of x's numerator and denominator."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _height_loss(m: CanonicalMap) -> int:
    """L with _height(f(x)) >= 2 _height(x) - L for every rational x that
    is not a pole.

    With x = n/d, f(x) = A*n*d / (B*n^2 + C*n*d + A*d^2) (A = |an*cd|,
    B = ad*cd, C = |ad*cn|). The larger of the two forms is at least
    s*max(|n|, |d|)**2, s = min(A*B/(2A + C), A^2/(A + B + C)), and their
    common factor divides A^2*B. Bit lengths stand in for log2 at a cost
    of at most one bit each. At a pole n divides A and d divides B, so no
    x with _height(x) > L is a pole.
    """
    an, ad = m.a.numerator, m.a.denominator
    cn, cd = m.c.numerator, m.c.denominator
    A, B, C = abs(an * cd), ad * cd, abs(ad * cn)
    log_inv_s = max((2 * A + C).bit_length() - (A * B).bit_length(),
                    (A + B + C).bit_length() - (A * A).bit_length()) + 1
    return (A * A * B).bit_length() + log_inv_s + 1


def _certain_over_height_budget(x: Fraction, loss: int, steps: int) -> bool:
    """Whether an iterate within ``steps`` steps of x is sure to be over
    EXACT_HEIGHT_BUDGET, by _height(f(x)) - L >= 2 (_height(x) - L)."""
    bound = _height(x)
    for _ in range(steps):
        if bound <= loss:
            return False
        bound = 2 * bound - loss
        if bound > EXACT_HEIGHT_BUDGET:
            return True
    return False


def _exact_orbit(m: CanonicalMap, x0: Fraction, steps: int) -> Optional[OrbitResult]:
    """The exact orbit, or None once an iterate is, or is sure to be, over
    EXACT_HEIGHT_BUDGET."""
    loss = _height_loss(m)
    points, pole = [x0], None
    for k in range(steps):
        x = points[-1]
        if _height(x) > EXACT_HEIGHT_BUDGET or _certain_over_height_budget(x, loss, steps - k):
            return None
        try:
            x = m.eval(x)
        except PoleHitError:
            pole = PoleHitRecord(k, x)
            break
        points.append(x)
    if _height(points[-1]) > EXACT_HEIGHT_BUDGET:
        return None
    pairs = [(x.numerator, x.denominator) for x in points]
    d1 = tuple(_distance_exponent_pairs(m.p, *x, 0, 1) for x in pairs)
    d2 = tuple(_distance_exponent_pairs(m.p, *x, -m.c.numerator, m.c.denominator) for x in pairs)
    return OrbitResult("exact", tuple(points), d1, d2, pole)


def orbit(
    m: CanonicalMap,
    x0,
    steps: int,
    mode: Literal["auto", "exact", "truncated"] = "auto",
    precision: int = 64,
) -> OrbitResult:
    """Iterate f from x0 for ``steps`` steps, recording exact norm profiles.

    Exact mode keeps full rationals; their bit-size roughly doubles per step
    (degree-2 map), so no iterate may have a numerator or denominator of
    more than EXACT_HEIGHT_BUDGET bits (UnsupportedCaseError otherwise).
    Auto mode iterates exactly while every iterate fits that budget, and
    otherwise runs the whole orbit in truncated mode. Heights grow at least
    as 2h - L once over L (_height_loss), so an orbit sure to go over the
    budget leaves exact iteration as soon as that is certain. Truncated mode
    iterates in fixed-precision p-adic arithmetic: every recorded distance
    exponent is still exact (precision tracking is sound and indeterminate
    results raise PrecisionError rather than guessing). Its precision must
    fit PRECISION_BIT_BUDGET, and in every mode ``steps`` must fit
    ORBIT_STEP_BIT_BUDGET (ValueError otherwise, before any work).

    An iterate landing on a pole stops the orbit with a PoleHitRecord; the
    partial orbit is returned. In truncated mode only the exact start x0 can
    be recognized as a pole; a later truncated iterate near a pole makes the
    division indeterminate and raises PrecisionError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mode not in ("auto", "exact", "truncated"):
        raise ValueError(f"unknown orbit mode {mode!r}")
    p = m.p
    if mode == "exact":
        _require_step_budget(steps, ORBIT_STEP_MIN_BITS)
    else:
        # auto mode runs truncated at ``precision`` once an iterate is too high
        if precision < 4:
            raise ValueError("truncated orbit needs precision >= 4")
        _require_precision_budget(p, precision)
        _require_step_budget(steps, precision * p.bit_length())
    x0 = _coerce_fraction(x0)
    if mode != "truncated":
        result = _exact_orbit(m, x0, steps)
        if result is not None:
            return result
        if mode == "exact":
            raise UnsupportedCaseError(
                f"an exact iterate has more than {EXACT_HEIGHT_BUDGET} bits in its "
                f"numerator or denominator, over the exact-orbit height budget; "
                f"use truncated or auto mode"
            )
    t = TruncatedPadic.from_rational(x0, p, precision)
    v, u, n = t.valuation, t.unit, t.precision
    points = [t]
    d1 = ["-inf" if not u else -v]
    d2 = []  # each step gives the distance to x2 of the point it starts from
    try:
        m.eval(x0)  # x0 is exact: a pole at the start is decided as in exact mode
    except PoleHitError:
        d2.append(m._distance_x2_triple(v, u, n))
        return OrbitResult("truncated", tuple(points), tuple(d1), tuple(d2),
                           PoleHitRecord(0, x0))
    step = m._step_triple
    for k in range(steps):
        try:
            v, u, n, dist = step(v, u, n)
        except PrecisionError as exc:
            raise PrecisionError(
                f"orbit step {k + 1} became indeterminate at precision {precision}; "
                f"rerun with a higher precision ({exc})"
            ) from exc
        points.append(TruncatedPadic(p, v, u, n))
        d1.append("-inf" if not u else -v)
        d2.append(dist)
    d2.append(m._distance_x2_triple(v, u, n))
    return OrbitResult("truncated", tuple(points), tuple(d1), tuple(d2), None)
