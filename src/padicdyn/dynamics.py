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
    _verify,
)
from .padic import (
    INFINITY,
    TruncatedPadic,
    Valuation,
    _add_triples,
    _coerce_digits,
    _coerce_fraction,
    _div_triples,
    _fraction_valuation,
    _mul_triples,
    _unit_residue,
    hensel_sqrt,
    is_prime,
    is_square,
    rational_sqrt,
)

__all__ = [
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
    "sphere_points",
    "sphere_units",
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
    """S_r(x_i) is invariant iff radius_exponent < the recorded bound
    (None: no invariant sphere around that point)."""

    x1_exponent_bound: int
    x2_exponent_bound: Optional[int]


@dataclass(frozen=True, slots=True, repr=False)
class CanonicalMap:
    """f(x) = a*x/(x^2 + c*x + a) with a*c != 0 over Q_p."""

    p: int
    a: Fraction
    c: Fraction
    _ab: Optional[tuple[int, int]] = field(default=None, init=False, compare=False)
    _cls: Optional[Classification] = field(default=None, init=False, compare=False)
    _coef: Optional[tuple] = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        for name in "ac":
            object.__setattr__(self, name, _coerce_fraction(getattr(self, name)))
        if self.a == 0:
            raise DegenerateMapError("a must be nonzero")
        if self.c == 0:
            raise DegenerateMapError("c must be nonzero")

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

    def discriminant_is_square(self) -> bool:
        d = self.discriminant
        return True if d == 0 else is_square(d, self.p)

    def poles(self, precision: int = 24) -> PolePair:
        d = self.discriminant
        s = rational_sqrt(d) if d >= 0 else None
        if s is not None:
            return PolePair("rational", ((-self.c + s) / 2, (-self.c - s) / 2))
        if not is_square(d, self.p):
            return PolePair("absent", ())
        sq = hensel_sqrt(d, precision, self.p)
        half = Fraction(1, 2)
        return PolePair("truncated", ((sq - self.c) * half, (-sq - self.c) * half))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value of f(x); raises PoleHitError on the denominator's roots.

        With x = xn/xd, a = an/ad and c = cn/cd, f(x) is
        an*cd*xn*xd / (ad*cd*xn^2 + ad*cn*xn*xd + an*cd*xd^2), reduced once.
        """
        x = _coerce_fraction(x)
        xn, xd = x.numerator, x.denominator
        an, ad = self.a.numerator, self.a.denominator
        cn, cd = self.c.numerator, self.c.denominator
        den = ad * xn * (cd * xn + cn * xd) + an * cd * xd * xd
        if den == 0:
            raise PoleHitError(x)
        return Fraction(an * cd * xn * xd, den)

    def eval_truncated(self, t: TruncatedPadic) -> TruncatedPadic:
        """f(t) in truncated arithmetic, digit for digit equal to the
        operator composition t*a / (t*t + t*c + a)."""
        if t.prime != self.p:
            raise PrimeMismatchError(f"mixed primes {self.p} and {t.prime}")
        return TruncatedPadic(self.p, *self._step_triple(t.valuation, t.unit, t.precision))

    # -- integer orbit kernel --------------------------------------------------
    #
    # Truncated iterates travel as (valuation, unit, precision) triples (see
    # padic._add_triples). The exact coefficients a and c enter each step
    # truncated to the digit count TruncatedPadic's operators would give them;
    # their valuations are computed once per map, their unit residues once
    # per digit count.

    def _operand(self, index: int, min_absprec, precision: int) -> tuple:
        """Triple of a (index 0) or c (index 1) as an operand next to a value
        of the given absolute precision and digit count (INFINITY: in a
        product)."""
        coef = self._coef
        if coef is None:
            p = self.p
            coef = tuple((_fraction_valuation(x, p), x, {}) for x in (self.a, self.c))
            object.__setattr__(self, "_coef", coef)
        v, frac, residues = coef[index]
        digits = _coerce_digits(v, min_absprec, precision)
        if digits is None:
            return v, 0, 0
        unit = residues.get(digits)
        if unit is None:
            unit = residues[digits] = _unit_residue(frac, self.p, self.p ** digits)
        return v, unit, digits

    def _step_triple(self, v, u: int, n: int) -> tuple:
        """One step of f on a triple: (t*t + t*c) + a, t*a, one division."""
        p = self.p
        tt = _mul_triples(p, v, u, n, v, u, n)
        tc = _mul_triples(p, v, u, n, *self._operand(1, INFINITY, n))
        sv, su, sn = _add_triples(p, *tt, *tc)
        den = _add_triples(p, sv, su, sn, *self._operand(0, sv + sn, sn))
        num = _mul_triples(p, v, u, n, *self._operand(0, INFINITY, n))
        return _div_triples(p, *num, *den)

    def _distance_x2_triple(self, v, u: int, n: int):
        """Distance exponent of a triple t to x2 = -c: the valuation of t + c."""
        dv, du, _ = _add_triples(self.p, v, u, n, *self._operand(1, v + n, n))
        return -dv if du else "-inf"

    def derivative(self, x) -> Fraction:
        """Exact f'(x) = a*(a - x^2)/(x^2 + c*x + a)^2; raises PoleHitError on
        the denominator's roots.

        In integers, as in eval:
        an*cd^2*xd^2*(an*xd^2 - ad*xn^2) / (ad*xn*(cd*xn + cn*xd) + an*cd*xd^2)^2.
        """
        x = _coerce_fraction(x)
        xn, xd = x.numerator, x.denominator
        an, ad = self.a.numerator, self.a.denominator
        cn, cd = self.c.numerator, self.c.denominator
        den = ad * xn * (cd * xn + cn * xd) + an * cd * xd * xd
        if den == 0:
            raise PoleHitError(x)
        return Fraction(an * (cd * xd) ** 2 * (an * xd * xd - ad * xn * xn), den * den)

    def multiplier_x2(self) -> Fraction:
        """f'(-c) = 1 - c^2/a."""
        return 1 - self.c * self.c / self.a

    def center_point(self, center: CenterKind) -> Fraction:
        return self.x1 if center == "x1" else self.x2

    # -- pole norms ------------------------------------------------------------

    def alpha_beta(self) -> tuple[int, int]:
        """(v_alpha, v_beta) with alpha = p**(-v_alpha), beta = p**(-v_beta).

        Newton polygon of x^2 + c*x + a: when 2*v(c) < v(a) the root
        valuations are v(c) and v(a) - v(c); otherwise both equal v(a)/2,
        and v(a) must then be even for the roots to have norms in p**Z.
        Cross-checked against |a|_p = alpha*beta and the |c|_p relations.
        """
        cached = self._ab
        if cached is not None:
            return cached
        va = _fraction_valuation(self.a, self.p)
        vc = _fraction_valuation(self.c, self.p)
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
        # alpha <= beta, |a| = alpha*beta, and the |c| constraints
        _verify(v_alpha >= v_beta and v_alpha + v_beta == va
                and ((vc >= v_alpha) if v_alpha == v_beta else (vc == v_beta)),
                f"pole valuations ({v_alpha}, {v_beta}) contradict v(a) = {va}, v(c) = {vc}")
        object.__setattr__(self, "_ab", (v_alpha, v_beta))
        return v_alpha, v_beta

    # -- classification --------------------------------------------------------

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
        """
        cached = self._cls
        if cached is not None:
            return cached
        v_alpha, v_beta = self.alpha_beta()
        p = self.p
        mult = self.multiplier_x2()
        mv = _fraction_valuation(mult, p)
        x1_report = FixedPointReport(
            point=self.x1,
            multiplier=Fraction(1),
            multiplier_norm_exponent=0,
            kind="indifferent",
            region=Region("siegel_disk", self.x1, -v_alpha),
            case=1,
        )
        vc = _fraction_valuation(self.c, p)
        if v_alpha > v_beta:
            _verify(mv == v_beta - v_alpha < 0,
                    f"case 5 needs |f'(x2)| = beta/alpha > 1, got v = {mv}")
            case, kind, region = 5, "repelling", Region("repelling_ball", self.x2, -v_beta)
        elif vc > v_alpha:
            _verify(mv == 0, f"case 2 needs |f'(x2)| = 1, got v = {mv}")
            case, kind, region = 2, "indifferent", Region("siegel_disk", self.x1, -v_alpha)
        else:
            # |c| = alpha = beta; split on |a - c^2| vs alpha^2
            gap = self.a - self.c * self.c
            gv = _fraction_valuation(gap, p)
            _verify(gv >= 2 * v_alpha, f"|a - c^2| exceeds alpha^2 (v = {gv})")
            if gv == 2 * v_alpha:
                _verify(mv == 0, f"case 3 needs |f'(x2)| = 1, got v = {mv}")
                case, kind, region = 3, "indifferent", Region("siegel_disk", self.x2, -v_alpha)
            else:
                # mv is INFINITY when a = c^2 (superattracting)
                _verify(mv > 0, f"case 4 needs |f'(x2)| < 1, got v = {mv}")
                case, kind, region = 4, "attracting", Region("basin", self.x2, -v_alpha)
        # cases 2, 3 and 5 have a finite mv, so only case 4 can be superattracting
        x2_report = FixedPointReport(self.x2, mult, mv, kind, region, case,
                                     superattracting=(mult == 0))
        result = Classification(case, x1_report, x2_report)
        object.__setattr__(self, "_cls", result)
        return result

    def invariant_spheres(self) -> InvariantSpheres:
        """Exponent bounds below which S_r(x_i) is invariant.

        S_r(x1) is invariant iff r < alpha. S_r(x2) is invariant iff the
        map is in case 2 or 3 and r < alpha; in cases 4 and 5 no sphere
        around x2 is invariant.
        """
        v_alpha, _ = self.alpha_beta()
        case = self.classify().case
        bound = -v_alpha
        return InvariantSpheres(bound, bound if case in (2, 3) else None)

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


def sphere_points(
    m: CanonicalMap, sphere: SphereSpec, count: int = 32, seed: Optional[int] = None
) -> list[Fraction]:
    """Points center + u * p**(-e) on S_{p**e}(x_i), u running over units.

    (|x - center|_p = p**e means v(x - center) = -e.)
    """
    center = m.center_point(sphere.center)
    scale = Fraction(m.p) ** -sphere.radius_exponent
    return [center + u * scale for u in sphere_units(m.p, count, seed)]


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
#: have in a truncated orbit or 2-cycle; a step's modular inverse takes time
#: quadratic in them.
PRECISION_BIT_BUDGET = 1 << 13


def _require_precision_budget(p: int, precision: int) -> None:
    """Refuse a truncated precision whose modulus p**precision is over budget."""
    if precision * p.bit_length() > PRECISION_BIT_BUDGET:
        raise ValueError(
            f"truncated precision {precision} needs {precision} digits of "
            f"{p.bit_length()} bits, over the budget of {PRECISION_BIT_BUDGET} bits; "
            f"the largest precision that fits is {PRECISION_BIT_BUDGET // p.bit_length()}"
        )


def _distance_exponent_exact(x: Fraction, center: Fraction, p: int):
    v = _fraction_valuation(x - center, p)
    return "-inf" if v is INFINITY else -v


def orbit(
    m: CanonicalMap,
    x0,
    steps: int,
    mode: Literal["auto", "exact", "truncated"] = "auto",
    precision: int = 64,
) -> OrbitResult:
    """Iterate f from x0 for ``steps`` steps, recording exact norm profiles.

    Exact mode keeps full rationals; their bit-size roughly doubles per step
    (degree-2 map), so it is restricted to short orbits. Truncated mode
    iterates in fixed-precision p-adic arithmetic: every recorded distance
    exponent is still exact (precision tracking is sound and indeterminate
    results raise PrecisionError rather than guessing). Its precision must
    fit PRECISION_BIT_BUDGET (ValueError otherwise).

    An iterate landing on a pole stops the orbit with a PoleHitRecord; the
    partial orbit is returned. In truncated mode only the exact start x0 can
    be recognized as a pole; a later truncated iterate near a pole makes the
    division indeterminate and raises PrecisionError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mode == "auto":
        mode = "exact" if steps <= 24 else "truncated"
    x0 = _coerce_fraction(x0)
    if mode == "exact":
        centers = (m.x1, m.x2)
        points = [x0]
        d1 = [_distance_exponent_exact(x0, centers[0], m.p)]
        d2 = [_distance_exponent_exact(x0, centers[1], m.p)]
        pole = None
        x = x0
        for k in range(steps):
            try:
                x = m.eval(x)
            except PoleHitError:
                pole = PoleHitRecord(k, x)
                break
            points.append(x)
            d1.append(_distance_exponent_exact(x, centers[0], m.p))
            d2.append(_distance_exponent_exact(x, centers[1], m.p))
        return OrbitResult("exact", tuple(points), tuple(d1), tuple(d2), pole)
    if precision < 4:
        raise ValueError("truncated orbit needs precision >= 4")
    p = m.p
    _require_precision_budget(p, precision)
    t = TruncatedPadic.from_rational(x0, p, precision)
    v, u, n = t.valuation, t.unit, t.precision
    points = [t]
    d1 = ["-inf" if not u else -v]
    d2 = [m._distance_x2_triple(v, u, n)]
    try:
        m.eval(x0)  # x0 is exact: a pole at the start is decided as in exact mode
    except PoleHitError:
        return OrbitResult("truncated", tuple(points), tuple(d1), tuple(d2),
                           PoleHitRecord(0, x0))
    for k in range(steps):
        try:
            v, u, n = m._step_triple(v, u, n)
        except PrecisionError as exc:
            raise PrecisionError(
                f"orbit step {k + 1} became indeterminate at precision {precision}; "
                f"rerun with a higher precision ({exc})"
            ) from exc
        points.append(TruncatedPadic(p, v, u, n))
        d1.append("-inf" if not u else -v)
        d2.append(m._distance_x2_triple(v, u, n))
    return OrbitResult("truncated", tuple(points), tuple(d1), tuple(d2), None)
