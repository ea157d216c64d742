"""Ergodicity of f(x) = a*x/(x^2+c*x+a) on its invariant spheres.

On every invariant sphere f is an isometry moving each point by the same
distance rho(r). Three independent deciders are provided and cross-checked:

  * ergodicity_theorem: rules on the unit form's integers (for p >= 3 a
    sphere around x2 is ergodic iff f'(x2) topologically generates Z_p^*,
    and no other sphere is; for p = 2 the sphere S_r(0) is ergodic iff
    v(t1) = 1 and v(t2) >= 2, which is the paper's |c|_2 = beta and
    r = alpha/2, and no sphere around x2 is);
  * mod4_criterion: the odd/even coefficient-sum test mod 4 applied to f
    on the sphere's unit coordinate (p = 2, spheres around x1);
  * residue_cycle_oracle: brute-force cycle structure of the induced
    permutations of residue balls, level by level. One integer pass of f on
    the unit coordinate at the deepest level p^L gives every level, each a
    list indexed by residue, each coarser one the reduction of the finer
    list. The pass computes no modular inverse per ball: the gate puts
    every denominator of f's unit form in the group 1 + pZ, and one table
    of that group's inverses mod p^L is built per call. Exact evaluation
    of f anchors the first balls of the pass.

rescale_to_unit is the one place that writes f on a sphere's unit
coordinate and decides which spheres the checks apply to. It returns a
UnitForm, and every sphere reader takes that record instead of the map and
the sphere, so no reader can be reached past the gate: ergodicity_theorem
reads p, the centre, v(t1), v(t2) and f'(x2) off it, rho and the sampled
checks its integer valuations, the mod-4 test and the ball kernel its
coefficients. decide_ergodicity builds one form per request. Every exact
check runs on integer numerators and denominators, with
CanonicalMap._eval_pair (not eval) on unreduced pairs, and the mod-4 test
scales each polynomial to integer coefficients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Optional

from .dynamics import CanonicalMap, SphereSpec, _distance_exponent_pairs, sphere_pairs, sphere_units
from .errors import NotApplicableError, VerificationError, _verify
from .padic import (  # noqa: F401 - perfbench's tracer test asserts _unit_residue is bound here
    _fraction_valuation,
    _horner,
    _int_valuation,
    _prime_factors,
    _unit_residue,
)

__all__ = [
    "ORACLE_BALL_BUDGET",
    "ErgodicityDecision",
    "ErgodicityVerdict",
    "IsometryReport",
    "Mod4Sums",
    "Mod4Verdict",
    "OracleLevel",
    "OracleResult",
    "UnitForm",
    "decide_ergodicity",
    "ergodicity_theorem",
    "mod4_criterion",
    "residue_cycle_oracle",
    "rescale_to_unit",
    "rho",
    "sampled_checks",
]


def _require_invariant(m: CanonicalMap, sphere: SphereSpec):
    if not m.sphere_is_invariant(sphere):
        bound = m.invariant_spheres()
        limit = bound.x1_exponent_bound if sphere.center == "x1" else bound.x2_exponent_bound
        if limit is None:
            detail = f"no sphere around {sphere.center} is invariant for this map"
        else:
            detail = f"requires radius exponent < {limit}"
        raise NotApplicableError(
            f"S_(p^{sphere.radius_exponent})({sphere.center}) is not invariant: {detail}"
        )


# -- the map on a sphere's unit coordinate -------------------------------------------
#
# On S_r(x_i), r = p^e, write x = x_i + s*u with s = p^-e, so that u runs over
# the units of Z_p. Dividing f(x) - x_i by s gives the map on u:
#
#   around x1:  w = u / (1 + t1*u + t2*u^2)
#   around x2:  w = u*(lam + t1*u) / (1 - t1*u + t2*u^2)
#
# with t1 = c*s/a, t2 = s^2/a and lam = f'(x2) = 1 - c^2/a. When p divides t1
# and t2 and lam is a unit, the denominator is 1 mod p and w is a unit, so
# w mod p^k depends on u mod p^k alone: f maps the ball of index u mod p^k
# onto the ball of index w mod p^k, and the level-k permutation is the
# reduction mod p^k of every deeper one.


@dataclass(frozen=True)
class UnitForm:
    """f on an invariant sphere's unit coordinate, as rescale_to_unit builds
    it: v1 = v(t1) and v2 = v(t2), and the coefficients (low to high) of the
    numerator and the denominator of w, all p-integral. Around x2,
    lam = f'(x2) is numerator[1]."""

    m: CanonicalMap
    sphere: SphereSpec
    v1: int
    v2: int
    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]


def rescale_to_unit(m: CanonicalMap, sphere: SphereSpec) -> UnitForm:
    """Conjugate f on ``sphere`` onto the units of Z_p (see above): the form
    with numerator (0, 1) and denominator (1, t1, t2) around x1, (0, lam, t1)
    and (1, -t1, t2) around x2. This is the gate of every sphere check.

    NotApplicableError when the sphere is not invariant, otherwise
    VerificationError naming those of v(t1) >= 1, v(t2) >= 1 and v(lam) = 0
    that fail: the two decisions of invariance disagree. When they hold, the
    map sends residue balls to residue balls. The valuations
    v(t1) = v(c) - v(a) - e and v(t2) = -v(a) - 2e are read off the map's
    ``va`` and ``vc``; v(lam) is 0 around x1, and around x2 lam and v(lam)
    are f'(x2) and its valuation from the map's case facts, without building
    a classification. The conditions also make |a - x*y| = |a| for
    x = x_i + s*u, y = x_i + s*u': a - x*y is a*(1 - t2*u*u') around x1 and
    a*(lam + t1*(u + u') - t2*u*u') around x2.
    """
    _require_invariant(m, sphere)
    p, e, c = m.p, sphere.radius_exponent, m.c
    v1, v2 = m.vc - m.va - e, -m.va - 2 * e
    lam, vl = (None, 0) if sphere.center == "x1" else m._case_facts()[1:]
    if v1 < 1 or v2 < 1 or vl != 0:  # the message is built only on failure
        failed = ", ".join(text for holds, text in (
            (v1 >= 1, f"v(t1) = {v1} < 1"), (v2 >= 1, f"v(t2) = {v2} < 1"),
            (vl == 0, f"v(f'(center)) = {vl} != 0")) if not holds)
        raise VerificationError(f"balls of invariant {sphere} do not map to balls: {failed}")
    # t1 = c*s/a and t2 = s^2/a on the integers of s = sn/sd, c and a
    sn, sd = (p ** -e, 1) if e <= 0 else (1, p ** e)
    an, ad = m.a.numerator, m.a.denominator
    t1 = Fraction(c.numerator * sn * ad, c.denominator * sd * an)
    t2 = Fraction(sn * sn * ad, sd * sd * an)
    if lam is not None:
        return UnitForm(m, sphere, v1, v2, (Fraction(0), lam, t1),
                        (Fraction(1), -t1, t2))
    return UnitForm(m, sphere, v1, v2, (Fraction(0), Fraction(1)), (Fraction(1), t1, t2))


# -- displacement -------------------------------------------------------------


def rho(form: UnitForm) -> int:
    """Exponent of the common displacement |f(x)-x|_p on an invariant sphere.

    For spheres around x1 = 0 (radius r = p**e, r != |c|):
        r < |c|:  rho = r^2 |c| / (alpha*beta)
        r > |c|:  rho = r^3 / (alpha*beta)
    Around x2: in the |c| = alpha = beta regime rho = r. In the
    |c| < alpha = beta regime the sphere coincides with S_r(0) when
    r > |c| (same formula); when r < |c| every point has |x| = |c| and
    rho = r |c|^2 / (alpha*beta). r = |c| is excluded: the displacement is
    then point-dependent (NotApplicableError).

    One rule gives them all. With N = (0, n1[, n2]) and D = (1, d1, d2) the
    unit form of rescale_to_unit, f(x) - x = s*u*g(u)/D(u) with s = p^-e and
    g(u) = (n1 - 1) + (n2 - d1)*u - d2*u^2, where u and D(u) are units. When
    exactly one coefficient of g has the least valuation, v(g(u)) is that
    valuation for every unit u, and rho is e minus it; two tie iff r = |c|.
    The rule reads the form's integer valuations v1 and v2.
    """
    expected = _displacement_rule(form)
    if expected is None:
        raise NotApplicableError("rho is undefined on the sphere of radius |c| = "
                                 f"p^{form.sphere.radius_exponent}; "
                                 "the displacement varies with the point")
    return expected


def _displacement_rule(form: UnitForm) -> Optional[int]:
    """rho's rule on v(t1), v(t2); None where two coefficients of g tie: g is
    -t1*u - t2*u^2 around x1 and -t1^2/t2 + 2*t1*u - t2*u^2 around x2."""
    v1, v2, sphere = form.v1, form.v2, form.sphere
    vs = (v1, v2) if sphere.center == "x1" else (2 * v1 - v2, v1 + (form.m.p == 2), v2)
    least, second = sorted(vs)[:2]
    return sphere.radius_exponent - least if least < second else None


# -- sampled checks ----------------------------------------------------------------
#
# A draw of samples is _sample's: units u from sphere_units, the points
# x = x_i + u*s (s = p^-e) from sphere_pairs and their images from
# CanonicalMap._eval_pair, all unreduced integer pairs; a Fraction is built
# only for a message or a counterexample. sampled_checks, which ``ergodic``
# runs, makes both checks on one draw and one unit form of f. verify_rho and
# isometry_check make one check each; the library does not call them, so
# they are not in __all__; the tests and perfbench's tracer call them as the
# single checks.


def _sample(form: UnitForm, count: int, seed: Optional[int]):
    """(units, points, images) of ``count`` samples of the sphere, the points
    and images as integer pairs."""
    m, sphere = form.m, form.sphere
    units = sphere_units(m.p, count, seed)
    points = sphere_pairs(m.center_point(sphere.center), m.p, sphere.radius_exponent, units)
    return units, points, [m._eval_pair(*x) for x in points]


def _check_displacements(p: int, expected: int, points, images) -> None:
    for x, fx in zip(points, images):
        if (got := _distance_exponent_pairs(p, *fx, *x)) != expected:
            x = Fraction(*x)
            raise VerificationError(f"displacement mismatch at x={x}: p^{got} != p^{expected}",
                                    counterexample=x)


def verify_rho(form: UnitForm, count: int = 32, seed: Optional[int] = None) -> int:
    """Assert |f(x)-x|_p = p**rho(r) on sampled points; returns sample count."""
    _check_displacements(form.m.p, rho(form), *_sample(form, count, seed)[1:])
    return count


@dataclass(frozen=True)
class IsometryReport:
    pairs_checked: int


def isometry_check(form: UnitForm, count: int = 32,
                   seed: Optional[int] = None) -> IsometryReport:
    """Verify |f(x)-f(y)|_p = |x-y|_p and |a - x*y|_p = |a|_p exactly on all
    count*(count-1)/2 sampled pairs, in time linear in the count.

    A sample is x = x_i + s*u with s = p^-e; its image coordinate
    w = (f(x) - f(x_0))/s is read off exact values of f. The metric is
    ultrametric, so f is an isometry on the samples iff every w is
    p-integral and at every level k "same residue mod p^k" is the same
    equivalence relation on the u's as on the w's, up to the level where
    every class is a singleton. Equal samples count as one point.

    The gate that built the form makes |a - x*y| = |a| for every pair (see
    rescale_to_unit). Raises VerificationError with the first violating pair
    in sample order, which a pair scan finds once the level check has failed.
    """
    return _check_isometry(form.m.p, form.sphere.radius_exponent, *_sample(form, count, seed))


def sampled_checks(form: UnitForm, count: int = 32, seed: Optional[int] = None
                   ) -> tuple[Optional[int], IsometryReport]:
    """verify_rho and isometry_check on one draw of ``count`` samples and
    one unit form of f, with one evaluation of f per sample.

    Returns the exponent rho(r), or None on the sphere of radius |c|, where
    the displacement varies with the point and is not checked, and the
    isometry report. The displacement is checked first; each check raises
    what isometry_check and verify_rho raise.
    """
    expected = _displacement_rule(form)
    units, points, images = _sample(form, count, seed)
    p = form.m.p
    if expected is not None:
        _check_displacements(p, expected, points, images)
    return expected, _check_isometry(p, form.sphere.radius_exponent, units, points, images)


def _check_isometry(p: int, e: int, units, points, images) -> IsometryReport:
    """The level check of isometry_check on drawn samples (see there)."""
    f0n, f0d = images[0]
    # the difference f(x) - f(x_0) as an integer pair: w = (dn/dd) * p^e
    pairs = dict(zip(units, ((fn * f0d - f0n * fd, fd * f0d) for fn, fd in images)))
    # distinct units u, u' differ by a numerator below 2h^2 over a unit, so
    # they differ mod top; level k compares the partitions by u and by w mod
    # p^k with the one by both, and classes of one point drop out
    h = max(max(abs(u.numerator), u.denominator) for u in pairs)
    top = p ** ((2 * h * h).bit_length() // (p.bit_length() - 1) + 1)
    keys = []
    for u, (dn, dd) in pairs.items():
        # w = dn / (unit * p^j) with unit = dd / p^v(dd) and j = v(dd) - e
        v = _int_valuation(dd, p)
        unit, j = dd // p ** v, v - e
        if j <= 0:
            wn = dn * p ** -j
        else:
            wn, rest = divmod(dn, p ** j)
            if rest:  # level 0: w is not p-integral
                keys = None
                break
        keys.append((_residue(u, top), wn * pow(unit, -1, top) % top))
    isometric, mod = keys is not None, 1
    while isometric and keys:
        mod *= p
        level = [(ku % mod, kw % mod) for ku, kw in keys]
        isometric = len(set(level)) == len({ku for ku, _ in level}) == len({kw for _, kw in level})
        sizes = Counter(ku for ku, _ in level)
        keys = [key for key, (ku, _) in zip(keys, level) if sizes[ku] > 1]
    if not isometric:
        _scan_pairs(p, points, images)
    return IsometryReport(len(points) * (len(points) - 1) // 2)


def _scan_pairs(p: int, points, images) -> None:
    """VerificationError with the first pair of samples, in sample order,
    whose images are not as far apart as the samples (on Fractions)."""
    points = [Fraction(*x) for x in points]
    images = [Fraction(*fx) for fx in images]
    for i, (x, fx) in enumerate(zip(points, images)):
        for y, fy in zip(points[i + 1:], images[i + 1:]):
            lhs, rhs = _fraction_valuation(fx - fy, p), _fraction_valuation(x - y, p)
            if lhs != rhs:
                raise VerificationError(f"isometry violated for x={x}, y={y}: "
                                        f"v={lhs} != {rhs}", counterexample=(x, y))


# -- residue-ball permutations ---------------------------------------------------


def _residue(x: Fraction, mod: int) -> int:
    """x mod ``mod`` (a power of p) for an x whose denominator is prime to p."""
    return x.numerator * pow(x.denominator, -1, mod) % mod


#: Balls whose kernel image is checked against exact evaluation of f.
_ANCHOR_BALLS = 8


def _inverse_table(p: int, mod: int) -> list[int]:
    """The inverses of the group 1 + pZ mod ``mod`` (a power of p), as a list
    read at x: x^-1 mod ``mod`` for every x = 1 (mod p), and 0 for every
    other x < mod.

    The group is cyclic, generated by 1 + p, for odd p, and it is
    {1, -1} x <5> for p = 2. Its powers g^0 ... g^(N-1) take one
    multiplication each, and g^(N-i) is the inverse of g^i.
    """
    g, n = (5, max(mod // 4, 1)) if p == 2 else (1 + p, mod // p)
    powers = [1]
    while len(powers) < n:  # g^j for j < 2*len from g^j for j < len
        step = powers[-1] * g % mod
        powers += [x * step % mod for x in powers]
    del powers[n:]
    inverses = powers[:1] + powers[:0:-1]
    table = [0] * mod
    for x, y in zip(powers, inverses):
        table[x] = y
    if p == 2:  # -x has the inverse -x^-1
        for x, y in zip(powers, inverses):
            table[mod - x] = mod - y
    return table


def _ball_permutation(form: UnitForm, level: int) -> list[int]:
    """The permutation f induces on radius-r*p^-level balls of the sphere.

    Balls are indexed by unit residues u mod p**level; the ball of index u
    is V_(r*p^-level)(center + u*p^-e). The result is a list of length
    p**level that reads the image index at every unit u and 0 at every
    other index. The images come from the form's coefficients, reduced
    mod p**level once, and from one _inverse_table: the gate of
    rescale_to_unit makes v(t1) >= 1 and v(t2) >= 1, so every denominator
    1 + d1*u + d2*u^2 is 1 mod p and lies in the table's group. A kernel
    for spheres past that gate must not read the table. An entry the table
    lacks reads 0 and sends its ball off the sphere.
    Every image is checked to be a unit and the map to be a bijection; the
    first _ANCHOR_BALLS images are checked against exact evaluation of f at
    two representatives each. The anchors evaluate f
    with CanonicalMap's integer form of it, from a and c themselves, and
    take the image's valuation and unit residue on integers, so they share
    nothing with the kernel. Any failure raises VerificationError.
    """
    m, sphere = form.m, form.sphere
    p, e = m.p, sphere.radius_exponent
    mod = p ** level
    # w = u*(n1 + n2*u) / (1 + d1*u + d2*u^2); around x1 the numerator is u
    n1, n2 = ([_residue(x, mod) for x in form.numerator[1:]] + [0])[:2]
    _, d1, d2 = (_residue(x, mod) for x in form.denominator)
    inverse = _inverse_table(p, mod)
    perm = [0] * mod
    for r in range(1, p):  # the units, one residue class mod p at a time
        perm[r::p] = [u * (n1 + n2 * u) * inverse[(1 + (d1 + d2 * u) * u) % mod] % mod
                      for u in range(r, mod, p)]
    images = set(perm)
    # the non-units read 0, so every unit image is a unit iff 0 occurs
    # mod/p times and no other multiple of p occurs
    if perm.count(0) != mod // p or not images.isdisjoint(range(p, mod, p)):
        left = next(u for u, w in enumerate(perm) if u % p and not w % p)
        raise VerificationError(f"image left the sphere at ball u={left}", counterexample=left)
    _verify(len(images) == mod - mod // p + 1,
            f"induced ball map at level {level} is not a permutation")
    # the centre is xn/xd and s = p^-e is sn/sd; the point of rep is
    # (xn*sd + rep*sn*xd)/(xd*sd), and its image coordinate
    # w = (f(x) - xn/xd)/s = ((num*xd - xn*den)*sd) / (den*xd*sn)
    xn, xd = (0, 1) if sphere.center == "x1" else (-m.c.numerator, m.c.denominator)
    sn, sd = (p ** -e, 1) if e <= 0 else (1, p ** e)
    for u in islice((u for u in range(1, mod) if u % p), _ANCHOR_BALLS):
        for rep in (u, u + mod):
            num, den = m._eval_pair(xn * sd + rep * sn * xd, xd * sd)
            wn, wd = (num * xd - xn * den) * sd, den * xd * sn
            pv = p ** _int_valuation(wd, p)
            _verify(wn % pv == 0 and wn // pv % p != 0,  # v(wn) = v(wd): w is a unit
                    f"image left the sphere at ball u={u}", rep)
            exact = wn // pv * pow(wd // pv, -1, mod) % mod
            _verify(exact == perm[u],
                    f"kernel image {perm[u]} of ball u={u} differs from the exact "
                    f"image {exact}", rep)
    return perm


def _cycle_lengths(perm: list[int]) -> list[int]:
    """Cycle lengths, longest first, of a permutation of the units mod
    len(perm), given as a list that reads 0 at every non-unit."""
    seen = bytearray(len(perm))
    lengths = []
    for start, w in enumerate(perm):
        if w and not seen[start]:
            n, u = 0, start
            while not seen[u]:
                seen[u] = 1
                u = perm[u]
                n += 1
            lengths.append(n)
    return sorted(lengths, reverse=True)


@dataclass(frozen=True)
class OracleLevel:
    level: int
    ball_count: int
    cycle_count: int
    cycle_lengths: tuple[int, ...]


@dataclass(frozen=True)
class OracleResult:
    depth: int
    levels: tuple[OracleLevel, ...]
    ergodic: bool  # single cycle at every inspected level

    def to_csv(self) -> str:
        rows = ["level,ball_count,cycle_count,cycle_lengths"]
        for lv in self.levels:
            rows.append(
                f"{lv.level},{lv.ball_count},{lv.cycle_count},"
                f"{';'.join(map(str, lv.cycle_lengths))}"
            )
        return "\n".join(rows) + "\n"


#: Most residue balls the oracle visits over all its levels together.
ORACLE_BALL_BUDGET = 1 << 20


def residue_cycle_oracle(form: UnitForm, depth: Optional[int] = None) -> OracleResult:
    """Brute-force cycle structure of the induced ball permutations.

    For each level k = 1..depth the sphere splits into (p-1)*p^(k-1) balls
    of radius r*p^-k; f permutes them (checked). The system is ergodic iff
    the permutation is a single cycle at every level. The levels hold
    p^depth - 1 balls in all, which must not exceed ORACLE_BALL_BUDGET;
    the default depth is 8 for p = 2 and 5 otherwise, lowered to the
    largest depth that fits.

    The kernel runs once, at ``depth``, and returns a list (see
    _ball_permutation). Level k is read off level k + 1: reduced mod p^k,
    the finer list's first p^k entries are level k, and each of its p - 1
    upper slices of p^k entries must equal them, that is, every finer ball
    maps into the image of its parent ball (checked). Cycle lengths are
    walked on each level's list.
    """
    p = form.m.p
    fits = 1
    while p ** (fits + 1) - 1 <= ORACLE_BALL_BUDGET:
        fits += 1
    if depth is None:
        depth = min(8 if p == 2 else 5, max(fits, 2))
    if depth < 2:
        raise ValueError("oracle depth must be >= 2")
    if depth > fits:
        hint = (f"the largest depth that fits is {fits}" if fits >= 2
                else f"no depth >= 2 fits for p = {p}")
        raise ValueError(
            f"oracle depth {depth} needs {p}^{depth} - 1 balls, over the budget of "
            f"{ORACLE_BALL_BUDGET}; {hint}"
        )
    perm = _ball_permutation(form, depth)
    levels = []
    for k in range(depth, 0, -1):
        mod = p ** k
        if k < depth:
            finer = [w % mod for w in perm]
            perm = finer[:mod]
            if any(finer[j * mod:(j + 1) * mod] != perm for j in range(1, p)):
                stray = next(u for u, w in enumerate(finer) if w != perm[u % mod])
                raise VerificationError(
                    f"induced ball map not well defined at level {k}: ball u={stray}",
                    counterexample=stray)
            # No permutation check is needed here. The finer level is a
            # bijection of the units mod p^(k+1) (checked at the deepest
            # level, and by this argument at the others), and this level is
            # its well-defined reduction: a unit v mod p^k lifts to a unit
            # v', the image of some finer ball u', so v is the image of
            # u' mod p^k. The map is onto, hence a bijection of this finite
            # set, and its images, reductions of units, are units.
        lengths = _cycle_lengths(perm)
        levels.append(OracleLevel(k, mod - mod // p, len(lengths), tuple(lengths)))
    levels.reverse()
    return OracleResult(depth, tuple(levels), all(lv.cycle_count == 1 for lv in levels))


# -- theorem-based decision --------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str  # "ergodic" | "notErgodic"
    reason: str   # "pGe3Rule" | "generatorRule" | "radiusRule"


def ergodicity_theorem(form: UnitForm) -> ErgodicityVerdict:
    """Decide ergodicity on an invariant sphere from the unit form's integers
    alone: p, the centre, v1 = v(t1), v2 = v(t2) and, around x2,
    lam = f'(x2) = 1 - c^2/a, the form's numerator[1]. Nothing else of the
    map is read.

    p >= 3 around x1: never ergodic ("pGe3Rule"). p >= 3 around x2: when
    lam mod p is a primitive root, ergodic iff lam^(p-1) != 1 (mod p^2),
    that is iff lam topologically generates Z_p^* ("generatorRule");
    otherwise not ergodic ("pGe3Rule"). p = 2: ergodic iff the sphere is
    centred at x1, v1 = 1 and v2 >= 2 ("radiusRule").

    p = 2 around x2: in the unit coordinate f is
    (lam*u + t1*u^2)/(1 - t1*u + t2*u^2), so A2 = t1 and B1 = -t1 add to 0,
    while each of the mod-4 criterion's four patterns has A2 + B1 = 2
    (mod 4), and a swapped pattern needs B1 odd, which -t1 (p divides t1)
    is not: never ergodic. The gate already keeps v1 = 1 and v2 >= 2 off
    every x2-sphere, since lam = 1 - t1^2/t2 would then be even or not
    2-integral; the centre test states the rule without that argument.

    p = 2 around x1: f is u/(1 + t1*u + t2*u^2), whose sums
    (A1, A2, B1, B2) = (1, 0, t1, 1 + t2) match the criterion's pattern
    (1, 0, 2, 1) iff v1 = 1 and v2 >= 2. They match no other pattern:
    A1 = 1 rules out pattern (3, 0, 2, 3), A2 = 0 the two with A2 = 2, and
    every swapped pattern has an even third entry. This is the paper's
    radius rule, |c|_2 = beta and r = alpha/2, on every sphere the gate
    admits. There r < alpha, that is e <= -v_alpha - 1 for r = 2^e, with
    v1 = vc - va - e, v2 = -va - 2e and va = v_alpha + v_beta. When
    2vc < va, v_alpha = va - vc and v_beta = vc, so v1 = 1, that is
    e = vc - va - 1, reads e = -v_alpha - 1. Otherwise
    v_alpha = v_beta = va/2 <= vc, and v1 = 1 with e <= -v_alpha - 1 gives
    vc <= va/2, so vc = va/2 = v_beta and again e = -v_alpha - 1. Either
    way v1 = 1 forces vc = v_beta and e = -v_alpha - 1, and then
    v2 = v_alpha - v_beta + 2 >= 2. Conversely vc = v_beta and
    e = -v_alpha - 1 give v1 = 1. No admitted sphere needs v2 >= 2, but a
    ramified one does: at a = c = 2, e = -1 (v(a) odd, refused today)
    v1 = v2 = 1, and the sphere is not ergodic by the mod-4 test and by
    its level-2 balls.

    The x2 rule for p >= 3 is derived here (the paper's text is not in the
    repository), as in the monomial theorem of Gundlach, Khrennikov and
    Lindahl ("On ergodic behavior of p-adic dynamical systems", IDAQP 4,
    2001). In the unit coordinate of rescale_to_unit, f is
    g(u) = u(lam + t1*u)/(1 - t1*u + t2*u^2) with p | t1 and p^2 | t2 on
    every invariant x2-sphere, so g(u) = lam*u mod p: the level-1 balls form
    one cycle iff lam is a primitive root mod p. Then
    g^(p-1)(u) = lam^(p-1)*u*(1 + t1*(1 + 1/lam)*u*S - t2*u^2*S2) mod p^2
    with S and S2 the sums of lam^j and lam^2j over j < p - 1. p divides S
    (lam != 1 mod p), so p^2 divides t1*S and t2*S2, and g^(p-1) is
    multiplication by lam^(p-1) on the level-2 balls: one cycle iff
    lam^(p-1) != 1 (mod p^2). As for monomials, the deeper levels follow.
    The gate of rescale_to_unit makes lam a unit on every x2-sphere.
    """
    p, center = form.m.p, form.sphere.center
    if p == 2:
        ergodic = center == "x1" and form.v1 == 1 and form.v2 >= 2
        return ErgodicityVerdict("ergodic" if ergodic else "notErgodic", "radiusRule")
    if center == "x2":
        lam = _residue(form.numerator[1], p * p)
        if all(pow(lam, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1)):
            ergodic = pow(lam, p - 1, p * p) != 1
            return ErgodicityVerdict("ergodic" if ergodic else "notErgodic", "generatorRule")
    return ErgodicityVerdict("notErgodic", "pGe3Rule")


# -- mod-4 coefficient-sum criterion -------------------------------------------------


@dataclass(frozen=True)
class Mod4Sums:
    """Odd/even-index coefficient sums of numerator and denominator."""

    A1: Fraction
    A2: Fraction
    B1: Fraction
    B2: Fraction

    def residues(self) -> tuple[int, int, int, int]:
        return tuple(_residue(x, 4) for x in (self.A1, self.A2, self.B1, self.B2))


@dataclass(frozen=True)
class Mod4Verdict:
    ergodic: bool
    case: Optional[int]  # 1..5, None when no case matches
    sums: Mod4Sums


_MOD4_CASES = {
    1: (1, 2, 0, 1),
    2: (3, 2, 0, 3),
    3: (1, 0, 2, 1),
    4: (3, 0, 2, 3),
}

_SELF_MAP_SAMPLES = (1, 3, 5, -1, -3, 7)


def _coefficient_sums(coeffs: list[int]) -> tuple[int, int]:
    """The odd- and the even-index coefficient sums."""
    return sum(coeffs[1::2]), sum(coeffs[0::2])


def mod4_criterion(num_coeffs, den_coeffs) -> Mod4Verdict:
    """Ergodicity test for a rational self-map of the odd units of Z_2.

    Coefficients must be 2-adic integers and the map must send 1 + 2*Z_2 to
    itself (spot-checked on sample points). With A1/A2 the odd/even-index
    coefficient sums of the numerator and B1/B2 of the denominator, the map
    is ergodic iff (A1,A2,B1,B2) mod 4 matches one of four patterns, or one
    of them with numerator and denominator interchanged (reported as case 5).

    The checks run on integers: each polynomial is scaled by the lcm of its
    coefficients' denominators, which is odd, so a value at an integer t is
    a 2-adic unit iff the scaled value is odd.
    """
    num = [Fraction(c) for c in num_coeffs]
    den = [Fraction(c) for c in den_coeffs]
    for c in num + den:
        if c.denominator % 2 == 0:
            raise ValueError(f"coefficient {c} is not a 2-adic integer")
    scales = [lcm(*(c.denominator for c in poly)) for poly in (num, den)]
    num_int, den_int = ([c.numerator * (scale // c.denominator) for c in poly]
                        for poly, scale in zip((num, den), scales))

    for t in _SELF_MAP_SAMPLES:
        if not _horner(num_int, t) & _horner(den_int, t) & 1:
            raise ValueError(
                f"map does not preserve the odd units: value at t={t} is not a unit"
            )

    # the two sums split one coefficient list, so A1 + A2 is the value at t = 1
    A1, A2 = _coefficient_sums(num_int)
    B1, B2 = _coefficient_sums(den_int)
    ns, ds = scales
    sums = Mod4Sums(Fraction(A1, ns), Fraction(A2, ns), Fraction(B1, ds), Fraction(B2, ds))
    residues = sums.residues()
    for k, pattern in _MOD4_CASES.items():
        if residues == pattern:
            return Mod4Verdict(True, k, sums)
    swapped = (residues[2], residues[3], residues[0], residues[1])
    for pattern in _MOD4_CASES.values():
        if swapped == pattern:
            return Mod4Verdict(True, 5, sums)
    return Mod4Verdict(False, None, sums)


# -- combined decision ----------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityDecision:
    theorem: ErgodicityVerdict
    mod4: Optional[Mod4Verdict]  # only for p = 2, center x1
    oracle: OracleResult
    verdict: str  # set only after every decider agreed on it
    form: UnitForm  # the one unit form that every decider read


def decide_ergodicity(
    m: CanonicalMap, sphere: SphereSpec, depth: Optional[int] = None
) -> ErgodicityDecision:
    """Run every applicable decider on one unit form of f and fail loudly
    unless they all agree. The oracle runs first, so that its depth budget
    is checked before the theorem factors p - 1."""
    form = rescale_to_unit(m, sphere)
    oracle = residue_cycle_oracle(form, depth)
    thm = ergodicity_theorem(form)
    verdicts = {thm.verdict, "ergodic" if oracle.ergodic else "notErgodic"}
    mod4 = None
    if m.p == 2 and sphere.center == "x1":
        mod4 = mod4_criterion(form.numerator, form.denominator)
        verdicts.add("ergodic" if mod4.ergodic else "notErgodic")
    if len(verdicts) != 1:
        raise VerificationError(
            f"ergodicity deciders disagree on {sphere}: theorem={thm.verdict}, "
            f"oracle={'ergodic' if oracle.ergodic else 'notErgodic'}, "
            f"mod4={None if mod4 is None else mod4.ergodic}"
        )
    return ErgodicityDecision(thm, mod4, oracle, thm.verdict, form)
