"""Ergodicity of f(x) = a*x/(x^2+c*x+a) on its invariant spheres.

On every invariant sphere f is an isometry moving each point by the same
distance rho(r). Three independent deciders are provided and cross-checked:

  * ergodicity_theorem: exponent comparisons (never ergodic for p >= 3;
    for p = 2 the sphere S_r(0) is ergodic iff |c|_2 = beta and r = alpha/2);
  * mod4_criterion: the odd/even coefficient-sum test mod 4 applied to f
    on the sphere's unit coordinate (p = 2, spheres around x1);
  * residue_cycle_oracle: brute-force cycle structure of the induced
    permutations of residue balls, level by level. One integer pass of f on
    the unit coordinate at the deepest level gives every level (each
    coarser one is its reduction), and exact evaluation of f anchors the
    first balls of that pass.

rescale_to_unit is the one place that writes f on the unit coordinate; both
the mod-4 test and the ball kernel read their coefficients from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .dynamics import CanonicalMap, SphereSpec, sphere_points
from .errors import NotApplicableError, VerificationError, _verify
from .padic import _fraction_valuation, _horner, _unit_residue

__all__ = [
    "ORACLE_BALL_BUDGET",
    "ErgodicityVerdict",
    "IsometryReport",
    "Mod4Sums",
    "Mod4Verdict",
    "OracleLevel",
    "OracleResult",
    "RescaledMap",
    "decide_ergodicity",
    "displacement_table",
    "ergodicity_theorem",
    "isometry_check",
    "mod4_criterion",
    "residue_cycle_oracle",
    "rescale_to_unit",
    "rho",
    "verify_rho",
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


# -- displacement -------------------------------------------------------------


def rho(m: CanonicalMap, sphere: SphereSpec) -> int:
    """Exponent of the common displacement |f(x)-x|_p on an invariant sphere.

    For spheres around x1 = 0 (radius r = p**e, r != |c|):
        r < |c|:  rho = r^2 |c| / (alpha*beta)
        r > |c|:  rho = r^3 / (alpha*beta)
    Around x2: in the |c| = alpha = beta regime rho = r. In the
    |c| < alpha = beta regime the sphere coincides with S_r(0) when
    r > |c| (same formula); when r < |c| every point has |x| = |c| and
    rho = r |c|^2 / (alpha*beta). r = |c| is excluded: the displacement is
    then point-dependent (see displacement_table).
    """
    _require_invariant(m, sphere)
    v_alpha, v_beta = m.alpha_beta()
    vc = _fraction_valuation(m.c, m.p)
    e = sphere.radius_exponent
    if sphere.center == "x1" or m.classify().case == 2:
        if e == -vc:
            raise NotApplicableError(
                f"rho is undefined on the sphere of radius |c| = p^{-vc}; "
                "the displacement varies with the point (use displacement_table)"
            )
        if e < -vc:
            base = 2 * e - vc if sphere.center == "x1" else e - 2 * vc
            return base + v_alpha + v_beta
        return 3 * e + v_alpha + v_beta
    # x2-centered, |c| = alpha = beta regime
    return e


def displacement_table(
    m: CanonicalMap, sphere: SphereSpec, count: int = 32, seed: Optional[int] = None
) -> list[tuple[Fraction, int]]:
    """Per-point displacement exponents (x, E) with |f(x)-x|_p = p**E."""
    _require_invariant(m, sphere)
    out = []
    for x in sphere_points(m, sphere, count, seed):
        v = _fraction_valuation(m.eval(x) - x, m.p)
        out.append((x, -v))
    return out


def verify_rho(
    m: CanonicalMap, sphere: SphereSpec, count: int = 32, seed: Optional[int] = None
) -> int:
    """Assert |f(x)-x|_p = p**rho(r) on sampled points; returns sample count."""
    expected = rho(m, sphere)
    for x, got in displacement_table(m, sphere, count, seed):
        if got != expected:
            raise VerificationError(
                f"displacement mismatch at x={x}: p^{got} != p^{expected}",
                counterexample=x,
            )
    return count


# -- isometry ------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryReport:
    sphere: SphereSpec
    pairs_checked: int
    factor_valuation: int  # common v(a - x*y) observed on all sampled pairs


def isometry_check(
    m: CanonicalMap, sphere: SphereSpec, count: int = 32, seed: Optional[int] = None
) -> IsometryReport:
    """Verify |f(x)-f(y)|_p = |x-y|_p exactly on all sampled pairs.

    Also checks the numerator factor of the distance-ratio identity:
    v(a - x*y) = v(a) for every sampled pair (so the ratio of norms is 1).
    Raises VerificationError with a counterexample on any violation.
    """
    _require_invariant(m, sphere)
    pts = sphere_points(m, sphere, count, seed)
    images = [m.eval(x) for x in pts]
    va = _fraction_valuation(m.a, m.p)
    pairs = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            x, y = pts[i], pts[j]
            lhs = _fraction_valuation(images[i] - images[j], m.p)
            rhs = _fraction_valuation(x - y, m.p)
            if lhs != rhs:
                raise VerificationError(
                    f"isometry violated for x={x}, y={y}: v={lhs} != {rhs}",
                    counterexample=(x, y),
                )
            vf = _fraction_valuation(m.a - x * y, m.p)
            if vf != va:
                raise VerificationError(
                    f"numerator factor |a - xy| != |a| for x={x}, y={y}",
                    counterexample=(x, y),
                )
            pairs += 1
    return IsometryReport(sphere, pairs, va)


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
class RescaledMap:
    """f on a sphere S_(p^e)(x_i) in the unit coordinate u of x = x_i + u*p^-e.

    The coefficients (low to high) are p-integral: numerator (0, 1) and
    denominator (1, t1, t2) around x1, numerator (0, lam, t1) and
    denominator (1, -t1, t2) around x2.
    """

    sphere: SphereSpec
    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]


def rescale_to_unit(m: CanonicalMap, sphere: SphereSpec) -> RescaledMap:
    """Conjugate f on ``sphere`` onto the units of Z_p (see above).

    Raises NotApplicableError unless p divides t1 and t2 and lam is a unit,
    so that the map sends residue balls to residue balls; that holds on
    every invariant sphere.
    """
    p = m.p
    s = Fraction(p) ** -sphere.radius_exponent
    t1, t2 = m.c * s / m.a, s * s / m.a
    if sphere.center == "x2":
        lam = m.multiplier_x2()
        numerator, denominator = (Fraction(0), lam, t1), (Fraction(1), -t1, t2)
    else:
        lam = Fraction(1)
        numerator, denominator = (Fraction(0), lam), (Fraction(1), t1, t2)
    if not (_fraction_valuation(t1, p) >= 1 and _fraction_valuation(t2, p) >= 1
            and _fraction_valuation(lam, p) == 0):
        raise NotApplicableError(
            f"balls of {sphere} do not map to balls: need v(t1) >= 1, v(t2) >= 1 "
            f"and v(f'(center)) = 0"
        )
    return RescaledMap(sphere, numerator, denominator)


# -- residue-ball permutations ---------------------------------------------------


def _residue(x: Fraction, mod: int) -> int:
    """x mod ``mod`` (a power of p) for an x whose denominator is prime to p."""
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _verify_permutation(perm: dict[int, int], p: int, level: int) -> None:
    left = next((u for u, w in perm.items() if w % p == 0), None)
    _verify(left is None, f"image left the sphere at ball u={left}", left)
    _verify(perm.keys() == set(perm.values()),
            f"induced ball map at level {level} is not a permutation")


#: Balls whose kernel image is checked against exact evaluation of f.
_ANCHOR_BALLS = 8


def _ball_permutation(m: CanonicalMap, sphere: SphereSpec, level: int) -> dict[int, int]:
    """The permutation f induces on radius-r*p^-level balls of the sphere.

    Balls are indexed by unit residues u mod p**level; the ball of index u
    is V_(r*p^-level)(center + u*p^-e). The images come from the integer
    form of rescale_to_unit, with its coefficients reduced mod p**level
    once. Every image is checked to be a unit and the map to be a
    bijection; the first _ANCHOR_BALLS images are checked against exact
    evaluation of f at two representatives each. Any failure raises
    VerificationError; a sphere whose balls do not map to balls is refused
    by rescale_to_unit.
    """
    p, e = m.p, sphere.radius_exponent
    rm = rescale_to_unit(m, sphere)
    mod = p ** level
    # w = u*(n1 + n2*u) / (1 + d1*u + d2*u^2); around x1 the numerator is u
    n1, n2 = ([_residue(x, mod) for x in rm.numerator[1:]] + [0])[:2]
    _, d1, d2 = (_residue(x, mod) for x in rm.denominator)
    perm = {u: u * (n1 + n2 * u) * pow(1 + (d1 + d2 * u) * u, -1, mod) % mod
            for u in range(1, mod) if u % p}
    _verify_permutation(perm, p, level)
    center = m.center_point(sphere.center)
    scale = Fraction(p) ** -e
    for u in islice(perm, _ANCHOR_BALLS):
        for rep in (u, u + mod):
            w = (m.eval(center + rep * scale) - center) / scale
            _verify(_fraction_valuation(w, p) == 0,
                    f"image left the sphere at ball u={u}", rep)
            exact = _unit_residue(w, p, mod)
            _verify(exact == perm[u],
                    f"kernel image {perm[u]} of ball u={u} differs from the exact "
                    f"image {exact}", rep)
    return perm


def _cycle_lengths(perm: dict[int, int]) -> list[int]:
    seen: set[int] = set()
    lengths = []
    for start in perm:
        if start in seen:
            continue
        n, u = 0, start
        while u not in seen:
            seen.add(u)
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
    sphere: SphereSpec
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


def residue_cycle_oracle(
    m: CanonicalMap, sphere: SphereSpec, depth: Optional[int] = None
) -> OracleResult:
    """Brute-force cycle structure of the induced ball permutations.

    For each level k = 1..depth the sphere splits into (p-1)*p^(k-1) balls
    of radius r*p^-k; f permutes them (checked). The system is ergodic iff
    the permutation is a single cycle at every level. The levels hold
    p^depth - 1 balls in all, which must not exceed ORACLE_BALL_BUDGET;
    the default depth is 8 for p = 2 and 5 otherwise, lowered to the
    largest depth that fits.

    The kernel runs once, at ``depth``. Level k is read off level k + 1:
    ball u < p^k maps to the reduction of its image, and every finer ball
    must map into the image of its parent ball (checked).
    """
    _require_invariant(m, sphere)
    p = m.p
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
    perm = _ball_permutation(m, sphere, depth)
    levels = []
    for k in range(depth, 0, -1):
        if k < depth:
            mod = p ** k
            finer, perm = perm, {u: w % mod for u, w in perm.items() if u < mod}
            stray = next((u for u, w in finer.items() if w % mod != perm[u % mod]), None)
            _verify(stray is None,
                    f"induced ball map not well defined at level {k}: ball u={stray}",
                    stray)
            _verify_permutation(perm, p, k)
        lengths = _cycle_lengths(perm)
        levels.append(OracleLevel(k, len(perm), len(lengths), tuple(lengths)))
    levels.reverse()
    return OracleResult(
        sphere, depth, tuple(levels), all(lv.cycle_count == 1 for lv in levels)
    )


# -- theorem-based decision --------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityVerdict:
    sphere: SphereSpec
    verdict: str  # "ergodic" | "notErgodic"
    reason: str   # "pGe3Rule" | "radiusRule" | "mod4Case k" | "oracle"


def ergodicity_theorem(m: CanonicalMap, sphere: SphereSpec) -> ErgodicityVerdict:
    """Decide ergodicity on an invariant sphere by exponent comparisons.

    p >= 3: never ergodic. p = 2 around x2: never ergodic (the displacement
    equals the radius there). p = 2 around x1: ergodic iff |c|_2 = beta and
    r = alpha/2.
    """
    _require_invariant(m, sphere)
    if m.p >= 3:
        return ErgodicityVerdict(sphere, "notErgodic", "pGe3Rule")
    if sphere.center == "x2":
        return ErgodicityVerdict(sphere, "notErgodic", "radiusRule")
    v_alpha, v_beta = m.alpha_beta()
    vc = _fraction_valuation(m.c, 2)
    ergodic = (vc == v_beta) and (sphere.radius_exponent == -v_alpha - 1)
    return ErgodicityVerdict(sphere, "ergodic" if ergodic else "notErgodic", "radiusRule")


# -- mod-4 coefficient-sum criterion -------------------------------------------------


@dataclass(frozen=True)
class Mod4Sums:
    """Odd/even-index coefficient sums of numerator and denominator."""

    A1: Fraction
    A2: Fraction
    B1: Fraction
    B2: Fraction

    def residues(self) -> tuple[int, int, int, int]:
        return tuple(_mod4(x) for x in (self.A1, self.A2, self.B1, self.B2))


@dataclass(frozen=True)
class Mod4Verdict:
    ergodic: bool
    case: Optional[int]  # 1..5, None when no case matches
    sums: Mod4Sums


def _mod4(x: Fraction) -> int:
    if _fraction_valuation(x, 2) < 0:
        raise ValueError(f"{x} is not a 2-adic integer")
    return _residue(x, 4)


_MOD4_CASES = {
    1: (1, 2, 0, 1),
    2: (3, 2, 0, 3),
    3: (1, 0, 2, 1),
    4: (3, 0, 2, 3),
}

_SELF_MAP_SAMPLES = (1, 3, 5, -1, -3, 7)


def _coefficient_sums(coeffs) -> tuple[Fraction, Fraction]:
    odd = sum((c for i, c in enumerate(coeffs) if i % 2 == 1), Fraction(0))
    even = sum((c for i, c in enumerate(coeffs) if i % 2 == 0), Fraction(0))
    return odd, even


def mod4_criterion(num_coeffs, den_coeffs) -> Mod4Verdict:
    """Ergodicity test for a rational self-map of the odd units of Z_2.

    Coefficients must be 2-adic integers and the map must send 1 + 2*Z_2 to
    itself (spot-checked on sample points). With A1/A2 the odd/even-index
    coefficient sums of the numerator and B1/B2 of the denominator, the map
    is ergodic iff (A1,A2,B1,B2) mod 4 matches one of four patterns, or one
    of them with numerator and denominator interchanged (reported as case 5).
    """
    num = [Fraction(c) for c in num_coeffs]
    den = [Fraction(c) for c in den_coeffs]
    for c in num + den:
        if _fraction_valuation(c, 2) < 0:
            raise ValueError(f"coefficient {c} is not a 2-adic integer")

    for t in _SELF_MAP_SAMPLES:
        nt, dt = _horner(num, t), _horner(den, t)
        if _fraction_valuation(nt, 2) != 0 or _fraction_valuation(dt, 2) != 0:
            raise ValueError(
                f"map does not preserve the odd units: value at t={t} is not a unit"
            )

    A1, A2 = _coefficient_sums(num)
    B1, B2 = _coefficient_sums(den)
    _verify(A1 + A2 == _horner(num, 1) and B1 + B2 == _horner(den, 1),
            "coefficient sums differ from the polynomial values at t = 1")
    sums = Mod4Sums(A1, A2, B1, B2)
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


def decide_ergodicity(
    m: CanonicalMap, sphere: SphereSpec, depth: Optional[int] = None
) -> ErgodicityDecision:
    """Run every applicable decider and fail loudly unless they all agree."""
    thm = ergodicity_theorem(m, sphere)
    oracle = residue_cycle_oracle(m, sphere, depth)
    verdicts = {thm.verdict, "ergodic" if oracle.ergodic else "notErgodic"}
    mod4 = None
    if m.p == 2 and sphere.center == "x1":
        rm = rescale_to_unit(m, sphere)
        mod4 = mod4_criterion(rm.numerator, rm.denominator)
        verdicts.add("ergodic" if mod4.ergodic else "notErgodic")
    if len(verdicts) != 1:
        raise VerificationError(
            f"ergodicity deciders disagree on {sphere}: theorem={thm.verdict}, "
            f"oracle={'ergodic' if oracle.ergodic else 'notErgodic'}, "
            f"mod4={None if mod4 is None else mod4.ergodic}"
        )
    return ErgodicityDecision(thm, mod4, oracle, thm.verdict)
