"""Seeded workloads for the padicdyn benchmark: inputs, operations, gates.

Each workload is a list of operations built from a seed. The list has a
fixed count that depends only on ``rounds`` (never on elapsed time), and
its composition is stratified: every round holds the same cells (prime,
depth, sphere kind, precision, request kind) with seeded parameters, so
two seeds give different inputs but the same mix of work.

An operation is one library call (``run``) plus a correctness gate
(``check``) that is evaluated outside the timed region. Gates use their
own exact arithmetic (``_val``, ``_iterate_exact``, ``_h_of_q``) rather
than the library, so they also hold when a later change replaces a
library kernel, and they add no spans to a traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from padicdyn import cli, dynamics, ergodicity, periodic
from padicdyn.dynamics import CanonicalMap, SphereSpec
from padicdyn.errors import InconsistentParametersError

WORKLOADS = ("oracle_deep", "orbit_long", "request_mix")

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# The six golden commands, in the README's space-separated argv form.
GOLDEN_COMMANDS = {
    "analyze_case4.json": ["analyze", "--p", "3", "--a", "-2", "--c", "1"],
    "analyze_case2.json": ["analyze", "--p", "5", "--a", "-1", "--c", "5"],
    "ergodic_p2_ergodic.json": [
        "ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"
    ],
    "ergodic_p3_notergodic.json": [
        "ergodic", "--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1"
    ],
    "periodic_two_cycle.json": ["periodic", "--p", "7", "--a", "4", "--c", "3"],
    "conjugate_double_root.json": [
        "conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1"
    ],
}

# Exact orbits of 13-16 steps overflow Python's 4300-digit int-to-string
# limit when the report is serialized (exit 1), and 17-24 exact steps run
# for minutes, so neither is in the timed mix. The first defect is probed
# after the timed section; 17-24 steps are not requested at all.
EXACT_ORBIT_MAX_STEPS = 11


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the result is correct, else a reason.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    report_bytes: Optional[Callable[[object], int]] = None


# -- exact helpers shared by generators and gates ------------------------------


def _int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _val(x: Fraction, p: int):
    """p-adic valuation of a nonzero rational; None for zero."""
    if x == 0:
        return None
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


def _unit(rng: random.Random, p: int, height: int) -> Fraction:
    """A random p-adic unit n/d with |n|, d <= height."""
    while True:
        n = rng.randint(1, height) * rng.choice((1, -1))
        d = rng.randint(1, height)
        if n % p and d % p:
            return Fraction(n, d)


def _scaled_unit(rng: random.Random, p: int, v: int, height: int) -> Fraction:
    return Fraction(p) ** v * _unit(rng, p, height)


def _iterate_exact(a: Fraction, c: Fraction, x: Fraction, steps: int) -> list:
    out = [x]
    for _ in range(steps):
        x = a * x / (x * x + c * x + a)
        out.append(x)
    return out


def _digits_agree(exact: Fraction, t) -> bool:
    """Every digit a TruncatedPadic reports agrees with the exact value.

    Same condition as ``TruncatedPadic.from_rational(exact) - t`` being
    indistinguishable from zero: exact - t vanishes mod p^abs_precision.
    """
    if t.unit == 0:  # tagged zero O(p^M)
        v = _val(exact, t.prime)
        return v is None or v >= t.valuation
    rep = Fraction(t.prime) ** t.valuation * t.unit
    v = _val(exact - rep, t.prime)
    return v is None or v >= t.valuation + t.precision


def _fail(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


# -- map and sphere generators --------------------------------------------------


def _random_map(rng: random.Random, p: int, height: int = 12) -> CanonicalMap:
    """A seeded map whose pole norms are powers of p (classify succeeds)."""
    while True:
        va, vc = rng.randint(-2, 2), rng.randint(-2, 2)
        if 2 * vc >= va and va % 2:
            continue  # InconsistentParametersError territory
        a = _scaled_unit(rng, p, va, height)
        c = _scaled_unit(rng, p, vc, height)
        return CanonicalMap(p, a, c)


def invariant_sphere(rng: random.Random, p: int, kind: str):
    """(map, sphere) with ``sphere`` invariant under the map.

    kind "ergodic": p = 2, S_r(0) with |c|_2 = beta and r = alpha/2, the
    spheres the theorem calls ergodic. kind "x1" / "x2": a sphere around
    that fixed point that no decider calls ergodic (for p = 2 around x1
    the radius is alpha/4, never alpha/2).
    """
    while True:
        m = _random_map(rng, p)
        va, vc = _val(m.a, p), _val(m.c, p)
        if kind == "ergodic" and not 2 * vc < va:
            continue  # then v_beta = v(c): |c| = beta
        try:
            inv = m.invariant_spheres()
        except InconsistentParametersError:
            continue
        center = "x2" if kind == "x2" else "x1"
        bound = inv.x2_exponent_bound if center == "x2" else inv.x1_exponent_bound
        if bound is None:
            continue
        if kind == "ergodic":
            e = bound - 1
        elif p == 2 and center == "x1":
            e = bound - 2
        else:
            e = bound - 1 - rng.randint(0, 1)
        if center == "x2" and _multiplier_cycles_mod_p(m):
            continue
        sphere = SphereSpec(center, e)
        if m.sphere_is_invariant(sphere):
            return m, sphere


def _multiplier_cycles_mod_p(m: CanonicalMap) -> bool:
    """Case 3 with f'(x2) a primitive root mod p (p >= 3).

    On such x2-centred spheres f permutes the level-1 balls in one cycle,
    and for many maps every deeper level too: the oracle then reports
    ergodic while the theorem says p >= 3 is never ergodic, and
    decide_ergodicity raises VerificationError. That known defect is
    probed by ``DEFECT_PROBES``; the timed mixes leave these spheres out.
    """
    p, a, c = m.p, m.a, m.c
    if p == 2 or 2 * _val(c, p) != _val(a, p) or _val(a - c * c, p) != _val(a, p):
        return False
    lam = 1 - c * c / a
    residue = lam.numerator * pow(lam.denominator, -1, p) % p
    order = next(k for k in range(1, p) if pow(residue, k, p) == 1)
    return order == p - 1


def basin_map(rng: random.Random, p: int) -> CanonicalMap:
    """A case-4 map: |c| = alpha = beta and |a - c^2| < alpha^2, so x2 attracts."""
    k = rng.randint(-1, 1)
    c = _scaled_unit(rng, p, k, 9)
    a = c * c + _scaled_unit(rng, p, 2 * k + 1 + rng.randint(0, 1), 9)
    return CanonicalMap(p, a, c)


# -- oracle_deep -----------------------------------------------------------------

# One round: (p, depth, kind). The deepest level holds (p-1)*p^(depth-1)
# balls: 2^7..2^8, 2*3^4..2*3^5, 4*5^3 and 6*7^2, so one op takes about
# 5-30 ms. Four of the twelve p = 2 ops sit on ergodic spheres, so the
# single-cycle path runs. Deeper ops (up to a second each) cannot be timed
# steadily on a shared host: their best-of-passes time still carries the
# host's contention, while ops of a few ms often run clear of it.
ORACLE_ROUND = (
    [(2, 8, "ergodic")] * 2 + [(2, 8, "x1")] * 2 + [(2, 8, "x2")] * 2
    + [(2, 9, "ergodic")] * 2 + [(2, 9, "x1"), (2, 9, "x2")] * 2
    + [(3, 5, "x1")] * 3 + [(3, 5, "x2")] * 3 + [(3, 6, "x1"), (3, 6, "x2")]
    + [(5, 4, "x1")] * 3 + [(5, 4, "x2")] * 3
    + [(7, 3, "x1")] * 3 + [(7, 3, "x2")] * 3
)

# Two flagship decisions, the spheres of the two ``ergodic`` golden commands
# at depths 14 and 9. Each takes about a second, so they run once per run
# after the timed passes: gated, and timed for the report only.
ORACLE_FLAGSHIPS = (
    (2, Fraction(2), Fraction(1), SphereSpec("x1", -2), 14, "ergodic"),
    (3, Fraction(-2), Fraction(1), SphereSpec("x1", -1), 9, "notErgodic"),
)


def _oracle_op(p, a, c, sphere, depth, verdict, label) -> Op:
    def run():
        return ergodicity.decide_ergodicity(CanonicalMap(p, a, c), sphere, depth)

    def check(decision):
        if decision.verdict != verdict:
            return f"verdict {decision.verdict}, expected {verdict}"
        counts = [lv.ball_count for lv in decision.oracle.levels]
        want = [(p - 1) * p ** (k - 1) for k in range(1, depth + 1)]
        return _fail(counts == want, f"level ball counts {counts} != {want}")

    return Op(label, run, check)


def oracle_deep(seed: int, rounds: int) -> list:
    rng = random.Random(f"oracle_deep:{seed}")
    ops = []
    for _ in range(rounds):
        for p, depth, kind in ORACLE_ROUND:
            m, sphere = invariant_sphere(rng, p, kind)
            verdict = "ergodic" if kind == "ergodic" else "notErgodic"
            ops.append(_oracle_op(p, m.a, m.c, sphere, depth, verdict,
                                  f"p{p}-d{depth}-{kind}"))
    rng.shuffle(ops)
    return ops


def oracle_flagships() -> list:
    return [_oracle_op(p, a, c, sphere, depth, verdict, f"p{p}-d{depth}-flagship")
            for p, a, c, sphere, depth, verdict in ORACLE_FLAGSHIPS]


def oracle_warmup() -> Op:
    p, a, c, sphere, _, verdict = ORACLE_FLAGSHIPS[0]
    return _oracle_op(p, a, c, sphere, 5, verdict, "warmup")


# -- orbit_long ------------------------------------------------------------------

ORBIT_PRECISIONS = (24, 64, 256)
ORBIT_PRIMES = (2, 3, 5, 7)
ORBIT_KINDS = ("x1", "x2", "basin")
ORBIT_STEPS = 150
EXACT_PREFIX = 8


def _orbit_op(p, a, c, x0, steps, precision, kind, radius_exp, label) -> Op:
    exact = []

    def run():
        return dynamics.orbit(CanonicalMap(p, a, c), x0, steps,
                              mode="truncated", precision=precision)

    def check(result):
        if result.mode != "truncated" or len(result.points) != steps + 1:
            return f"mode {result.mode}, {len(result.points)} points"
        if kind in ("x1", "x2"):
            dist = result.dist_x1_exponents if kind == "x1" else result.dist_x2_exponents
            if any(e != radius_exp for e in dist):
                return f"left the invariant sphere around {kind}"
        else:
            # at P = 256 the distance may not reach "-inf" within the orbit
            dist = result.dist_x2_exponents
            k = dist.index("-inf") if "-inf" in dist else len(dist)
            shrinks = all(dist[i + 1] <= dist[i] - 1 for i in range(k - 1))
            if not (shrinks and all(e == "-inf" for e in dist[k:])):
                return f"distance to x2 does not contract towards -inf: {dist[:k + 2]}"
        if not exact:  # computed on the first check, reused by later passes
            exact.extend(_iterate_exact(a, c, x0, EXACT_PREFIX))
        for i, (x, t) in enumerate(zip(exact, result.points)):
            if not _digits_agree(x, t):
                return f"truncated iterate {i} disagrees with exact iteration"
        return None

    return Op(label, run, check)


def _orbit_start(rng: random.Random, p: int, kind: str):
    """(map, x0, radius exponent of the start's sphere or None for a basin)."""
    if kind == "basin":
        m = basin_map(rng, p)
        k = _val(m.c, p)  # basin U_alpha(x2) with alpha = |c| = p^-k
        x0 = m.x2 + _scaled_unit(rng, p, k + 1 + rng.randint(0, 1), 9)
        return m, x0, None
    m, sphere = invariant_sphere(rng, p, kind)
    x0 = m.center_point(kind) + _scaled_unit(rng, p, -sphere.radius_exponent, 9)
    return m, x0, sphere.radius_exponent


def orbit_long(seed: int, rounds: int) -> list:
    rng = random.Random(f"orbit_long:{seed}")
    ops = []
    for _ in range(rounds):
        for p in ORBIT_PRIMES:
            for kind in ORBIT_KINDS:
                for precision in ORBIT_PRECISIONS:
                    m, x0, e = _orbit_start(rng, p, kind)
                    ops.append(_orbit_op(p, m.a, m.c, x0, ORBIT_STEPS, precision, kind, e,
                                         f"p{p}-{kind}-P{precision}"))
    rng.shuffle(ops)
    return ops


def orbit_warmup() -> Op:
    return _orbit_op(3, Fraction(-2), Fraction(1), Fraction(3), ORBIT_STEPS, 64, "x1", -1,
                     "warmup")


# -- request_mix -----------------------------------------------------------------


def _no_floats(node) -> bool:
    if isinstance(node, float):
        return False
    if isinstance(node, dict):
        return all(_no_floats(v) for v in node.values())
    if isinstance(node, list):
        return all(_no_floats(v) for v in node)
    return True


def call_cli(argv):
    """One in-process CLI request with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv, expect_code, label, golden: Optional[bytes] = None) -> Op:
    argv = list(argv) + ["--json"]

    def run():
        return call_cli(argv)

    def check(result):
        code, out, err = result
        if code != expect_code:
            return f"exit {code}, expected {expect_code}: {err.strip()[:200]}"
        if golden is not None:
            return _fail(out.encode() == golden, "output differs from the golden file")
        if code != 0:
            return _fail(out == "", "a failing request wrote a report")
        try:
            doc = json.loads(out)
        except ValueError:
            return "report is not valid JSON"
        if not _no_floats(doc):
            return "float in the JSON report"
        return _fail(doc.get("command") == argv[0], "report names another command")

    return Op(label, run, check, lambda result: len(result[1].encode()))


def _h_of_q(q: Fraction) -> Fraction:
    return (3 * q**2 + 2 * q) / (6 * q**3 + 11 * q**2 + 6 * q + 1)


def _q_sweep_op(p: int, height: int) -> Op:
    def run():
        return periodic.q_sweep(p, height)

    def check(records):
        if not records:
            return "empty sweep"
        order = [(r.q.denominator, r.q.numerator) for r in records]
        if order != sorted(order):
            return "records out of order"
        for r in records:
            if r.a != _h_of_q(r.q) or r.c != r.q * r.a - 1:
                return f"record for q = {r.q} is not on the family a = h(q)"
        return None

    return Op(f"q_sweep-h{height}", run, check)


def _flag(name, value) -> str:
    return f"--{name}={value}"


def _map_flags(p, a, c):
    return [_flag("p", p), _flag("a", a), _flag("c", c)]


def _request_round(rng: random.Random, goldens: dict) -> list:
    ops = [_cli_op(argv, 0, "golden", goldens[name])
           for name, argv in GOLDEN_COMMANDS.items()]
    for _ in range(3):
        m = _random_map(rng, rng.choice(ORBIT_PRIMES))
        ops.append(_cli_op(["analyze"] + _map_flags(m.p, m.a, m.c), 0, "analyze"))
    m = _random_map(rng, rng.choice(ORBIT_PRIMES))  # b = 0, d = a: double root at 0
    ops.append(_cli_op(["analyze", _flag("p", m.p), _flag("a", m.a), _flag("b", 0),
                        _flag("c", m.c), _flag("d", m.a)], 0, "analyze4"))
    for p, kind in ((2, "ergodic"), (2, rng.choice(("x1", "x2"))),
                    (3, rng.choice(("x1", "x2")))):
        # default oracle depth: 8 levels for p = 2, 5 for p = 3 (<= 2^8 balls)
        m, sphere = invariant_sphere(rng, p, kind)
        ops.append(_cli_op(["ergodic"] + _map_flags(p, m.a, m.c)
                           + [_flag("radius-exp", sphere.radius_exponent),
                              _flag("center", sphere.center)], 0, "ergodic"))
    m = _random_map(rng, rng.choice(ORBIT_PRIMES))
    ops.append(_cli_op(["periodic"] + _map_flags(m.p, m.a, m.c), 0, "periodic2"))
    q = rng.choice(PERIODIC_Q)
    ops.append(_cli_op(["periodic", _flag("p", rng.choice(ORBIT_PRIMES)),
                        _flag("q", q)], 0, "periodic3"))
    x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    x2 = x1 + rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))
    a = Fraction(rng.randint(1, 9) * rng.choice((1, -1)))
    ops.append(_cli_op(["conjugate", _flag("p", rng.choice(ORBIT_PRIMES)),
                        _flag("a", a), _flag("b", x1 * x2 * x2),
                        _flag("c", -(x1 + 2 * x2)), _flag("d", a + x2 * x2 + 2 * x1 * x2)],
                       0, "conjugate"))
    for _ in range(4):
        p = rng.choice(ORBIT_PRIMES)
        a, c = _small_nonzero(rng), _small_nonzero(rng)
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        steps = rng.randint(1, EXACT_ORBIT_MAX_STEPS)
        ops.append(_cli_op(["orbit"] + _map_flags(p, a, c)
                           + [_flag("x0", x0), _flag("steps", steps)], 0, "orbit"))
    ops.append(_cli_op(_unsupported(rng), 2, "unsupported"))
    ops.append(_q_sweep_op(rng.choice(ORBIT_PRIMES), rng.randint(4, 8)))
    return ops


# q values whose 3-periodic construction is defined (not in {0, -1, -2/3}
# and not a pole of h) and whose map classifies for every prime used here.
PERIODIC_Q = tuple(Fraction(n, d) for n, d in
                   ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (-3, 2), (2, 3), (4, 1),
                    (-4, 3), (5, 2)))


def _small_nonzero(rng: random.Random) -> int:
    return rng.randint(1, 9) * rng.choice((1, -1))


def _unsupported(rng: random.Random) -> list:
    """A documented-unsupported request (exit 2)."""
    p = rng.choice(ORBIT_PRIMES)
    choice = rng.randrange(4)
    if choice == 0:  # three distinct fixed points: b != 0 and generic c, d
        return ["conjugate", _flag("p", p), _flag("a", 1), _flag("b", _small_nonzero(rng)),
                _flag("c", 0), _flag("d", 0)]
    if choice == 1:  # double fixed point away from 0: three-parameter family
        x1, x2 = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5))
        if x1 == x2:
            x1 -= 1
        return ["analyze", _flag("p", p), _flag("a", 1), _flag("b", x1 * x2 * x2),
                _flag("c", -(x1 + 2 * x2)), _flag("d", 1 + x2 * x2 + 2 * x1 * x2)]
    if choice == 2:  # a sphere that is not invariant
        m, _ = invariant_sphere(rng, p, "x1")
        bound = m.invariant_spheres().x1_exponent_bound
        return ["ergodic"] + _map_flags(p, m.a, m.c) + [_flag("radius-exp", bound)]
    # odd v(a) with 2 v(c) >= v(a): pole norms outside p^Z
    a = Fraction(p) * _unit(rng, p, 9)
    return ["analyze"] + _map_flags(p, a, Fraction(p) * _unit(rng, p, 9))


def load_goldens() -> dict:
    return {name: (GOLDEN_DIR / name).read_bytes() for name in GOLDEN_COMMANDS}


def request_mix(seed: int, rounds: int) -> list:
    rng = random.Random(f"request_mix:{seed}")
    goldens = load_goldens()
    ops = []
    for _ in range(rounds):
        ops.extend(_request_round(rng, goldens))
    rng.shuffle(ops)
    return ops


def request_warmup() -> Op:
    name = "analyze_case4.json"
    return _cli_op(GOLDEN_COMMANDS[name], 0, "warmup", load_goldens()[name])


# -- known defects, probed after the timed section --------------------------------

INT_STR_LIMIT = "int_str_limit"
SPACE_NEGATIVE_FRACTION = "space_separated_negative_fraction"
X2_DECIDER_DISAGREEMENT = "x2_sphere_decider_disagreement"

# (defect, argv): requests that hit a known defect at the time of writing.
DEFECT_PROBES = (
    # exact orbits past 12 steps exceed the 4300-digit int-to-string limit (exit 1)
    [(INT_STR_LIMIT, ["orbit", "--p=3", "--a=-2", "--c=1", f"--x0={x0}", f"--steps={n}"])
     for x0, n in ((5, 13), (7, 14), (5, 15), (5, 16))]
    # argparse reads "-2/3" as an option, not a value (exit 1)
    + [(SPACE_NEGATIVE_FRACTION, ["analyze", "--p", "3", "--a", "-2/3", "--c", "1"]),
       (SPACE_NEGATIVE_FRACTION, ["periodic", "--p", "5", "--q", "-1/3"])]
    # case-3 x2 spheres where the oracle sees one cycle and the theorem says
    # notErgodic: VerificationError escapes cli.main as a traceback
    + [(X2_DECIDER_DISAGREEMENT, ["ergodic", f"--p={p}", f"--a={a}", f"--c={c}",
                                  f"--radius-exp={e}", "--center=x2", "--oracle-depth=3"])
       for p, a, c, e in ((3, "1/18", "-4/3", -1), (5, "-7/275", "-3/5", -1),
                          (7, "1/12", "1/2", -2))]
)


def run_defect_probe(defect: str, argv: list) -> str:
    """'defect' (fails the known way), 'fixed' (valid report) or 'other'.

    Probes only report: a defect that is fixed, or fails another way, does
    not make the run incorrect.
    """
    try:
        code, out, err = call_cli(argv + ["--json"])
    except Exception as exc:  # noqa: BLE001 - classified below
        known = defect == X2_DECIDER_DISAGREEMENT and "deciders disagree" in str(exc)
        return "defect" if known else "other"
    if code == 0:
        try:
            json.loads(out)
        except ValueError:
            return "other"
        return "fixed"
    if code == 1 and defect == INT_STR_LIMIT and "Exceeds the limit" in err:
        return "defect"
    if code == 1 and defect == SPACE_NEGATIVE_FRACTION and "expected one argument" in err:
        return "defect"
    return "other"


BUILDERS = {"oracle_deep": oracle_deep, "orbit_long": orbit_long,
            "request_mix": request_mix}
WARMUPS = {"oracle_deep": oracle_warmup, "orbit_long": orbit_warmup,
           "request_mix": request_warmup}
# ops run once after the timed passes; their times are reported, not scored
UNSCORED = {"oracle_deep": oracle_flagships}
