"""Per-call times of the layers of padicdyn.

Times ``padic._div_triples``, ``padic._int_valuation`` and
``CanonicalMap._step_triple`` (which returns its input's distance to x2)
on fixed seeded inputs, the inverse of a random unit modulo p**n by
``pow(u, -1, p**n)`` and by ``padic._inverse_unit``, also at the orbit
precisions 24, 64 and 256, and ``orbit`` of (p, a, c, x0) = (3, -2, 1, 5)
at precision 64 in auto and truncated mode, whose exact iterates outgrow
12,000 bits at step 13. For the maps of MAPS it times the construction
``CanonicalMap(p, a, c)``, ``classify()`` on a freshly built map (the
construction included), ``invariant_spheres()`` on a freshly built map
and ``multiplier_x2()``. On the periodic path it times ``q_sweep(p, 8)``
for p in SWEEP_PRIMES and ``three_periodic_from_q(7, 1)``. On the
ergodicity path it times, at the spheres of ORACLE_SPHERES (one per prime
at its ``oracle_deep`` depth) and at ORACLE_FLAGSHIP (p = 2, depth 14), the
table of inverses of 1 + pZ mod p**depth (``_inverse_table``, where the
checkout has it), one ``_ball_permutation`` level and
``decide_ergodicity``; ``mod4_criterion`` of the golden p = 2 sphere's
unit form; and ``verify_rho`` plus ``isometry_check`` with 32 samples,
unseeded and seeded, next to ``sampled_checks``, which runs both on one
draw. On the request path it times ``isometry_check`` and
``sampled_checks`` with 32 samples, ``rho`` and ``rescale_to_unit`` at the
spheres of ISOMETRY_SPHERES; the sphere readers take a unit form built
before the timing. It also times ``verify_orbit_structure`` with 32 samples
on the 2-cycle of the ``periodic_two_cycle_structure`` golden
(p, a, c) = (3, -1, 1/2); ``isometry_check`` at the larger inputs of
ISOMETRY_LARGE (up to 1024 samples at radius exponent -256), best of
LARGE_REPEAT single calls; ``TruncatedPadic.digits`` at 64, 256 and 4096
digits; ``hensel_sqrt`` of seeded squares in Q_p that are not rational
squares, at p in SQRT_PRIMES to the precisions of PRECISIONS and at
SQRT_DEEP (p = 2 at 4096 digits, best of REPEAT passes over SQRT_DEEP_INPUTS
roots); ``cli.build_parser()`` and ``cli._scan`` of one well-formed request
of each command (the argv of SCAN_REQUESTS with ``--json``); an in-process
``cli.main`` of each of the six golden commands with ``--json`` (stdout
captured); and the writing of those six reports by the one-pass
``cli._write``, as ``cli._emit`` hands them on.
Prints one JSON object of microseconds per call (best of REPEAT
timeit runs), and under "import_cli" the time of ``import padicdyn.cli`` in
IMPORT_RUNS fresh processes run one after another with PYTHONPATH set to
``--src`` (median and minimum, in milliseconds, timed inside each process),
with whether PYTHONDONTWRITEBYTECODE is set: when it is, every process
compiles the package from source. Run it on two checkouts on the same
machine to compare them:

    python3 tools/time_layers.py --src src
    python3 tools/time_layers.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction

PRIMES = (2, 3, 5, 7)
PRECISIONS = (24, 64, 256)
VALUATIONS = (0, 1, 2, 8, 64, 256)
VALUATION_PRIMES = (2, 3, 7, 1021)
INVERSE_PRIMES = (2, 3, 7)
INVERSE_BITS = (16, 24, 32, 40, 48, 64, 96, 128, 256, 512)
ORBIT_STEPS = (12, 13, 25, 150)
# (p, a, c): the golden analyze maps (cases 4 and 2), a case-5 map and a case-3
# map with larger heights
MAPS = ((3, "-2", "1"), (5, "-1", "5"), (3, "3", "1"), (7, "-26/3", "5/2"))
SWEEP_PRIMES = (2, 3, 5, 7)
SWEEP_HEIGHT = 8
ISOMETRY_SPHERES = ((2, 2, 1, "x1", -2), (3, -2, 1, "x1", -1), (5, 3, 1, "x2", -1))
# (p, a, c, center, e, oracle depth): the golden spheres at p = 2 and 3 and one
# sphere each at p = 5 and 7, at the depths of the oracle_deep workload
ORACLE_SPHERES = ((2, 2, 1, "x1", -2, 8), (3, -2, 1, "x1", -1, 5), (5, 3, 1, "x2", -1, 4),
                  (7, 3, 1, "x1", -2, 3))
# oracle_deep's unscored p = 2 flagship: (p, a, c, center, e, depth)
ORACLE_FLAGSHIP = (2, 2, 1, "x1", -2, 14)
# (p, a, c, center, e, samples)
ISOMETRY_LARGE = ((3, -2, 1, "x1", -16, 833), (2, 2, 1, "x1", -2, 1024),
                  (101, 1, 1, "x1", -256, 1024))
LARGE_REPEAT = 3
DIGIT_COUNTS = (64, 256, 4096)
SQRT_PRIMES = (2, 3, 7)
# (p, precision): the p = 2 root at a precision near the bit budget
SQRT_DEEP = (2, 4096)
SQRT_DEEP_INPUTS = 4
GOLDEN_COMMANDS = {
    "analyze_case4": ["analyze", "--p", "3", "--a", "-2", "--c", "1"],
    "analyze_case2": ["analyze", "--p", "5", "--a", "-1", "--c", "5"],
    "ergodic_p2_ergodic": ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"],
    "ergodic_p3_notergodic": ["ergodic", "--p", "3", "--a", "-2", "--c", "1",
                              "--radius-exp", "-1"],
    "periodic_two_cycle": ["periodic", "--p", "7", "--a", "4", "--c", "3"],
    "conjugate_double_root": ["conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1",
                              "--d", "1"],
}
# one request per command: the golden ones, and orbit_exact_case4's
SCAN_REQUESTS = {
    "analyze": GOLDEN_COMMANDS["analyze_case4"][1:],
    "orbit": ["--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--steps", "8"],
    "ergodic": GOLDEN_COMMANDS["ergodic_p2_ergodic"][1:],
    "periodic": GOLDEN_COMMANDS["periodic_two_cycle"][1:],
    "conjugate": GOLDEN_COMMANDS["conjugate_double_root"][1:],
}
INPUTS = 64
REPEAT = 7
IMPORT_RUNS = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import padicdyn.cli; "
                "print(time.perf_counter() - t)")


def _units(rng: random.Random, p: int, n: int) -> list[int]:
    mod = p ** n
    out = []
    while len(out) < INPUTS:
        u = rng.randrange(1, mod)
        if u % p:
            out.append(u)
    return out


def _per_call(fn, args: list) -> float:
    """Microseconds per call of fn(*a) over the inputs, best of REPEAT."""
    loops = max(1, 2000 // len(args))
    best = min(timeit.repeat(lambda: [fn(*a) for a in args], number=loops, repeat=REPEAT))
    return round(best / loops / len(args) * 1e6, 3)


def _best_us(fn, number: int) -> float:
    """Microseconds per call of fn(), best of REPEAT runs of ``number`` calls."""
    return round(min(timeit.repeat(fn, number=number, repeat=REPEAT)) / number * 1e6, 3)


def _import_cli(src: str) -> dict:
    """Milliseconds of ``import padicdyn.cli`` in fresh processes."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    times = [1000 * float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                         check=True, capture_output=True,
                                         text=True).stdout)
             for _ in range(IMPORT_RUNS)]
    return {"runs": IMPORT_RUNS, "median_ms": round(statistics.median(times), 2),
            "min_ms": round(min(times), 2),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE") or None}


def _squares(rng: random.Random, p: int, count: int) -> list[Fraction]:
    """Nonzero squares in Q_p that are not rational squares."""
    from padicdyn.padic import is_square, rational_sqrt

    out = []
    while len(out) < count:
        x = (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
             * Fraction(p) ** rng.randint(-4, 4))
        if x and is_square(x, p) and rational_sqrt(x) is None:
            out.append(x)
    return out


def _sqrt_path(out: dict) -> None:
    from padicdyn.padic import hensel_sqrt

    out["hensel_sqrt"] = {}
    for p in SQRT_PRIMES:
        rng = random.Random(f"layers:sqrt:{p}")
        xs = _squares(rng, p, INPUTS)
        for n in PRECISIONS:
            out["hensel_sqrt"][f"p={p} N={n}"] = _per_call(hensel_sqrt, [(x, n, p) for x in xs])
    p, n = SQRT_DEEP
    xs = _squares(random.Random(f"layers:sqrt:{p}:{n}"), p, SQRT_DEEP_INPUTS)
    out["hensel_sqrt"][f"p={p} N={n}"] = round(_best_us(
        lambda: [hensel_sqrt(x, n, p) for x in xs], 1) / len(xs), 3)


def _map_facts(out: dict) -> None:
    from padicdyn.dynamics import CanonicalMap

    out["canonical_map"], out["classify_fresh"], out["multiplier_x2"] = {}, {}, {}
    out["invariant_spheres_fresh"] = {}
    for p, a, c in MAPS:
        a, c = Fraction(a), Fraction(c)
        case = f"p={p} a={a} c={c}"
        m = CanonicalMap(p, a, c)
        out["canonical_map"][case] = _best_us(lambda: CanonicalMap(p, a, c), 2000)
        out["classify_fresh"][case] = _best_us(lambda: CanonicalMap(p, a, c).classify(), 500)
        out["invariant_spheres_fresh"][case] = _best_us(
            lambda: CanonicalMap(p, a, c).invariant_spheres(), 500)
        out["multiplier_x2"][case] = _best_us(m.multiplier_x2, 2000)


def _periodic_path(out: dict) -> None:
    from padicdyn import periodic

    out["q_sweep"] = {f"p={p} h={SWEEP_HEIGHT}": _best_us(
        lambda: periodic.q_sweep(p, SWEEP_HEIGHT), 5) for p in SWEEP_PRIMES}
    out["three_periodic_from_q"] = {"p=7 q=1": _best_us(
        lambda: periodic.three_periodic_from_q(7, 1), 500)}


def _ergodicity_path(out: dict) -> None:
    from padicdyn import ergodicity
    from padicdyn.dynamics import CanonicalMap, SphereSpec

    out["ball_permutation"], out["decide_ergodicity"] = {}, {}
    # absent from checkouts whose kernel takes one modular inverse per ball
    inverse_table = getattr(ergodicity, "_inverse_table", None)
    if inverse_table:
        out["inverse_table"] = {}
    for (p, a, c, center, e, depth), number in ([(s, 20) for s in ORACLE_SPHERES]
                                                + [(ORACLE_FLAGSHIP, 1)]):
        m, sphere = CanonicalMap(p, Fraction(a), Fraction(c)), SphereSpec(center, e)
        case = f"p={p} {center} e={e} depth={depth}"
        form = ergodicity.rescale_to_unit(m, sphere)
        if inverse_table:
            out["inverse_table"][f"p={p} depth={depth}"] = _best_us(
                lambda: inverse_table(p, p ** depth), number)
        out["ball_permutation"][case] = _best_us(
            lambda: ergodicity._ball_permutation(form, depth), number)
        out["decide_ergodicity"][case] = _best_us(
            lambda: ergodicity.decide_ergodicity(m, sphere, depth), number)
    m, sphere = CanonicalMap(2, Fraction(2), Fraction(1)), SphereSpec("x1", -2)
    form = ergodicity.rescale_to_unit(m, sphere)
    out["mod4_criterion"] = _best_us(
        lambda: ergodicity.mod4_criterion(form.numerator, form.denominator), 500)
    out["verify_rho+isometry_check"], out["sampled_checks"] = {}, {}
    for seed in (None, 1):
        case = f"p=2 x1 e=-2 samples=32 seed={seed}"
        out["verify_rho+isometry_check"][case] = _best_us(
            lambda: (ergodicity.verify_rho(form, 32, seed),
                     ergodicity.isometry_check(form, 32, seed)), 20)
        out["sampled_checks"][case] = _best_us(
            lambda: ergodicity.sampled_checks(form, 32, seed), 20)


def _request_path(out: dict) -> None:
    from padicdyn import cli, ergodicity, periodic
    from padicdyn.dynamics import CanonicalMap, SphereSpec
    from padicdyn.padic import TruncatedPadic

    out["isometry_check"], out["sampled_checks_spheres"], out["rho"] = {}, {}, {}
    out["rescale_to_unit"] = {}
    for p, a, c, center, e in ISOMETRY_SPHERES:
        m, sphere = CanonicalMap(p, Fraction(a), Fraction(c)), SphereSpec(center, e)
        form = ergodicity.rescale_to_unit(m, sphere)
        out["rescale_to_unit"][f"p={p} {center} e={e}"] = _best_us(
            lambda: ergodicity.rescale_to_unit(m, sphere), 200)
        out["rho"][f"p={p} {center} e={e}"] = _best_us(lambda: ergodicity.rho(form), 200)
        for seed in (None, 1):
            case = f"p={p} {center} e={e} seed={seed}"
            out["isometry_check"][case] = _best_us(
                lambda: ergodicity.isometry_check(form, 32, seed), 10)
            out["sampled_checks_spheres"][case] = _best_us(
                lambda: ergodicity.sampled_checks(form, 32, seed), 10)
    m = CanonicalMap(3, Fraction(-1), Fraction(1, 2))
    orb = periodic.two_periodic(m)
    sphere = SphereSpec("x2", -m.val(orb.points[0] - m.x2))
    out["verify_orbit_structure"] = {"p=3 a=-1 c=1/2 samples=32": _best_us(
        lambda: periodic.verify_orbit_structure(m, orb, sphere, 32), 20)}
    out["isometry_check_large"] = {}
    for p, a, c, center, e, n in ISOMETRY_LARGE:
        form = ergodicity.rescale_to_unit(CanonicalMap(p, Fraction(a), Fraction(c)),
                                          SphereSpec(center, e))
        out["isometry_check_large"][f"p={p} {center} e={e} samples={n}"] = round(min(
            timeit.repeat(lambda: ergodicity.isometry_check(form, n), number=1,
                          repeat=LARGE_REPEAT)) * 1e6, 3)
    out["digits"] = {}
    for p in PRIMES:
        for n in DIGIT_COUNTS:
            rng = random.Random(f"layers:digits:{p}:{n}")
            t = TruncatedPadic(p, 0, _units(rng, p, n)[0], n)
            out["digits"][f"p={p} P={n}"] = _best_us(t.digits, 20)
    out["build_parser"] = {"full": _best_us(cli.build_parser, 20)}
    out["scan"] = {cmd: _best_us(lambda: cli._scan(cmd, argv + ["--json"]), 200)
                   for cmd, argv in SCAN_REQUESTS.items()}
    out["cli_main"] = {}
    for name, argv in GOLDEN_COMMANDS.items():
        def request(argv=argv + ["--json"]):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        out["cli_main"][name] = _best_us(request, 10)
    out["write_reports"] = _write_reports(cli)


def _write_reports(cli) -> dict:
    """Microseconds to serialize the reports of the six golden commands, all
    six per call."""
    reports = []
    emit = cli._emit

    def grab(args, report, lines):
        reports.append({**report, "command": args.cmd, "version": cli.__version__})
    cli._emit = grab
    try:
        for argv in GOLDEN_COMMANDS.values():
            cli.main(argv + ["--json"])
    finally:
        cli._emit = emit
    def write():
        texts = []
        for r in reports:
            text = []
            cli._write(r, text, "\n")
            text.append("\n")
            texts.append("".join(text))
        return texts
    return {"reports": len(reports), "six_reports_us": _best_us(write, 200)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    args = parser.parse_args()
    import_cli = _import_cli(args.src)
    sys.path.insert(0, args.src)
    from padicdyn import padic
    from padicdyn.dynamics import CanonicalMap, orbit

    out = {"div_triples": {}, "step_triple": {}, "inverse_unit_orbit": {},
           "int_valuation": {}}
    for p in PRIMES:
        m = CanonicalMap(p, Fraction(-2), Fraction(1))
        for n in PRECISIONS:
            rng = random.Random(f"layers:{p}:{n}")
            pairs = list(zip(_units(rng, p, n), _units(rng, p, n)))
            div = [(p, 0, u1, n, 0, u2, n) for u1, u2 in pairs]
            case = f"p={p} P={n}"
            out["div_triples"][case] = _per_call(padic._div_triples, div)
            steps = []
            for u, _ in pairs:
                try:
                    m._step_triple(0, u, n)
                except ArithmeticError:  # a start at a pole of f
                    continue
                steps.append((0, u, n))
            out["step_triple"][case] = _per_call(m._step_triple, steps)
            out["inverse_unit_orbit"][case] = _per_call(
                padic._inverse_unit, [(u, p, n) for u, _ in pairs])
    for p in VALUATION_PRIMES:
        rng = random.Random(f"layers:valuation:{p}")
        for v in VALUATIONS:
            values = [p ** v * u for u in _units(rng, p, 20)]
            out["int_valuation"][f"p={p} v={v}"] = _per_call(
                padic._int_valuation, [(x, p) for x in values])
    out["inverse_pow"], out["inverse_unit"] = {}, {}
    for p in INVERSE_PRIMES:
        for bits in INVERSE_BITS:
            n = max(1, round(bits / math.log2(p)))
            rng = random.Random(f"layers:inverse:{p}:{n}")
            units = [(u, p, n) for u in _units(rng, p, n)]
            case = f"p={p} n={n} bits={(p ** n).bit_length()}"
            out["inverse_pow"][case] = _per_call(lambda u, p, n: pow(u, -1, p ** n), units)
            out["inverse_unit"][case] = _per_call(padic._inverse_unit, units)
    out["orbit"] = {}
    m = CanonicalMap(3, Fraction(-2), Fraction(1))
    for steps in ORBIT_STEPS:
        for mode in ("auto", "truncated"):
            out["orbit"][f"steps={steps} {mode}"] = _best_us(
                lambda: orbit(m, Fraction(5), steps, mode=mode, precision=64), 20)
    _sqrt_path(out)
    _map_facts(out)
    _periodic_path(out)
    _ergodicity_path(out)
    _request_path(out)
    out["import_cli"] = import_cli
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
