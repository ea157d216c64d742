"""Statements of the padicdyn package that no CLI request executes.

Runs a seeded set of requests in this process through ``padicdyn.cli.main``,
with stdout and stderr captured: the golden, help and usage-error commands
of ``tests/test_cli.py`` (each golden command with and without ``--json``)
and the ``PINNED`` requests, then ``REQUESTS`` random requests (seed
``SEED``) over all five commands at p <= 11, one in ten at a composite p.
Prints the lines of ``src/padicdyn`` that no request executed, as
``tools/unreached.py`` prints those that no test executes, and the number
of requests per exit code on stderr. A line that only a library caller
reaches (the tests, the benchmark's ``q_sweep``) shows as unreached.

    python3 tools/cli_reach.py
    python3 tools/cli_reach.py --repo /path/to/other/checkout

The request set is fixed so that counts taken on two checkouts compare.

Exits 1 when a request raises out of ``main``, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from unreached import report_unreached

REQUESTS = 1500  # random requests after the fixed ones
SEED = 0  # seed of the random requests

# Fixed requests for paths that the random draws reach only by chance: a
# pole (s - c)/2 that loses all 24 of its digits (a = 3^30), which prints a
# truncated zero, and the p = 2 theorem around x2.
PINNED = (
    ["analyze", "--p", "3", "--a", "205891132094649", "--c", "1", "--json"],
    ["ergodic", "--p", "2", "--a", "1", "--c", "4", "--center", "x2", "--radius-exp", "-1"],
)


def _rational(rng: random.Random, p: int, height: int = 30) -> Fraction:
    """A signed rational of small height times a small power of p."""
    value = Fraction(rng.randint(1, height) * rng.choice((1, -1)), rng.randint(1, height))
    return value * Fraction(p) ** rng.randint(-2, 2)


def random_request(rng: random.Random) -> list[str]:
    """One argv over the five commands, with values of every p-adic size.

    Half of the four-parameter requests (``conjugate`` and some ``analyze``)
    have a double fixed point x2, so that they get past the root profile:
    their fixed-point cubic is (x - x1)(x - x2)^2, i.e. b = x1*x2^2,
    c = -(x1 + 2*x2) and d = a + x2^2 + 2*x1*x2, with x2 = 0 (the canonical
    form) in about a third of them.
    """
    p = rng.choice((4, 6, 9, 10)) if rng.random() < 0.1 else rng.choice((2, 3, 5, 7, 11))
    cmd = rng.choice(("analyze", "orbit", "ergodic", "periodic", "conjugate"))
    argv = [cmd, f"--p={p}"]
    four = cmd == "conjugate" or (cmd == "analyze" and rng.random() < 0.3)
    if cmd == "periodic" and rng.random() < 0.5:
        argv.append(f"--q={Fraction(rng.randint(-6, 6), rng.randint(1, 6))}")
    elif four and rng.random() < 0.5:
        a, x1 = _rational(rng, p), _rational(rng, p)
        x2 = 0 if rng.random() < 0.35 else _rational(rng, p)
        argv += [f"--a={a}", f"--c={-(x1 + 2 * x2)}", f"--b={x1 * x2 * x2}",
                 f"--d={a + x2 * x2 + 2 * x1 * x2}"]
    else:
        argv += [f"--a={_rational(rng, p)}", f"--c={_rational(rng, p)}"]
        if four:
            argv += [f"--b={_rational(rng, p)}", f"--d={_rational(rng, p)}"]
    if cmd == "orbit":
        argv += [f"--x0={_rational(rng, p)}", f"--steps={rng.randint(0, 30)}",
                 f"--mode={rng.choice(('auto', 'exact', 'truncated'))}",
                 f"--precision={rng.choice((8, 24, 64))}"]
    elif cmd == "ergodic":
        argv += [f"--radius-exp={rng.randint(-4, 0)}", f"--center={rng.choice(('x1', 'x2'))}",
                 f"--oracle-depth={rng.randint(2, 4)}", f"--samples={rng.randint(1, 16)}"]
    elif cmd == "periodic" and rng.random() < 0.3:
        argv.append(f"--precision={rng.choice((8, 32))}")
    if rng.random() < 0.3:
        argv.append(f"--seed={rng.randint(0, 99)}")
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/padicdyn and tests/test_cli.py are used")
    args = parser.parse_args(argv)
    repo = Path(args.repo).resolve()
    rng = random.Random(SEED)
    randoms = [random_request(rng) for _ in range(REQUESTS)]
    codes: Counter = Counter()
    escaped = []

    def run_requests() -> None:
        import test_cli
        from padicdyn.cli import main as cli_main

        fixed = [argv + flag for _, argv in test_cli.GOLDEN_CASES for flag in ([], ["--json"])]
        fixed += list(test_cli.HELP_COMMANDS.values()) + list(test_cli.USAGE_ERRORS.values())
        fixed += PINNED
        for request in fixed + randoms:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[cli_main(request)] += 1
                except SystemExit as exc:  # --help and --version
                    codes[exc.code] += 1
                except Exception as exc:  # noqa: BLE001 - reported below
                    escaped.append((request, exc))

    sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
    report_unreached(repo / "src" / "padicdyn", run_requests)
    print(f"{sum(codes.values()) + len(escaped)} requests; by exit code: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())), file=sys.stderr)
    for request, exc in escaped:
        print(f"escaped main: {' '.join(request)}: {exc!r}", file=sys.stderr)
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
