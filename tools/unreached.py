"""Statements of the padicdyn package that the test suite never executes.

Runs the Tier-1 suite (pytest on ``tests/``) in this process under
``sys.settrace`` and prints every line of ``src/padicdyn`` that holds
bytecode but raised no trace event, grouped into runs of consecutive
lines, with the source of each run's first line. A function's ``def``
line counts as reached when the module defines it; the lines of its body
count only when it runs. Code that the tests run in a child process
(``python -m padicdyn.cli``, the int-valuation timeout test) is not seen,
and neither is code under ``if __name__ == "__main__"``. Lines that only
``python -O`` would run are not told apart either.

    python3 tools/unreached.py                # the repository's src and tests
    python3 tools/unreached.py --repo /path/to/other/checkout

Prints the pytest summary on stderr and the unreached lines on stdout,
ending with a count per module. Exits with pytest's status.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _code_lines(code, top: bool) -> set[int]:
    """Lines holding bytecode in ``code`` and the code objects nested in it;
    a nested function's first line (its RESUME) is left to its definer."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    if not top:
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const, False)
    return lines


def _runs(lines: list[int]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [(a, b) for a, b in out]


def report_unreached(package: Path, run):
    """Call ``run()`` under ``sys.settrace`` and print the lines of
    ``package``'s modules that hold bytecode but raised no trace event,
    grouped into runs with the source of each run's first line, then a
    count per module. Returns what ``run`` returns.

    Only code of modules imported inside ``run`` counts its ``def`` lines
    as reached, so ``run`` should make the first import of the package.
    """
    files = {str(path): path for path in sorted(package.glob("*.py"))}
    executable = {name: _code_lines(compile(path.read_text(), name, "exec"), True)
                  for name, path in files.items()}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in reached:
            return local(frame, event, arg)
        return None

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    total = 0
    counts = []
    for name, path in files.items():
        missing = sorted(executable[name] - reached[name])
        total += len(missing)
        counts.append(f"{path.name}: {len(missing)} of {len(executable[name])}")
        source = path.read_text().splitlines()
        for a, b in _runs(missing):
            where = f"{path.name}:{a}" + (f"-{b}" if b > a else "")
            print(f"{where:24} {source[a - 1].strip()}")
    print(f"unreached: {total} lines ({'; '.join(counts)})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/padicdyn and tests/ are used")
    args = parser.parse_args(argv)
    repo = Path(args.repo).resolve()

    import pytest

    def run_tests() -> int:
        stdout, sys.stdout = sys.stdout, sys.stderr
        try:
            return pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                                str(repo / "tests")])
        finally:
            sys.stdout = stdout

    sys.path.insert(0, str(repo / "src"))
    os.chdir(repo)
    return int(report_unreached(repo / "src" / "padicdyn", run_tests))


if __name__ == "__main__":
    sys.exit(main())
