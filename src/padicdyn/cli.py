"""Command-line front end: analyze / orbit / ergodic / periodic / conjugate.

All analysis lives in the library modules; this module only parses
arguments, composes module operations and serializes reports. JSON output
is deterministic (sorted keys, exact rational strings and integer
exponents, no floats, no timestamp unless --timestamp is passed).

Every command is described once, in ``_COMMANDS``. When the first argument
names a command, ``main`` reads a well-formed request straight off that
command's entry and builds no parser. Anything the reader does not take
(help, version, abbreviations, malformed or missing values, stray
arguments) goes, whole, to argparse's one parser, with every command as a
subparser, so every help, usage and error text is argparse's own. No parser
is kept between calls.

A command builds its report from the library's result objects, picking
fields without converting them, and ``_emit`` writes it in one pass:
``_write`` walks the report once, converts each value (the one place that
does) and appends the text, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` writes, to a list that
``_emit`` prints with one write. A value that is not a report type, such as
a float, raises TypeError before anything is printed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from typing import Optional

from . import __version__
from .conjugation import GeneralMap, conjugate, verify_conjugacy
from .dynamics import CanonicalMap, Classification, SphereSpec, _require_precision_budget, orbit
from .errors import (
    InconsistentParametersError,
    NotApplicableError,
    PoleHitError,
    PrecisionError,
    UnsupportedCaseError,
    VerificationError,
)
from .ergodicity import decide_ergodicity, sampled_checks
from .padic import INFINITY, TruncatedPadic, parse_rational
from .periodic import (
    sphere_conditions,
    three_periodic_from_q,
    two_periodic,
    verify_orbit_structure,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSUPPORTED = 2
EXIT_VERIFICATION = 3

#: Largest |--radius-exp| that ``ergodic`` accepts. The sampled checks on
#: the sphere work on rationals of about |e| * log2(p) bits: at p = 101 with
#: oracle depth 2, e = -256 took 0.16 s against 0.05 s at e = -2 (Intel
#: Xeon, Python 3.11).
RADIUS_EXPONENT_BUDGET = 256

#: Largest --samples. The sampled checks evaluate f exactly once per
#: sample, on rationals of about |e| * log2(p) bits, and read the
#: displacement and the isometry off the integer numerators and
#: denominators of x and f(x): two valuations per sample for the
#: displacement, one valuation and two residues for the isometry, and a
#: few integer operations per sample and ball level. At the largest radius
#: and prime that ``ergodic`` admits (e = -256, p = 1021, oracle depth 2)
#: the request took 1.08 s at 32 samples, 1.34 s at 1024 and 1.60 s at
#: 2048 (Intel Xeon, Python 3.11): the cap keeps the samples' share to
#: about a quarter of a second.
SAMPLE_BUDGET = 1024


#: A report value's JSON string, escaped as json writes it (ensure_ascii).
_quote = json.encoder.encode_basestring_ascii


@cache
def _field_names(kind: type) -> Optional[tuple[str, ...]]:
    """The attributes that a report value of type ``kind`` is written as, in
    key order, or None when it is not a record: ``p``, ``a``, ``c`` for a
    CanonicalMap, every field for another dataclass."""
    if kind is CanonicalMap:
        return ("a", "c", "p")
    if is_dataclass(kind):
        return tuple(sorted(f.name for f in fields(kind)))
    return None


def _fields(record, *names) -> dict:
    """The attributes ``names`` of a record (all that it is written as when
    none are given), as a dict of unconverted values."""
    return {name: getattr(record, name) for name in names or _field_names(type(record))}


def _write(value, out: list, newline: str) -> None:
    """Append the JSON text of a report value to ``out``, byte for byte as
    ``json.dumps(..., sort_keys=True, indent=2)`` writes the converted value.

    ``newline`` is a newline and the indent of the line ``value`` starts on.
    This is the one place where leaves are converted: strings, ints, bools and
    None are written as json writes them; exact rationals and truncated
    p-adics become their ``str``, INFINITY becomes "inf"; tuples and lists
    become lists, dicts objects with sorted keys, and a record (see
    _field_names) the object of its attributes. Anything else, a float or a
    key that is not a str included, raises TypeError.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        _write_members(sorted(value.items()), out, newline)
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is Fraction or kind is TruncatedPadic:
        out.append(_quote(str(value)))
    elif value is INFINITY:
        out.append('"inf"')
    elif (names := _field_names(kind)) is not None:
        _write_members([(name, getattr(value, name)) for name in names], out, newline)
    else:
        raise TypeError(f"a report value of type {kind.__name__} is not JSON serializable")


def _write_members(members: list, out: list, newline: str) -> None:
    """Append a JSON object of (key, value) members sorted by key to ``out``;
    a key that is not a str raises TypeError (from _quote)."""
    if not members:
        out.append("{}")
        return
    inner = newline + "  "
    separator = "{" + inner
    for key, item in members:
        out.append(separator + _quote(key) + ": ")
        _write(item, out, inner)
        separator = "," + inner
    out.append(newline + "}")


def _analyze_report(m: CanonicalMap, cls: Classification, input_echo, conjugation_block=None):
    v_alpha, v_beta = m.alpha_beta()
    classification = _fields(cls)
    for point in ("x1", "x2"):
        fixed = classification[point] = _fields(classification[point])
        fixed["region"] = {**_fields(fixed["region"]), "open": True}
    inv = m.invariant_spheres()
    poles = m.poles()
    report = {
        "input": input_echo,
        "map": {
            **_fields(m, "p", "a", "c", "discriminant"),
            "fixed_points": _fields(m, "x1", "x2"),
            "poles": poles,
            "alpha_norm_exponent": -v_alpha,
            "beta_norm_exponent": -v_beta,
            "discriminant_is_square_in_qp": poles.kind != "absent",
        },
        "classification": classification,
        "invariant_spheres": {
            "x1": {"radius_exponent_bound_exclusive": inv.x1_exponent_bound},
            "x2": (
                None
                if inv.x2_exponent_bound is None
                else {"radius_exponent_bound_exclusive": inv.x2_exponent_bound}
            ),
        },
    }
    if conjugation_block is not None:
        report["conjugation"] = conjugation_block
    return report


def _conjugation_dict(m: GeneralMap, result):
    return {**_fields(result), "fixed_point_cubic": m.fixed_point_cubic()}


def _emit(args, report, human_lines) -> None:
    """Print the report, with the ``command`` and ``version`` keys (and
    ``generated_at`` under --timestamp) that every report carries, as JSON
    under --json, otherwise the human-readable lines.

    The JSON text is written whole into a list first and printed with one
    write, so a report that cannot be written prints nothing."""
    report = {**report, "command": args.cmd, "version": __version__}
    if args.timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.json:
        text = []
        _write(report, text, "\n")
        text.append("\n")
        sys.stdout.write("".join(text))
    else:
        for line in human_lines:
            print(line)


# -- subcommand handlers ------------------------------------------------------


def _cmd_analyze(args) -> int:
    four_param = args.b is not None or args.d is not None
    if four_param:
        if args.b is None or args.d is None:
            raise ValueError("four-parameter input needs all of --a --b --c --d")
        gm = GeneralMap(args.p, args.a, args.b, args.c, args.d)
        result = conjugate(gm)
        if result.canonical is None:
            raise UnsupportedCaseError(
                "double fixed point is not at the origin (three-parameter family); "
                "no analysis available",
                label="three-parameter",
            )
        m = result.canonical
        echo, block = gm, _conjugation_dict(gm, result)
    else:
        m = CanonicalMap(args.p, args.a, args.c)
        echo, block = m, None
    cls = m.classify()
    report = _analyze_report(m, cls, echo, block)
    lines = [
        f"f(x) = {m.a}*x / (x^2 + {m.c}*x + {m.a}) over Q_{m.p}",
        f"alpha = {m.p}^{report['map']['alpha_norm_exponent']}, "
        f"beta = {m.p}^{report['map']['beta_norm_exponent']}",
        f"case {cls.case}: x1 = 0 is {cls.x1.kind}; x2 = {m.x2} is {cls.x2.kind}",
        f"x2 multiplier = {cls.x2.multiplier}, "
        f"|f'(x2)|_{m.p} = {m.p}^-({cls.x2.multiplier_norm_exponent})",
        f"x1 region: {cls.x1.region.kind} U_({m.p}^{cls.x1.region.radius_exponent})({cls.x1.region.center})",
        f"x2 region: {cls.x2.region.kind} U_({m.p}^{cls.x2.region.radius_exponent})({cls.x2.region.center})",
    ]
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    m = CanonicalMap(args.p, args.a, args.c)
    result = orbit(m, args.x0, args.steps, mode=args.mode, precision=args.precision)
    report = {
        "input": {**_fields(m), "x0": args.x0, "steps": args.steps},
        **_fields(result, "mode", "points", "pole_hit"),
        "distance_exponents": {"x1": result.dist_x1_exponents, "x2": result.dist_x2_exponents},
    }
    lines = [f"orbit mode: {result.mode}, steps completed: {result.steps_completed}"]
    for k, (e1, e2) in enumerate(zip(result.dist_x1_exponents, result.dist_x2_exponents)):
        lines.append(f"step {k}: |x - x1| = p^{e1}, |x - x2| = p^{e2}")
    if result.pole_hit is not None:
        lines.append(f"pole hit at step {result.pole_hit.step}: {result.pole_hit.point}")
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_ergodic(args) -> int:
    m = CanonicalMap(args.p, args.a, args.c)
    sphere = SphereSpec(args.center, args.radius_exp)
    decision = decide_ergodicity(m, sphere, depth=args.oracle_depth)
    rho_exp, iso = sampled_checks(decision.form, count=args.samples, seed=args.seed)
    if rho_exp is None:
        displacement = {
            "rho_exponent": None,
            "note": "radius equals |c|_p; displacement is point-dependent",
        }
    else:
        displacement = {
            "rho_exponent": rho_exp,
            "samples_checked": args.samples,
            "matches_samples": True,
        }
    mod4 = decision.mod4
    if mod4 is not None:
        mod4 = {**_fields(mod4),
                "sums": {**_fields(mod4.sums), "residues_mod4": mod4.sums.residues()}}
    report = {
        "input": {
            **_fields(m),
            "center": args.center,
            "radius_exponent": args.radius_exp,
            "oracle_depth": decision.oracle.depth,
            "samples": args.samples,
            "seed": args.seed,
        },
        "sphere": {**_fields(sphere), "center_point": m.center_point(sphere.center)},
        "theorem": decision.theorem,
        "mod4": mod4,
        "oracle": decision.oracle,
        "agreement": True,
        "displacement": displacement,
        # every ball of radius rho maps into itself and no smaller ball does
        "minimal_invariant_ball_exponent": displacement["rho_exponent"],
        "isometry": {**_fields(iso), "ok": True},
        "verdict": decision.verdict,
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(decision.oracle.to_csv())
    lines = [
        f"sphere S_({m.p}^{sphere.radius_exponent})({sphere.center}): {decision.verdict}",
        f"theorem: {decision.theorem.verdict} ({decision.theorem.reason})",
        f"oracle (depth {decision.oracle.depth}): "
        f"{'ergodic' if decision.oracle.ergodic else 'notErgodic'}",
    ]
    if decision.mod4 is not None:
        lines.append(
            f"mod-4 criterion: {'ergodic' if decision.mod4.ergodic else 'notErgodic'}"
            + (f" (case {decision.mod4.case})" if decision.mod4.case else "")
        )
    lines.append("all deciders agree")
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_periodic(args) -> int:
    if args.q is not None and (args.a is not None or args.c is not None):
        raise ValueError("periodic takes either --q or both --a and --c, not both")
    if args.q is not None:
        _require_precision_budget(args.p, args.precision)  # as two_periodic does
        m, orb = three_periodic_from_q(args.p, args.q)
        report = {
            "kind": "three_periodic",
            "input": {"p": args.p, "q": args.q},
            "h_q": m.a,
            "map": m,
            **_fields(orb, "points", "multiplier_norm_exponent"),
            "p6_at_a": "0",  # P(a) = 0 for every q: see three_periodic_from_q
            "sphere_conditions": sphere_conditions(m),
        }
        lines = [
            f"3-periodic family: q = {args.q}, a = h(q) = {m.a}, c = {m.c}",
            f"orbit: {' -> '.join(map(str, orb.points))} -> {orb.points[0]}",
            f"multiplier norm exponent: {orb.multiplier_norm_exponent}",
        ]
        _emit(args, report, lines)
        return EXIT_OK
    if args.a is None or args.c is None:
        raise ValueError("periodic needs either --q or both --a and --c")
    m = CanonicalMap(args.p, args.a, args.c)
    orb = two_periodic(m, precision=args.precision)
    if orb is None:
        report = {
            "kind": "two_periodic",
            "input": m,
            "exists": False,
            "reason": "c^2 - 2a is not a nonzero square in Q_p",
        }
        _emit(args, report, ["no 2-periodic orbit: c^2 - 2a is not a nonzero square"])
        return EXIT_OK
    on_sphere = structure = None
    if orb.exact:
        sphere = SphereSpec("x2", -m.val(orb.points[0] - m.x2))  # s != 0: finite
        if m.sphere_is_invariant(sphere):
            rho_exp, checked = verify_orbit_structure(m, orb, sphere, samples=args.samples,
                                                      seed=args.seed)
            on_sphere = sphere
            structure = {
                "rho_exponent": rho_exp,
                "containment_ok": True,
                "multiplier_norm_exponent": orb.multiplier_norm_exponent,
                "ball_mapping_checked": checked,
            }
    report = {
        "kind": "two_periodic",
        "input": m,
        "exists": True,
        **_fields(orb),
        "on_invariant_sphere": on_sphere,
        "structure": structure,
    }
    lines = [
        f"2-periodic orbit: {{{', '.join(map(str, orb.points))}}}"
        + ("" if orb.exact else " (truncated)"),
        f"multiplier norm exponent: {orb.multiplier_norm_exponent}",
    ]
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    gm = GeneralMap(args.p, args.a, args.b, args.c, args.d)
    result = conjugate(gm)
    ts = [Fraction(k, 7) for k in range(1, 21)]
    checked = verify_conjugacy(gm, result, ts)
    report = {
        "input": gm,
        **_conjugation_dict(gm, result),
        "conjugacy_samples_checked": checked,
    }
    lines = [
        f"fixed-point cubic roots: x1 = {result.x1} (simple), x2 = {result.x2} (double)",
        f"conjugated map: (-({result.x2})t^2 + {result.B}t) / (t^2 + {result.D}t + {result.B})",
        f"family: {result.family}",
    ]
    if result.canonical is not None:
        lines.append(
            f"canonical form: a = {result.canonical.a}, c = {result.canonical.c}"
        )
    _emit(args, report, lines)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


class _CliArgumentError(Exception):
    pass


def _rational(text: str) -> Fraction:
    """parse_rational for argparse, which would replace the message of a
    plain ValueError with the function's name."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: A token that is a value even though it starts with "-": a negative
#: fraction ("--a -2/3") is a value, as a negative integer is.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _CliArgumentError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops "--" from an option's values, so "--csv=--" would
        # give the option [] instead of refusing it
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


_REQUIRED = {"type": _rational, "required": True}
_OPTIONAL = {"type": _rational, "default": None}
_PRIME = ("--p", {"type": int, "required": True})

#: The options every command takes, added before the command's own.
_SHARED_OPTIONS = (
    ("--json", {"action": "store_true", "help": "emit a JSON report"}),
    ("--seed", {"type": int, "default": None, "help": "seed for sampled checks"}),
    ("--samples", {"type": int, "default": 32, "help": "sample count for checks"}),
    ("--timestamp", {"action": "store_true", "help": "include a generation timestamp"}),
)

#: name -> (help text, handler, (option, add_argument keywords) of its own options)
_COMMANDS = {
    "analyze": ("classify fixed points", _cmd_analyze, (
        _PRIME, ("--a", _REQUIRED), ("--b", _OPTIONAL), ("--c", _REQUIRED), ("--d", _OPTIONAL),
    )),
    "orbit": ("iterate f and profile norms", _cmd_orbit, (
        _PRIME, ("--a", _REQUIRED), ("--c", _REQUIRED), ("--x0", _REQUIRED),
        ("--steps", {"type": int, "required": True}),
        ("--mode", {"choices": ("auto", "exact", "truncated"), "default": "auto"}),
        ("--precision", {"type": int, "default": 64}),
    )),
    "ergodic": ("decide ergodicity on a sphere", _cmd_ergodic, (
        _PRIME, ("--a", _REQUIRED), ("--c", _REQUIRED),
        ("--radius-exp", {"type": int, "required": True}),
        ("--center", {"choices": ("x1", "x2"), "default": "x1"}),
        ("--oracle-depth", {"type": int, "default": None}),
        ("--csv", {"default": None, "help": "write the oracle cycle table to a file"}),
    )),
    "periodic": ("construct periodic orbits", _cmd_periodic, (
        _PRIME, ("--a", _OPTIONAL), ("--c", _OPTIONAL), ("--q", _OPTIONAL),
        ("--precision", {"type": int, "default": 32}),
    )),
    "conjugate": ("reduce a four-parameter map", _cmd_conjugate, (
        _PRIME, ("--a", _REQUIRED), ("--b", _REQUIRED), ("--c", _REQUIRED), ("--d", _REQUIRED),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser, with every command as a subparser."""
    # the help text shows the module docstring's first two paragraphs (none under -OO)
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="padicdyn", description=description)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs in _SHARED_OPTIONS + options:
            command.add_argument(option, **kwargs)
        command.set_defaults(func=handler)
    return parser


def _scan(cmd: str, argv: list[str]) -> argparse.Namespace | None:
    """What the parser returns for ``[cmd, *argv]``, read straight off
    ``_COMMANDS``, or None for any input this reader does not take.

    It takes only exact option names (``--opt value`` or ``--opt=value``; a
    flag without "="), separate values that do not start with "-" unless
    they are negative numbers, values that the option's type converts and
    that are among its choices, and input with every required option. A
    repeated option keeps its last value. Everything else (help, version,
    abbreviations, "--", malformed or missing values, stray arguments) is
    left to argparse, which parses it or prints its own message.
    """
    _, handler, options = _COMMANDS[cmd]
    table = dict(_SHARED_OPTIONS + options)
    seen = {}
    tokens = iter(argv)
    for token in tokens:
        option, eq, value = token.partition("=")
        kwargs = table.get(option)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            seen[option] = True
            continue
        if not eq:
            value = next(tokens, "--")  # a missing value is refused below
            if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                return None
        elif value == "--":  # argparse drops "--" from the values it converts
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        seen[option] = value
    args = argparse.Namespace(cmd=cmd, func=handler)
    for option, kwargs in table.items():
        if option in seen:
            value = seen[option]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default", False if kwargs.get("action") else None)
        setattr(args, option[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _scan(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:  # argparse parses what the scanner does not take
            args = build_parser().parse_args(argv)
        if args.samples < 1:
            raise _CliArgumentError(
                f"argument --samples: must be at least 1, got {args.samples}")
        if args.samples > SAMPLE_BUDGET:
            raise _CliArgumentError(
                f"argument --samples: {args.samples} is over the budget of "
                f"{SAMPLE_BUDGET} samples; the largest count that fits is {SAMPLE_BUDGET}")
        if args.cmd == "ergodic" and abs(args.radius_exp) > RADIUS_EXPONENT_BUDGET:
            raise _CliArgumentError(
                f"radius exponent {args.radius_exp} is over the budget: "
                f"|--radius-exp| must be at most {RADIUS_EXPONENT_BUDGET}")
    except _CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except (UnsupportedCaseError, InconsistentParametersError, NotApplicableError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except PrecisionError as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (VerificationError, PoleHitError) as exc:
        message = " ".join(str(exc).split())
        print(f"internal verification failed: {message}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
