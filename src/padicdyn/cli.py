"""Command-line front end: analyze / orbit / ergodic / periodic / conjugate.

All analysis lives in the library modules; this module only parses
arguments, composes module operations and serializes reports. JSON output
is deterministic (sorted keys, exact rational strings and integer
exponents, no floats, no timestamp unless --timestamp is passed).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .conjugation import GeneralMap, conjugate, verify_conjugacy
from .dynamics import CanonicalMap, SphereSpec, orbit
from .errors import (
    InconsistentParametersError,
    NotApplicableError,
    PoleHitError,
    PrecisionError,
    UnsupportedCaseError,
    VerificationError,
)
from .ergodicity import decide_ergodicity, isometry_check, rho, verify_rho
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

#: Largest |--radius-exp| that ``ergodic`` accepts: the sampled checks on
#: the sphere take time quadratic in it.
RADIUS_EXPONENT_BUDGET = 256


def _json(value, *names):
    """The JSON form of a report value.

    Exact rationals and truncated p-adics become strings, INFINITY becomes
    "inf", tuples and lists become lists and dicts are mapped value by
    value. A dataclass becomes the dict of the attributes ``names`` (all of
    its fields when none are given); a CanonicalMap of ``p``, ``a``, ``c``
    by default.
    """
    if isinstance(value, (Fraction, TruncatedPadic)):
        return str(value)
    if value is INFINITY:
        return "inf"
    if isinstance(value, (tuple, list)):
        return [_json(x) for x in value]
    if isinstance(value, dict):
        return {key: _json(x) for key, x in value.items()}
    if isinstance(value, CanonicalMap):
        names = names or ("p", "a", "c")
    elif is_dataclass(value):
        names = names or [f.name for f in fields(value)]
    else:
        return value
    return {name: _json(getattr(value, name)) for name in names}


def _analyze_report(m: CanonicalMap, input_echo, conjugation_block=None):
    v_alpha, v_beta = m.alpha_beta()
    classification = _json(m.classify())
    for point in ("x1", "x2"):
        classification[point]["region"]["open"] = True
    inv = m.invariant_spheres()
    report = {
        "command": "analyze",
        "input": input_echo,
        "map": {
            **_json(m, "p", "a", "c", "discriminant"),
            "fixed_points": _json(m, "x1", "x2"),
            "poles": m.poles(),
            "alpha_norm_exponent": -v_alpha,
            "beta_norm_exponent": -v_beta,
            "discriminant_is_square_in_qp": m.discriminant_is_square(),
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
        "version": __version__,
    }
    if conjugation_block is not None:
        report["conjugation"] = conjugation_block
    return report


def _conjugation_dict(m: GeneralMap, result):
    return {**_json(result), "fixed_point_cubic": m.fixed_point_cubic()}


def _emit(args, report, human_lines) -> None:
    if args.timestamp:
        report = dict(report)
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.json:
        sys.stdout.write(json.dumps(_json(report), sort_keys=True, indent=2) + "\n")
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
        report = _analyze_report(m, gm, _conjugation_dict(gm, result))
    else:
        m = CanonicalMap(args.p, args.a, args.c)
        report = _analyze_report(m, m)
    cls = m.classify()
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
        "command": "orbit",
        "input": {**_json(m), "x0": args.x0, "steps": args.steps},
        **_json(result, "mode", "points", "pole_hit"),
        "distance_exponents": {"x1": result.dist_x1_exponents, "x2": result.dist_x2_exponents},
        "version": __version__,
    }
    lines = [f"orbit mode: {result.mode}, steps completed: {result.steps_completed}"]
    for k, (e1, e2) in enumerate(zip(result.dist_x1_exponents, result.dist_x2_exponents)):
        lines.append(f"step {k}: |x - x1| = p^{e1}, |x - x2| = p^{e2}")
    if result.pole_hit is not None:
        lines.append(f"pole hit at step {result.pole_hit.step}: {result.pole_hit.point}")
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_ergodic(args) -> int:
    if abs(args.radius_exp) > RADIUS_EXPONENT_BUDGET:
        raise ValueError(f"radius exponent {args.radius_exp} is over the budget: "
                         f"|--radius-exp| must be at most {RADIUS_EXPONENT_BUDGET}")
    m = CanonicalMap(args.p, args.a, args.c)
    sphere = SphereSpec(args.center, args.radius_exp)
    decision = decide_ergodicity(m, sphere, depth=args.oracle_depth)
    try:
        rho_exp = rho(m, sphere)
        verify_rho(m, sphere, count=args.samples, seed=args.seed)
        displacement = {
            "rho_exponent": rho_exp,
            "samples_checked": args.samples,
            "matches_samples": True,
        }
    except NotApplicableError:
        displacement = {
            "rho_exponent": None,
            "note": "radius equals |c|_p; displacement is point-dependent",
        }
    iso = isometry_check(m, sphere, count=args.samples, seed=args.seed)
    mod4 = _json(decision.mod4)
    if mod4 is not None:
        mod4["sums"]["residues_mod4"] = list(decision.mod4.sums.residues())
    report = {
        "command": "ergodic",
        "input": {
            **_json(m),
            "center": args.center,
            "radius_exponent": args.radius_exp,
            "oracle_depth": decision.oracle.depth,
            "samples": args.samples,
            "seed": args.seed,
        },
        "sphere": {**_json(sphere), "center_point": m.center_point(sphere.center)},
        "theorem": _json(decision.theorem, "verdict", "reason"),
        "mod4": mod4,
        "oracle": _json(decision.oracle, "depth", "ergodic", "levels"),
        "agreement": True,
        "displacement": displacement,
        # every ball of radius rho maps into itself and no smaller ball does
        "minimal_invariant_ball_exponent": displacement["rho_exponent"],
        "isometry": {**_json(iso, "pairs_checked"), "ok": True},
        "verdict": decision.verdict,
        "version": __version__,
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
    if args.q is not None:
        res = three_periodic_from_q(args.p, args.q)
        m = res.map
        report = {
            "command": "periodic",
            "kind": "three_periodic",
            "input": {"p": args.p, "q": res.q},
            "h_q": res.h,
            "map": m,
            **_json(res.orbit, "points", "multiplier_norm_exponent"),
            "p6_at_a": "0",
            "sphere_conditions": sphere_conditions(m),
            "version": __version__,
        }
        lines = [
            f"3-periodic family: q = {res.q}, a = h(q) = {res.h}, c = {m.c}",
            f"orbit: {' -> '.join(map(str, res.orbit.points))} -> {res.orbit.points[0]}",
            f"multiplier norm exponent: {res.orbit.multiplier_norm_exponent}",
        ]
        _emit(args, report, lines)
        return EXIT_OK
    if args.a is None or args.c is None:
        raise ValueError("periodic needs either --q or both --a and --c")
    m = CanonicalMap(args.p, args.a, args.c)
    orb = two_periodic(m, precision=args.precision)
    if orb is None:
        report = {
            "command": "periodic",
            "kind": "two_periodic",
            "input": m,
            "exists": False,
            "reason": "c^2 - 2a is not a nonzero square in Q_p",
            "version": __version__,
        }
        _emit(args, report, ["no 2-periodic orbit: c^2 - 2a is not a nonzero square"])
        return EXIT_OK
    on_sphere = structure = None
    if orb.exact:
        sphere = SphereSpec("x2", -m.val(orb.points[0] - m.x2))  # s != 0: finite
        if m.sphere_is_invariant(sphere):
            sr = verify_orbit_structure(m, orb, sphere, samples=args.samples, seed=args.seed)
            on_sphere = sphere
            structure = _json(sr, "rho_exponent", "containment_ok",
                              "multiplier_norm_exponent", "ball_mapping_checked")
    report = {
        "command": "periodic",
        "kind": "two_periodic",
        "input": m,
        "exists": True,
        **_json(orb, "exact", "points", "multiplier_norm_exponent"),
        "on_invariant_sphere": on_sphere,
        "structure": structure,
        "version": __version__,
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
        "command": "conjugate",
        "input": gm,
        **_conjugation_dict(gm, result),
        "conjugacy_samples_checked": checked,
        "version": __version__,
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative fraction ("--a -2/3") is a value, as a negative integer is
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _CliArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    common.add_argument("--samples", type=int, default=32, help="sample count for checks")
    common.add_argument(
        "--timestamp", action="store_true", help="include a generation timestamp"
    )

    parser = _Parser(prog="padicdyn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", parents=[common], help="classify fixed points")
    pa.add_argument("--p", type=int, required=True)
    pa.add_argument("--a", type=_rational, required=True)
    pa.add_argument("--b", type=_rational, default=None)
    pa.add_argument("--c", type=_rational, required=True)
    pa.add_argument("--d", type=_rational, default=None)
    pa.set_defaults(func=_cmd_analyze)

    po = sub.add_parser("orbit", parents=[common], help="iterate f and profile norms")
    po.add_argument("--p", type=int, required=True)
    po.add_argument("--a", type=_rational, required=True)
    po.add_argument("--c", type=_rational, required=True)
    po.add_argument("--x0", type=_rational, required=True)
    po.add_argument("--steps", type=int, required=True)
    po.add_argument("--mode", choices=("auto", "exact", "truncated"), default="auto")
    po.add_argument("--precision", type=int, default=64)
    po.set_defaults(func=_cmd_orbit)

    pe = sub.add_parser("ergodic", parents=[common], help="decide ergodicity on a sphere")
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--a", type=_rational, required=True)
    pe.add_argument("--c", type=_rational, required=True)
    pe.add_argument("--radius-exp", type=int, required=True, dest="radius_exp")
    pe.add_argument("--center", choices=("x1", "x2"), default="x1")
    pe.add_argument("--oracle-depth", type=int, default=None, dest="oracle_depth")
    pe.add_argument("--csv", default=None, help="write the oracle cycle table to a file")
    pe.set_defaults(func=_cmd_ergodic)

    pp = sub.add_parser("periodic", parents=[common], help="construct periodic orbits")
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--a", type=_rational, default=None)
    pp.add_argument("--c", type=_rational, default=None)
    pp.add_argument("--q", type=_rational, default=None)
    pp.add_argument("--precision", type=int, default=32)
    pp.set_defaults(func=_cmd_periodic)

    pc = sub.add_parser("conjugate", parents=[common], help="reduce a four-parameter map")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--a", type=_rational, required=True)
    pc.add_argument("--b", type=_rational, required=True)
    pc.add_argument("--c", type=_rational, required=True)
    pc.add_argument("--d", type=_rational, required=True)
    pc.set_defaults(func=_cmd_conjugate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.samples < 1:
            parser.error(f"argument --samples: must be at least 1, got {args.samples}")
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
