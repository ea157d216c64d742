import json
import os
import random
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from padicdyn import CanonicalMap, SphereSpec, TruncatedPadic
from padicdyn import cli, ergodicity, padic
from padicdyn.cli import main
from padicdyn.ergodicity import ErgodicityVerdict, OracleLevel
from padicdyn.padic import INFINITY

from util import (
    last_digit_wrong,
    on_a_pole,
    on_the_two_cycle,
    parse_truncated,
    reference_json,
    sphere_points,
)

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "analyze_case4.json": ["analyze", "--p", "3", "--a", "-2", "--c", "1"],
    "analyze_case2.json": ["analyze", "--p", "5", "--a", "-1", "--c", "5"],
    "ergodic_p2_ergodic.json": ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"],
    "ergodic_p3_notergodic.json": ["ergodic", "--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1"],
    "periodic_two_cycle.json": ["periodic", "--p", "7", "--a", "4", "--c", "3"],
    "conjugate_double_root.json": ["conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1"],
}
# appended after the sorted six, so their test ids stay stable
LATER_GOLDEN_COMMANDS = {
    # the README's case-4 basin orbit; |x - x2| reads "-inf" from step 23 on
    "orbit_truncated_case4.json": ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5",
                                   "--steps", "40", "--mode", "truncated", "--precision", "24"],
    # one golden per remaining report shape
    "analyze_conjugated_superattracting.json": ["analyze", "--p", "3", "--a", "1", "--b", "0",
                                                "--c", "-1", "--d", "1"],
    "analyze_poles_absent.json": ["analyze", "--p", "3", "--a", "1", "--c", "1"],
    "periodic_three_cycle.json": ["periodic", "--p", "5", "--q", "1"],
    "periodic_none.json": ["periodic", "--p", "5", "--a", "3", "--c", "1"],
    "periodic_two_cycle_truncated.json": ["periodic", "--p", "2", "--a", "1", "--c=1/2"],
    "periodic_two_cycle_structure.json": ["periodic", "--p", "3", "--a=-1", "--c=1/2"],
    "ergodic_displacement_point_dependent.json": ["ergodic", "--p", "2", "--a", "1", "--c", "4",
                                                  "--radius-exp", "-2"],
    "ergodic_x2_center.json": ["ergodic", "--p", "5", "--a", "3", "--c", "1", "--radius-exp", "-1",
                               "--center", "x2"],
    "orbit_exact_case4.json": ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5",
                               "--steps", "8"],
    "orbit_pole_at_start.json": ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "1",
                                 "--steps", "4"],
    # f'(x2) = -31 generates Z_3^*: the generator rule's ergodic x2-sphere
    "ergodic_x2_generator.json": ["ergodic", "--p", "3", "--a", "1/18", "--c", "-4/3",
                                  "--radius-exp", "-1", "--center", "x2", "--oracle-depth", "6"],
    # a truncated 2-cycle that f cannot map at 32 digits: at the first point,
    # c*t + a has valuation 23 but reads O(2^20)
    "periodic_two_cycle_low_precision.json": ["periodic", "--p", "2", "--a=-64/21",
                                              "--c=-7/64"],
}
GOLDEN_CASES = sorted(GOLDEN_COMMANDS.items()) + list(LATER_GOLDEN_COMMANDS.items())


# The parser's own text: help, version and usage errors, pinned byte for byte.
HELP_COMMANDS = {
    "help_padicdyn.txt": ["--help"],
    "help_analyze.txt": ["analyze", "--help"],
    "help_orbit.txt": ["orbit", "--help"],
    "help_ergodic.txt": ["ergodic", "--help"],
    "help_periodic.txt": ["periodic", "--help"],
    "help_conjugate.txt": ["conjugate", "--help"],
    "version.txt": ["--version"],
}
# name -> argv; usage_errors.json holds each one's exit code and stderr
USAGE_ERRORS = {
    "empty_argv": [],
    "unknown_command": ["frobnicate", "--p", "3"],
    "option_before_command": ["--json", "analyze", "--p", "3", "--a", "-2", "--c", "1"],
    "command_without_options": ["analyze"],
    "missing_required_option": ["ergodic", "--p", "3", "--a", "-2", "--c", "1"],
    "bad_mode_choice": ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5",
                        "--steps", "4", "--mode", "fast"],
    "bad_center_choice": ["ergodic", "--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1",
                          "--center", "x3"],
    "unrecognized_argument": ["analyze", "--p", "3", "--a", "-2", "--c", "1", "--frob"],
    "version_after_command": ["analyze", "--p", "3", "--a", "-2", "--c", "1", "--version"],
    "bad_integer": ["analyze", "--p", "three", "--a", "-2", "--c", "1"],
    "bad_integer_steps": ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5",
                          "--steps", "4.5"],
    "bad_rational": ["conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1//2"],
    "samples_zero": ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2",
                     "--samples", "0"],
    "option_missing_its_value": ["periodic", "--p", "5", "--q"],
}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden_json_byte_identical(capsys, name, argv):
    code, out, _ = run_cli(capsys, argv + ["--json"])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_json_deterministic_across_runs(capsys, name, argv):
    code1, out1, _ = run_cli(capsys, argv + ["--json"])
    code2, out2, _ = run_cli(capsys, argv + ["--json"])
    assert code1 == code2 == 0 and out1 == out2


def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float leaked into JSON: {node}")
    if isinstance(node, dict):
        for v in node.values():
            _assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_floats(v)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_json_round_trips_without_floats(capsys, name, argv):
    _, out, _ = run_cli(capsys, argv + ["--json"])
    doc = json.loads(out)
    _assert_no_floats(doc)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["version"]


def test_exit_invalid_input(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--p", "7", "--a", "0", "--c", "1"])
    assert code == 1 and "nonzero" in err
    code, _, _ = run_cli(capsys, ["analyze", "--p", "8", "--a", "1", "--c", "1"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["analyze", "--p", "3", "--a", "1.5", "--c", "1"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["analyze", "--p", "3"])
    assert code == 1


def test_exit_unsupported_regimes(capsys):
    # three distinct fixed points
    code, _, err = run_cli(
        capsys, ["conjugate", "--p", "5", "--a", "1", "--b", "0", "--c", "0", "--d", "0"]
    )
    assert code == 2 and "distinct" in err
    # x2 != 0 branch of analyze
    code, _, err = run_cli(
        capsys, ["analyze", "--p", "5", "--a", "1", "--b", "4", "--c", "-5", "--d", "9"]
    )
    assert code == 2
    # non-invariant radius echoes the invariance bound
    code, _, err = run_cli(
        capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-1"]
    )
    assert code == 2 and "radius exponent < -1" in err
    # pole norms outside p**Z (odd v(a) with 2v(c) >= v(a))
    code, _, err = run_cli(capsys, ["analyze", "--p", "3", "--a", "3", "--c", "3"])
    assert code == 2
    # a truncated orbit step out of digits names the precision used: x0 = 1 + 3^4
    # reads 1 + O(3^4) at 4 digits, and 1 is a pole of x^2 - 3x + 2
    code, out, err = run_cli(capsys, ["orbit", "--p", "3", "--a", "2", "--c=-3", "--x0", "82",
                                      "--steps", "2", "--mode", "truncated", "--precision", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("precision: orbit step 1 became indeterminate at precision 4; "
                          "rerun with a higher precision")
    # a truncated 2-cycle that f cannot map at 16 digits is answered, not refused
    code, out, err = run_cli(capsys, ["periodic", "--p", "2", "--a", "32/7", "--c", "23/12",
                                      "--precision", "16", "--json"])
    doc = json.loads(out)
    assert (code, err, doc["exists"], doc["exact"]) == (0, "", True, False)
    m = CanonicalMap(2, Fraction(32, 7), Fraction(23, 12))
    points = [parse_truncated(x, 2) for x in doc["points"]]
    assert [t.precision for t in points] == [7, 15]
    assert all(on_the_two_cycle(m, t) for t in points)


def test_analyze_four_parameter_routing(capsys):
    code, out, _ = run_cli(
        capsys,
        ["analyze", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conjugation"]["x2"] == "0"
    assert doc["classification"]["case"] == 4  # a = c^2: superattracting
    assert doc["classification"]["x2"]["superattracting"] is True
    assert doc["classification"]["x2"]["multiplier_norm_exponent"] == "inf"


def test_periodic_three_cycle_command(capsys):
    code, out, _ = run_cli(capsys, ["periodic", "--p", "5", "--q", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "three_periodic"
    assert doc["h_q"] == "5/24" and doc["map"]["c"] == "-19/24"
    assert doc["points"][0] == "5/24" and len(doc["points"]) == 3
    assert doc["p6_at_a"] == "0"


def test_periodic_none_case(capsys):
    code, out, _ = run_cli(capsys, ["periodic", "--p", "5", "--a", "3", "--c", "1", "--json"])
    assert code == 0
    assert json.loads(out)["exists"] is False


def test_orbit_command_profiles(capsys):
    code, out, _ = run_cli(
        capsys,
        ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--steps", "8", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    d2 = doc["distance_exponents"]["x2"]
    assert d2[0] == -1 and all(b <= a - 1 for a, b in zip(d2, d2[1:]))


def test_orbit_truncated_pole_at_start(capsys):
    code, out, _ = run_cli(
        capsys,
        ["orbit", "--p", "5", "--a=-6", "--c", "1", "--x0", "2", "--steps", "4",
         "--mode", "truncated", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "truncated"
    assert doc["pole_hit"] == {"step": 0, "point": "2"}


def test_exit_verification_failure(capsys, monkeypatch):
    import padicdyn.cli as cli
    from padicdyn import PoleHitError, VerificationError

    def fail(*args, **kwargs):
        raise VerificationError("sampled check failed\non two lines", counterexample=3)

    monkeypatch.setattr(cli, "decide_ergodicity", fail)
    code, out, err = run_cli(
        capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2", "--json"]
    )
    assert code == cli.EXIT_VERIFICATION == 3 and out == ""
    assert err == "internal verification failed: sampled check failed on two lines\n"

    def pole(*args, **kwargs):
        raise PoleHitError(Fraction(1))

    monkeypatch.setattr(cli, "orbit", pole)
    code, _, err = run_cli(
        capsys, ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--steps", "3"]
    )
    assert code == 3 and err.count("\n") == 1 and "pole hit" in err


@pytest.mark.parametrize("argv,samples", [
    (["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"], 32),
    (["ergodic", "--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1", "--samples", "20"],
     20),
    (["ergodic", "--p", "5", "--a", "3", "--c", "1", "--radius-exp", "-1", "--center", "x2",
      "--seed", "5", "--samples", "8"], 8),
])
def test_ergodic_request_evaluates_f_once_per_sample(capsys, monkeypatch, argv, samples):
    # the displacement and the isometry check read one draw of samples, and
    # the oracle's 16 anchors (8 balls, 2 representatives each): all of them
    # evaluate f through CanonicalMap's integer form, none through eval
    calls, evals = [], []
    real_pair, real_eval = CanonicalMap._eval_pair, CanonicalMap.eval
    monkeypatch.setattr(CanonicalMap, "_eval_pair",
                        lambda self, xn, xd: calls.append((xn, xd)) or real_pair(self, xn, xd))
    monkeypatch.setattr(CanonicalMap, "eval", lambda self, x: evals.append(x) or real_eval(self, x))
    code, _, _ = run_cli(capsys, argv + ["--json"])
    assert code == 0 and len(calls) == samples + 16 and evals == []


def test_decider_disagreement_exits_3(capsys, monkeypatch):
    # a theorem that calls every sphere at p >= 3 not ergodic, as it did
    # before the generator rule, disagrees with the oracle on this x2-sphere
    monkeypatch.setattr(ergodicity, "ergodicity_theorem",
                        lambda form: ErgodicityVerdict("notErgodic", "pGe3Rule"))
    code, out, err = run_cli(
        capsys,
        ["ergodic", "--p=3", "--a=1/18", "--c=-4/3", "--radius-exp=-1", "--center=x2",
         "--oracle-depth=3"],
    )
    assert code == 3 and out == ""
    assert err.startswith("internal verification failed: ") and err.count("\n") == 1
    assert "theorem=notErgodic, oracle=ergodic" in err


def test_orbit_pole_hit(capsys):
    code, out, _ = run_cli(
        capsys,
        ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "1", "--steps", "4", "--json"],
    )
    assert code == 0
    assert json.loads(out)["pole_hit"] == {"step": 0, "point": "1"}


def test_ergodic_csv_emission(capsys, tmp_path):
    target = tmp_path / "cycles.csv"
    code, _, _ = run_cli(
        capsys,
        ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2", "--csv", str(target)],
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "level,ball_count,cycle_count,cycle_lengths"
    assert len(lines) == 9  # header + depth 8


def test_ergodic_csv_unwritable_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "cycles.csv"
    code, _, err = run_cli(
        capsys,
        ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2", "--csv", str(target)],
    )
    assert code == 1
    assert err.startswith("error: ") and "No such file" in err and err.count("\n") == 1


def test_human_output_mentions_case(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--p", "3", "--a", "-2", "--c", "1"])
    assert code == 0 and "case 4" in out


def test_x2_centered_ergodic_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ergodic", "--p", "5", "--a", "3", "--c", "1", "--radius-exp", "-1",
         "--center", "x2", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "notErgodic"
    assert doc["displacement"]["rho_exponent"] == -1


def test_ergodic_at_excluded_displacement_radius(capsys):
    # radius exactly |c|_2: verdict still decided, displacement reported as
    # point-dependent (rho has no single value there)
    code, out, _ = run_cli(
        capsys,
        ["ergodic", "--p", "2", "--a", "1", "--c", "4", "--radius-exp", "-2", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "notErgodic"
    assert doc["displacement"]["rho_exponent"] is None
    assert doc["minimal_invariant_ball_exponent"] is None


def test_samples_must_be_at_least_one(capsys):
    for samples in ("0", "-3"):
        code, out, err = run_cli(
            capsys,
            ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2",
             "--samples", samples, "--json"],
        )
        assert code == 1 and out == ""
        assert err == f"error: argument --samples: must be at least 1, got {samples}\n"


def test_samples_over_budget_exits_1_before_any_work(capsys, monkeypatch):
    # every sample costs exact evaluations of f, so the budget refuses
    # 100000 samples before any command runs
    def refuse(args):
        raise AssertionError("the command ran")

    for cmd, (help_text, _, options) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, cmd, (help_text, refuse, options))
    code, out, err = run_cli(
        capsys,
        ["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2",
         "--samples", "100000", "--json"],
    )
    assert code == 1 and out == ""
    assert err == ("error: argument --samples: 100000 is over the budget of 1024 samples; "
                   "the largest count that fits is 1024\n")
    assert cli.SAMPLE_BUDGET == 1024
    code, out, _ = run_cli(capsys, ["analyze", "--p", "3", "--a", "-2", "--c", "1",
                                    "--samples", "1025"])
    assert code == 1 and out == ""


@pytest.mark.parametrize("argv", [
    # refused by the former joint budget on samples and radius bits
    ["ergodic", "--p", "2", "--a", "192", "--c", "36", "--radius-exp", "-9",
     "--oracle-depth", "2", "--samples", "1024"],
    ["ergodic", "--p", "101", "--a", "1", "--c", "1", "--oracle-depth", "2",
     "--radius-exp", "-256", "--samples", "1024"],
])
def test_samples_at_budget_run_at_any_radius(capsys, argv):
    # the isometry check is linear in the count, so SAMPLE_BUDGET samples
    # run at every radius within RADIUS_EXPONENT_BUDGET
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0 and err == ""
    assert json.loads(out)["isometry"] == {"ok": True, "pairs_checked": 1024 * 1023 // 2}


def test_radius_budget_is_checked_before_any_work(capsys, monkeypatch):
    ran = []
    for cmd, (help_text, _, options) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, cmd, (help_text, ran.append, options))
    request = ["ergodic", "--p", "101", "--a", "1", "--c", "1", "--oracle-depth", "2"]
    code, out, err = run_cli(capsys, request + ["--radius-exp", "-257", "--samples", "1024"])
    assert code == 1 and out == "" and ran == []
    assert err == ("error: radius exponent -257 is over the budget: "
                   "|--radius-exp| must be at most 256\n")
    # other commands take any --samples within SAMPLE_BUDGET at any size
    assert run_cli(capsys, ["analyze", "--p", "101", "--a", "1", "--c", "1",
                            "--samples", "1024"])[0] is None
    assert len(ran) == 1


def test_samples_at_budget_run(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conjugate", "--p", "3", "--a", "1", "--b", "0", "--c", "-1", "--d", "1",
         "--samples", "1024", "--json"],
    )
    assert code == 0 and json.loads(out)["command"] == "conjugate"


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["analyze", "--p", "3", "--a", "-2/3", "--c", "1"],
         ["analyze", "--p", "3", "--a=-2/3", "--c", "1"]),
        (["analyze", "--p", "5", "--a", "-2/3", "--c", "-1/2"],
         ["analyze", "--p", "5", "--a=-2/3", "--c=-1/2"]),
        (["periodic", "--p", "5", "--q", "-1/3"], ["periodic", "--p", "5", "--q=-1/3"]),
        (["periodic", "--p", "5", "--q", "-3/2"], ["periodic", "--p", "5", "--q=-3/2"]),
        (["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "-1/2", "--steps", "3"],
         ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0=-1/2", "--steps", "3"]),
    ],
)
def test_space_separated_negative_fractions(capsys, spaced, joined):
    result = run_cli(capsys, spaced + ["--json"])
    assert "expected one argument" not in result[2]
    assert result == run_cli(capsys, joined + ["--json"])


def test_bad_literal_keeps_its_message(capsys):
    code, out, err = run_cli(capsys, ["analyze", "--p", "3", "--a", "1.5", "--c", "1"])
    assert code == 1 and out == ""
    assert err == "error: argument --a: invalid rational literal '1.5' (column 1)\n"
    code, _, err = run_cli(capsys, ["periodic", "--p", "5", "--q", "1/0"])
    assert code == 1 and "argument --q: invalid rational literal '1/0': zero denominator" in err


def test_prime_beyond_the_decided_range_exits_1(capsys):
    # a strong pseudoprime to every base 2..37, caught by base 41
    code, _, err = run_cli(capsys, ["analyze", "--p", "318665857834031151167461",
                                    "--a", "1", "--c", "1"])
    assert code == 1 and "is not prime" in err
    # a strong pseudoprime to every base 2..41: primality is not decided there
    code, out, err = run_cli(capsys, ["analyze", "--p", "3317044064679887385961981",
                                      "--a", "1", "--c", "1"])
    assert code == 1 and out == ""
    assert "not decided: p must be below 3317044064679887385961981" in err


def test_default_oracle_depth_fits_the_budget(capsys):
    # 17^5 - 1 balls are over the budget, so the default depth drops to 4
    code, out, _ = run_cli(capsys, ["ergodic", "--p", "17", "--a", "-2", "--c", "1",
                                    "--radius-exp", "-1", "--json"])
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["depth"] == 4 and len(oracle["levels"]) == 4


def test_oracle_over_budget_exits_1(capsys):
    code, out, err = run_cli(capsys, ["ergodic", "--p", "101", "--a", "-2", "--c", "1",
                                      "--radius-exp", "-1", "--oracle-depth", "5"])
    assert code == 1 and out == ""
    assert err == ("error: oracle depth 5 needs 101^5 - 1 balls, over the budget of "
                   "1048576; the largest depth that fits is 3\n")
    code, _, err = run_cli(capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1",
                                    "--radius-exp", "-2", "--oracle-depth", "40"])
    assert code == 1 and "the largest depth that fits is 20" in err


def test_oracle_budget_is_checked_before_the_theorem_factors_p_minus_1(capsys, monkeypatch):
    # p - 1 = 2 * 617640922471 * 739856209811 takes Pollard rho, but no oracle
    # depth fits this p, so the request is refused before the theorem runs
    calls = []
    real = ergodicity._prime_factors
    monkeypatch.setattr(ergodicity, "_prime_factors", lambda n: calls.append(n) or real(n))
    p = "913930943847127521125963"
    code, out, err = run_cli(capsys, ["ergodic", f"--p={p}", "--a=1", "--c=2",
                                      "--radius-exp=-1", "--center=x2"])
    assert (code, out) == (1, "")
    assert err == (f"error: oracle depth 2 needs {p}^2 - 1 balls, over the budget of 1048576; "
                   f"no depth >= 2 fits for p = {p}\n")
    assert calls == []


def test_radius_exponent_over_budget_exits_1(capsys):
    code, out, err = run_cli(capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1",
                                      "--radius-exp", "-1000000"])
    assert code == 1 and out == ""
    assert err == ("error: radius exponent -1000000 is over the budget: "
                   "|--radius-exp| must be at most 256\n")
    # 256 is within the budget (and not invariant: exit 2), 257 is not
    assert run_cli(capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1",
                            "--radius-exp", "256"])[0] == 2
    assert run_cli(capsys, ["ergodic", "--p", "2", "--a", "2", "--c", "1",
                            "--radius-exp", "257"])[0] == 1


def test_truncated_precision_over_budget_exits_1(capsys):
    orbit = ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--steps", "2",
             "--mode", "truncated", "--precision"]
    code, out, err = run_cli(capsys, orbit + ["100000000"])
    assert code == 1 and out == ""
    assert err == ("error: truncated precision 100000000 needs 100000000 digits of 2 bits, "
                   "over the budget of 8192 bits; the largest precision that fits is 4096\n")
    assert run_cli(capsys, orbit + ["4096"])[0] == 0
    assert run_cli(capsys, orbit + ["4097"])[0] == 1
    # the truncated 2-cycle at p = 2 (2 bits per digit)
    code, out, err = run_cli(capsys, ["periodic", "--p", "2", "--a", "-8", "--c", "1",
                                      "--precision", "100000000"])
    assert code == 1 and "over the budget of 8192 bits" in err
    # an exact 2-cycle does not use the precision, but it is checked first
    code, out, err = run_cli(capsys, ["periodic", "--p", "7", "--a", "4", "--c", "3",
                                      "--precision", "100000000"])
    assert code == 1 and out == "" and "over the budget of 8192 bits" in err


_BAD_PRECISIONS = [
    ("0", "precision must be >= 1, got 0"),
    ("-5", "precision must be >= 1, got -5"),
    ("100000", "truncated precision 100000 needs 100000 digits of 3 bits, over the budget "
               "of 8192 bits; the largest precision that fits is 2730"),
]


@pytest.mark.parametrize("a,c", [("4", "3"), ("1", "3")])  # an exact 2-cycle; none (c^2 - 2a = 7)
@pytest.mark.parametrize("precision,message", _BAD_PRECISIONS)
def test_periodic_precision_is_checked_before_any_work(capsys, monkeypatch, a, c, precision,
                                                       message):
    argv = ["periodic", "--p", "7", "--a", a, "--c", c]
    assert run_cli(capsys, argv + ["--json"])[0] == 0
    monkeypatch.setattr("padicdyn.periodic._sqrt_in_qp", None)  # no work may start
    code, out, err = run_cli(capsys, argv + ["--precision", precision, "--json"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("precision,message", _BAD_PRECISIONS)
def test_periodic_q_precision_is_checked_before_any_work(capsys, monkeypatch, precision,
                                                         message):
    # the 3-cycle does not use the precision, but it is checked as on the
    # --a --c path, with the same message
    argv = ["periodic", "--p", "7", "--q", "1"]
    assert run_cli(capsys, argv + ["--json"])[0] == 0
    monkeypatch.setattr(cli, "three_periodic_from_q", None)  # no work may start
    code, out, err = run_cli(capsys, argv + ["--precision", precision, "--json"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_truncated_orbit_at_a_prime_wider_than_32_bits(capsys):
    # past the first step the divisor's unit is a full residue mod p**4, so
    # the inverse is a Newton lift from p itself
    p = 4294967311
    code, out, _ = run_cli(capsys, ["orbit", "--p", str(p), "--a", "-2", "--c", "1", "--x0",
                                    "5", "--steps", "3", "--mode", "truncated",
                                    "--precision", "4", "--json"])
    assert code == 0
    xs = [Fraction(5)]
    for _ in range(3):
        xs.append(CanonicalMap(p, -2, 1).eval(xs[-1]))
    assert json.loads(out)["points"] == [str(TruncatedPadic.from_rational(x, p, 4)) for x in xs]


def test_exact_orbit_height_budget(capsys):
    orbit = ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--json", "--steps"]
    # iterate 12 of this orbit fits the 12000-bit height budget, iterate 13 does not
    for steps, mode in (("12", "exact"), ("13", "truncated"), ("22", "truncated")):
        code, out, _ = run_cli(capsys, orbit + [steps])
        assert code == 0 and json.loads(out)["mode"] == mode
    # auto mode past the budget is the truncated orbit from the start
    assert run_cli(capsys, orbit + ["22"]) == run_cli(capsys, orbit + ["22", "--mode",
                                                                       "truncated"])
    code, out, err = run_cli(capsys, orbit + ["16", "--mode", "exact"])
    assert code == 2 and out == ""
    assert err == ("unsupported: an exact iterate has more than 12000 bits in its numerator "
                   "or denominator, over the exact-orbit height budget; use truncated "
                   "or auto mode\n")


def test_exact_orbit_whose_last_iterate_is_over_the_height_budget(capsys):
    # no iterate is sure to outgrow the budget in advance, and only the 11th does
    orbit = ["orbit", "--p", "3", "--a", "25/9", "--c", "-8", "--x0", "63/8", "--json",
             "--steps"]
    for steps, mode in (("10", "exact"), ("11", "truncated")):
        code, out, _ = run_cli(capsys, orbit + [steps])
        assert code == 0 and json.loads(out)["mode"] == mode
    code, out, err = run_cli(capsys, orbit + ["11", "--mode", "exact"])
    assert (code, out) == (2, "")
    assert err.startswith("unsupported: an exact iterate has more than 12000 bits")


def test_periodic_exits_3_when_the_truncated_2_cycle_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(padic, "hensel_sqrt", last_digit_wrong)
    code, out, err = run_cli(capsys, LATER_GOLDEN_COMMANDS["periodic_two_cycle_truncated.json"])
    assert (code, out) == (3, "")
    assert err == ("internal verification failed: truncated square root of -7/4 failed its "
                   "check at precision 32\n")


_POLE_FAULT_ERR = ("internal verification failed: truncated square root of 29 failed its check "
                   "at precision 24\n")


def test_analyze_exits_3_when_the_truncated_pole_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(padic, "hensel_sqrt", last_digit_wrong)
    code, out, err = run_cli(capsys, GOLDEN_COMMANDS["analyze_case2.json"] + ["--json"])
    assert (code, out, err) == (3, "", _POLE_FAULT_ERR)


def test_analyze_pole_check_runs_under_python_O():
    # the check is no assert: a wrong last digit still exits 3 under -O
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(tests)!r})\n"
        "from padicdyn import cli, padic\n"
        "from util import last_digit_wrong\n"
        "assert False, 'assert statements are not stripped'\n"
        "padic.hensel_sqrt = last_digit_wrong\n"
        f"sys.exit(cli.main({GOLDEN_COMMANDS['analyze_case2.json']!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", _POLE_FAULT_ERR)


def test_low_precision_two_cycle_golden_holds_on_every_reported_digit():
    # the golden's points, read back from their digits, against exact arithmetic
    doc = json.loads((GOLDEN / "periodic_two_cycle_low_precision.json").read_bytes())
    m = CanonicalMap(2, Fraction(doc["input"]["a"]), Fraction(doc["input"]["c"]))
    points = [parse_truncated(x, 2) for x in doc["points"]]
    assert len(points) == 2 and all(on_the_two_cycle(m, t) for t in points)


def test_case2_golden_poles_hold_on_every_reported_digit():
    doc = json.loads((GOLDEN / "analyze_case2.json").read_bytes())
    assert doc["map"]["poles"]["kind"] == "truncated"
    m = CanonicalMap(5, -1, 5)
    poles = [parse_truncated(x, 5) for x in doc["map"]["poles"]["values"]]
    assert all(t.precision == 24 and on_a_pole(m, t) for t in poles)


def test_orbit_step_budget_exits_1(capsys):
    orbit = ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "5", "--steps"]
    code, out, err = run_cli(capsys, orbit + ["65537"])
    assert code == 1 and out == ""
    assert err == ("error: 65537 orbit steps of 128 bits each are over the budget of "
                   "8388608 step bits (steps times precision bits); at most 65536 steps fit\n")
    # 4096 digits at p = 2 are 8192 bits a step
    code, _, err = run_cli(capsys, ["orbit", "--p", "2", "--a", "-2", "--c", "1", "--x0", "3",
                                    "--steps", "1025", "--precision", "4096"])
    assert code == 1 and "at most 1024 steps fit" in err
    # precision 4 (8 bits) is counted as 128 bits a step
    assert "at most 65536 steps fit" in run_cli(capsys, orbit + ["65537", "--precision", "4"])[2]
    # an exact orbit that stays low, at a fixed point, counts 128 bits a step too
    code, _, err = run_cli(capsys, ["orbit", "--p", "3", "--a", "-2", "--c", "1", "--x0", "0",
                                    "--steps", "100000", "--mode", "exact"])
    assert code == 1 and "at most 65536 steps fit" in err


@pytest.mark.parametrize("name,argv", sorted(HELP_COMMANDS.items()))
def test_help_and_version_text(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_text(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, USAGE_ERRORS[name])
    golden = json.loads((GOLDEN / "usage_errors.json").read_text(encoding="utf-8"))
    assert out == ""
    assert {"exit": code, "stderr": err} == golden[name]


@pytest.mark.parametrize("argv,option", [
    (["ergodic", "--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2", "--csv=--"],
     "--csv"),
    (["analyze", "--p", "3", "--a=--", "--c", "1"], "--a"),
])
def test_double_dash_as_an_option_value_is_a_usage_error(capsys, monkeypatch, tmp_path,
                                                         argv, option):
    # argparse drops "--" from an option's values; the option must not get []
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: argument {option}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_reads_sys_argv():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "padicdyn.cli", "analyze", "--p", "3", "--a", "-2", "--c", "1",
         "--json"], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "analyze_case4.json").read_bytes()


@pytest.mark.parametrize("name,argv", [(name, argv) for name, argv in sorted(HELP_COMMANDS.items())
                                       if len(argv) == 2])
def test_full_parser_prints_the_same_help(capsys, monkeypatch, name, argv):
    # the parser's subparsers come from the command table
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_command_parser_matches_the_full_parser(name, argv):
    # the scanner reads each golden request off its command's table as the
    # parser reads the whole argument list
    assert vars(cli._scan(argv[0], argv[1:])) == vars(cli.build_parser().parse_args(argv))


def test_main_builds_a_parser_only_for_what_the_scanner_refuses(capsys, monkeypatch):
    build_parser, built = cli.build_parser, []

    def spy():
        parser = build_parser()
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    # a well-formed request builds no parser
    argv = ["analyze", "--p", "3", "--a", "-2", "--c", "1"]
    assert run_cli(capsys, argv)[0] == run_cli(capsys, argv)[0] == 0
    assert built == []
    # a malformed one builds a fresh parser on every call
    argv = ["analyze", "--p", "3", "--a", "-2", "--c", "1", "--frob"]
    assert run_cli(capsys, argv)[0] == run_cli(capsys, argv)[0] == 1
    assert len(built) == 2 and built[0] is not built[1]
    # no command: the same parser
    assert run_cli(capsys, [])[0] == 1
    assert len(built) == 3


def _random_argv(rng, cmd):
    """One argv of ``cmd`` drawn from its table: mostly well-formed, with
    negative fractions, both value forms, repeats, abbreviations, unknown
    options, help, version, "--", missing values, odd literals and choices,
    and stray positionals mixed in."""
    _, _, options = cli._COMMANDS[cmd]
    table = dict(cli._SHARED_OPTIONS + options)
    good = {int: ["2", "3", "5", "7", "-1", "0", "32", "1024", "-2", "-256"],
            cli._rational: ["1", "-2", "2/3", "-2/3", "-7/4", "3", "-1/2", "5"]}
    # most of these fail to convert, but int() takes " 7", "+5", "1_0" and
    # an Arabic-Indic three
    odd = {int: ["4.5", "three", "", "1/2", "-x", " 7", "+5", "1_0", "\u0663"],
           cli._rational: ["1/0", "1.5", "abc", "", "-.5", "3/-2", "2//3", "- 2"]}
    groups = []
    for option, kwargs in table.items():
        wanted = 0.95 if kwargs.get("required") else 0.3
        for _ in range(1 + (rng.random() < 0.1)):  # sometimes repeated
            if rng.random() >= wanted:
                continue
            if kwargs.get("action") == "store_true":
                groups.append([option] if rng.random() < 0.95 else [option + "=1"])
                continue
            if "choices" in kwargs:
                value = rng.choice(kwargs["choices"] + ("fast", "x3", "-x1"))
            elif "type" in kwargs:
                pool = good if rng.random() < 0.9 else odd
                value = rng.choice(pool[kwargs["type"]])
            else:
                value = rng.choice(["out.csv", "", "-", "x=y", "-x", "--", "-3"])
            if rng.random() < 0.3:
                groups.append([f"{option}={value}"])
            else:
                groups.append([option, value])
    for _ in range(rng.random() < 0.2):
        option = rng.choice(list(table))
        noise = rng.choice([
            ["-h"], ["--help"], ["--version"], ["--"], ["--frob"], ["5"], ["x"], ["-5"],
            ["-"], [option[:rng.randint(3, len(option) - 1)] if len(option) > 3 else "--x",
                    "1"],
            [option],  # its value is missing unless it is a flag
            ["--", option, "1"], [f"{option}="], ["-p", "3"],
        ])
        groups.append(noise)
    rng.shuffle(groups)
    return [cmd] + [token for group in groups for token in group]


def test_scan_agrees_with_argparse_on_random_requests(capsys, monkeypatch):
    # the scanner may refuse any input, but what it takes it must read as
    # argparse does, and main must answer every input as argparse alone would
    monkeypatch.setenv("COLUMNS", "80")
    for cmd, (help_text, _, options) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, cmd, (help_text, _echo_args, options))
    # one parser serves every call, which only saves time: argparse keeps no
    # state between parse_args calls
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    rng = random.Random(22)
    argvs = [_random_argv(rng, cmd) for _ in range(1000) for cmd in cli._COMMANDS]
    taken = 0
    for argv in argvs:
        scanned = cli._scan(argv[0], argv[1:])
        if scanned is not None:
            taken += 1
            parsed = parser.parse_args(argv)
            assert vars(scanned) == vars(parsed), argv
    assert 1500 < taken < len(argvs) - 1500
    answers = [_answer(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_scan", lambda cmd, argv: None)
    for argv, answer in zip(argvs, answers):
        assert _answer(capsys, argv) == answer, argv


def _echo_args(args):
    print(sorted((name, repr(value)) for name, value in vars(args).items()
                 if name != "func"))
    return 0


def _answer(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # help and version
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_periodic_refuses_q_with_a_or_c(capsys):
    for extra in (["--a", "3", "--c", "1"], ["--a", "3"], ["--c", "1"]):
        code, out, err = run_cli(capsys, ["periodic", "--p", "5", "--q", "1"] + extra)
        assert code == 1 and out == ""
        assert err == "error: periodic takes either --q or both --a and --c, not both\n"


def test_boundary_sphere_mapped_into_itself_is_not_invariant(capsys):
    # "invariant" means f maps every ball of the sphere onto a ball of the
    # same radius in it; f(S) in S alone does not make S_alpha(x1) invariant
    code, out, err = run_cli(capsys, ["ergodic", "--p", "3", "--a", "-9", "--c", "-6",
                                      "--radius-exp", "-1"])
    assert code == 2 and out == ""
    assert err == "unsupported: S_(p^-1)(x1) is not invariant: requires radius exponent < -1\n"
    m = CanonicalMap(3, -9, -6)
    points = sphere_points(m, SphereSpec("x1", -1), 16)
    assert points[:2] == [3, 6]
    assert all(m.val(m.eval(x)) == 1 for x in points)
    assert m.val(m.eval(3) - m.eval(6)) == 2 != m.val(3 - 6)
    broken = [(x, y) for i, x in enumerate(points) for y in points[:i]
              if m.val(m.eval(x) - m.eval(y)) != m.val(x - y)]
    assert len(broken) == 64


# -- the one-pass JSON writer ----------------------------------------------------

_TEXTS = ("", "plain", 'a "quoted" word', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f",
          "non-ASCII: \u00e9 \u221e \u2028 \U0001d53d_p", "/ and \\u0041")


def _random_leaf(rng: random.Random, seen: set):
    kind = rng.choice(("str", "bool", "None", "int", "Fraction", "TruncatedPadic",
                       "tagged zero", "INFINITY", "SphereSpec", "OracleLevel", "CanonicalMap"))
    seen.add(kind)
    if kind == "str":
        return rng.choice(_TEXTS)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice((0, -1, 7, -(1 << 64) - 3, rng.randrange(-(1 << 200), 1 << 200)))
    if kind == "Fraction":
        return Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**9))
    p = rng.choice((2, 3, 5, 7))
    if kind == "TruncatedPadic":
        return TruncatedPadic.from_rational(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 99)),
                                            p, rng.randrange(1, 20))
    if kind == "tagged zero":
        return TruncatedPadic.zero(p, rng.choice((INFINITY, rng.randrange(-5, 30))))
    if kind == "SphereSpec":
        return SphereSpec(rng.choice(("x1", "x2")), rng.randrange(-9, 9))
    if kind == "OracleLevel":
        lengths = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(0, 4)))
        return OracleLevel(rng.randrange(1, 9), sum(lengths), len(lengths), lengths)
    if kind == "CanonicalMap":
        return CanonicalMap(p, Fraction(rng.randrange(1, 99), rng.randrange(1, 9)),
                            Fraction(rng.randrange(-99, -1), rng.randrange(1, 9)))
    return {"None": None, "INFINITY": INFINITY}[kind]


def _random_tree(rng: random.Random, depth: int, seen: set):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng, seen)
    kind = rng.choice(("list", "tuple", "dict"))
    seen.add(kind)
    items = [_random_tree(rng, depth - 1, seen) for _ in range(rng.choice((0, 1, 2, 5)))]
    if kind == "dict":
        seen.update(("empty dict",) if not items else ())
        return {rng.choice(_TEXTS) + str(k): item for k, item in enumerate(items)}
    seen.update(("empty list",) if not items else ())
    return items if kind == "list" else tuple(items)


def _written(value) -> str:
    text = []
    cli._write(value, text, "\n")
    return "".join(text)


def test_writer_equals_json_dumps_of_the_converted_tree():
    rng, seen = random.Random("json-writer"), set()
    for _ in range(400):
        tree = _random_tree(rng, 4, seen)
        assert _written(tree) == json.dumps(reference_json(tree), sort_keys=True, indent=2), tree
    assert seen == {"str", "bool", "None", "int", "Fraction", "TruncatedPadic", "tagged zero",
                    "INFINITY", "SphereSpec", "OracleLevel", "CanonicalMap", "list", "tuple",
                    "dict", "empty list", "empty dict"}


@pytest.mark.parametrize("value", [1.5, {"rho": [0.0]}, [{"inf": float("inf")}], {1: "one"},
                                   {"a": {("x", 1): 2}}, object()])
def test_writer_refuses_floats_and_keys_that_are_not_str(value):
    with pytest.raises(TypeError):
        _written(value)


def test_unserializable_report_exits_1_and_writes_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sphere_conditions", lambda m: {"ratio": 0.5})
    code, out, err = run_cli(capsys, ["periodic", "--p", "5", "--q", "1", "--json"])
    assert (code, out) == (1, "")
    assert err == "error: a report value of type float is not JSON serializable\n"


def test_timestamp_adds_only_a_utc_generation_time(capsys):
    code, out, err = run_cli(capsys, ["analyze", "--p", "3", "--a", "-2", "--c", "1", "--json",
                                      "--timestamp"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    stamp = datetime.fromisoformat(report.pop("generated_at"))
    assert stamp.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=5)
    assert report == json.loads((GOLDEN / "analyze_case4.json").read_text())


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--p", "3", "--a", "1", "--b", "0", "--c", "-1"],
     "four-parameter input needs all of --a --b --c --d"),
    (["periodic", "--p", "3", "--a", "1"], "periodic needs either --q or both --a and --c"),
])
def test_incomplete_parameter_sets_exit_1(capsys, argv, message):
    assert run_cli(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,sphere,failed", [
    # the boundary sphere r = alpha = |c| around x1
    (["--p=3", "--a=-9", "--c=-6", "--radius-exp=-1"], "center='x1', radius_exponent=-1",
     "v(t1) = 0 < 1, v(t2) = 0 < 1"),
    # x2-spheres in case 5 (lam = 8/9) and case 4 (lam = 3), where lam is no unit
    (["--p=3", "--a=9", "--c=1", "--center=x2", "--radius-exp=-3"],
     "center='x2', radius_exponent=-3", "v(f'(center)) = -2 != 0"),
    (["--p=3", "--a=-2", "--c=1", "--center=x2", "--radius-exp=-1"],
     "center='x2', radius_exponent=-1", "v(f'(center)) = 1 != 0"),
])
def test_ergodic_exits_3_when_the_invariance_bound_and_the_unit_form_disagree(
        capsys, monkeypatch, argv, sphere, failed):
    # the sphere passes a patched invariance bound, but its balls do not map
    # to balls: an internal disagreement, not an unsupported input
    monkeypatch.setattr(CanonicalMap, "sphere_is_invariant", lambda self, sphere: True)
    code, out, err = run_cli(capsys, ["ergodic", *argv])
    assert (code, out) == (3, "")
    assert err == (f"internal verification failed: balls of invariant SphereSpec({sphere}) "
                   f"do not map to balls: {failed}\n")


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--a", "2", "--c", "1", "--radius-exp", "-2"],
    ["--p", "3", "--a", "-2", "--c", "1", "--radius-exp", "-1"],
    ["--p", "5", "--a", "-1", "--c", "5", "--radius-exp", "-1", "--center", "x2"],
])
def test_ergodic_request_builds_one_unit_form(capsys, monkeypatch, argv):
    # the gate and the invariance bound run once per request: every decider
    # and the sampled checks read the one form that decide_ergodicity built
    calls = Counter()
    for owner, name in ((ergodicity, "rescale_to_unit"), (ergodicity, "_require_invariant"),
                        (CanonicalMap, "sphere_is_invariant")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, real=real:
                            calls.update([name]) or real(*args))
    code, _, _ = run_cli(capsys, ["ergodic", *argv])
    assert code == 0
    assert calls == {"rescale_to_unit": 1, "_require_invariant": 1, "sphere_is_invariant": 1}


def test_x2_sphere_request_computes_the_multiplier_once(capsys, monkeypatch):
    # the unit form reads lambda = f'(x2) off the map's case facts
    calls = []
    real = CanonicalMap.multiplier_x2
    monkeypatch.setattr(CanonicalMap, "multiplier_x2",
                        lambda self: calls.append(self) or real(self))
    code, _, _ = run_cli(capsys, ["ergodic", "--p", "5", "--a", "-1", "--c", "5",
                                  "--radius-exp", "-1", "--center", "x2"])
    assert code == 0 and calls == [CanonicalMap(5, -1, 5)]


def test_on_sphere_periodic_request_computes_rho_once(capsys, monkeypatch):
    # every rho call reads the displacement rule, wherever rho is imported
    calls = []
    real = ergodicity._displacement_rule

    def spy(form):
        calls.append(form.sphere)
        return real(form)

    monkeypatch.setattr(ergodicity, "_displacement_rule", spy)
    code, out, _ = run_cli(capsys, LATER_GOLDEN_COMMANDS["periodic_two_cycle_structure.json"]
                           + ["--json"])
    assert code == 0 and out == (GOLDEN / "periodic_two_cycle_structure.json").read_text()
    assert calls == [SphereSpec("x2", -1)]


def test_random_requests_keep_the_cli_contract(capsys, monkeypatch):
    # seeded requests over all five commands, composite p included: each
    # exits 0, 1 or 2, never 3 (no valid input fails a library check), and a
    # refused request prints one stderr line and nothing on stdout
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from cli_reach import random_request

    rng = random.Random(1)
    codes, conjugated = Counter(), Counter()
    for _ in range(300):
        argv = random_request(rng)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - named in the failure
            pytest.fail(f"{argv} raised out of main: {exc!r}")
        out, err = capsys.readouterr()
        codes[code] += 1
        if argv[0] == "conjugate":
            conjugated[code] += 1
        if code == 0:
            assert out and not err, argv
        else:
            assert code in (1, 2) and not out and err.count("\n") == 1 and err.endswith("\n"), argv
    assert set(codes) == {0, 1, 2}, codes
    # conjugate both reduces a map with a double fixed point and refuses one without
    assert conjugated[0] and conjugated[2], conjugated
