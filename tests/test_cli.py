import json
from fractions import Fraction
from pathlib import Path

import pytest

from padicdyn.cli import main

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
}
GOLDEN_CASES = sorted(GOLDEN_COMMANDS.items()) + list(LATER_GOLDEN_COMMANDS.items())


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
    # truncated 2-cycle check out of digits: names the precision used
    code, _, err = run_cli(
        capsys, ["periodic", "--p", "2", "--a", "32/7", "--c", "23/12", "--precision", "16"]
    )
    assert code == 2
    assert "precision 16" in err and "rerun with a higher precision" in err


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


def test_decider_disagreement_exits_3(capsys):
    # case-3 sphere around x2 where theorem and oracle disagree (open defect)
    code, out, err = run_cli(
        capsys,
        ["ergodic", "--p=3", "--a=1/18", "--c=-4/3", "--radius-exp=-1", "--center=x2",
         "--oracle-depth=3"],
    )
    assert code == 3 and out == ""
    assert err.startswith("internal verification failed: ") and err.count("\n") == 1


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
    # an exact 2-cycle does not use the precision
    assert run_cli(capsys, ["periodic", "--p", "7", "--a", "4", "--c", "3",
                            "--precision", "100000000"])[0] == 0
