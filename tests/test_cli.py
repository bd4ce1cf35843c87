import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from approxsys import cli
from approxsys.errors import ApproxSysError, FormatError
from approxsys.systems import (
    FAnd,
    atom,
    formula_to_json,
    maximal_division_system,
    squaring_formula,
)
from approxsys.verify import cos_taylor


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("APPROXSYS_DEFAULT_BUDGET", raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval ----------------------------------------------------------------------

def test_eval_division_plain(capsys):
    code, out, err = run(
        capsys, "eval", "--system", "division", "--point", "1,3",
        "--prec-index", "999",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "value = 1/3"
    assert lines[1] == "decimal ~ 0.333333"  # len("1000") + 2 digits
    assert lines[2] == "precision_index = 999"
    assert lines[3] == "search_steps = 1"


def test_eval_digits_flag(capsys):
    code, out, _ = run(
        capsys, "eval", "--system", "division", "--point", "1,3",
        "--prec-index", "9", "--digits", "4",
    )
    assert code == 0
    assert "decimal ~ 0.3333" in out.splitlines()[1]


def test_eval_eps_sets_precision_index(capsys):
    code, out, _ = run(
        capsys, "eval", "--system", "division", "--point", "1,3",
        "--eps", "1/1000",
    )
    assert code == 0 and "precision_index = 999" in out
    code, out, _ = run(
        capsys, "eval", "--system", "division", "--point", "1,3", "--eps", "1/3",
    )
    assert code == 0 and "precision_index = 2" in out
    code, out, _ = run(
        capsys, "eval", "--system", "division", "--point", "1,3", "--eps", "0.25",
    )
    assert code == 0 and "precision_index = 3" in out


def test_eval_json_output_byte_stable(capsys):
    argv = (
        "eval", "--system", "cosine", "--point", "1", "--prec-index", "999",
        "--output", "json",
    )
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc == {
        "value": "553/1024",
        "decimal": "0.540039",
        "precision_index": 999,
        "search_steps": 1,
    }


def test_eval_timeout_exit_code(capsys):
    code, out, err = run(
        capsys, "eval", "--system", "division", "--point", "1,0",
        "--prec-index", "0", "--budget", "5000",
    )
    assert code == 2
    assert out == "" and err.startswith("timeout:")


def test_default_budget_at_index_20(capsys):
    # 10^4 * (20 + 1).bit_length() probes, spent in well under a second
    code, out, err = run(
        capsys, "eval", "--system", "division", "--point", "1,0", "--prec-index", "20",
    )
    assert code == 2 and out == ""
    assert err == "timeout: search budget of 50000 steps exhausted\n"


def test_eval_usage_errors(capsys):
    bad = [
        ("eval", "--system", "division", "--point", "1,3"),
        ("eval", "--system", "division", "--point", "1,3",
         "--prec-index", "4", "--eps", "1/2"),
        ("eval", "--system", "division", "--point", "1,3", "--eps", "0"),
        ("eval", "--system", "division", "--point", "1,3", "--prec-index", "-1"),
        ("eval", "--system", "division", "--prec-index", "4"),
        ("eval", "--system", "division", "--point", "1", "--prec-index", "4"),
        ("eval", "--system", "division", "--point", "1,x", "--prec-index", "4"),
        ("eval", "--system", "nonesuch", "--point", "1", "--prec-index", "4"),
        ("eval", "--point", "1", "--prec-index", "4"),
        ("eval", "--system", "division", "--compose", "cosine",
         "--point", "1", "--prec-index", "4"),
        ("eval", "--system", "division", "--point", "1,3",
         "--prec-index", "4", "--budget", "-2"),
        # exponents are no rational literal: Fraction would expand 10^30000000
        ("eval", "--system", "division", "--point", "1e-30000000,1", "--prec-index", "4"),
        ("eval", "--system", "division", "--point", "1,3", "--eps", "1e-30000000"),
        ("eval", "--system", "division", "--point", "1_000,3", "--prec-index", "4"),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    # natural-number flags break the package's one rule, checked before any work
    for argv, message in [
        (("--prec-index", "-1"), "--prec-index must be at least 0, got -1"),
        (("--prec-index", "4", "--budget", "-2"), "--budget must be at least 0, got -2"),
    ]:
        code, out, err = run(capsys, "eval", "--system", "division", "--point", "1,3", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_signed_rationals_follow_their_option_after_a_space(capsys):
    code, out, err = run(capsys, "eval", "--system", "division", "--point", "-1,3",
                         "--prec-index", "3")
    assert (code, err) == (0, "") and out.startswith("value = -1/3\n")
    code, out, err = run(capsys, "eval", "--system", "cosine", "--point", "-1/2",
                         "--prec-index", "3")
    assert (code, err) == (0, "") and out.startswith("value = 15/16\n")
    code, out, err = run(capsys, "eval", "--system", "division", "--point", "1,3",
                         "--eps", "-1/2")
    assert (code, out, err) == (1, "", "error: --eps must be positive\n")
    code, out, err = run(capsys, "verify", "--system", "division", "--quads", "10",
                         "--xi-per-quad", "2", "--cond2-xi", "-1,3")
    assert (code, err) == (0, "") and "condition2: outcome = pass" in out


def test_eval_negative_digits_prints_nothing(capsys):
    code, out, err = run(
        capsys, "eval", "--system", "division", "--point", "1,3",
        "--prec-index", "4", "--digits", "-2",
    )
    assert (code, out, err) == (1, "", "error: --digits must be at least 0, got -2\n")


def test_eval_compose(capsys):
    code, out, _ = run(
        capsys, "eval", "--compose", "cosine,cosine", "--point", "1",
        "--prec-index", "99",
    )
    assert code == 0
    assert "value = 219/256" in out
    assert "search_steps" not in out
    # the outer cosine reads short dyadics, so its output stays short
    code, out, _ = run(
        capsys, "eval", "--compose", "cosine,cosine", "--point", "1",
        "--prec-index", "3000",
    )
    assert code == 0
    assert "value = 3513/4096" in out  # sigma_k itself: 180 bits


@pytest.mark.parametrize("system, point, value", [
    ("division", "1,3", "1/3"), ("maximal-division", "1,3", "331/992"),
    ("cosine", "1", "67/128"), ("square", "3/2", "35725/15876"),
])
def test_compose_of_one_system_prints_the_system_lines_but_search_steps(
        capsys, system, point, value):
    common = ("--point", point, "--prec-index", "20")
    code, alone, err = run(capsys, "eval", "--system", system, *common)
    assert (code, err) == (0, "") and alone.splitlines()[0] == f"value = {value}"
    code, chained, err = run(capsys, "eval", "--compose", system, *common)
    assert (code, err) == (0, "")
    assert chained.splitlines() == [line for line in alone.splitlines()
                                    if not line.startswith("search_steps = ")]


def test_eval_compose_json_byte_stable(capsys):
    argv = ("eval", "--compose", "cosine,cosine", "--point", "1", "--prec-index", "99")
    expected = ('{"decimal": "0.85547", "precision_index": 99, "search_steps": null, '
                '"value": "219/256"}\n')
    assert run(capsys, *argv, "--output", "json") == (0, expected, "")
    assert run(capsys, *argv, "--budget", "0") == (
        2, "", "timeout: search budget of 0 steps exhausted\n")


def test_eval_compose_usage_errors(capsys):
    code, _, err = run(
        capsys, "eval", "--compose", "cosine,division", "--point", "1",
        "--prec-index", "4",
    )
    assert code == 1 and "dimension" in err
    code, _, err = run(
        capsys, "eval", "--compose", "cosine", "--point", "1,2",
        "--prec-index", "4",
    )
    assert code == 1


def test_eval_compose_innermost_system_of_any_dimension(capsys):
    code, out, err = run(
        capsys, "eval", "--compose", "cosine,division", "--point", "2,3",
        "--prec-index", "20",
    )
    assert code == 0 and err == ""
    value = F(out.splitlines()[0].removeprefix("value = "))
    tol = F(1, 10**9)
    assert abs(value - cos_taylor(F(2, 3), tol)) < F(1, 21) - tol
    # outer systems stay unary; apply reports the mismatch before any search
    code, out, err = run(
        capsys, "eval", "--compose", "division,cosine", "--point", "1,3",
        "--prec-index", "4",
    )
    assert code == 1 and out == ""
    assert err == "error: name has dimension 1, system division has dimension 2\n"


@pytest.mark.parametrize("system,point", [
    ("division", "1,3"), ("maximal-division", "1,3"), ("cosine", "1"), ("square", "3/2"),
])
def test_eval_at_a_huge_precision_index_certifies_in_one_probe(capsys, system, point):
    # the default budget at n = 10^12 is 10^4 * 2^64, not a 10^12-bit integer
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--system", system, "--point", point, "--prec-index", str(10**12),
    )
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert "precision_index = 1000000000000\nsearch_steps = 1\n" in out


@pytest.mark.parametrize("n", [0, 3, 10])
@pytest.mark.parametrize("den", [100, 1000])
def test_eval_division_near_the_pole(capsys, den, n):
    # the certificate needs an input index past the ladder's last rung
    # ((n+1)*2^12 - 1); division's modulus names it from the first read
    code, out, err = run(
        capsys, "eval", "--system", "division", "--point", f"1,1/{den}",
        "--prec-index", str(n),
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"value = {den}" and "search_steps = 1\n" in out


def test_env_default_budget(capsys, monkeypatch):
    # maximal division, which states no modulus, at (0, 3/2), n = 0 certifies
    # on its second probe: the range's midpoint 0 fails at input precision
    # m = 0 (the range is [-2, 2]) and passes at m = 1
    monkeypatch.setenv("APPROXSYS_DEFAULT_BUDGET", "1")
    code, _, err = run(
        capsys, "eval", "--system", "maximal-division", "--point", "0,3/2",
        "--prec-index", "0",
    )
    assert code == 2 and err.startswith("timeout:")
    # an explicit --budget wins over the environment
    code, out, _ = run(
        capsys, "eval", "--system", "maximal-division", "--point", "0,3/2",
        "--prec-index", "0", "--budget", "1000000",
    )
    assert code == 0 and "value = 0\n" in out and "search_steps = 2\n" in out

    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("APPROXSYS_DEFAULT_BUDGET", bad)
        code, out, err = run(
            capsys, "eval", "--system", "division", "--point", "0,1",
            "--prec-index", "0",
        )
        assert code == 1 and out == "" and err.startswith("error:")
        if bad != "abc":
            assert err == f"error: APPROXSYS_DEFAULT_BUDGET must be at least 1, got {bad}\n"


# --- enumerate ---------------------------------------------------------------------

def test_enumerate_plain(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "division", "--count", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "#0: a=(0, 1) m=1 b=0 n=0"


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--system", "division", "--count", "3",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["system"] == "division"
    assert len(doc["members"]) == 3
    assert doc["members"][0] == {"a": ["0", "1"], "m": 1, "b": "0", "n": 0}


def test_enumerate_json_lists_quadruple_records(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--system", "maximal-division", "--count", "5",
        "--output", "json",
    )
    assert code == 0
    members = maximal_division_system().members_prefix(5)
    assert json.loads(out)["members"] == [q.to_json_dict() for q in members]


def test_enumerate_count_zero_and_negative(capsys):
    code, out, _ = run(capsys, "enumerate", "--system", "division", "--count", "0")
    assert code == 0 and out == ""
    code, out, err = run(capsys, "enumerate", "--system", "division", "--count", "-1")
    assert (code, out, err) == (1, "", "error: --count must be at least 0, got -1\n")


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_system_flag_is_required(capsys, command):
    code, out, err = run(capsys, command)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--system" in err


def test_enumerate_negative_scan_cap(capsys):
    code, out, err = run(
        capsys, "enumerate", "--system", "division", "--scan-cap", "-4",
    )
    assert (code, out, err) == (1, "", "error: --scan-cap must be at least 0, got -4\n")


def test_enumerate_scan_horizon_message(capsys, tmp_path):
    path = tmp_path / "nothing.json"
    path.write_text(json.dumps(formula_to_json(atom(">"), 1)))
    code, out, _ = run(
        capsys, "enumerate", "--system", str(path), "--count", "4",
        "--scan-cap", "500",
    )
    assert code == 0
    assert out.strip() == "(scan horizon reached after 0 members)"


# --- verify --------------------------------------------------------------------------

def test_verify_division_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "division", "--quads", "120",
        "--xi-per-quad", "4",
    )
    assert code == 0
    assert "condition1: outcome = pass" in out


def test_verify_with_condition2(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "division", "--quads", "50",
        "--xi-per-quad", "3", "--cond2-xi", "1,3", "--cond2-n", "4",
    )
    assert code == 0
    assert "condition2: outcome = pass" in out
    assert "m=2 serves all sampled points" in out


def test_verify_exits_4_when_no_m_serves_condition2(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "division", "--quads", "5", "--cond2-xi", "1,0",
    )
    assert code == 4
    assert "condition2: outcome = inconclusive" in out
    assert "condition2: no m <= 60 served every sample within the budget" in out


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "division", "--quads", "40",
        "--xi-per-quad", "3", "--cond2-xi", "1,3", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"condition1", "condition2"}
    assert doc["condition1"]["outcome"] == "pass"


def test_verify_cosine_never_counterexample(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "cosine", "--quads", "200", "--seed", "1",
    )
    assert code in (0, 4)
    assert "counter_example" not in out


def test_verify_cosine_default_passes(capsys):
    # every ball is proved from cos's range, so no sample needs refining
    code, out, _ = run(capsys, "verify", "--system", "cosine")
    assert code == 0
    assert out == (
        "condition1: outcome = pass, samples = 10000, seed = 0\n"
        "condition1: checked 1000 quadruples\n"
    )


def test_verify_maximal_division_uses_division_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", "maximal-division", "--quads", "150",
        "--xi-per-quad", "4",
    )
    assert code == 0


def test_verify_oracle_dimension_mismatch(capsys):
    code, _, err = run(capsys, "verify", "--system", "cosine", "--oracle", "division")
    assert code == 1 and "dimension" in err


def test_verify_cond2_xi_dimension(capsys, monkeypatch):
    def audit_must_not_run(*args, **kwargs):
        raise AssertionError("condition 1 audited before --cond2-xi was checked")

    monkeypatch.setattr(cli, "verify_condition1", audit_must_not_run)
    code, out, err = run(
        capsys, "verify", "--system", "division", "--quads", "10",
        "--cond2-xi", "1",
    )
    assert (code, out) == (1, "")
    assert err == "error: --cond2-xi has dimension 1, system division has dimension 2\n"


@pytest.mark.parametrize("flag,value", [
    ("--cond2-n", "-1"),  # used to crash with ZeroDivisionError
    ("--quads", "-5"),  # these three used to pass with samples = 0
    ("--quads", "0"),
    ("--xi-per-quad", "0"),
    ("--xi-per-quad", "-3"),
    ("--scan-cap", "-4"),
])
def test_verify_usage_errors(capsys, flag, value):
    code, out, err = run(
        capsys, "verify", "--system", "division", "--cond2-xi", "1,3", flag, value,
    )
    least = 1 if flag in ("--quads", "--xi-per-quad") else 0
    assert (code, out, err) == (1, "", f"error: {flag} must be at least {least}, got {value}\n")


# --- formula files ---------------------------------------------------------------------

@pytest.fixture()
def square_doc():
    formula, nvars = squaring_formula()
    return formula_to_json(formula, nvars)


def test_formula_file_eval(capsys, tmp_path, square_doc):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_doc))
    code, out, _ = run(
        capsys, "eval", "--system", str(path), "--point", "3/2",
        "--prec-index", "9",
    )
    assert code == 0
    value = F(out.splitlines()[0].removeprefix("value = "))
    assert abs(value - F(9, 4)) < F(1, 10)


def test_formula_file_with_b_squared_certifies_in_one_probe(capsys, tmp_path):
    # |b^2 - a| < v - 2u, over (a, b, u, v); before the cylindrical witness
    # this exhausted any budget (exit 2) at every n from 3 up
    A, B2, U, V = (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    formula = FAnd((atom(">", (1, V), (-2, U), (-1, B2), (1, A)),
                    atom(">", (1, V), (-2, U), (1, B2), (-1, A))))
    path = tmp_path / "root.json"
    path.write_text(json.dumps(formula_to_json(formula, 1)))
    code, out, err = run(capsys, "eval", "--system", str(path), "--point", "2",
                         "--prec-index", "10000", "--budget", "13")
    assert code == 0 and err == ""
    lines = out.splitlines()
    value = F(lines[0].removeprefix("value = "))
    assert abs(value * value - 2) < F(1, 10001)
    assert lines[-1] == "search_steps = 1"


def test_formula_file_verify_passes(capsys, tmp_path, square_doc):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_doc))
    code, out, _ = run(
        capsys, "verify", "--system", str(path), "--oracle", "square",
        "--quads", "150", "--xi-per-quad", "4",
    )
    assert code == 0


def test_formula_file_verify_requires_oracle(capsys, tmp_path, square_doc):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_doc))
    code, _, err = run(capsys, "verify", "--system", str(path))
    assert code == 1 and "--oracle" in err


def test_corrupted_formula_is_refuted(capsys, tmp_path, square_doc):
    # double the v coefficient in the first upper-bound atom: the formula
    # then promises twice the actual output tolerance
    poly = square_doc["formula"]["and"][0]["poly"]
    hits = [entry for entry in poly if entry[1] == [0, 0, 0, 1]]
    assert len(hits) == 1 and hits[0][0] == 1
    hits[0][0] = 2
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(square_doc))
    code, out, _ = run(
        capsys, "verify", "--system", str(path), "--oracle", "square",
    )
    assert code == 3
    assert "counter_example" in out


def test_malformed_formula_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, "eval", "--system", str(path), "--point", "1",
                       "--prec-index", "1")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "eval", "--system", str(tmp_path / "ghost.json"),
                       "--point", "1", "--prec-index", "1")
    assert code == 1


def test_unreadable_formula_file_is_a_usage_error(capsys, unreadable_formula_file):
    code, out, err = run(capsys, "eval", "--system", str(unreadable_formula_file),
                         "--point", "1", "--prec-index", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: formula file {unreadable_formula_file} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("coef", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
def test_formula_coefficient_past_the_digit_limit_is_a_usage_error(capsys, tmp_path, coef):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"vars": 1, "formula": {"op": ">", "poly": [[coef, [0, 0, 0, 0]]]}}))
    code, out, err = run(capsys, "eval", "--system", str(path), "--point", "1", "--prec-index", "1")
    assert (code, out) == (1, "")
    assert err == f"error: not a rational literal: {coef!r}\n"


# --- parser plumbing ----------------------------------------------------------------

def test_argparse_exits(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["eval", "--output", "yaml"]) == 1
    capsys.readouterr()


def test_usage_errors_are_the_package_format_error():
    args = cli._PARSER.parse_args(["eval", "--system", "division", "--prec-index", "1"])
    with pytest.raises(FormatError, match="^--point is required$"):
        cli._cmd_eval(args)


def test_every_package_error_but_a_timeout_exits_1(capsys, monkeypatch):
    class Planted(ApproxSysError):
        pass

    def fail(args):
        raise Planted("planted")

    monkeypatch.setattr(cli, "_cmd_enumerate", fail)
    assert run(capsys, "enumerate", "--system", "division") == (1, "", "error: planted\n")


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cli.main built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, _ = run(capsys, "enumerate", "--system", "division", "--count", "3")
    assert code == 0 and out.startswith("#0: ")
    code, out, _ = run(capsys, "verify", "--system", "division", "--quads", "5",
                       "--xi-per-quad", "2")
    assert code == 0 and "condition1: outcome = pass" in out


def test_consecutive_calls_share_no_options(capsys):
    verify = ["verify", "--system", "division", "--quads", "10", "--xi-per-quad", "2"]
    code, out, _ = run(capsys, *verify, "--cond2-xi", "1,3")
    assert code == 0 and "condition2" in out
    code, out, _ = run(capsys, *verify)
    assert code == 0 and "condition1" in out and "condition2" not in out

    enum = ["enumerate", "--system", "division", "--count", "3"]
    code, out, _ = run(capsys, *enum, "--output", "json")
    assert code == 0 and json.loads(out)["system"] == "division"
    code, plain, _ = run(capsys, *enum)
    assert code == 0 and plain.splitlines()[0].startswith("#0: a=(")

    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "enumerate", "--help")[0] == 0
    assert run(capsys, *enum) == (0, plain, "")


@pytest.mark.parametrize("argv, code, out_line, err_line", [
    (["--point", "1,3"], 0, "value = 1/3", ""),
    (["--point", "1,0", "--budget", "3"], 2, "", "timeout: search budget of 3 steps exhausted"),
    (["--point", "1,x"], 1, "", "error: not a rational literal: 'x'"),
], ids=["value", "timeout", "bad-point"])
def test_module_entry_point_exit_codes(argv, code, out_line, err_line):
    """python -m approxsys.cli runs main_entry, which exits with main's code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "APPROXSYS_DEFAULT_BUDGET"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-m", "approxsys.cli", "eval", "--system", "division",
                           "--prec-index", "9", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code
    assert (done.stdout.splitlines() or [""])[0] == out_line
    assert done.stderr.splitlines() == ([err_line] if err_line else [])


# --- README transcript ------------------------------------------------------------


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_transcript():
    """(argv, stdout) for every `$ approxsys ...` line of the README's text block."""
    block = README.split("```text\n", 1)[1].split("```", 1)[0]
    cases = []
    for line in block.splitlines():
        if line.startswith("$ approxsys "):
            cases.append((shlex.split(line)[2:], []))
        elif line:
            cases[-1][1].append(line)
    return [(argv, "".join(out + "\n" for out in lines)) for argv, lines in cases]


README_TRANSCRIPT = _readme_transcript()


@pytest.mark.parametrize("argv, expected", README_TRANSCRIPT,
                         ids=[" ".join(argv) for argv, _ in README_TRANSCRIPT])
def test_readme_transcript(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def test_readme_transcript_has_every_subcommand():
    assert {argv[0] for argv, _ in README_TRANSCRIPT} == {"eval", "enumerate", "verify"}


def test_readme_compose_claim(capsys):
    """The prose claim after the transcript, replayed like it."""
    claim = re.search(r"`(--compose [^`]*)` prints\s+`(value = [^`]*)`", README)
    assert claim.groups() == ("--compose cosine,division --point 2,3 --prec-index 20",
                              "value = 25/32")
    code, out, err = run(capsys, "eval", *shlex.split(claim[1]))
    assert (code, out.splitlines()[0], err) == (0, claim[2], "")
