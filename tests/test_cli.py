"""Command-line interface: payloads, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dfchaos
from dfchaos.cli import main

ETA_SQ_JSON = {"nvars": 2, "terms": [{"exponents": [2, 0], "coeff": 1}]}


@pytest.fixture
def eta2_file(tmp_path):
    path = tmp_path / "eta2.json"
    path.write_text(json.dumps(ETA_SQ_JSON))
    return str(path)


@pytest.fixture
def indicator_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"entries": [{"labels": [1], "value": 1}]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_table_contains_example_row(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--alpha", "2", "--N", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,a,theta,theta_star"
    assert "1,1,3/8,3/8" in lines


def test_coeffs_limits_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--alpha", "2", "--limits", "--max-order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["2,1"] == "-15/2"
    assert payload["coefficients"]["2,2"] == "10"
    assert payload["isometry_constants"]["2"] == "1/10"


def test_coeffs_erratum_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--alpha", "2", "--erratum", "--masses", "2")
    assert code == 0
    payload = json.loads(out)
    entry = payload["entries"][0]
    assert "inconsistent" in entry["verdict"]
    assert entry["reconstruction_residual_published"] > 1.0


def test_coeffs_limits_reject_order_below_one(capsys):
    for order in ("0", "-1"):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "2", "--limits", "--max-order", order)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


def test_coeffs_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["coeffs", "--alpha", "2"])
    assert excinfo.value.code == 2
    assert "--N" in capsys.readouterr().err


def test_decompose_worked_example(capsys, eta2_file):
    code, out, _ = run_cli(capsys, "decompose", "--alpha", "1,1", "--F", eta2_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"]["mean"] == "1/3"
    assert payload["variance"] == "4/45"
    assert payload["parseval_gap"] == 0.0
    contributions = {c["order"]: c["variance_contribution"] for c in payload["variance_contributions"]}
    assert contributions == {1: "1/12", 2: "1/180"}


def test_decompose_finite_split(capsys, eta2_file):
    code, out, _ = run_cli(
        capsys, "decompose", "--alpha", "1,1", "--F", eta2_file, "--finite", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 2
    first = {tuple(v["counts"]): v["value"] for v in payload["components"][0]["values"]}
    assert first == {(1, 0): "1/8", (0, 1): "-1/8"}


def test_decompose_finite_refuses_an_order(capsys, eta2_file):
    # --order selects the kernels of the limit decomposition; the finite
    # split has every order up to N, so the two together are a usage error
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", "--alpha", "1,1", "--F", eta2_file, "--finite", "5", "--order", "2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order or --finite" in captured.err


def _refuse_posterior_table(monkeypatch):
    from dfchaos.measures import MomentLadder

    def refuse(*args, **kwargs):
        raise AssertionError("a capped split built its table of posterior means")

    monkeypatch.setattr(MomentLadder, "posterior_table", refuse)


def test_decompose_finite_checks_its_cap_before_building(capsys, tmp_path, monkeypatch):
    # ten atoms and N = 22: the split's C(32, 10) = 64,512,240 lattice vectors
    # exceed the default cap, which refuses before any posterior mean is taken
    functional = tmp_path / "F.json"
    first_mass = {"exponents": [1] + [0] * 9, "coeff": 1}
    functional.write_text(json.dumps({"nvars": 10, "terms": [first_mass]}))
    _refuse_posterior_table(monkeypatch)
    code, out, err = run_cli(
        capsys, "decompose", "--alpha", ",".join(["1"] * 10), "--F", str(functional),
        "--finite", "22",
    )
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ResourceCapError"
    assert "64512240 occupation vectors" in diagnostic["message"]


def test_chaos_kernels_check_their_cap_before_building(capsys, tmp_path, monkeypatch):
    # ten atoms and --order 22: the chaos kernels need E[F | mu] at every one
    # of the C(32, 10) = 64,512,240 vectors of size <= 22, refused at once
    functional = tmp_path / "F.json"
    first_mass = {"exponents": [1] + [0] * 9, "coeff": 1}
    functional.write_text(json.dumps({"nvars": 10, "terms": [first_mass]}))
    _refuse_posterior_table(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", "--alpha", ",".join(["1"] * 10), "--F", str(functional),
        "--order", "22",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ResourceCapError"
    assert "64512240 occupation vectors exceeds cap 10000000" in diagnostic["message"]


def test_approx_cap_counts_the_split_lattice(capsys, tmp_path, monkeypatch):
    # window 24 on eight atoms: the report's oracle kernels hold the split's
    # C(32, 8) = 10,518,300 lattice vectors, over the cap, although the
    # window's C(31, 7) = 2,629,575 occupation vectors are under it
    functional = tmp_path / "F.json"
    first_mass = {"exponents": [1] + [0] * 7, "coeff": 1}
    functional.write_text(json.dumps({"nvars": 8, "terms": [first_mass]}))
    _refuse_posterior_table(monkeypatch)
    code, out, err = run_cli(
        capsys, "approx", "--alpha", ",".join(["1"] * 8), "--F", str(functional), "--N", "24",
        "--seed", "11", "--reps", "2000",
    )
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ResourceCapError"
    assert "10518300 occupation vectors exceeds cap 10000000" in diagnostic["message"]


def test_the_enumeration_cap_is_not_an_option(capsys, eta2_file, indicator_file):
    for argv in (
        ["approx", "--alpha", "1,1", "--F", eta2_file, "--N", "4", "--seed", "11", "--cap", "14"],
        ["bayes", "var", "--alpha", "1,1", "--obs", "1", "--h", indicator_file, "--cap", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--cap" in capsys.readouterr().err


# integer sizes read from the command line: each ran past a 5 s timeout, or
# died in numpy's allocation, before its path counted what it would hold
OVERSIZED = {
    "limits": ["coeffs", "--alpha", "2", "--limits", "--max-order", "99999999999999999999"],
    "table": ["coeffs", "--alpha", "2", "--N", "99999999999"],
    "truncation": ["wf", "--theta", "1,1/2", "--t", "0.5", "--truncation", "99999999",
                   "--gamma", "1/3", "--gamma-prime", "1/2"],
    "grid": ["wf", "--theta", "1,1/2", "--t", "0.5", "--table", "--grid", "99999999999"],
    "reps": ["approx", "--alpha", "1,1", "--N", "2", "--seed", "1", "--reps", "99999999999999"],
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_an_oversized_integer_option_is_refused_at_once(capsys, eta2_file, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, *(["--F", eta2_file] if argv[0] == "approx" else []))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ResourceCapError"
    assert "exceeds cap 10000000" in diagnostic["message"]


def test_a_huge_kernel_payload_is_a_usage_error_at_once(capsys, tmp_path):
    # the density test formed C(2 * 10**9 - 1, 10**9) from the payload's own numbers
    path = tmp_path / "h.json"
    huge = {"order": 10**9, "K": 10**9, "values": [{"counts": [1], "value": 1}]}
    path.write_text(json.dumps(huge))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["bayes", "var", "--alpha", "1,1", "--h", str(path)])
    assert time.perf_counter() - start < 1
    assert excinfo.value.code == 2
    assert "--h: occupation vector (1,) has wrong length" in capsys.readouterr().err


MALFORMED_TERMS = {
    "list-term": {"nvars": 2, "terms": [[[1, 0], "2"]]},
    "bad-exponent": {"nvars": 2, "terms": [{"exponents": ["x", 0], "coeff": 1}]},
    "no-coeff": {"nvars": 2, "terms": [{"exponents": [1, 0]}]},
    "scalar-terms": {"nvars": 2, "terms": 5},
    "bad-nvars": {"nvars": "x", "terms": [{"exponents": [1, 0], "coeff": 1}]},
    "infinite-exponent": {"nvars": 2, "terms": [{"exponents": [1e999, 0], "coeff": 1}]},
}


@pytest.mark.parametrize("command", ["decompose", "approx"])
@pytest.mark.parametrize("payload", MALFORMED_TERMS.values(), ids=MALFORMED_TERMS.keys())
def test_a_malformed_functional_is_a_usage_error(capsys, tmp_path, command, payload):
    # every shape error inside the terms is a usage error, not a traceback
    functional = tmp_path / "F.json"
    functional.write_text(json.dumps(payload))
    argv = [command, "--alpha", "1,1", "--F", str(functional)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + (["--N", "2", "--seed", "1"] if command == "approx" else []))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--F: malformed polynomial JSON" in captured.err


# a JSON number that is not an integer where one is read: int() would read
# 2.7 as 2, 1.9 and true as 1 and the label 1.7 as 1
def _terms(exponents):
    return [{"exponents": exponents, "coeff": 1}]


NON_INTEGER_FIELDS = {
    "float-nvars": ("decompose", "--F", {"nvars": 2.7, "terms": _terms([1, 0])}),
    "float-exponent": ("decompose", "--F", {"nvars": 2, "terms": _terms([1.9, 0])}),
    "bool-exponent": ("decompose", "--F", {"nvars": 2, "terms": _terms([True, 0])}),
    "float-label": ("bayes var", "--h", {"entries": [{"labels": [1.7, 2], "value": "1/2"}]}),
    "float-counts": (
        "bayes var", "--h", {"order": 1, "K": 2, "values": [{"counts": [1.0, 0], "value": 1}]}
    ),
}


@pytest.mark.parametrize(
    "command, flag, payload", NON_INTEGER_FIELDS.values(), ids=NON_INTEGER_FIELDS.keys()
)
def test_a_non_integer_field_is_a_usage_error(capsys, tmp_path, command, flag, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as excinfo:
        main([*command.split(), "--alpha", "1,1", flag, str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an integer" in captured.err


def test_decompose_missing_functional_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", "--alpha", "1,1"])
    assert excinfo.value.code == 2
    assert "--F" in capsys.readouterr().err


def test_jacobi_payload(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--n", "1", "--a1", "1", "--a0", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][1] == pytest.approx(2 * 3**0.5)
    assert payload["orthonormality_worst"] == 0.0
    assert payload["degeneracy"] == 0.0


def test_jacobi_overflow_reports_numeric_error(capsys):
    code, out, err = run_cli(
        capsys, "jacobi", "--n", "20", "--a1", "1000000007/3", "--a0", "1/500000000"
    )
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericError"
    assert "leaves the float range" in diagnostic["message"]


def test_wf_density_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "wf", "--theta", "2,1", "--t", "0.5", "--gamma", "0.3",
        "--gamma-prime", "0.4", "--truncation", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.1043322639981918, rel=1e-9)
    assert payload["tail_bound"] < 1e-6
    assert len(payload["contributions"]) == 6


def test_wf_rejects_nonpositive_time(capsys):
    code, out, err = run_cli(
        capsys, "wf", "--theta", "2,1", "--t", "0", "--gamma", "0.3", "--gamma-prime", "0.4"
    )
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"
    assert out == ""


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_wf_rejects_a_non_finite_time_with_a_json_error(capsys, t):
    code, out, err = run_cli(
        capsys, "wf", "--theta", "1,1/2", "--t", t, "--gamma", "1/3",
        "--gamma-prime", "1/2", "--truncation", "4",
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "DomainError", "message": f"time must be finite and > 0, got {t}"
    }
    assert out == ""


def test_wf_table_grid(capsys):
    code, out, _ = run_cli(
        capsys, "wf", "--theta", "2,1", "--t", "0.5", "--table", "--grid", "2",
        "--truncation", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,gamma_prime,density,tail_bound"
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_wf_table_refuses_a_non_positive_grid(capsys, grid):
    with pytest.raises(SystemExit) as excinfo:
        main(["wf", "--theta", "1,1/2", "--t", "0.5", "--table", "--grid", grid])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--grid must be >= 1, got {grid}" in err


def test_wf_four_atoms_high_truncation(capsys):
    # K = 4, M = 8: the closed-form kernels make this a sub-second job
    argv = ("wf", "--theta", "1/2,3/4,1,2", "--truncation", "8",
            "--gamma", "1/5,1/10,3/10", "--gamma-prime", "1/7,1/7,1/7")
    code, out, _ = run_cli(capsys, *argv, "--t", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert math.isfinite(payload["tail_bound"]) and payload["tail_bound"] > 0
    assert len(payload["contributions"]) == 8
    code, out, _ = run_cli(capsys, *argv, "--t", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(payload["stationary"], abs=1e-10)


def test_bayes_var_uniform_value(capsys, indicator_file):
    code, out, _ = run_cli(
        capsys, "bayes", "var", "--alpha", "1,1", "--h", indicator_file
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == "1/6"


def test_bayes_var_posterior_update(capsys, indicator_file):
    code, out, _ = run_cli(
        capsys, "bayes", "var", "--alpha", "1,1", "--obs", "1,2,1", "--h", indicator_file
    )
    payload = json.loads(out)
    assert payload["posterior"]["weights"] == ["3", "2"]
    assert payload["estimate"] == "1/5"


def test_bayes_var_cap_exit_code(capsys, tmp_path):
    # a one-entry arity-22 table on ten atoms: the future block's lattice of
    # C(32, 10) = 64,512,240 vectors exceeds the cap
    table = tmp_path / "h.json"
    table.write_text(json.dumps({"entries": [{"labels": [1] * 22, "value": 1}]}))
    code, out, err = run_cli(
        capsys, "bayes", "var", "--alpha", ",".join(["1"] * 10), "--obs", "1", "--h", str(table),
    )
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ResourceCapError"
    assert "64512240 vectors exceeds cap 10000000" in diagnostic["message"]


def test_bayes_exp_payload(capsys):
    code, out, _ = run_cli(
        capsys, "bayes", "exp", "--alpha", "1,1", "--set", "1", "--lambda", "1",
        "--order", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(1.7182818284590453, rel=1e-12)
    assert abs(payload["parseval_residual"]) < 1e-6


def test_bayes_exp_negative_lambda_matches_mpmath(capsys):
    # E[exp(-40 D)] and its variance for D ~ Beta(1, 1); the series for
    # negative arguments used to report a variance of -8.6e15 here
    code, out, _ = run_cli(
        capsys, "bayes", "exp", "--alpha", "1,1", "--set", "1", "--lambda", "-40",
        "--order", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(0.025, rel=1e-10)
    assert payload["variance"] == pytest.approx(0.011875, rel=1e-10)


def test_bayes_exp_lambda_beyond_the_float_range_is_a_domain_error(capsys):
    # float(10**400) overflowed inside decompose_exponential, a traceback
    code, out, err = run_cli(
        capsys, "bayes", "exp", "--alpha", "1,1", "--set", "1", "--lambda", "1e400",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "DomainError", "message": "lambda leaves the float range"}


def test_bayes_exp_high_order_and_residual_bound(capsys):
    # order 40 used to exceed the K^n enumeration cap (exit 3)
    code, out, _ = run_cli(
        capsys, "bayes", "exp", "--alpha", "1,1", "--set", "1", "--lambda", "1",
        "--order", "40",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 40
    assert 0 < payload["residual_bound"] < 1e-13
    assert abs(payload["parseval_residual"]) <= payload["residual_bound"]


def test_bayes_exp_caps_the_kernel_size(capsys):
    code, out, err = run_cli(
        capsys, "bayes", "exp", "--alpha", ",".join(["1"] * 10), "--set", "1",
        "--lambda", "1", "--order", "30",
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ResourceCapError"


def test_bayes_exp_overflow_reports_overflow(capsys):
    code, out, err = run_cli(
        capsys, "bayes", "exp", "--alpha", "1,1", "--set", "1", "--lambda", "800",
    )
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericError"
    assert "leaves the float range" in diagnostic["message"]


@pytest.mark.parametrize("reps", ["0", "1", "-5"])
def test_approx_rejects_too_few_reps(capsys, eta2_file, reps):
    code, out, err = run_cli(
        capsys, "approx", "--alpha", "1,1", "--F", eta2_file, "--N", "2",
        "--seed", "11", "--reps", reps,
    )
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"
    assert out == ""


def test_approx_refuses_a_non_finite_monte_carlo_loss(capsys, tmp_path):
    # the squared errors of F = 1e308 (x1 + x2) overflow: the report printed
    # "value": Infinity, "stderr": NaN and exited 0
    functional = tmp_path / "F.json"
    terms = [{"exponents": [1, 0], "coeff": 1e308}, {"exponents": [0, 1], "coeff": 1e308}]
    functional.write_text(json.dumps({"nvars": 2, "terms": terms}))
    code, out, err = run_cli(
        capsys, "approx", "--alpha", "1,1", "--F", str(functional), "--N", "2",
        "--seed", "1", "--reps", "10",
    )
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericError"
    assert "Monte Carlo loss leaves the float range" in diagnostic["message"]


def test_approx_requires_seed(capsys, eta2_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["approx", "--alpha", "1,1", "--F", eta2_file, "--N", "2"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_approx_deterministic_output(capsys, eta2_file):
    args = (
        "approx", "--alpha", "1,1", "--F", eta2_file, "--N", "2",
        "--seed", "11", "--reps", "2000",
    )
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["oracle"]["loss_enumerated"] == "7/150"


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True


def test_verify_refuses_a_one_atom_measure(capsys):
    code, out, err = run_cli(capsys, "verify", "--alpha", "2", "--quick")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_console_script_entry_point():
    # the child imports the package this process imported, however pytest found it
    src = str(Path(dfchaos.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "dfchaos.cli", "coeffs", "--alpha", "2", "--N", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0
    assert "1,1,3/4,3/4" in result.stdout.splitlines()
