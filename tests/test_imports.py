"""Import surface: the lazy package namespace and what a CLI process loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dfchaos
from dfchaos.cli import _json_default

SRC = str(Path(dfchaos.__file__).resolve().parent.parent)
# Modules only the Monte Carlo, erratum and verification paths need.
HEAVY = ("numpy", "dfchaos.validation", "dfchaos.ustat", "dfchaos.bayes", "dfchaos.jacobi")


def _modules_added_by(code: str) -> set[str]:
    """Modules a fresh interpreter adds to ``sys.modules`` while running
    ``code`` (whatever its own start-up loaded is left out)."""
    probe = (
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        "added = sorted(set(sys.modules) - before)\nimport json\nprint(json.dumps(added))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _package_modules_of_cli_run(argv: list[str]) -> set[str]:
    """Package modules a fresh interpreter loads running ``dfchaos`` on
    ``argv``; it also asserts that ``dataclasses`` and ``inspect`` stay out."""
    code = (
        "import contextlib, io, dfchaos.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert dfchaos.cli.main({argv!r}) == 0"
    )
    added = _modules_added_by(code)
    assert not added & {"dataclasses", "inspect"}
    return {m for m in added if m == "dfchaos" or m.startswith("dfchaos.")}


def _loaded_after(code: str) -> set[str]:
    """Names of ``HEAVY`` modules a fresh interpreter loads running ``code``."""
    return _modules_added_by(code) & set(HEAVY)


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--alpha", "7/3", "--N", "12"],
        ["coeffs", "--alpha", "7/3", "--N", "12", "--max-k", "3"],
        ["coeffs", "--alpha", "2", "--limits", "--max-order", "5"],
    ],
)
def test_coeffs_process_loads_only_what_it_runs(argv):
    assert _package_modules_of_cli_run(argv) == {
        "dfchaos",
        "dfchaos.cli",
        "dfchaos.coeffs",
        "dfchaos.numeric",
        "dfchaos.errors",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["wf", "--theta", "1,1/2", "--t", "0.5", "--truncation", "4",
         "--gamma", "1/3", "--gamma-prime", "1/2"],
        ["wf", "--theta", "4/3,1", "--t", "0.05", "--truncation", "12", "--table", "--grid", "3"],
    ],
)
def test_wf_process_loads_only_what_it_runs(argv):
    assert _package_modules_of_cli_run(argv) == {
        "dfchaos",
        "dfchaos.cli",
        "dfchaos.errors",
        "dfchaos.numeric",
        "dfchaos.measures",
        "dfchaos.wright_fisher",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--alpha", "1/3,4/3", "--F", "{F}"],
        ["decompose", "--alpha", "1/3,4/3", "--F", "{F}", "--finite", "5"],
        ["bayes", "exp", "--alpha", "1/2,1,1/2", "--set", "1", "--lambda", "3/2", "--order", "8"],
        ["bayes", "var", "--alpha", "1/2,1,1/2", "--obs", "1,3", "--h", "{h}"],
        ["jacobi", "--n", "8", "--a1", "1/3", "--a0", "5/2"],
    ],
)
def test_value_class_subcommands_load_neither_dataclasses_nor_inspect(argv, tmp_path):
    # their value classes are ``numeric.Record`` subclasses; approx and
    # verify are left out because numpy itself imports ``inspect``
    files = {
        "{F}": {"nvars": 2, "terms": [{"exponents": [2, 1], "coeff": "-1"},
                                      {"exponents": [1, 0], "coeff": "1/2"}]},
        "{h}": {"entries": [{"labels": [1, 2], "value": "1/2"}, {"labels": [3, 3], "value": -1}]},
    }
    for placeholder, payload in files.items():
        (tmp_path / placeholder.strip("{}")).write_text(json.dumps(payload))
    argv = [str(tmp_path / a.strip("{}")) if a in files else a for a in argv]
    assert "dfchaos.cli" in _package_modules_of_cli_run(argv)


def test_cli_import_loads_no_heavy_module():
    assert _loaded_after("import dfchaos.cli") == set()


def test_measures_and_their_moment_ladder_load_no_heavy_module():
    code = (
        "from dfchaos.measures import measure, dirichlet_moment\n"
        "assert dirichlet_moment(measure(1, '1/2'), (2, 1)) == measure(1, '1/2').moment_ladder.moment((2, 1))"
    )
    assert _loaded_after(code) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--alpha", "2", "--N", "6"],
        ["coeffs", "--alpha", "2", "--limits", "--max-order", "3"],
        ["wf", "--theta", "1,1/2", "--t", "0.5", "--truncation", "4",
         "--gamma", "1/3", "--gamma-prime", "1/2"],
        # the subset-sum assembly lives in kernels, not in numpy-bound ustat
        ["decompose", "--alpha", "1/3,4/3", "--F", "{F}"],
        ["decompose", "--alpha", "1/3,4/3", "--F", "{F}", "--finite", "4"],
    ],
)
def test_exact_subcommands_run_without_heavy_modules(argv, tmp_path):
    functional = tmp_path / "F.json"
    functional.write_text(json.dumps(
        {"nvars": 2, "terms": [{"coeff": "-1", "exponents": [2, 0]},
                               {"coeff": "1", "exponents": [2, 1]}]}
    ))
    argv = [str(functional) if a == "{F}" else a for a in argv]
    code = (
        "import contextlib, io, dfchaos.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert dfchaos.cli.main({argv!r}) == 0"
    )
    assert _loaded_after(code) == set()


def test_finite_split_loads_neither_the_urn_module_nor_the_window_report(tmp_path):
    # the split is F's chaos kernels shrunk (``chaos``): no per-mean
    # completion enumeration (``polya``), no window report (``ustat``), no numpy
    functional = tmp_path / "F.json"
    functional.write_text(json.dumps(
        {"nvars": 2, "terms": [{"coeff": "-1", "exponents": [2, 0]},
                               {"coeff": "1", "exponents": [2, 1]}]}
    ))
    argv = ["decompose", "--alpha", "1/3,4/3", "--F", str(functional), "--finite", "4"]
    code = (
        "import contextlib, io, dfchaos.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert dfchaos.cli.main({argv!r}) == 0"
    )
    added = _modules_added_by(code)
    assert {"dfchaos.hoeffding", "dfchaos.chaos"} <= added
    assert not added & {"dfchaos.polya", "dfchaos.ustat", "numpy"}


def test_package_import_is_lazy_and_erratum_loads_validation():
    assert _loaded_after("import dfchaos") == set()
    code = (
        "import contextlib, io, dfchaos.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    dfchaos.cli.main(['coeffs', '--alpha', '2', '--erratum', '--masses', '2'])"
    )
    loaded = _loaded_after(code)
    assert "dfchaos.validation" in loaded
    # the report runs no Monte Carlo: numpy and ustat load with verify's window check only
    assert not loaded & {"numpy", "dfchaos.ustat"}


def test_every_public_name_resolves():
    for name in dfchaos.__all__:
        value = getattr(dfchaos, name)
        if name != "__version__":
            assert getattr(sys.modules[f"dfchaos.{dfchaos._ORIGIN[name]}"], name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dfchaos import *", namespace)
    assert set(dfchaos.__all__) <= set(namespace)
    assert namespace["theta_table"] is dfchaos.theta_table


def test_dir_lists_public_names_and_unknown_names_raise():
    assert set(dfchaos.__all__) <= set(dir(dfchaos))
    with pytest.raises(AttributeError, match="no_such_name"):
        dfchaos.no_such_name  # noqa: B018


def test_submodules_are_attributes_without_an_explicit_import():
    code = (
        "import sys, dfchaos\n"
        "assert dfchaos.chaos is sys.modules['dfchaos.chaos']\n"
        "assert dfchaos.numeric is sys.modules['dfchaos.numeric']"
    )
    assert _loaded_after(code) == set()


def test_json_default_serialises_numpy_scalars():
    payload = {"f": np.float64(0.25), "i": np.int64(7), "q": Fraction(1, 3)}
    assert json.loads(json.dumps(payload, default=_json_default)) == {
        "f": 0.25,
        "i": 7,
        "q": "1/3",
    }
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"x": object()}, default=_json_default)
