"""The command line never dies with a traceback: one fuzz over every subcommand.

``cli.main`` runs in process on drawn argument vectors: malformed and
extreme ``--F`` and ``--h`` payloads, scalars such as 1e400, nan and inf,
label lists and points.  Every run must end with exit 0, 1, 2 or 3.  A
failure's last stderr line is either the JSON diagnostic of exits 1 and 3
or argparse's usage error of exit 2, and a JSON diagnostic holds no
Infinity or NaN.  The one exception is ``verify``, which exits 1 with its
failed checks on stdout.  The sizes (orders, windows, replications, grids)
are drawn small or far beyond every cap, 10**20, where each path must
refuse before any work, so every run is quick.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfchaos.cli import main

EXTREME = ["1e400", "-1e400", "1e-400", "nan", "inf", "-inf", "0", "-1", "1/0", "x", "", "1e308"]
PLAIN = ["1", "2", "1/2", "3/2", "0.25", "7/3"]
scalars = st.sampled_from(EXTREME + PLAIN)
weights = st.lists(st.sampled_from(EXTREME + PLAIN * 3), min_size=1, max_size=3).map(",".join)
labels = st.lists(st.sampled_from(["1", "2", "3", "0", "-1", "9", "1.5", "a", ""]), max_size=3).map(
    ",".join
)
BEYOND_CAP = str(10**20)
small_ints = st.sampled_from(["0", "1", "2", "3", "-1", "2.5", "1e400", "x", BEYOND_CAP])

# JSON values where a number, an integer or a list is read
numbers = st.sampled_from(
    [1, -3, 0, "1/2", "nan", "inf", "1e400", "1/0", "x", None, True, [1], {}, 1e308, -1e308,
     float("nan"), float("inf"), 1e-320]
)
integers = st.sampled_from([0, 1, 2, 3, -1, 1.5, "1", True, None, 1e999, 10**30])
int_lists = st.one_of(st.lists(integers, max_size=4), st.sampled_from([None, 5, "x"]))


def _maybe(key, strategy):
    """A one-entry dict {key: value}, or an empty dict: a field that may be missing."""
    return st.one_of(st.just({}), strategy.map(lambda value: {key: value}))


def _record(*fields):
    return st.tuples(*fields).map(lambda parts: {k: v for part in parts for k, v in part.items()})


terms = st.one_of(
    _record(_maybe("exponents", int_lists), _maybe("coeff", numbers)),
    st.sampled_from([5, None, "t", [[1, 0], "2"]]),
)
functionals = st.one_of(
    _record(
        _maybe("nvars", st.sampled_from([2, 3, 1, 0, -1, "x", 2.5, None])),
        _maybe("terms", st.one_of(st.lists(terms, max_size=3), st.sampled_from([5, None, {}]))),
    ),
    st.sampled_from([[], 5, "x", None]),
)
entries = st.one_of(
    _record(_maybe("labels", int_lists), _maybe("value", numbers)),
    st.sampled_from([5, None, []]),
)
values = _record(_maybe("counts", int_lists), _maybe("value", numbers))
statistics = st.one_of(
    _record(_maybe("entries", st.one_of(st.lists(entries, max_size=3), st.sampled_from([5, None])))),
    _record(
        _maybe("order", st.sampled_from([1, 2, 0, -1, "x", None, 1.5, 10**20])),
        _maybe("K", st.sampled_from([2, 1, 0, -1, "x", None, 10**20])),
        _maybe("values", st.one_of(st.lists(values, max_size=3), st.sampled_from([5, None]))),
    ),
    st.sampled_from([[], 5, None]),
)
payload_texts = st.one_of(functionals.map(json.dumps), statistics.map(json.dumps), st.just("{oops"))


def _options(*pairs):
    """Each (flag, strategy) pair appears with a drawn value, or not at all."""
    parts = [st.one_of(st.just([]), strategy.map(lambda v, f=flag: [f, v])) for flag, strategy in pairs]
    return st.tuples(*parts).map(lambda chunks: [word for chunk in chunks for word in chunk])


def _command(words, *pairs):
    return _options(*pairs).map(lambda rest: [*words, *rest])


PAYLOAD = "<payload>"
commands = st.one_of(
    _command(["coeffs", "--alpha"], ("--N", small_ints), ("--max-k", small_ints)).flatmap(
        lambda argv: st.one_of(weights, scalars).map(lambda a: argv[:2] + [a] + argv[2:])
    ),
    _command(["coeffs", "--limits"], ("--alpha", scalars), ("--max-order", small_ints)),
    _command(["coeffs", "--erratum", "--alpha", "2"], ("--masses", scalars)),
    _command(["decompose", "--F", PAYLOAD], ("--alpha", weights), ("--order", small_ints),
             ("--finite", small_ints)),
    _command(["jacobi"], ("--n", small_ints), ("--a1", scalars), ("--a0", scalars)),
    _command(["wf"], ("--theta", weights), ("--t", scalars), ("--truncation", small_ints),
             ("--gamma", weights), ("--gamma-prime", weights)),
    _command(["wf", "--table"], ("--theta", weights), ("--t", scalars),
             ("--truncation", small_ints), ("--grid", small_ints)),
    _command(["bayes", "var", "--h", PAYLOAD], ("--alpha", weights), ("--obs", labels)),
    _command(["bayes", "exp"], ("--alpha", weights), ("--set", labels), ("--lambda", scalars),
             ("--order", small_ints)),
    st.sampled_from(["4", "1", BEYOND_CAP]).flatmap(
        lambda reps: _command(["approx", "--F", PAYLOAD, "--reps", reps], ("--alpha", weights),
                              ("--N", small_ints), ("--seed", small_ints))
    ),
    st.sampled_from(EXTREME).map(lambda a: ["verify", "--quick", "--alpha", a]),
)


def _strict_json(line):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


MASS = json.dumps({"nvars": 2, "terms": [{"exponents": [1, 0], "coeff": 1}]})
HUGE_KERNEL = json.dumps({"order": 10**9, "K": 10**9, "values": [{"counts": [1], "value": 1}]})
OVERFLOWING_SUM = json.dumps({"nvars": 2, "terms": [{"exponents": [1, 0], "coeff": "1e400"},
                                                   {"exponents": [1, 0], "coeff": 1e308}]})


@settings(max_examples=150, deadline=None, database=None)
@given(argv=commands, payload=payload_texts)
# each of these once ended in a traceback or printed Infinity (test_cli.py holds the
# non-finite Monte Carlo loss and --lambda 1e400)
@example(argv=["approx", "--F", PAYLOAD, "--alpha", "1,1", "--N", "2", "--seed", "-1"], payload=MASS)
@example(argv=["decompose", "--F", PAYLOAD, "--alpha", "1,1"], payload=OVERFLOWING_SUM)
@example(argv=["bayes", "exp", "--alpha", "1e308,1", "--set", "1", "--lambda", "1e308"], payload="")
@example(argv=["bayes", "exp", "--alpha", "1e400,1e400", "--set", "1", "--lambda", "1"], payload="")
@example(argv=["wf", "--theta", "1/2,1e-400", "--t", "1", "--gamma", "1/2", "--gamma-prime", "1/2"],
         payload="")
@example(argv=["coeffs", "--alpha", "1e999999999", "--N", "2"], payload="")
# sizes beyond the cap, each of which ran past a 5 s timeout or died in numpy's allocation
@example(argv=["coeffs", "--alpha", "2", "--limits", "--max-order", "99999999999999999999"],
         payload="")
@example(argv=["coeffs", "--alpha", "2", "--N", "99999999999"], payload="")
@example(argv=["wf", "--theta", "1,1/2", "--t", "0.5", "--truncation", "99999999", "--gamma", "1/3",
               "--gamma-prime", "1/2"], payload="")
@example(argv=["approx", "--F", PAYLOAD, "--alpha", "1,1", "--N", "2", "--seed", "1", "--reps",
               "99999999999999"], payload=MASS)
@example(argv=["bayes", "var", "--h", PAYLOAD, "--alpha", "1,1"], payload=HUGE_KERNEL)
def test_every_subcommand_exits_with_a_code_and_a_diagnostic(tmp_path_factory, argv, payload):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    path.write_text(payload)
    argv = [str(path) if word == PAYLOAD else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, payload, code)
    if code == 0:
        return
    lines = err.getvalue().strip().splitlines()
    if argv[0] == "verify" and code == 1 and not lines:
        assert _strict_json(out.getvalue())["all_passed"] is False
        return
    assert lines, (argv, payload, code)
    if code == 2:
        assert "error:" in lines[-1], (argv, payload, lines[-1])
    else:
        assert "error" in _strict_json(lines[-1]), (argv, payload, lines[-1])
