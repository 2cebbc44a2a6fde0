"""Output checks against the recorded references; run after the timed region.

``check(case, output)`` returns ``"ok"``, ``"inaccurate"`` or ``"wrong"``
with a reason.  Only an exponential-functional case whose reference carries
a ``known_miss_error`` can be ``"inaccurate"``: ``record.py`` stores that
error for the cases that miss the accuracy contract (1e-10 of the 60-digit
reference, relative to each order's largest reference value) at the commit
it records, a known defect that the benchmark counts rather than hides.
Such a case is ``"inaccurate"`` while its error stays within
``KNOWN_MISS_SLACK`` times the recorded one.  Any other miss, exponential
or not, is ``"wrong"``.
Exact outputs are compared exactly; float outputs only within a tolerance,
never by digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Relative tolerance for transition densities, tail bounds and float kernel
# values against the values recorded at the benchmark's first commit.
DENSITY_RTOL = 1e-9
# Accuracy contract of the exponential functional against mpmath.
EXP_RTOL = 1e-10
# A recorded known miss stays "inaccurate" while its error is at most this
# multiple of the error recorded for it; a larger error is "wrong".
KNOWN_MISS_SLACK = 10.0
# Jacobi coefficients are floats after an irrational normalisation.
JACOBI_RTOL = 1e-12
# Monte Carlo losses must lie within this many standard errors of the
# enumerated exact loss.
MC_Z = 5.0


def exact_digest(payload) -> str:
    """SHA-256 of a JSON value in canonical form (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def without_mc(report: dict) -> dict:
    """An ``approximation_report`` JSON without its Monte Carlo fields."""
    return {
        **report,
        "oracle": {k: v for k, v in report["oracle"].items() if k != "loss_mc"},
        "candidate": {k: v for k, v in report["candidate"].items() if k != "loss_mc"},
    }


def _close(values, expected, rtol: float, scale: float | None = None) -> bool:
    """Each value within ``rtol * scale`` of its reference; ``scale`` defaults
    to the largest reference magnitude."""
    if len(values) != len(expected):
        return False
    if scale is None:
        scale = max((abs(e) for e in expected), default=0.0)
    return all(math.isfinite(v) and abs(v - e) <= rtol * scale for v, e in zip(values, expected))


def _density_ok(value, tail, ref_value, ref_tail, stationary) -> bool:
    """A truncated density may sit near zero, so its error is scaled by the
    stationary density; the tail bound is positive and checked on its own."""
    return _close([value], [ref_value], DENSITY_RTOL, max(abs(ref_value), stationary)) and _close(
        [tail], [ref_tail], DENSITY_RTOL
    )


def _check_cold(case: dict, stdout: str) -> tuple[str, str]:
    expect = case["expect"]
    cls = case["class"]
    if cls == "decompose":
        payload = json.loads(stdout)
        gap = payload.pop("parseval_gap")
        if gap != 0.0:
            return "wrong", f"Parseval gap {gap}"
        ok = exact_digest(payload) == expect["sha256"]
    elif cls.startswith("table"):
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        want = expect["rows"]
        ok = (
            [r[:2] for r in rows] == [w[:2] for w in want]
            and _close([float(r[2]) for r in rows], [w[2] for w in want], DENSITY_RTOL)
            and all(_close([float(r[3])], [w[3]], DENSITY_RTOL) for r, w in zip(rows, want))
        )
    elif cls.startswith("wf"):
        payload = json.loads(stdout)
        exact_q = [float(Fraction(q)) for q in expect["q"]]
        ok = _density_ok(
            payload["value"], payload["tail_bound"], expect["value"], expect["tail_bound"],
            expect["stationary"],
        ) and _close([c[2] for c in payload["contributions"]], exact_q, 1e-12)
    else:
        ok = hashlib.sha256(stdout.encode()).hexdigest() == expect["sha256"]
    return ("ok", "") if ok else ("wrong", "output differs from the recorded reference")


def exp_error(out: dict, expect: dict) -> float:
    """Largest relative error of an exponential-functional output against the
    mpmath reference: the mean against its own value, each order's kernel
    values against that order's largest reference value (inf if the shapes
    differ or a value is not finite)."""
    pairs = [([out["mean"]], [float(expect["mean"])])]
    pairs += [(got, [float(v) for v in ref]) for got, ref in zip(out["kernels"], expect["kernels"])]
    if len(out["kernels"]) != len(expect["kernels"]):
        return math.inf
    worst = 0.0
    for got, ref in pairs:
        if len(got) != len(ref) or not all(math.isfinite(v) for v in got):
            return math.inf
        scale = max(abs(e) for e in ref) or 1.0
        worst = max(worst, max(abs(v - e) for v, e in zip(got, ref)) / scale)
    return worst


def _check_warm(case: dict, out: dict) -> tuple[str, str]:
    kind = case["kind"]
    expect = case["expect"]
    if kind == "exp":
        error = exp_error(out, expect)
        if error <= EXP_RTOL:
            return "ok", ""
        if error <= KNOWN_MISS_SLACK * expect.get("known_miss_error", 0.0):
            return "inaccurate", f"known miss of the 1e-10 contract (error {error:.3g})"
        return "wrong", f"exponential functional off its 1e-10 contract (error {error:.3g})"
    if kind == "chaos":
        parseval = Fraction(out["variance"]) == sum(Fraction(c) for c in out["contributions"])
        ok = parseval and exact_digest(out) == expect["sha256"]
    elif kind == "ecv":
        ok = exact_digest(out) == expect["sha256"]
    elif kind == "approx":
        ok = exact_digest(without_mc(out)) == expect["sha256"]
        for side in ("oracle", "candidate"):
            mc = out[side]["loss_mc"]
            exact = float(Fraction(out[side]["loss_enumerated"]))
            ok = ok and mc["draws"] > 0 and abs(mc["value"] - exact) <= MC_Z * mc["stderr"]
    elif kind in ("density-exact", "density-float"):
        ok = _density_ok(out["value"], out["tail"], expect["value"], expect["tail"], expect["stationary"])
        if kind == "density-exact":
            ok = ok and out["q"] == expect["q"]
        else:
            ok = ok and _close(out["q"], expect["q"], DENSITY_RTOL)
    elif kind == "jacobi":
        ok = (
            _close(out["coefficients"], expect["coefficients"], JACOBI_RTOL)
            and _close(out["phi"], expect["phi"], JACOBI_RTOL)
            and _close([out["norm"]], [expect["norm"]], JACOBI_RTOL)
        )
    else:
        return "wrong", f"unknown job kind {kind!r}"
    return ("ok", "") if ok else ("wrong", "output differs from the recorded reference")


def check(case: dict, output) -> tuple[str, str]:
    """Classify one finished job's output: CLI stdout text, or a session reply's ``out``."""
    try:
        if "kind" in case:
            return _check_warm(case, output)
        return _check_cold(case, output)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
