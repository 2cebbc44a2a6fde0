"""Command-line front end.

Subcommands map one-to-one onto the library surfaces: ``coeffs``
(projection-coefficient tables, limits, and the erratum report),
``decompose`` (kernel extraction for a polynomial functional, or the
finite-sample split of its posterior-mean statistic), ``jacobi`` (the
two-atom orthonormal-polynomial specialization), ``wf`` (transition
density expansions), ``bayes`` (conditional-variance estimation and the
exponential worked example), ``approx`` (windowed approximation report)
and ``verify`` (the named invariant suite).

Machine-readable output goes to stdout only: JSON with sorted keys, or
CSV with rationals rendered exactly as ``p/q`` and floats at 17
significant digits.  Identical configuration and seed give byte-identical
output.  Exit codes: 0 success, 1 numeric/domain/convergence failure
(structured JSON diagnostic on stderr), 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import DFChaosError, NumericError, ResourceCapError, check_cap
from .numeric import Scalar, as_integer, as_scalar, scalar_to_json

if TYPE_CHECKING:
    from .kernels import SimplexPolynomial
    from .measures import DiscreteBaseMeasure

# Each subcommand, and each helper that builds a library object, imports the
# library modules it runs, so a cold process loads only those: a ``coeffs``
# table loads ``coeffs`` and ``numeric``, and numpy is imported only by the
# Monte Carlo paths.

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# parsing and output helpers


def _parse_scalar(parser: argparse.ArgumentParser, flag: str, text: str) -> Fraction:
    try:
        return as_scalar(text)
    except DFChaosError:
        parser.error(f"{flag} expects a rational like 2, 1/2 or 0.25, got {text!r}")
        raise AssertionError  # parser.error always exits


def _parse_weights(parser: argparse.ArgumentParser, flag: str, text: str) -> DiscreteBaseMeasure:
    from .measures import DiscreteBaseMeasure

    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        parser.error(f"{flag} expects comma-separated weights, got {text!r}")
    weights = tuple(_parse_scalar(parser, flag, p.strip()) for p in parts)
    try:
        return DiscreteBaseMeasure(weights)
    except DFChaosError as exc:
        parser.error(f"{flag}: {exc}")
        raise AssertionError


def _parse_labels(parser: argparse.ArgumentParser, flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        parser.error(f"{flag} expects comma-separated integer labels, got {text!r}")
        raise AssertionError


def _parse_point(parser: argparse.ArgumentParser, flag: str, text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        parser.error(f"{flag} expects comma-separated coordinates, got {text!r}")
    return tuple(_parse_scalar(parser, flag, p.strip()) for p in parts)


def _load_json_file(parser: argparse.ArgumentParser, flag: str, path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        parser.error(f"{flag}: cannot read {path!r}: {exc}")
        raise AssertionError
    except json.JSONDecodeError as exc:
        parser.error(f"{flag}: {path!r} is not valid JSON: {exc}")
        raise AssertionError


def _load_functional(parser: argparse.ArgumentParser, flag: str, path: str) -> SimplexPolynomial:
    from .kernels import SimplexPolynomial

    payload = _load_json_file(parser, flag, path)
    try:
        return SimplexPolynomial.from_json(payload)
    except DFChaosError as exc:
        parser.error(f"{flag}: {exc}")
        raise AssertionError


def _load_value_table(parser: argparse.ArgumentParser, flag: str, path: str):
    """A statistic file: either a symmetric kernel or an ordered value table."""
    from .kernels import SymmetricKernel

    payload = _load_json_file(parser, flag, path)
    try:
        if "entries" in payload:
            return {
                tuple(map(as_integer, entry["labels"])): as_scalar(entry["value"])
                for entry in payload["entries"]
            }
        return SymmetricKernel.from_json(payload)
    except (DFChaosError, KeyError, TypeError, ValueError) as exc:
        parser.error(f"{flag}: {exc}")
        raise AssertionError


def _json_default(obj):
    if isinstance(obj, Fraction):
        return scalar_to_json(obj)
    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, default=_json_default))
    sys.stdout.write("\n")


def _fmt_cell(value: Scalar) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[Scalar | str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt_cell(cell) for cell in row])


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_coeffs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .coeffs import c_iso, limit_coefficients, theta_table

    text = args.alpha
    if "," in text:
        mass: Scalar = _parse_weights(parser, "--alpha", text).total_mass
    else:
        mass = _parse_scalar(parser, "--alpha", text)
    if args.erratum:
        from .validation import theta_erratum_report

        masses = (
            _parse_point(parser, "--masses", args.masses)
            if args.masses
            else (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
        )
        _emit_json(theta_erratum_report(masses).to_json())
        return 0
    if args.limits:
        coeffs = limit_coefficients(mass, args.max_order)
        _emit_json(
            {
                "total_mass": scalar_to_json(mass),
                "max_order": args.max_order,
                "coefficients": {
                    f"{n},{k}": scalar_to_json(v) for (n, k), v in sorted(coeffs.items())
                },
                "isometry_constants": {
                    str(n): scalar_to_json(c_iso(n, mass))
                    for n in range(1, args.max_order + 1)
                },
            }
        )
        return 0
    if args.N is None:
        parser.error("coeffs needs --N for a finite table (or --limits / --erratum)")
    table = theta_table(args.N, mass, max_k=args.max_k)
    rows = []
    for k in range(1, table.max_k + 1):
        for a in range(1, k + 1):
            rows.append((k, a, table.theta(k, a), table.theta_star(k, a)))
    _emit_csv(("k", "a", "theta", "theta_star"), rows)
    return 0


def _cmd_decompose(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.F is None:
        parser.error("decompose needs --F (functional JSON file)")
    if args.finite is not None and args.order is not None:
        parser.error("decompose takes --order or --finite, not both")
    alpha = _parse_weights(parser, "--alpha", args.alpha)
    F = _load_functional(parser, "--F", args.F)
    if args.finite is not None:
        from .chaos import _window_split

        split = _window_split(F, alpha, args.finite)
        _emit_json(
            {
                "N": split.N,
                "alpha": alpha.to_json(),
                "mean": scalar_to_json(split.mean),
                "components": [k.to_json() for k in split.components],
                "projections": [k.to_json() for k in split.projections],
            }
        )
        return 0
    from .chaos import _energies, chaos_kernels, variance_functional

    order = args.order if args.order is not None else max(F.degree, 1)
    decomposition = chaos_kernels(F, alpha, order)
    variance = variance_functional(F, alpha)
    contributions = []
    running: Scalar = Fraction(0)
    for n, (c, second) in enumerate(_energies(decomposition.kernels, alpha), start=1):
        term = c * second
        running = running + term
        contributions.append(
            {
                "order": n,
                "isometry_constant": scalar_to_json(c),
                "kernel_second_moment": scalar_to_json(second),
                "variance_contribution": scalar_to_json(term),
            }
        )
    _emit_json(
        {
            "decomposition": decomposition.to_json(),
            "variance": scalar_to_json(variance),
            "variance_contributions": contributions,
            "parseval_gap": float(variance - running),
        }
    )
    return 0


def _cmd_jacobi(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .hoeffding import degenerate_check
    from .jacobi import (
        BetaParams,
        jacobi_gram,
        jacobi_modified,
        jacobi_norm_identity,
        solve_phi_system,
    )

    a1 = _parse_scalar(parser, "--a1", args.a1)
    a0 = _parse_scalar(parser, "--a0", args.a0)
    params = BetaParams(a1, a0)
    n = args.n
    poly = jacobi_modified(n, params)
    payload: dict = {
        "n": n,
        "a1": scalar_to_json(a1),
        "a0": scalar_to_json(a0),
        "coefficients": [float(poly.coefficient(a)) for a in range(n + 1)],
    }
    worst = 0.0
    for i, row in enumerate(jacobi_gram(n, params)):
        for j, value in enumerate(row):
            worst = max(worst, abs(float(value) - (1.0 if i == j else 0.0)))
    payload["orthonormality_worst"] = worst
    if n >= 1:
        phi = solve_phi_system(n, params)
        lhs, rhs = jacobi_norm_identity(n, params)
        payload["phi"] = phi.to_json()
        payload["degeneracy"] = float(degenerate_check(phi, params.as_measure()))
        payload["norm_identity"] = {
            "expectation_side": float(lhs),
            "coefficient_side": float(rhs),
        }
    _emit_json(payload)
    return 0


def _cmd_wf(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .wright_fisher import TransitionModel, transition_density

    theta = _parse_weights(parser, "--theta", args.theta)
    model = TransitionModel(theta, args.truncation)
    if args.table:
        if theta.atoms != 2:
            parser.error("--table draws a 2D grid and needs a two-atom --theta")
        if args.grid < 1:
            parser.error(f"--grid must be >= 1, got {args.grid}")
        G = args.grid
        check_cap(G * G, f"a grid of {G * G} density rows")
        rows = []
        for i in range(1, G + 1):
            for j in range(1, G + 1):
                g = (Fraction(i, G + 1),)
                gp = (Fraction(j, G + 1),)
                density = transition_density(model, args.t, g, gp)
                rows.append(
                    (g[0], gp[0], density.value, density.tail_bound)
                )
        _emit_csv(("gamma", "gamma_prime", "density", "tail_bound"), rows)
        return 0
    if args.gamma is None or args.gamma_prime is None:
        parser.error("wf needs --gamma and --gamma-prime (K-1 free coordinates each)")
    g = _parse_point(parser, "--gamma", args.gamma)
    gp = _parse_point(parser, "--gamma-prime", args.gamma_prime)
    density = transition_density(model, args.t, g, gp)
    _emit_json(
        {
            "theta": theta.to_json(),
            "t": args.t,
            "truncation": args.truncation,
            "gamma": [scalar_to_json(x) for x in g],
            "gamma_prime": [scalar_to_json(x) for x in gp],
            "value": density.value,
            "stationary": density.stationary,
            "contributions": list(density.contributions),
            "tail_bound": density.tail_bound,
            "negative": density.negative,
        }
    )
    return 0


def _cmd_bayes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .bayes import ObservedSample, decompose_exponential, estimate_conditional_variance

    alpha = _parse_weights(parser, "--alpha", args.alpha)
    if args.mode == "var":
        if args.h is None:
            parser.error("bayes var needs --h (statistic JSON file)")
        table = _load_value_table(parser, "--h", args.h)
        labels = _parse_labels(parser, "--obs", args.obs) if args.obs else ()
        sample = ObservedSample(alpha, labels)
        estimate = estimate_conditional_variance(table, sample)
        _emit_json(
            {
                "alpha": alpha.to_json(),
                "observations": list(labels),
                "posterior": sample.posterior().to_json(),
                "estimate": scalar_to_json(estimate),
                "estimate_float": float(estimate),
            }
        )
        return 0
    subset = _parse_labels(parser, "--set", args.subset)
    lam = _parse_scalar(parser, "--lambda", args.lam)
    result = decompose_exponential(alpha, subset, lam, args.order)
    _emit_json(
        {
            "alpha": alpha.to_json(),
            "subset": list(subset),
            "lambda": scalar_to_json(lam),
            "order": result.order,
            "mean": result.mean,
            "variance": result.variance,
            "variance_contributions": list(result.contributions),
            "parseval_residual": result.residual,
            "residual_bound": result.residual_bound,
            "kernels": [k.to_json() for k in result.decomposition.kernels],
        }
    )
    return 0


def _cmd_approx(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import numpy as np

    from .ustat import approximation_report

    if args.F is None:
        parser.error("approx needs --F (functional JSON file)")
    if args.seed is None:
        parser.error("approx runs Monte Carlo confirmation and needs --seed")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    alpha = _parse_weights(parser, "--alpha", args.alpha)
    F = _load_functional(parser, "--F", args.F)
    rng = np.random.default_rng(args.seed)
    report = approximation_report(F, alpha, args.N, reps=args.reps, rng=rng)
    _emit_json(report.to_json())
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .validation import run_verification

    alpha = _parse_weights(parser, "--alpha", args.alpha) if args.alpha else None
    result = run_verification(alpha, quick=args.quick, seed=args.seed)
    _emit_json(result.to_json())
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfchaos",
        description="Orthogonal decompositions of Dirichlet-process functionals "
        "on a finite support.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="projection coefficient tables, limits, erratum")
    p.add_argument("--alpha", required=True, help="total mass, or comma-separated weights")
    p.add_argument("--N", type=int, default=None, help="sample size for the finite table (CSV)")
    p.add_argument("--max-k", type=int, default=None, help="truncate the table at this order")
    p.add_argument("--limits", action="store_true", help="emit limit coefficients as JSON")
    p.add_argument("--max-order", type=int, default=4, help="highest order for --limits")
    p.add_argument("--erratum", action="store_true", help="emit the three-source comparison report")
    p.add_argument("--masses", default=None, help="comma-separated total masses for --erratum")

    p = sub.add_parser("decompose", help="extract decomposition kernels of a functional")
    p.add_argument("--alpha", required=True, help="comma-separated base-measure weights")
    p.add_argument("--F", required=False, help="functional JSON file ({'terms': [...]})")
    p.add_argument("--order", type=int, default=None, help="highest kernel order (default: degree)")
    p.add_argument("--finite", type=int, default=None, metavar="N",
                   help="instead decompose the posterior-mean statistic of N draws")

    p = sub.add_parser("jacobi", help="two-atom orthonormal polynomial and its kernel")
    p.add_argument("--n", type=int, required=True, help="polynomial order")
    p.add_argument("--a1", required=True, help="weight of the first atom")
    p.add_argument("--a0", required=True, help="weight of the second atom")

    p = sub.add_parser("wf", help="transition-density expansion")
    p.add_argument("--theta", required=True, help="comma-separated mutation weights")
    p.add_argument("--t", type=float, required=True, help="elapsed time > 0")
    p.add_argument("--truncation", type=int, default=8, help="highest expansion order M")
    p.add_argument("--gamma", default=None,
                   help="density evaluation point, K-1 free coordinates")
    p.add_argument("--gamma-prime", dest="gamma_prime", default=None,
                   help="conditioning start point, K-1 free coordinates")
    p.add_argument("--table", action="store_true", help="CSV grid over (gamma, gamma') instead")
    p.add_argument("--grid", type=int, default=9, help="interior grid resolution for --table")

    p = sub.add_parser("bayes", help="posterior-variance estimation")
    bayes_sub = p.add_subparsers(dest="mode", required=True)
    pv = bayes_sub.add_parser("var", help="conditional-variance estimate from observations")
    pv.add_argument("--alpha", required=True, help="comma-separated prior weights")
    pv.add_argument("--obs", default="", help="comma-separated observed atom labels")
    pv.add_argument("--h", required=False, help="statistic JSON file (kernel or value table)")
    pe = bayes_sub.add_parser("exp", help="exponential-functional decomposition")
    pe.add_argument("--alpha", required=True, help="comma-separated base-measure weights")
    pe.add_argument("--set", dest="subset", required=True, help="comma-separated atom labels of C")
    pe.add_argument("--lambda", dest="lam", required=True, help="exponent scale")
    pe.add_argument("--order", type=int, default=12, help="truncation order")

    p = sub.add_parser("approx", help="windowed approximation report")
    p.add_argument("--alpha", required=True, help="comma-separated base-measure weights")
    p.add_argument("--F", required=False, help="functional JSON file")
    p.add_argument("--N", type=int, required=True, help="window size")
    p.add_argument("--reps", type=int, default=20_000, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")

    p = sub.add_parser("verify", help="run the named invariant checks")
    p.add_argument("--alpha", default=None, help="comma-separated weights (optional)")
    p.add_argument("--quick", action="store_true", help="smaller bounds, no Monte Carlo")
    p.add_argument("--seed", type=int, default=20260825, help="seed for stochastic checks")

    return parser


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "decompose": _cmd_decompose,
    "jacobi": _cmd_jacobi,
    "wf": _cmd_wf,
    "bayes": _cmd_bayes,
    "approx": _cmd_approx,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](parser, args)
    except ResourceCapError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except NumericError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if exc.partial is not None and math.isfinite(exc.partial):  # JSON has no inf or nan
            payload["partial"] = exc.partial
        json.dump(payload, sys.stderr, default=_json_default)
        sys.stderr.write("\n")
        return 1
    except DFChaosError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
