"""Long-lived library session of the ``session-warm`` workload.

    python3 perfbench/session.py [--trace]

Set-up imports dfchaos, builds the priors and transition models named in
``PRIORS`` / ``MODELS`` and fills the limit-coefficient rows the jobs use,
then writes ``{"ready": true}``.  After that it reads one JSON request per
line on stdin and writes one JSON reply per line on stdout:

    {"op": "job", "kind": ..., "case": {...}}  ->  {"ok": true, "out": {...}}
    {"op": "begin"}                            ->  tracing restarts from zero
    {"op": "summary"}                          ->  the trace summary
    {"op": "exit"}                             ->  the process ends

A job that raises replies ``{"ok": false, "error": ...}`` and the session
goes on.  The job functions in ``JOBS`` are also what ``record.py`` runs to
record the expected outputs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np

import dfchaos as dc
from dfchaos.numeric import occupation_vectors

# All priors share total mass 2, so one set of limit rows serves them all.
PRIORS = {
    "P2": ("1/2", "3/2"),
    "P3": ("1/2", "1", "1/2"),
    "P4": ("1/4", "1/2", "3/4", "1/2"),
}
MODELS = {"W2": (("1", "1/2"), 12), "W3": (("1", "1/2", "1/2"), 5), "W4": (("1/2",) * 4, 2)}
ROW_ORDER = 12  # highest decompose_exponential order in the mix
MC_REPS = 20_000  # the CLI's default for ``approx``


def _weights(strings) -> dc.DiscreteBaseMeasure:
    return dc.DiscreteBaseMeasure(tuple(Fraction(s) for s in strings))


def set_up() -> dict:
    priors = {name: _weights(w) for name, w in PRIORS.items()}
    models = {name: dc.TransitionModel(_weights(w), M) for name, (w, M) in MODELS.items()}
    for alpha in priors.values():
        dc.limit_coefficients(alpha.total_mass, ROW_ORDER)
    return {"priors": priors, "models": models}


def _chaos(state, case):
    alpha = state["priors"][case["prior"]]
    F = dc.SimplexPolynomial.from_json(case["F"])
    decomposition = dc.chaos_kernels(F, alpha, max(F.degree, 1))
    contributions = [
        dc.c_iso(n, alpha.total_mass) * dc.chaos.statistic_product_mean(h, h, alpha)
        for n, h in enumerate(decomposition.kernels, start=1)
    ]
    return {
        "decomposition": decomposition.to_json(),
        "variance": str(dc.variance_functional(F, alpha)),
        "contributions": [str(c) for c in contributions],
    }


def _ecv(state, case):
    sample = dc.ObservedSample(state["priors"][case["prior"]], tuple(case["obs"]))
    estimate = dc.estimate_conditional_variance(dc.SymmetricKernel.from_json(case["h"]), sample)
    return {"estimate": str(estimate)}


def _exp(state, case):
    alpha = state["priors"][case["prior"]]
    result = dc.decompose_exponential(alpha, case["subset"], Fraction(case["lam"]), case["order"])
    kernels = [
        [float(h.value(a)) for a in occupation_vectors(n, alpha.atoms)]
        for n, h in enumerate(result.decomposition.kernels, start=1)
    ]
    return {"mean": result.mean, "kernels": kernels}


def _approx(state, case):
    alpha = state["priors"][case["prior"]]
    F = dc.SimplexPolynomial.from_json(case["F"])
    rng = np.random.default_rng(case["rng_seed"]) if case["mc"] else None
    return dc.approximation_report(F, alpha, case["window"], reps=MC_REPS, rng=rng).to_json()


def _point(coords):
    return tuple(Fraction(c) if isinstance(c, str) else c for c in coords)


def _density_exact(state, case):
    model = state["models"][case["model"]]
    g, gp = _point(case["g"]), _point(case["gp"])
    density = dc.transition_density(model, case["t"], g, gp)
    return {
        "q": [str(dc.kernel_Q(model, n, g, gp)) for n in range(1, model.M + 1)],
        "value": density.value,
        "tail": density.tail_bound,
        "stationary": density.stationary,
    }


def _density_float(state, case):
    model = state["models"][case["model"]]
    density = dc.transition_density(model, case["t"], _point(case["g"]), _point(case["gp"]))
    return {
        "q": [c[2] for c in density.contributions],
        "value": density.value,
        "tail": density.tail_bound,
        "stationary": density.stationary,
    }


def _jacobi(state, case):
    params = dc.BetaParams(Fraction(case["a1"]), Fraction(case["a0"]))
    n = case["n"]
    poly = dc.jacobi_modified(n, params)
    phi = dc.solve_phi_system(n, params)
    return {
        "coefficients": [float(poly.coefficient(a)) for a in range(n + 1)],
        "phi": [float(v) for _, v in phi.items()],
        "norm": float(dc.jacobi_inner(n, n, params)),
    }


JOBS = {
    "chaos": _chaos,
    "ecv": _ecv,
    "exp": _exp,
    "approx": _approx,
    "density-exact": _density_exact,
    "density-float": _density_float,
    "jacobi": _jacobi,
}


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def serve(trace: bool) -> None:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = set_up()
    _reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "job":
            try:
                _reply({"ok": True, "out": JOBS[request["kind"]](state, request["case"])})
            except Exception as exc:  # a failed job is reported, the session goes on
                _reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        elif op == "begin":
            if tracer is not None:
                tracer.reset()
            _reply({"ok": True})
        elif op == "summary":
            _reply(tracer.summary() if tracer is not None else {})
        elif op == "exit":
            return


if __name__ == "__main__":
    serve("--trace" in sys.argv[1:])
