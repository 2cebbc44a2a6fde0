"""Build the case catalogues and record what a correct output is.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/reference/<workload>.json``: for every case its inputs,
its class (the slot of the job mix it can fill) and its expected output, as
computed by the dfchaos checkout this runs against:

* exact outputs (every ``p/q`` field, the ``coeffs`` CSV) as a SHA-256 of
  the output's exact part (``checks.exact_digest``);
* transition densities, tail bounds and float kernel values as floats, to
  be met within a relative tolerance, and exact ``kernel_Q`` values as
  ``p/q`` strings;
* exponential-functional means and kernels from mpmath at 60 digits,
  using the exact limit coefficients, plus ``known_miss_error`` (the
  relative error) on the cases the checkout's ``decompose_exponential``
  misses by more than the accuracy contract: these count as inaccurate,
  any other miss as wrong;
* nothing for Monte Carlo losses: those are checked against the case's
  enumerated exact loss.

The catalogues come from a fixed generator seed, so rerunning this on the
same commit reproduces the files.  Rerunning it on a later commit would
record that commit's outputs as correct: do so only to add cases, and
review the diff of the reference files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

import dfchaos as dc
import dfchaos.cli
from dfchaos.numeric import occupation_vectors, sub_occupations

import session
from checks import EXP_RTOL, exact_digest, exp_error, without_mc

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SCRATCH = HERE.parent / ".bench_work" / "record"

MASSES = ("1/2", "1", "3/2", "2", "5/2", "3", "7/3", "5/4")
WEIGHTS = ("1/2", "1", "3/2", "2", "5/2", "3", "1/3", "2/3", "4/3", "3/4")


def _rational(rng: random.Random, top: int = 5, den: int = 4) -> str:
    return str(Fraction(rng.choice([i for i in range(-top, top + 1) if i]), rng.randint(1, den)))


def _polynomial(rng: random.Random, K: int, degree: int, terms: int) -> dict:
    seen: dict[tuple[int, ...], str] = {}
    while len(seen) < terms:
        exps = [0] * K
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(K)] += 1
        seen.setdefault(tuple(exps), _rational(rng))
    return {"nvars": K, "terms": [{"exponents": list(e), "coeff": c} for e, c in seen.items()]}


def _interior_point(rng: random.Random, K: int) -> list[str]:
    parts = [rng.randint(1, 5) for _ in range(K)]
    total = sum(parts)
    return [str(Fraction(p, total)) for p in parts[:-1]]


def _float_point(rng: random.Random, K: int) -> list[float]:
    parts = [rng.uniform(0.2, 1.0) for _ in range(K)]
    total = sum(parts)
    return [p / total for p in parts[:-1]]


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dfchaos.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue()


def _cold_argv(case: dict) -> list[str]:
    if "F" not in case:
        return case["argv"]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"{case['id']}.json"
    path.write_text(json.dumps(case["F"]))
    return [str(path) if a == "{F}" else a for a in case["argv"]]


# ---------------------------------------------------------------------------
# coeffs-cold


def coeffs_cases(rng: random.Random) -> list[dict]:
    cases = []
    for N in (6, 10, 14, 18, 21, 24):
        for i, m in enumerate(MASSES):
            cases.append({"id": f"coeffs-N{N}-{i}", "class": f"coeffs-N{N}",
                          "argv": ["coeffs", "--alpha", m, "--N", str(N)]})
    for order in (4, 7, 10):
        for i, m in enumerate(MASSES):
            cases.append({"id": f"limits-{order}-{i}", "class": f"limits-{order}",
                          "argv": ["coeffs", "--alpha", m, "--limits", "--max-order", str(order)]})
    for i in range(24):
        K = 2 + i % 3
        alpha = ",".join(rng.choice(WEIGHTS) for _ in range(K))
        cases.append({"id": f"decompose-{i}", "class": "decompose",
                      "argv": ["decompose", "--alpha", alpha, "--F", "{F}"],
                      "F": _polynomial(rng, K, rng.randint(2, 4), rng.randint(2, 4))})
    pairs = [(2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5)]
    for i in range(18):
        K, N = pairs[i % len(pairs)]
        alpha = ",".join(rng.choice(WEIGHTS) for _ in range(K))
        cases.append({"id": f"finite-{i}", "class": "finite",
                      "argv": ["decompose", "--alpha", alpha, "--F", "{F}", "--finite", str(N)],
                      "F": _polynomial(rng, K, rng.randint(2, 4), rng.randint(2, 4))})
    for case in cases:
        out = _cli(_cold_argv(case))
        if case["class"] == "decompose":
            payload = json.loads(out)
            gap = payload.pop("parseval_gap")
            if gap != 0.0:
                raise RuntimeError(f"{case['id']}: Parseval gap {gap}")
            case["expect"] = {"sha256": exact_digest(payload)}
        else:
            case["expect"] = {"sha256": hashlib.sha256(out.encode()).hexdigest()}
    return cases


# ---------------------------------------------------------------------------
# wf-cold


def wf_cases(rng: random.Random) -> list[dict]:
    cases = []
    for K, M in ((2, 6), (2, 12), (2, 20), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3)):
        for i in range(6):
            theta = [rng.choice(WEIGHTS) for _ in range(K)]
            g, gp = _interior_point(rng, K), _interior_point(rng, K)
            t = rng.choice(("0.05", "0.1", "0.25", "0.5"))
            cases.append({"id": f"wf-K{K}-M{M}-{i}", "class": f"wf-K{K}-M{M}",
                          "argv": ["wf", "--theta", ",".join(theta), "--t", t,
                                   "--truncation", str(M), "--gamma", ",".join(g),
                                   "--gamma-prime", ",".join(gp)],
                          "theta": theta, "M": M, "g": g, "gp": gp})
    for M, grid in ((8, 6), (12, 9)):
        for i in range(4):
            theta = [rng.choice(WEIGHTS) for _ in range(2)]
            t = rng.choice(("0.05", "0.1", "0.25", "0.5"))
            cases.append({"id": f"table-M{M}-G{grid}-{i}", "class": f"table-M{M}-G{grid}",
                          "argv": ["wf", "--theta", ",".join(theta), "--t", t, "--truncation",
                                   str(M), "--table", "--grid", str(grid)]})
    for case in cases:
        out = _cli(case["argv"])
        if case["class"].startswith("table"):
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            case["expect"] = {"rows": [[g, gp, float(d), float(t)] for g, gp, d, t in rows]}
            continue
        payload = json.loads(out)
        model = dc.TransitionModel(dc.DiscreteBaseMeasure(tuple(Fraction(w) for w in case.pop("theta"))),
                                   case.pop("M"))
        g = tuple(Fraction(x) for x in case.pop("g"))
        gp = tuple(Fraction(x) for x in case.pop("gp"))
        case["expect"] = {
            "value": payload["value"],
            "tail_bound": payload["tail_bound"],
            "stationary": payload["stationary"],
            "q": [str(dc.kernel_Q(model, n, g, gp)) for n in range(1, model.M + 1)],
        }
    return cases


# ---------------------------------------------------------------------------
# session-warm


def _mp(value) -> mpmath.mpf:
    value = Fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


def exponential_reference(alpha, subset, lam: str, order: int) -> dict:
    """Mean and kernels of exp(lam D(C)) at 60 digits with exact limit coefficients."""
    with mpmath.workdps(60):
        total = alpha.total_mass
        a_C = sum(alpha.weight(x) for x in subset)
        theta = dc.limit_coefficients(total, order)
        lam_mp = _mp(lam)
        values: dict[tuple[Fraction, Fraction], mpmath.mpf] = {}

        def hyp(a, b):
            if (a, b) not in values:
                values[(a, b)] = mpmath.hyp1f1(_mp(a), _mp(b), lam_mp)
            return values[(a, b)]

        mean = hyp(a_C, total)
        in_C = [1 if atom in subset else 0 for atom in range(1, alpha.atoms + 1)]
        kernels = []
        for n in range(1, order + 1):
            row = []
            for a in occupation_vectors(n, alpha.atoms):
                acc = mpmath.mpf(0)
                for k in range(1, n + 1):
                    inner = mpmath.mpf(0)
                    for mu, ways in sub_occupations(a, k):
                        hits = sum(c * f for c, f in zip(mu, in_C))
                        inner += ways * (hyp(a_C + hits, total + k) - mean)
                    acc += _mp(theta[(n, k)]) * inner
                row.append(mpmath.nstr(acc, 30))
            kernels.append(row)
        return {"mean": mpmath.nstr(mean, 30), "kernels": kernels}


def _kernel_json(rng: random.Random, order: int, K: int) -> dict:
    values = [{"counts": list(c), "value": str(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))}
              for c in occupation_vectors(order, K)]
    return {"order": order, "K": K, "values": values}


def warm_cases(rng: random.Random) -> list[dict]:
    priors = list(session.PRIORS)
    atoms = {name: len(w) for name, w in session.PRIORS.items()}
    cases = []

    def add(cls, kind, i, **case):
        cases.append({"id": f"{cls}-{i}", "class": cls, "kind": kind, **case})

    for i in range(36):
        p = priors[i % 3]
        add("chaos", "chaos", i, prior=p, F=_polynomial(rng, atoms[p], rng.randint(2, 4), rng.randint(2, 4)))
    for i in range(24):
        p = priors[i % 3]
        obs = [rng.randint(1, atoms[p]) for _ in range(rng.randint(0, 6))]
        add("ecv", "ecv", i, prior=p, h=_kernel_json(rng, 2 + i % 2, atoms[p]), obs=obs)

    def subset(p):
        K = atoms[p]
        return sorted(rng.sample(range(1, K + 1), rng.randint(1, K - 1)))

    for i in range(12):
        p = priors[i % 3]
        add("exp-A", "exp", i, prior=p, subset=subset(p), order=4,
            lam=rng.choice(("2", "5/2", "3", "-2", "-3", "-4", "-5")))
    for i in range(12):
        add("exp-B", "exp", i, prior="P3", subset=subset("P3"), order=8,
            lam=rng.choice(("1", "3/2", "2", "-1", "-2")))
    for i in range(6):
        add("exp-C", "exp", i, prior="P2", subset=[1 + i % 2], order=12,
            lam=("1/2", "1", "2", "-1", "-2", "3/2")[i])
    for i in range(12):
        add("exp-D", "exp", i, prior="P3", subset=subset("P3"), order=6,
            lam=rng.choice(("-20", "-30", "-40")))
    for i in range(9):
        p = priors[i % 2]
        add("approx", "approx", i, prior=p, window=2 + i % 3, mc=True, rng_seed=rng.randrange(2**31),
            F=_polynomial(rng, atoms[p], rng.randint(2, 3), rng.randint(2, 3)))
    t_choices = (0.05, 0.1, 0.25, 0.5)
    for i in range(24):
        model = list(session.MODELS)[i % 3]
        K = len(session.MODELS[model][0])
        add("density-exact", "density-exact", i, model=model, t=rng.choice(t_choices),
            g=_interior_point(rng, K), gp=_interior_point(rng, K))
        add("density-float", "density-float", i, model=model, t=rng.choice(t_choices),
            g=_float_point(rng, K), gp=_float_point(rng, K))
    for i in range(16):
        add("jacobi", "jacobi", i, n=2 + i % 7, a1=rng.choice(WEIGHTS), a0=rng.choice(WEIGHTS))

    state = session.set_up()
    for case in cases:
        kind = case["kind"]
        if kind == "exp":
            alpha = state["priors"][case["prior"]]
            case["expect"] = exponential_reference(alpha, case["subset"], case["lam"], case["order"])
            error = exp_error(session.JOBS[kind](state, case), case["expect"])
            if error > EXP_RTOL:
                case["expect"]["known_miss_error"] = error
            continue
        out = session.JOBS[kind](state, {**case, "mc": False})
        if kind in ("chaos", "ecv"):
            case["expect"] = {"sha256": exact_digest(out)}
        elif kind == "approx":
            case["expect"] = {"sha256": exact_digest(without_mc(out))}
        else:
            case["expect"] = out
    return cases


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    builders = {"coeffs-cold": coeffs_cases, "wf-cold": wf_cases, "session-warm": warm_cases}
    names = sys.argv[1:] or list(builders)
    for name in names:
        cases = builders[name](random.Random(f"dfchaos-perfbench:{name}"))
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "cases": cases}, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(HERE.parent)}: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
