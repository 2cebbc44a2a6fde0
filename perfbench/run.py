#!/usr/bin/env python3
"""The dfchaos benchmark: a closed loop, one client, one job at a time.

    python3 perfbench/run.py --workload coeffs-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the package is imported from ``src/``.

Workloads (``DESIGN.md`` has the full design):

* ``coeffs-cold`` and ``wf-cold``: every job is a fresh ``launch.py``
  process running one ``dfchaos`` CLI command, timed from spawn to exit.
* ``session-warm``: one ``session.py`` process keeps its caches; every job
  is one library call sequence sent over a pipe.

Each workload repeats a fixed cycle of job classes (``CYCLES``).  The seed
shuffles each cycle and orders each class's recorded catalogue of cases in
``reference/``; the jobs of a class walk that order.  Whole cycles run until ``--seconds`` have
passed, so every run has the same job mix.  Outputs are checked after the
timed region (``checks.py``).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` the jobs run with the tracer's
wrappers installed and it holds the per-layer metrics.  The set-up (input
files, plus a probe process that imports the package, or the session's
set-up) runs ``SETUP_REPEATS`` times and ``setup_s`` is the median.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check
from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A job running longer than this is killed and counted as failed.
JOB_LIMIT_S = 30.0
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Job classes of one cycle; every class of a cycle costs about the same on
# every seed, so throughput depends on the code, not on the draw.  The
# classes form tiers of similar cost, sized so that the median and the tail
# percentile fall inside a tier rather than in a gap between two, whether a
# run holds three cycles or five.
CYCLES = {
    "coeffs-cold": [
        "coeffs-N6", "coeffs-N10", "coeffs-N14", "coeffs-N18", "coeffs-N21", "coeffs-N24",
        "limits-4", "limits-7", "limits-10",
        "decompose", "decompose", "finite", "finite",
    ],
    "wf-cold": [
        "wf-K2-M6", "wf-K2-M12", "table-M8-G6", "wf-K3-M3",
        "wf-K2-M20", "wf-K3-M4", "wf-K4-M2", "table-M12-G9",
        "wf-K3-M5", "wf-K3-M5", "wf-K3-M5",
        "wf-K3-M6", "wf-K4-M3",
    ],
    # One approximation report (Monte Carlo) takes about as long as the
    # rest of the cycle together.
    "session-warm": (
        ["approx"] + ["exp-A"] * 6 + ["exp-B"] * 6 + ["exp-C"] * 3 + ["exp-D"] * 6
        + ["chaos"] * 120 + ["ecv"] * 60 + ["density-exact"] * 60 + ["density-float"] * 60
        + ["jacobi"] * 30
    ),
}
# The tail percentile of job time: the highest with at least ten jobs
# beyond it at the sample counts a 30 s run gives at the first commit.
TAIL_PERCENTILE = {"coeffs-cold": 80, "wf-cold": 75, "session-warm": 99}

# Per-layer metrics of the traced run: span and counter names of tracer.py.
SPAN_CALLS = [
    "coeffs.theta_table", "coeffs.psi", "coeffs.limit_coefficient", "numeric.solve_exact",
    "numeric.hyp1f1", "measures.dirichlet_moment", "polya.cond_exp_statistic",
    "polya.occupation_prob", "chaos.chaos_kernels", "chaos.poly_posterior_mean",
    "hoeffding.hoeffding_decompose", "kernels.SimplexPolynomial.mul",
    "kernels.SimplexPolynomial.evaluate", "wright_fisher.TransitionModel",
    "wright_fisher.simplex_expectation", "wright_fisher.transition_density",
    "bayes.decompose_exponential", "bayes.estimate_conditional_variance", "ustat.mc_loss",
]
SPAN_SELF = [
    "cli.main", "coeffs.theta_table", "coeffs.limit_coefficient", "numeric.solve_exact",
    "numeric.hyp1f1", "measures.dirichlet_moment", "polya.cond_exp_statistic",
    "chaos.chaos_kernels", "chaos.poly_posterior_mean", "chaos.statistic_product_mean",
    "hoeffding.hoeffding_decompose", "kernels.SimplexPolynomial.mul",
    "kernels.SimplexPolynomial.evaluate", "wright_fisher.TransitionModel",
    "wright_fisher.simplex_expectation", "wright_fisher.transition_density",
    "bayes.decompose_exponential", "bayes.estimate_conditional_variance", "ustat.mc_loss",
    "ustat.direct_loss", "ustat.best_symmetric_approx_oracle", "jacobi.solve_phi_system",
    "jacobi.jacobi_inner",
]
HIT_RATIOS = {
    "coeffs.limit_row_hit_ratio": "coeffs.limit_row",
    "numeric.rising_hit_ratio": "numeric.rising",
    "measures.moment_hit_ratio": "measures.moment",
    "wright_fisher.basis_hit_ratio": "wright_fisher.basis",
}


class HarnessError(Exception):
    """The benchmark itself cannot run here (as opposed to a failed job)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _catalogue(workload: str) -> dict[str, list[dict]]:
    path = HERE / "reference" / f"{workload}.json"
    by_class: dict[str, list[dict]] = {}
    for case in json.loads(path.read_text())["cases"]:
        case["inputs"] = {k: v for k, v in case.items() if k != "expect"}
        by_class.setdefault(case["class"], []).append(case)
    return by_class


def _cycles(workload: str, seed: int, by_class):
    """Yield the cycles of a run: the seed shuffles each cycle's slots and
    walks each class's catalogue in a seeded order, so a run uses a class's
    cases as evenly as its length allows."""
    rng = random.Random(f"{workload}:{seed}")
    orders = {cls: rng.sample(cases, len(cases)) for cls, cases in sorted(by_class.items())}
    used = dict.fromkeys(orders, 0)
    while True:
        slots = list(CYCLES[workload])
        rng.shuffle(slots)
        cycle = []
        for cls in slots:
            cycle.append(orders[cls][used[cls] % len(orders[cls])])
            used[cls] += 1
        yield cycle


@dataclass
class Job:
    case: dict
    seconds: float
    output: object = None  # CLI stdout text, or the session's reply
    error: str = ""  # why the job failed to produce an output
    out_bytes: int = 0


# ---------------------------------------------------------------------------
# cold workloads: one CLI process per job


class ColdRunner:
    def __init__(self, work: Path, trace: bool, by_class) -> None:
        self.work, self.trace, self.env = work, trace, _child_env()
        self.functionals = [c for cases in by_class.values() for c in cases if "F" in c]
        self.trace_files: list[Path] = []

    def set_up(self) -> str:
        for case in self.functionals:
            (self.work / f"{case['id']}.json").write_text(json.dumps(case["F"]))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy, dfchaos.cli; print(sys.version.split()[0], numpy.__version__)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=JOB_LIMIT_S,
        )
        if probe.returncode != 0:
            raise HarnessError(f"dfchaos does not import from {SRC}: {probe.stderr.strip()}")
        return probe.stdout.strip()

    def run(self, case: dict) -> Job:
        argv = [str(self.work / f"{case['id']}.json") if a == "{F}" else a for a in case["argv"]]
        env = self.env
        if self.trace:
            path = self.work / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(path)
            env = dict(env, PERFBENCH_TRACE_OUT=str(path))
        start = time.perf_counter()
        if self.trace:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            out, err = proc.communicate(timeout=JOB_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Job(case, time.perf_counter() - start, error=f"killed after {JOB_LIMIT_S} s")
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip()[-300:]
            return Job(case, seconds, error=f"exit {proc.returncode}: {tail}")
        return Job(case, seconds, output=out.decode(), out_bytes=len(out))

    def traces(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in self.trace_files if p.exists()]


# ---------------------------------------------------------------------------
# warm workload: one long-lived library session


class WarmRunner:
    def __init__(self, trace: bool) -> None:
        self.trace, self.env = trace, _child_env()
        self.proc: subprocess.Popen | None = None

    def _read(self, timeout: float):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def _send(self, request: dict) -> None:
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()

    def set_up(self) -> str:
        argv = [sys.executable, str(HERE / "session.py")] + (["--trace"] if self.trace else [])
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT
        )
        if self._read(4 * JOB_LIMIT_S) is None:
            self.close(kill=True)
            raise HarnessError("the session did not finish its set-up")
        return ""

    def begin(self) -> None:
        self._send({"op": "begin"})
        self._read(JOB_LIMIT_S)

    def run(self, case: dict) -> Job:
        start = time.perf_counter()
        try:
            self._send({"op": "job", "kind": case["kind"], "case": case["inputs"]})
            reply = self._read(JOB_LIMIT_S)
        except (BrokenPipeError, ValueError):
            reply = None
        seconds = time.perf_counter() - start
        if reply is None:
            # Hung or died: the job fails and a fresh session takes over,
            # inside the timed region, as it would for a user.
            self.close(kill=True)
            self.set_up()
            return Job(case, seconds, error="session hung or died; restarted")
        if not reply.get("ok"):
            return Job(case, seconds, error=reply.get("error", "job failed"))
        return Job(case, seconds, output=reply["out"])

    def traces(self) -> list[dict]:
        self._send({"op": "summary"})
        return [self._read(JOB_LIMIT_S)]

    def close(self, kill: bool = False) -> None:
        if self.proc is None:
            return
        try:
            if not kill:
                self._send({"op": "exit"})
                self.proc.wait(timeout=10)
        except (BrokenPipeError, ValueError, subprocess.TimeoutExpired):
            kill = True
        if kill:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None


# ---------------------------------------------------------------------------
# metrics


def _merge(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    calls: dict[str, int] = {}
    edges: dict[str, list] = {}
    counters: dict[str, float] = {}
    caches: dict[str, list] = {}
    imports = []
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, count in t["calls"].items():
            calls[name] = calls.get(name, 0) + count
        for name, rec in t["edges"].items():
            acc = edges.setdefault(name, [0, 0.0])
            acc[0] += rec[0]
            acc[1] += rec[1]
        for name, value in t["counters"].items():
            combine = max if name in ("coeffs.max_bits", "wright_fisher.basis_size") else (lambda a, b: a + b)
            counters[name] = combine(counters.get(name, 0), value)
        for name, (hits, misses) in t["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        if "import_s" in t:
            imports.append(t["import_s"])
    return {
        "spans": spans, "calls": calls, "edges": edges, "counters": counters, "caches": caches,
        "imports": imports,
    }


def per_layer_metrics(jobs: list[Job], traces: list[dict], warm: bool) -> tuple[dict, dict]:
    merged = _merge(traces)
    n = len(jobs)
    busy = sum(j.seconds for j in jobs)
    spans, counters, caches = merged["spans"], merged["counters"], merged["caches"]
    m: dict[str, tuple[float, str]] = {}
    m["cli.import_s"] = (statistics.fmean(merged["imports"]) if merged["imports"] else 0.0, "s/job")
    m["cli.output_bytes"] = (0.0 if warm else statistics.fmean(j.out_bytes for j in jobs), "B/job")
    for name in SPAN_CALLS:
        count = spans[name][0] if name in spans else merged["calls"].get(name, 0)
        m[f"{name}.calls"] = (count / n, "1/job")
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = (spans.get(name, [0, 0.0, 0.0])[2] / n, "s/job")
    for metric, stem in HIT_RATIOS.items():
        hits, misses = caches.get(stem, (0, 0))
        m[metric] = (hits / (hits + misses) if hits + misses else 0.0, "1")
    m["coeffs.max_bits"] = (float(counters.get("coeffs.max_bits", 0)), "bits")
    m["wright_fisher.basis_size"] = (float(counters.get("wright_fisher.basis_size", 0)), "count")
    m["ustat.mc_draws"] = (counters.get("ustat.mc_draws", 0) / n, "1/job")
    for module in MODULES:
        own = sum(rec[2] for name, rec in spans.items() if name.startswith(module + "."))
        m[f"{module}.self_share"] = (own / busy, "1")
    m["trace.spans_per_job"] = (sum(rec[0] for rec in spans.values()) / n, "1/job")
    m["trace.job_s_p50"] = (statistics.median(j.seconds for j in jobs), "s")
    return m, merged


def end_to_end_metrics(jobs, passed, wall, setups, workload) -> dict:
    times = [j.seconds for j in jobs]
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1]
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "jobs_per_s": (passed / wall, "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "pass_ratio": (passed / len(jobs), "1"),
    }


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, then run whole cycles for at least ``seconds``.

    Returns (jobs, trace summaries, timed wall seconds, set-up seconds, cycles)."""
    if not (SRC / "dfchaos" / "__init__.py").is_file():
        raise HarnessError(f"no dfchaos package under {SRC}")
    by_class = _catalogue(workload)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    warm = workload == "session-warm"
    runner = WarmRunner(trace) if warm else ColdRunner(work, trace, by_class)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if warm:
                runner.close()
            start = time.perf_counter()
            info = runner.set_up()
            setups.append(time.perf_counter() - start)
        if info:
            print(f"python/numpy: {info}; nproc {os.cpu_count()}; threads pinned to 1")
        if warm:
            runner.begin()

        jobs: list[Job] = []
        cycles = 0
        start = time.perf_counter()
        # Jobs that hang end the run mid-cycle, so it still ends in time.
        deadline = start + seconds + 2 * JOB_LIMIT_S
        for cycle in _cycles(workload, seed, by_class):
            for case in cycle:
                if time.perf_counter() > deadline:
                    break
                jobs.append(runner.run(case))
            cycles += 1
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        traces = runner.traces() if trace else []
    finally:
        if warm:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
    return jobs, traces, wall, setups, cycles


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs, traces, wall, setups, cycles = measure(workload, seed, seconds, trace)
    tally: dict[str, dict[str, int]] = {}
    for job in jobs:
        status, reason = ("wrong", job.error) if job.error else check(job.case, job.output)
        counts = tally.setdefault(job.case["class"], {"ok": 0, "inaccurate": 0, "wrong": 0})
        counts[status] += 1
        if status == "wrong":
            print(f"FAILED {job.case['id']}: {reason}", file=sys.stderr)
    passed = sum(c["ok"] for c in tally.values())
    failed = sum(c["wrong"] for c in tally.values())

    print(f"{workload}: seed {seed}, {cycles} cycles, {len(jobs)} jobs in {wall:.2f} s")
    for cls, counts in sorted(tally.items()):
        times = [j.seconds for j in jobs if j.case["class"] == cls]
        print(f"  {cls:<16} {sum(counts.values()):4d} jobs  ok {counts['ok']:4d}  "
              f"inaccurate {counts['inaccurate']:4d}  failed {counts['wrong']:4d}  "
              f"median {statistics.median(times):.4f} s")
    if trace:
        metrics, merged = per_layer_metrics(jobs, traces, workload == "session-warm")
        out = WORK / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps(merged, indent=1, sort_keys=True))
        print(f"  trace written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(jobs, passed, wall, setups, workload)
        print(f"  tail = p{TAIL_PERCENTILE[workload]} of {len(jobs)} job times")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*CYCLES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        # Each workload in its own process, so peak memory is per workload.
        results = {}
        for workload in CYCLES:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[workload] = json.loads(lines[-1])
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
        return 0

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
