"""Call tracing for the benchmark, installed from outside the package.

``Tracer.install()`` wraps the public functions of every dfchaos module, plus
``SimplexPolynomial.mul`` / ``.evaluate`` and ``TransitionModel``
construction, and rebinds each wrapper under every name that any dfchaos
module holds for the original function (``chaos.limit_coefficient`` and
``coeffs.limit_coefficient`` are separate bindings).

A timed wrapper opens a span (name, start, parent) and closes it with its end
time.  Spans are reduced as they close: per name the call count, total time
and self time (duration minus the time covered by its child spans), and per
parent -> child edge the call count and time.  Raw spans are not kept: the
hottest functions close hundreds of thousands of spans per run.  The very
hottest helpers get a counter-only wrapper (``COUNT_ONLY``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = (
    "cli",
    "coeffs",
    "numeric",
    "measures",
    "polya",
    "chaos",
    "hoeffding",
    "kernels",
    "wright_fisher",
    "bayes",
    "ustat",
    "jacobi",
)

# Helpers called so often (up to ~10^6 times per job) that a span would cost
# more than the call; only their calls are counted.
COUNT_ONLY = frozenset(
    {
        "numeric.as_scalar",
        "numeric.binom",
        "numeric.binom_star",
        "numeric.falling_ratio",
        "numeric.multiplicity",
        "numeric.rising_factorial",
        "numeric.scalar_to_json",
        "numeric.scalar_from_json",
        "numeric.tuple_counts",
        "coeffs.phi",
        "coeffs.psi",
        "measures.with_counts",
        "polya.occupation_prob",
        "polya.polya_joint_prob",
        "wright_fisher.monomial_expectation",
        "wright_fisher.rho",
    }
)

# lru caches whose hit ratio is reported: metric stem -> (module, attribute).
CACHES = {
    "coeffs.limit_row": ("coeffs", "_limit_row"),
    "numeric.rising": ("numeric", "_rising_cached"),
    "measures.moment": ("measures", "_dirichlet_moment_cached"),
    "wright_fisher.basis": ("wright_fisher", "_orthogonal_basis"),
}


def _fraction_bits(value) -> int:
    num = getattr(value, "numerator", None)
    if num is None or isinstance(value, float):
        return 0
    return max(abs(num).bit_length(), value.denominator.bit_length())


class Tracer:
    """Span and counter store for one process; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: list[list] = []  # per name: [calls, total_s, self_s]
        self.calls: dict[str, list] = {}  # counter-only wrappers: name -> [calls]
        self.edges: dict[tuple[int, int], list] = {}  # (parent, child): [calls, total_s]
        self.stack: list[list] = []  # open spans: [name index, child time]
        self.counters = {"coeffs.max_bits": 0, "wright_fisher.basis_size": 0, "ustat.mc_draws": 0}
        self.caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    def _slot(self, name: str) -> int:
        self.names.append(name)
        self.stats.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def timed(self, name: str, fn, after=None):
        idx = self._slot(name)
        rec = self.stats[idx]
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                edge = edges.get((parent, idx))
                if edge is None:
                    edges[(parent, idx)] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        rec = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks -------------------------------------------------------

    def _theta_bits(self, table, args, kwargs) -> None:
        bits = max((_fraction_bits(v) for v in table.entries.values()), default=0)
        bits = max([bits] + [_fraction_bits(v) for v in table.starred.values()])
        self.counters["coeffs.max_bits"] = max(self.counters["coeffs.max_bits"], bits)

    def _value_bits(self, value, args, kwargs) -> None:
        self.counters["coeffs.max_bits"] = max(self.counters["coeffs.max_bits"], _fraction_bits(value))

    def _basis_size(self, _none, args, kwargs) -> None:
        size = sum(len(band) for band in args[0]._bands.values())
        self.counters["wright_fisher.basis_size"] = max(self.counters["wright_fisher.basis_size"], size)

    def _mc_draws(self, estimate, args, kwargs) -> None:
        self.counters["ustat.mc_draws"] += estimate.draws

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; call after ``import dfchaos`` and before any work."""
        import dfchaos  # noqa: F401  (imports every module)

        hooks = {
            "coeffs.theta_table": self._theta_bits,
            "coeffs.limit_coefficient": self._value_bits,
            "ustat.mc_loss": self._mc_draws,
        }
        replacements: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"dfchaos.{short}")
            public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in public:
                fn = getattr(module, attr, None)
                if (
                    not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    replacements[id(fn)] = (fn, self.counted(name, fn))
                else:
                    replacements[id(fn)] = (fn, self.timed(name, fn, hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dfchaos" and not mod_name.startswith("dfchaos."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        from dfchaos.kernels import SimplexPolynomial
        from dfchaos.wright_fisher import TransitionModel

        SimplexPolynomial.mul = self.timed("kernels.SimplexPolynomial.mul", SimplexPolynomial.mul)
        SimplexPolynomial.evaluate = self.timed(
            "kernels.SimplexPolynomial.evaluate", SimplexPolynomial.evaluate
        )
        TransitionModel.__post_init__ = self.timed(
            "wright_fisher.TransitionModel", TransitionModel.__post_init__, self._basis_size
        )

        for stem, (short, attr) in CACHES.items():
            cached = getattr(sys.modules[f"dfchaos.{short}"], attr, None)
            if cached is not None and hasattr(cached, "cache_info"):
                self.caches[stem] = cached

    def reset(self) -> None:
        """Forget everything recorded so far; cache statistics restart here."""
        for rec in self.stats:
            rec[:] = [0, 0.0, 0.0]
        for rec in self.calls.values():
            rec[0] = 0
        self.edges.clear()
        for key in self.counters:
            self.counters[key] = 0
        self._cache_base = {stem: self._cache_counts(c) for stem, c in self.caches.items()}

    @staticmethod
    def _cache_counts(cached) -> tuple[int, int]:
        info = cached.cache_info()
        return info.hits, info.misses

    def summary(self) -> dict:
        """JSON-ready totals since the last ``reset`` (or since install)."""
        caches = {}
        for stem, cached in self.caches.items():
            hits, misses = self._cache_counts(cached)
            base_hits, base_misses = self._cache_base.get(stem, (0, 0))
            caches[stem] = [hits - base_hits, misses - base_misses]
        return {
            "spans": {name: rec for name, rec in zip(self.names, self.stats) if rec[0]},
            "calls": {name: rec[0] for name, rec in self.calls.items() if rec[0]},
            "edges": {
                f"{self.names[p] if p >= 0 else '<job>'} > {self.names[c]}": rec
                for (p, c), rec in self.edges.items()
            },
            "counters": dict(self.counters),
            "caches": caches,
        }
