"""U-statistics over exchangeable windows and best finite-sample approximation.

A U-statistic averages a symmetric order-n kernel over all n-subsets of an
observation window.  On a finite support every such average depends only on
the window's occupation counts, so evaluation, moments, and losses reduce
to exact sums over occupation vectors ("occupation algebra").

The second half of the module compares two ways of approximating a
functional F of the random measure by symmetric statistics of the first N
draws:

* the exact projection E[F | X_1..X_N] — the unique loss minimizer over all
  symmetric statistics of the window, computed by enumeration and split
  into its per-order components; and
* the scaled-kernel candidate that reuses the decomposition kernels of F,
  dividing the order-i kernel by C(N, i) and summing over i-subsets.

For the candidate, a closed-form error expression exists with an ambiguous
overlap constant (two readings of a product's upper bound); both readings
are evaluated and reported next to the directly enumerated loss of each
kernel set.  The report never declares a winner beyond what the exact
numbers show: the oracle's loss is asserted to be minimal (a projection
property), and any disagreement between closed forms and enumeration is
recorded verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .chaos import (
    ChaosDecomposition,
    MCEstimate,
    chaos_kernels,
    functional_mean,
    poly_posterior_mean,
    statistic_product_mean,
    variance_functional,
)
from .coeffs import c_iso, c_overlap
from .errors import DomainError, NumericError, ResourceCapError
from .hoeffding import HoeffdingDecomposition, hoeffding_decompose
from .kernels import SimplexPolynomial, SymmetricKernel, subset_sum_kernels
from .measures import DiscreteBaseMeasure, sample_dirichlet
from .numeric import (
    Scalar,
    binom,
    binom_star,
    occupation_vectors,
    scalar_to_json,
    sub_occupations,
    tuple_counts,
)
from .polya import DEFAULT_ENUMERATION_CAP, PolyaSample, occupation_prob

__all__ = [
    "UStatistic",
    "eval_ustat",
    "eval_ustat_counts",
    "statistic_from_kernels",
    "direct_loss",
    "mc_loss",
    "ustat_mse_curve",
    "OracleApproximation",
    "best_symmetric_approx_oracle",
    "ScaledKernelCandidate",
    "scaled_kernel_candidate",
    "candidate_error_formula",
    "ApproximationReport",
    "approximation_report",
]


@dataclass(frozen=True)
class UStatistic:
    """A symmetric kernel averaged over all n-subsets of a window of N draws."""

    kernel: SymmetricKernel
    window: int

    def __post_init__(self) -> None:
        if self.window < self.kernel.order:
            raise DomainError(
                f"window {self.window} shorter than kernel order {self.kernel.order}"
            )


def eval_ustat_counts(
    kernel: SymmetricKernel, window: int, counts: Sequence[int]
) -> Scalar:
    """U-statistic value from the window's occupation counts.

    C(N, n)^{-1} sum over sub-occupations mu of size n of ways(mu) h(mu),
    where ways counts the n-subsets realizing mu inside the window.
    """
    counts = tuple(int(c) for c in counts)
    if sum(counts) != window:
        raise DomainError(f"counts {counts} do not fill a window of {window}")
    if len(counts) != kernel.atoms:
        raise DomainError(
            f"counts over {len(counts)} atoms, kernel over {kernel.atoms}"
        )
    n = kernel.order
    total: Scalar = 0
    for mu, ways in sub_occupations(counts, n):
        value = kernel.value(mu)
        if value != 0:
            total = total + ways * value
    return total / binom(window, n)


def eval_ustat(u: UStatistic, sample: PolyaSample | Sequence[int]) -> Scalar:
    """Evaluate over the first ``window`` labels of a sample."""
    labels = sample.labels if isinstance(sample, PolyaSample) else tuple(sample)
    if len(labels) < u.window:
        raise DomainError(
            f"sample of length {len(labels)} shorter than window {u.window}"
        )
    counts = tuple_counts(labels[: u.window], u.kernel.atoms)
    return eval_ustat_counts(u.kernel, u.window, counts)


def statistic_from_kernels(
    kernels: Mapping[int, SymmetricKernel], window: int, atoms: int
) -> SymmetricKernel:
    """The raw subset sum  sum_i sum_{i-subsets} g_i  as an order-N statistic.

    This is the unnormalized form in which kernel families approximate a
    functional: each order contributes its full subset sum, not its average.
    """
    values: dict[tuple[int, ...], Scalar] = {}
    for order, g in kernels.items():
        if g.order != order:
            raise DomainError(f"kernel at slot {order} has order {g.order}")
        if g.atoms != atoms:
            raise DomainError("kernel atom counts disagree")
        values.update(g.values)
    return subset_sum_kernels(values, {window: dict.fromkeys(kernels, 1)}, atoms)[window]


def direct_loss(
    kernels: Mapping[int, SymmetricKernel],
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Scalar:
    """Exact loss E[(F - E F - S)^2] of the subset-sum statistic S of a window.

    Expanded as  Var F - 2 sum_mu P(mu) S(mu) (E[F | mu] - E F)
    + sum_mu P(mu) S(mu)^2  over window occupation vectors mu, all terms
    exact under the urn law.
    """
    if alpha.atoms ** window > cap and binom(window + alpha.atoms - 1, alpha.atoms - 1) > cap:
        raise ResourceCapError(f"window enumeration exceeds cap {cap}")
    statistic = statistic_from_kernels(kernels, window, alpha.atoms)
    mean = functional_mean(F, alpha)
    var_f = variance_functional(F, alpha)
    cross: Scalar = 0
    square: Scalar = 0
    for counts in occupation_vectors(window, alpha.atoms):
        prob = occupation_prob(alpha, counts)
        s_val = statistic.value(counts)
        if s_val == 0:
            continue
        cond = poly_posterior_mean(F, alpha, counts)
        cross = cross + prob * s_val * (cond - mean)
        square = square + prob * s_val * s_val
    return var_f - 2 * cross + square


# Replications per Monte Carlo block: large enough that numpy's per-call
# overhead vanishes, small enough that a block's (MC_BLOCK, K) draws stay a
# few hundred KiB whatever ``reps`` is.
MC_BLOCK = 4096


def mc_loss(
    kernels: Mapping[int, SymmetricKernel],
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
    reps: int,
    rng: np.random.Generator,
) -> MCEstimate:
    """Monte Carlo confirmation of ``direct_loss``.

    Each replication draws the random measure d ~ Dirichlet(alpha), then a
    conditionally i.i.d. window from it, and scores (F(d) - E F - S)^2 with
    S the subset-sum statistic of the window; the estimate is the mean of
    the ``reps`` scores with its standard error (sample deviation with
    ddof=1 over sqrt(reps)), so ``reps`` must be at least 2.

    Replications run in blocks of ``MC_BLOCK``.  Each block makes one
    ``rng.dirichlet(weights, size=n)`` call and one
    ``rng.multinomial(window, d)`` call for its n rows, so the stream
    depends on the seed, ``reps`` and the block size.  F is evaluated in
    floats at all n points at once, and S is looked up in the exact
    statistic of ``statistic_from_kernels``, converted to floats once, by
    the rank of each row's occupation counts among the window's occupation
    vectors: memory stays O(MC_BLOCK * K) beside that statistic, never a
    table over (window + 1)^K count vectors.
    """
    if reps < 2:
        raise DomainError(f"mc_loss needs at least 2 replications, got {reps}")
    statistic = statistic_from_kernels(kernels, window, alpha.atoms)
    s_table = np.array([float(value) for _, value in statistic.items()])
    mean = float(functional_mean(F, alpha))
    weights = alpha.as_floats()
    draws = np.empty(reps)
    for start in range(0, reps, MC_BLOCK):
        n = min(MC_BLOCK, reps - start)
        d = rng.dirichlet(weights, size=n)
        counts = rng.multinomial(window, d)
        s_vals = s_table[_occupation_rank(counts, window)]
        draws[start : start + n] = (_evaluate_floats(F, d) - mean - s_vals) ** 2
    value = float(np.mean(draws))
    stderr = float(np.std(draws, ddof=1) / math.sqrt(reps))
    return MCEstimate(value=value, stderr=stderr, draws=reps)


def _occupation_rank(counts: np.ndarray, window: int) -> np.ndarray:
    """Position of each row of a (reps, K) count matrix in
    ``occupation_vectors(window, K)``.

    That order puts larger first coordinates first, recursively, so the
    vectors ahead of c are, for each j < K - 1, those agreeing with c before
    j and larger at j: C(t_j + K - 2 - j, K - 1 - j) of them, where
    t_j = c_{j+1} + ... + c_{K-1}.
    """
    atoms = counts.shape[1]
    ahead = np.zeros((atoms - 1, window + 1), dtype=np.int64)
    for j in range(atoms - 1):
        for t in range(window + 1):
            ahead[j, t] = math.comb(t + atoms - 2 - j, atoms - 1 - j)
    tails = window - np.cumsum(counts, axis=1)[:, :-1]
    return ahead[np.arange(atoms - 1), tails].sum(axis=1)


def _evaluate_floats(poly: SimplexPolynomial, points: np.ndarray) -> np.ndarray:
    """Float values of a polynomial at each row of a (reps, K) point matrix."""
    total = np.zeros(points.shape[0])
    for exps, coeff in poly.terms.items():
        term = np.full(points.shape[0], float(coeff))
        for j, e in enumerate(exps):
            if e:
                term *= points[:, j] ** e
        total += term
    return total


def _ways_column(counts: np.ndarray, m: int) -> np.ndarray:
    """Vectorized C(counts, m) for a column of integer counts (as floats)."""
    out = np.ones_like(counts, dtype=np.float64)
    for t in range(m):
        out *= counts - t
    return out / math.factorial(m)


def _ustat_vectorized(
    kernel: SymmetricKernel, window: int, counts: np.ndarray
) -> np.ndarray:
    """U-statistic values for a (reps, K) matrix of window occupation counts."""
    n = kernel.order
    total = np.zeros(counts.shape[0])
    for mu, value in kernel.items():
        if value == 0:
            continue
        ways = np.ones(counts.shape[0])
        for j, m in enumerate(mu):
            if m:
                ways *= _ways_column(counts[:, j], m)
        total += float(value) * ways
    return total / binom(window, n)


def ustat_mse_curve(
    kernel: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    windows: Sequence[int],
    reps: int,
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """Mean-square distance between windowed U-statistics and their limit.

    Coupled design: each replication draws one measure d, then conditionally
    i.i.d. labels shared across windows (larger windows extend smaller ones),
    and compares every U-statistic against the multiple integral of the same
    kernel at the same d.  Returns [(window, mse), ...] in increasing window
    order; for a degenerate kernel the mse decays like 1/window.
    """
    ws = sorted(set(int(w) for w in windows))
    if not ws or ws[0] < kernel.order:
        raise DomainError(f"windows {windows} must all be >= kernel order {kernel.order}")
    weights = alpha.as_floats()
    d = rng.dirichlet(weights, size=reps)
    limit = _evaluate_floats(kernel.to_polynomial(), d)
    out = []
    counts = np.zeros((reps, alpha.atoms), dtype=np.int64)
    filled = 0
    for w in ws:
        counts = counts + rng.multinomial(w - filled, d)
        filled = w
        u_vals = _ustat_vectorized(kernel, w, counts.astype(np.float64))
        mse = float(np.mean((u_vals - limit) ** 2))
        out.append((w, mse))
    return out


@dataclass(frozen=True)
class OracleApproximation:
    """The exact projection E[F | window] with its per-order split and loss."""

    decomposition: HoeffdingDecomposition
    loss: Scalar

    def kernels(self) -> dict[int, SymmetricKernel]:
        return {
            s: self.decomposition.component(s)
            for s in range(1, self.decomposition.N + 1)
        }


def best_symmetric_approx_oracle(
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OracleApproximation:
    """The unique loss-minimizing symmetric statistic of the first N draws.

    The minimizer over all square-integrable symmetric statistics of the
    window is the conditional expectation T(mu) = E[F | occupation mu],
    computed exactly from posterior moments; its per-order components come
    from the finite-sample decomposition and the achieved loss is
    Var F - Var T, cross-checkable against direct enumeration of
    E[(F - T)^2].
    """
    if binom(window + alpha.atoms - 1, alpha.atoms - 1) > cap:
        raise ResourceCapError(f"window enumeration exceeds cap {cap}")
    values = {
        counts: poly_posterior_mean(F, alpha, counts)
        for counts in occupation_vectors(window, alpha.atoms)
    }
    projection = SymmetricKernel(window, alpha.atoms, values)
    decomposition = hoeffding_decompose(projection, alpha, cap=cap)
    var_f = variance_functional(F, alpha)
    var_t = statistic_product_mean(projection, projection, alpha) - decomposition.mean**2
    return OracleApproximation(decomposition=decomposition, loss=var_f - var_t)


@dataclass(frozen=True)
class ScaledKernelCandidate:
    """Decomposition kernels of F scaled by 1/C(N, i), with closed-form errors.

    ``error_reduced`` uses the overlap constant whose product stops at
    n - r (the reading matching the exact enumeration oracle);
    ``error_full`` keeps the printed upper bound n, which zeroes every
    positive-overlap term.  Neither is asserted to equal the true loss —
    compare against ``direct_loss``.
    """

    kernels: dict[int, SymmetricKernel]
    error_reduced: Scalar
    error_full: Scalar


def candidate_error_formula(
    second_moments: Mapping[int, Scalar],
    total_mass: Scalar,
    window: int,
    bound: str,
) -> Scalar:
    """Closed-form quadratic error attributed to the scaled-kernel candidate.

        sum_{n > N} c(n) E[h_n^2]
        + sum_{n <= N} E[h_n^2] [ c(n) - C(N,n)^{-1} sum_r C(n,r)
                                   C*(N-n, n-r) c_overlap(n, r) ]

    with C* the guarded binomial and ``bound`` selecting the overlap
    reading ("reduced" or "full").
    """
    total: Scalar = 0
    for n, moment in second_moments.items():
        if moment == 0:
            continue
        if n > window:
            total = total + c_iso(n, total_mass) * moment
            continue
        inner: Scalar = 0
        for r in range(0, n + 1):
            star = binom_star(window - n, n - r)
            if star == 0:
                continue
            inner = inner + binom(n, r) * star * c_overlap(n, r, total_mass, bound=bound)
        bracket = c_iso(n, total_mass) - Fraction(1, binom(window, n)) * inner
        total = total + moment * bracket
    return total


def scaled_kernel_candidate(
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
) -> ScaledKernelCandidate:
    """The candidate family h_i / C(N, i) built from the kernels of F."""
    max_order = max(F.degree, 1)
    decomposition = chaos_kernels(F, alpha, max_order)
    kernels: dict[int, SymmetricKernel] = {}
    moments: dict[int, Scalar] = {}
    for n in range(1, max_order + 1):
        h = decomposition.kernel(n)
        moments[n] = statistic_product_mean(h, h, alpha)
        if n <= window and not h.is_zero():
            kernels[n] = h.scale(Fraction(1, binom(window, n)))
    return ScaledKernelCandidate(
        kernels=kernels,
        error_reduced=candidate_error_formula(moments, alpha.total_mass, window, "reduced"),
        error_full=candidate_error_formula(moments, alpha.total_mass, window, "full"),
    )


@dataclass(frozen=True)
class ApproximationReport:
    """Side-by-side record of the projection oracle and the scaled candidate.

    Every loss figure is produced twice (exact enumeration + Monte Carlo);
    closed-form error values are reported next to the enumerated loss they
    claim to equal, and ``discrepancies`` lists every mismatch beyond
    tolerance.  The projection's optimality (oracle loss <= every other
    enumerated loss) is enforced, not just reported.
    """

    alpha: DiscreteBaseMeasure
    window: int
    oracle: OracleApproximation
    oracle_loss_enumerated: Scalar
    oracle_loss_mc: MCEstimate
    candidate: ScaledKernelCandidate
    candidate_loss_enumerated: Scalar
    candidate_loss_mc: MCEstimate
    discrepancies: tuple[str, ...]

    def to_json(self) -> dict:
        def kernel_map(kernels: Mapping[int, SymmetricKernel]) -> dict:
            return {str(n): k.to_json() for n, k in sorted(kernels.items())}

        return {
            "alpha": self.alpha.to_json(),
            "window": self.window,
            "oracle": {
                "kernels": kernel_map(self.oracle.kernels()),
                "loss": scalar_to_json(self.oracle.loss),
                "loss_enumerated": scalar_to_json(self.oracle_loss_enumerated),
                "loss_mc": {
                    "value": self.oracle_loss_mc.value,
                    "stderr": self.oracle_loss_mc.stderr,
                    "draws": self.oracle_loss_mc.draws,
                },
            },
            "candidate": {
                "kernels": kernel_map(self.candidate.kernels),
                "loss_enumerated": scalar_to_json(self.candidate_loss_enumerated),
                "loss_mc": {
                    "value": self.candidate_loss_mc.value,
                    "stderr": self.candidate_loss_mc.stderr,
                    "draws": self.candidate_loss_mc.draws,
                },
                "error_formula_reduced": scalar_to_json(self.candidate.error_reduced),
                "error_formula_full": scalar_to_json(self.candidate.error_full),
            },
            "discrepancies": list(self.discrepancies),
        }


def approximation_report(
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
    reps: int = 20_000,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    tolerance: float = 1e-10,
) -> ApproximationReport:
    """Build the full oracle-vs-candidate comparison for one functional.

    Raises a numeric error if the enumerated losses contradict projection
    optimality (they cannot, mathematically; a violation means a bug).
    MC confirmations are skipped (zero-draw placeholders) when ``rng`` is
    None.
    """
    oracle = best_symmetric_approx_oracle(F, alpha, window, cap=cap)
    oracle_kernels = {
        s: k for s, k in oracle.kernels().items() if not k.is_zero()
    }
    oracle_enumerated = direct_loss(oracle_kernels, F, alpha, window, cap=cap)

    candidate = scaled_kernel_candidate(F, alpha, window)
    candidate_enumerated = direct_loss(candidate.kernels, F, alpha, window, cap=cap)

    if rng is not None:
        oracle_mc = mc_loss(oracle_kernels, F, alpha, window, reps, rng)
        candidate_mc = mc_loss(candidate.kernels, F, alpha, window, reps, rng)
    else:
        oracle_mc = MCEstimate(value=float("nan"), stderr=float("inf"), draws=0)
        candidate_mc = MCEstimate(value=float("nan"), stderr=float("inf"), draws=0)

    notes: list[str] = []
    if abs(float(oracle.loss - oracle_enumerated)) > tolerance:
        notes.append(
            "oracle loss from variance difference "
            f"({float(oracle.loss):.12g}) disagrees with direct enumeration "
            f"({float(oracle_enumerated):.12g})"
        )
    for label, value in (
        ("reduced-product", candidate.error_reduced),
        ("full-product", candidate.error_full),
    ):
        if abs(float(value - candidate_enumerated)) > tolerance:
            notes.append(
                f"closed-form candidate error [{label}] = {float(value):.12g} "
                f"differs from the enumerated candidate loss "
                f"{float(candidate_enumerated):.12g}"
            )
    if candidate_enumerated < oracle_enumerated and abs(
        float(candidate_enumerated - oracle_enumerated)
    ) > tolerance:
        raise NumericError(
            "projection optimality violated: candidate loss "
            f"{float(candidate_enumerated)} below oracle loss "
            f"{float(oracle_enumerated)}"
        )

    return ApproximationReport(
        alpha=alpha,
        window=window,
        oracle=oracle,
        oracle_loss_enumerated=oracle_enumerated,
        oracle_loss_mc=oracle_mc,
        candidate=candidate,
        candidate_loss_enumerated=candidate_enumerated,
        candidate_loss_mc=candidate_mc,
        discrepancies=tuple(notes),
    )
