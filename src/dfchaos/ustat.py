"""U-statistics over exchangeable windows and best finite-sample approximation.

A U-statistic averages a symmetric order-n kernel over all n-subsets of an
observation window.  On a finite support every such average depends only on
the window's occupation counts, so evaluation, moments, and losses reduce
to exact sums over occupation vectors ("occupation algebra").

By the paper's Blackwell–MacQueen result each multiple integral I_n(h)(D)
is the L² limit of the U-statistics U_N of its kernel.  Given D the draws
are i.i.d. D and E[U_N | D] = I_n(h)(D), so Hoeffding (1948) gives the
rate exactly (``ustat_mse``):

    E[(U_N - I_n(h))^2] = sum_{r=1..n} C(n,r) C(N-n,n-r) / C(N,n) (O(r) - O(0)),

with O(r) = E_urn[h(X_1..X_n) h(X_{n-r+1}..X_{2n-r})], which depends on h
and alpha only.  For a chaos kernel h_s it is e_s (r_s/f_s - 1), with
e_s = c_iso(s) E[h_s^2], f_s = N!/(N-s)! and r_s = (|alpha|+N)^(s), and both
exact losses of ``approximation_report`` are sums of such terms.
``direct_loss`` of h / C(N, n) against F = I_n(h) enumerates the same loss
over the window's C(N + K - 1, K - 1) occupation vectors: the oracle in
``verify`` and the tests, too slow at large N to be the route.

The second half of the module compares two ways of approximating a
functional F of the random measure by symmetric statistics of the first N
draws, both read off F's chaos kernels:

* the exact projection E[F | X_1..X_N] — the unique loss minimizer over all
  symmetric statistics of the window — each order-s kernel shrunk by
  s!/(|alpha|+N)^(s) (``best_symmetric_approx_oracle``); and
* the scaled-kernel candidate that reuses the decomposition kernels of F,
  dividing the order-i kernel by C(N, i) and summing over i-subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .chaos import (
    MCEstimate,
    _product_sum,
    _window_kernels,
    functional_mean,
    statistic_product_mean,
    variance_functional,
)
from .coeffs import c_iso, c_overlap
from .errors import DEFAULT_ENUMERATION_CAP, DomainError, NumericError, ResourceCapError
from .hoeffding import _check_lattice
from .kernels import SimplexPolynomial, SymmetricKernel, subset_sum_assembly
from .measures import MC_BLOCK, DiscreteBaseMeasure, _dirichlet_blocks, check_counts
from .numeric import (
    Record,
    Scalar,
    binom,
    is_exact,
    occupation_lattice,
    ratio,
    scalar_to_json,
    sub_occupations,
    tuple_counts,
)
from .polya import PolyaSample

__all__ = [
    "UStatistic",
    "eval_ustat",
    "eval_ustat_counts",
    "statistic_from_kernels",
    "direct_loss",
    "mc_loss",
    "ustat_mse",
    "OracleApproximation",
    "best_symmetric_approx_oracle",
    "ScaledKernelCandidate",
    "scaled_kernel_candidate",
    "candidate_error_formula",
    "ApproximationReport",
    "approximation_report",
]


class UStatistic(Record):
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
    check_counts(kernel.atoms, counts)
    if sum(counts) != window:
        raise DomainError(f"counts {counts} do not fill a window of {window}")
    n = kernel.order
    if window < n:
        raise DomainError(f"window {window} shorter than kernel order {n}")
    total: Scalar = Fraction(0)  # an all-zero exact sum stays a Fraction
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
    Each kernel's cached ``numerators`` are lifted to one common
    denominator and run through ``subset_sum_assembly`` with a unit row;
    a float value is read as its exact image and every entry of the
    statistic rounded once, to a float.
    """
    columns, rounded = {}, False
    for order, g in kernels.items():
        if g.order != order:
            raise DomainError(f"kernel at slot {order} has order {g.order}")
        if g.atoms != atoms:
            raise DomainError("kernel atom counts disagree")
        if order <= window:
            columns[order] = g.numerators
            rounded = rounded or columns[order][2]
        else:  # adds nothing, though a float value still rounds the statistic
            rounded = rounded or not is_exact(g.values.values())
    den = math.lcm(*(d for _, d, _ in columns.values()))

    def layer(k: int) -> list[int]:
        nums, d, _ = columns[k]
        return [x * (den // d) for x in nums]

    rows = {window: (dict.fromkeys(kernels, 1), 1)}
    return subset_sum_assembly(layer, den, rounded, rows, atoms)[window]


def direct_loss(
    kernels: Mapping[int, SymmetricKernel],
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
) -> Scalar:
    """Exact loss E[(F - E F - S)^2] of the subset-sum statistic S of a window.

    Expanded as  Var F - 2 sum_mu P(mu) S(mu) (E[F | mu] - E F)
    + sum_mu P(mu) S(mu)^2  over window occupation vectors mu, all terms
    exact under the urn law.  The posterior means E[F | mu] = N(mu) / D of
    the window's layer are one ``MomentLadder.posterior_table`` layer, and
    P(mu) = W(mu) / S(N) is the measure's cached ``urn_weights`` row, so
    the enumerated part is one integer dot product over the window's
    vectors, over the common denominator of S, D and E F.  A float value
    or coefficient is read as its exact image and the loss rounded once.
    More than ``DEFAULT_ENUMERATION_CAP`` window occupation vectors,
    C(window + K - 1, K - 1), raise ResourceCapError.
    """
    if binom(window + alpha.atoms - 1, alpha.atoms - 1) > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"window enumeration exceeds cap {DEFAULT_ENUMERATION_CAP}")
    statistic = statistic_from_kernels(kernels, window, alpha.atoms)
    s_nums, s_den, rounded = statistic.numerators
    pairs, c_den, f_rounded = F.scaled_terms
    if f_rounded:
        F = SimplexPolynomial(F.nvars, {e: Fraction(c, c_den) for e, c in pairs})
    mean = functional_mean(F, alpha)
    var_f = variance_functional(F, alpha)
    m, m_den = mean.numerator, mean.denominator
    (conds,), f_den = alpha.moment_ladder.posterior_table(pairs, window, start=window)
    f_den *= c_den  # E[F | mu] = conds[i] / f_den
    weights, total = alpha.moment_ladder.urn_weights(window)
    # P(mu) S(mu) (S(mu) + 2 E F - 2 E[F | mu]) = W s (s a + b - c N(mu)) / (S(N) s_den^2 a)
    a, b, c = m_den * f_den, 2 * m * s_den * f_den, 2 * s_den * m_den
    num = sum(w * s * (s * a + b - c * n) for w, s, n in zip(weights, s_nums, conds) if s)
    loss = var_f + Fraction(num, total * s_den * s_den * a)
    return ratio(loss.numerator, loss.denominator, rounded or f_rounded)


def mc_loss(
    kernels: Mapping[int, SymmetricKernel],
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
    reps: int,
    rng: np.random.Generator,
) -> MCEstimate:
    """Monte Carlo confirmation of the exact loss (``direct_loss``).

    Each replication draws the random measure d ~ Dirichlet(alpha), then a
    conditionally i.i.d. window from it, and scores (F(d) - E F - S)^2 with
    S the subset-sum statistic of the window; the estimate is the mean of
    the ``reps`` scores with its standard error (sample deviation with
    ddof=1 over sqrt(reps)), so ``reps`` must be at least 2.

    Replications run in the blocks of ``measures._dirichlet_blocks``, of
    ``MC_BLOCK`` rows: each block's one ``rng.dirichlet`` call is followed
    by one ``rng.multinomial(window, d)`` call for its n rows, so the
    stream depends on the seed, ``reps`` and the block size.  F is evaluated in
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
    draws = np.empty(reps)
    for start, d in zip(range(0, reps, MC_BLOCK), _dirichlet_blocks(alpha, reps, rng)):
        counts = rng.multinomial(window, d)
        s_vals = s_table[_occupation_rank(counts, window)]
        draws[start : start + len(d)] = (_evaluate_floats(F, d) - mean - s_vals) ** 2
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
    for exps, coeff in zip(poly.terms, poly.float_coefficients):
        term = np.full(points.shape[0], coeff)
        for j, e in enumerate(exps):
            if e:
                term *= points[:, j] ** e
        total += term
    return total


def ustat_mse(kernel: SymmetricKernel, alpha: DiscreteBaseMeasure, window: int) -> Scalar:
    """E[(U_N - I_n(h)(D))^2], exactly, by Hoeffding's formula of the module
    docstring: O(r) = sum over the order-r lattice layer of
    P(a) E[g_a(D)^2 | counts a], g_a(D) = sum_b mult(b) h(a + b) D^b over the
    layer n - r, is the urn law ``urn_weights(r)`` times one ladder sum at
    counts a (``chaos._product_sum``) on h's cached ``numerators``.  A float
    value is read as its exact image and the result rounded once.  More than
    ``DEFAULT_ENUMERATION_CAP`` triples (a, b, b'), sum_r |L_r| |L_{n-r}|^2,
    raise ResourceCapError before any term is built.
    """
    n, atoms = kernel.order, alpha.atoms
    if kernel.atoms != atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    if window < n:
        raise DomainError(f"window {window} shorter than kernel order {n}")
    sizes = [binom(r + atoms - 1, atoms - 1) for r in range(n + 1)]
    triples = sum(sizes[r] * sizes[n - r] ** 2 for r in range(n + 1))
    if triples > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"order-{n} overlap moments on {atoms} atoms ({triples} terms) exceed cap "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    nums, den, rounded = kernel.numerators
    rank = occupation_lattice(n, atoms).rank
    overlap = []  # O(0), ..., O(n)
    for r in range(n + 1):
        rest = occupation_lattice(n - r, atoms)
        weights, total = alpha.moment_ladder.urn_weights(r)
        moment = Fraction(0)
        for a, w in zip(occupation_lattice(r, atoms).vectors, weights):
            values = (nums[rank[tuple(map(add, a, b))]] for b in rest.vectors)
            terms = [(b, m * x) for b, m, x in zip(rest.vectors, rest.multiplicities, values) if x]
            g = (terms, den, rounded)
            square, q, _ = _product_sum(g, g, alpha, a)
            moment += Fraction(w * square, q)
        overlap.append(moment / total)
    shares = (binom(n, r) * binom(window - n, n - r) for r in range(n + 1))
    mse = sum((w * (o - overlap[0]) for w, o in zip(shares, overlap)), Fraction(0)) / binom(window, n)
    return ratio(mse.numerator, mse.denominator, rounded)


class OracleApproximation(Record):
    """E[F | window]: its components of orders 1..min(N, d), and its loss."""

    components: tuple[SymmetricKernel, ...]
    loss: Scalar

    def kernels(self) -> dict[int, SymmetricKernel]:
        return dict(enumerate(self.components, start=1))


class ScaledKernelCandidate(Record):
    """Decomposition kernels of F scaled by 1/C(N, i), with closed-form errors.

    ``error_reduced`` and ``error_full`` are ``candidate_error_formula`` in its
    two overlap readings; neither is the enumerated loss.  When d <= N the
    reduced one is its negative: ``approx --alpha 1/3,4/3 --N 4`` (CI's F)
    prints ``error_formula_reduced: -497/89760``, ``loss_enumerated: 497/89760``.
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
                                   C(N-n, n-r) c_overlap(n, r) ]

    with ``bound`` selecting the overlap reading ("reduced" or "full").
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
            star = binom(window - n, n - r)
            if star == 0:
                continue
            inner = inner + binom(n, r) * star * c_overlap(n, r, total_mass, bound=bound)
        bracket = c_iso(n, total_mass) - Fraction(1, binom(window, n)) * inner
        total = total + moment * bracket
    return total


def _approximations(F: SimplexPolynomial, alpha: DiscreteBaseMeasure, window: int) -> tuple:
    """(oracle, candidate, candidate loss) from one ``chaos._window_kernels``
    build: with c_s = C(N, s) c_overlap(N, N - s) = f_s/r_s, the optimum loses
    e_s (1 - c_s) and the candidate e_s (1/c_s - 1) at s <= N, both e_s above;
    a float coefficient is read as its exact image, each result rounded once."""
    if window < 1:
        raise DomainError("the statistic must depend on at least one draw")
    decomposition, shrunk, rounded = _window_kernels(F, alpha, window)

    def once(h: SymmetricKernel) -> SymmetricKernel:
        return SymmetricKernel._from_numerators(h.order, h.atoms, *h.numerators[:2], rounded)

    mass, scaled, seconds, losses = alpha.total_mass, {}, {}, [Fraction(0), Fraction(0)]
    for s, h in enumerate(decomposition.kernels, start=1):
        seconds[s] = statistic_product_mean(h, h, alpha)
        energy = c_iso(s, mass) * seconds[s]  # E[I_s(h_s)^2]
        if s > window:
            losses = [x + energy for x in losses]
            continue
        c = binom(window, s) * c_overlap(window, window - s, mass)
        losses = [losses[0] + energy * (1 - c), losses[1] + energy * (1 / c - 1)]
        if not h.is_zero():
            scaled[s] = once(h.scale(Fraction(1, binom(window, s))))
    errors = (candidate_error_formula(seconds, mass, window, b) for b in ("reduced", "full"))
    oracle_loss, candidate_loss = (ratio(*x.as_integer_ratio(), rounded) for x in losses)
    return (
        OracleApproximation(tuple(map(once, shrunk)), oracle_loss),
        ScaledKernelCandidate(scaled, *(float(e) if rounded else e for e in errors)),
        candidate_loss,
    )


def best_symmetric_approx_oracle(
    F: SimplexPolynomial, alpha: DiscreteBaseMeasure, window: int
) -> OracleApproximation:
    """The loss minimizer T = E[F | X_1..X_N] over symmetric statistics of
    the first N draws, in closed form from F's chaos kernels h_s: no lattice.

    T's order-s component is h_s shrunk by s!/(|alpha|+N)^(s)
    (``chaos._window_kernels``): E[I_s(h_s) | X_1..X_N] = c_s U_N(h_s) with
    c_s = N!/(N-s)!/(|alpha|+N)^(s) for s <= N (Hoeffding 1948; Blackwell &
    MacQueen 1973), at s = 1 the posterior mean's shrinkage N/(|alpha|+N).
    Its oracle, ``hoeffding_decompose`` of T, stays in the tests and ``verify``.
    """
    return _approximations(F, alpha, window)[0]


def scaled_kernel_candidate(
    F: SimplexPolynomial,
    alpha: DiscreteBaseMeasure,
    window: int,
) -> ScaledKernelCandidate:
    """The candidate family h_i / C(N, i) built from the kernels of F."""
    return _approximations(F, alpha, window)[1]


class ApproximationReport(Record):
    """Side-by-side record of the projection oracle and the scaled candidate.

    Every loss figure is produced twice (closed form + Monte Carlo); the
    closed forms keep the JSON key ``loss_enumerated`` (``direct_loss`` is
    their oracle).  The printed candidate-error values are reported next to
    the loss they claim to equal, ``discrepancies`` lists every mismatch
    beyond 1e-10, and the projection's optimality is enforced.
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

        def mc_json(estimate: MCEstimate) -> dict:
            return {"value": estimate.value, "stderr": estimate.stderr, "draws": estimate.draws}

        oracle_kernels = self.oracle.kernels()  # and the zero orders up to the window
        zero = 0.0 if isinstance(self.oracle.loss, float) else Fraction(0)
        for s in range(len(oracle_kernels) + 1, self.window + 1):
            oracle_kernels[s] = SymmetricKernel.from_function(s, self.alpha.atoms, lambda c: zero)
        return {
            "alpha": self.alpha.to_json(),
            "window": self.window,
            "oracle": {
                "kernels": kernel_map(oracle_kernels),
                "loss": scalar_to_json(self.oracle.loss),
                "loss_enumerated": scalar_to_json(self.oracle_loss_enumerated),
                "loss_mc": mc_json(self.oracle_loss_mc),
            },
            "candidate": {
                "kernels": kernel_map(self.candidate.kernels),
                "loss_enumerated": scalar_to_json(self.candidate_loss_enumerated),
                "loss_mc": mc_json(self.candidate_loss_mc),
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
) -> ApproximationReport:
    """Build the full oracle-vs-candidate comparison for one functional.

    Raises a numeric error if the closed-form losses contradict projection
    optimality (they cannot; a violation means a bug).  With ``rng`` None the
    MC confirmations are zero-draw placeholders and no statistic is built.
    The JSON's oracle kernels of orders <= N hold the split's C(N + K, K)
    lattice: a larger one is refused first.
    """
    _check_lattice(window, alpha.atoms)
    oracle, candidate, candidate_loss = _approximations(F, alpha, window)
    oracle_mc = candidate_mc = MCEstimate(value=float("nan"), stderr=float("inf"), draws=0)
    if rng is not None:
        oracle_kernels = {s: k for s, k in oracle.kernels().items() if not k.is_zero()}
        oracle_mc = mc_loss(oracle_kernels, F, alpha, window, reps, rng)
        candidate_mc = mc_loss(candidate.kernels, F, alpha, window, reps, rng)

    notes: list[str] = []
    for label, value in (
        ("reduced-product", candidate.error_reduced),
        ("full-product", candidate.error_full),
    ):
        if abs(float(value - candidate_loss)) > 1e-10:
            notes.append(
                f"closed-form candidate error [{label}] = {float(value):.12g} "
                f"differs from the enumerated candidate loss "
                f"{float(candidate_loss):.12g}"
            )
    if candidate_loss < oracle.loss and abs(float(candidate_loss - oracle.loss)) > 1e-10:
        raise NumericError(
            "projection optimality violated: candidate loss "
            f"{float(candidate_loss)} below oracle loss "
            f"{float(oracle.loss)}"
        )

    return ApproximationReport(
        alpha=alpha,
        window=window,
        oracle=oracle,
        oracle_loss_enumerated=oracle.loss,
        oracle_loss_mc=oracle_mc,
        candidate=candidate,
        candidate_loss_enumerated=candidate_loss,
        candidate_loss_mc=candidate_mc,
        discrepancies=tuple(notes),
    )
