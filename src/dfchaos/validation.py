"""Cross-checking suites: the projection oracle, coefficient-table errata
and the named verify run.

The library computes its coefficients in closed form (``coeffs``); the
independent routes here only check them, in ``verify`` and in the tests.
``oracle_limit_row`` solves the defining projection conditions for the
limit coefficients on a balanced two-point space exactly (``solve_exact``);
``theta_limit`` pushes the finite tables through an exact extrapolation in
1/N; ``c_overlap_oracle`` enumerates the overlapping-window covariance.

Two independent routes produce the limit coefficients (the extrapolation
and the two-point projection oracle), and a third set of closed forms has
been tabulated elsewhere (``tabulated_limit_values``).
``theta_erratum_report`` pits all three against each other and settles
disagreements with an arbiter that neither route controls: rebuild a known
functional from kernels extracted with each coefficient set and measure the
pointwise reconstruction error.  A coefficient set that cannot reproduce
the functional it claims to decompose is wrong, whatever its provenance.
The arbiter weights the centred posterior means with the row it is given
(``kernels.subset_sum_kernels``); ``chaos_kernels`` reads only the
closed-form rows.

``mass_kernel_identities`` checks the closed-form kernels of a functional
of one Beta-distributed mass D(C), built by the same ``bayes.mass_kernel``
that the exponential functional uses, against three exact identities:
degeneracy, their integral against the independent power-basis
polynomial, and their norm through the isometry.

``_decomposition_estimate`` takes the conditional-variance estimate of
``bayes`` through the decomposition of the mean functional, the oracle of
its closed form.

``run_verification`` drives the library's invariant checks as named,
machine-readable results for the command-line ``verify`` subcommand.  Its
urn-law check holds the finite split's backward lattice pass to one
completion enumeration per conditional mean (``polya``), exactly.  Its
window-approximation check holds ``ustat_mse`` and both closed-form losses
of ``approximation_report`` to ``direct_loss``, and the closed-form window
optimum to the backward-pass split, exactly, and checks
the Monte Carlo losses of ``approximation_report``; it alone imports numpy and
``ustat``, so the erratum report loads neither.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .bayes import (
    ObservedSample,
    decompose_exponential,
    estimate_conditional_variance,
    mass_kernel,
)
from .chaos import (
    ChaosDecomposition,
    chaos_kernels,
    covariance_integrals,
    multiple_integral,
    poly_posterior_mean,
    reconstruct,
    statistic_product_mean,
    variance_from_decomposition,
    variance_functional,
)
from .coeffs import (
    c_iso,
    limit_coefficient,
    limit_coefficients,
    system_residuals,
    theta_table,
)
from .errors import (
    DEFAULT_ENUMERATION_CAP,
    ConvergenceError,
    DFChaosError,
    DomainError,
    ResourceCapError,
    SingularSystemError,
)
from .hoeffding import _conditional_layers, degenerate_basis, degenerate_check, hoeffding_decompose
from .jacobi import (
    BetaParams,
    beta_bernstein,
    exact_parts,
    jacobi_gram,
    jacobi_norm_identity,
    kernel_to_univariate,
    jacobi_modified,
    solve_phi_system,
)
from .kernels import SimplexPolynomial, SymmetricKernel, subset_sum_kernels
from .measures import DiscreteBaseMeasure, dirichlet_moment, measure
from .numeric import (
    Record,
    Scalar,
    binom,
    occupation_vectors,
    scalar_to_json,
    sub_occupations,
    tuple_counts,
)
from .polya import cond_exp_statistic_counts, occupation_prob, polya_joint_prob
from .wright_fisher import (
    TransitionModel,
    q_polynomial,
    q_via_multiple_integrals,
    kernel_Q,
    simplex_expectation,
    transition_density,
)

__all__ = [
    "two_point_measure",
    "degenerate_chain_kernel",
    "oracle_limit_row",
    "ThetaLimit",
    "theta_limit",
    "tabulated_limit_values",
    "c_overlap_oracle",
    "ThetaComparison",
    "ThetaErratumEntry",
    "ThetaErratumReport",
    "theta_erratum_report",
    "CheckResult",
    "VerificationResult",
    "run_verification",
]


# ---------------------------------------------------------------------------
# the two-point projection oracle for the limit coefficients


def two_point_measure(total_mass: Scalar) -> DiscreteBaseMeasure:
    """The balanced two-atom measure with the requested total mass."""
    half = Fraction(total_mass) / 2
    return DiscreteBaseMeasure((half, half))


def degenerate_chain_kernel(total_mass: Scalar, n: int) -> SymmetricKernel:
    """An exact degenerate kernel of order n on the balanced two-point space.

    On atoms {1, 2} with weights (|alpha|/2, |alpha|/2), kernels whose
    one-step predictive average vanishes at every history form a
    one-dimensional space; the representative returned here is pinned by
    value 1 at the all-atom-2 configuration and satisfies the recursion
    v_{j+1} = -v_j·(theta_2 + n-1-j)/(theta_1 + j), where v_j is the value
    at j atom-1 points.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    theta1 = theta2 = Fraction(total_mass) / 2
    v = [Fraction(1)]
    for j in range(n):
        v.append(-v[-1] * (theta2 + n - 1 - j) / (theta1 + j))
    return SymmetricKernel(n, 2, {(i, n - i): v[i] for i in range(n + 1)})


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a non-empty matrix, in place; returns
    (matrix, pivot columns).  ``solve_exact`` is its one caller."""
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_exact(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Fraction]:
    """Unique exact solution of an (possibly overdetermined) linear system.

    Raises SingularSystemError if the system is inconsistent or the solution
    is not unique. All entries are coerced to Fraction.
    """
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    if not aug:
        raise SingularSystemError("empty system")
    n_unknowns = len(aug[0]) - 1
    reduced, pivots = _rref(aug)
    for row in reduced:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            raise SingularSystemError("inconsistent linear system")
    if len([p for p in pivots if p < n_unknowns]) < n_unknowns:
        raise SingularSystemError("underdetermined linear system")
    solution = [Fraction(0)] * n_unknowns
    for row, p in zip(reduced, pivots):
        if p < n_unknowns:
            solution[p] = row[-1]
    return solution


def oracle_limit_row(total_mass: Scalar, n: int) -> tuple[Fraction, ...]:
    """Solve for (theta^(n,1), ..., theta^(n,n)) on the two-point space.

    The defining conditions: the extraction formula
        T[F](a) = sum_k theta^(n,k) sum_{|mu|=k, mu<=a} ways(mu)·E[F|mu]
    must return the order-n kernel of F for every pure-order test functional
    F_m = integral of the order-m degenerate chain kernel, m = 1..n: zero
    for m < n and the kernel itself for m = n. The resulting overdetermined
    linear system is solved exactly; any inconsistency or rank defect
    raises SingularSystemError (which would mean the conditions do not pin
    the coefficients — by construction they do).
    """
    alpha = two_point_measure(total_mass)
    rows: list[list[Scalar]] = []
    rhs: list[Scalar] = []
    for m in range(1, n + 1):
        chain = degenerate_chain_kernel(total_mass, m)
        poly = chain.to_polynomial()
        cond_mean = {
            mu: poly_posterior_mean(poly, alpha, mu)
            for size in range(1, n + 1)
            for mu in occupation_vectors(size, 2)
        }
        for a_counts in occupation_vectors(n, 2):
            row = []
            for k in range(1, n + 1):
                acc: Scalar = Fraction(0)
                for mu, ways in sub_occupations(a_counts, k):
                    acc = acc + ways * cond_mean[mu]
                row.append(acc)
            rows.append(row)
            rhs.append(chain.value(a_counts) if m == n else Fraction(0))
    return tuple(solve_exact(rows, rhs))


# ---------------------------------------------------------------------------
# limits by extrapolation of the exact finite tables, and the tabulated row


class ThetaLimit(Record):
    """A converged limit estimate with its convergence evidence."""

    k: int
    a: int
    total_mass: Scalar
    value: float
    sample_sizes: tuple[int, ...]
    last_delta: float
    tolerance: float
    oracle_value: Fraction
    matches_oracle: bool


def theta_limit(
    k: int,
    a: int,
    total_mass: Scalar,
    tol: float = 1e-8,
) -> ThetaLimit:
    """lim_N C(N,k)·theta*_N(k,a) by exact Neville extrapolation in 1/N.

    Sample sizes double (N = k, 2k, 4k, ..., up to 2^14); the target is a
    rational function of N, so the interpolating-polynomial diagonal
    converges quickly. The value is reported only once two successive
    diagonal entries agree within ``tol``; otherwise ConvergenceError
    carries the best partial value. The converged value is compared
    against the closed-form ``limit_coefficient`` and both are attached.
    """
    if not 1 <= a <= k:
        raise DomainError(f"need 1 <= a <= k, got (k={k}, a={a})")
    xs: list[Fraction] = []
    prev_col: list[Fraction] = []
    sizes: list[int] = []
    previous_diag: Fraction | None = None
    N = k
    while N <= 2**14:
        tab = theta_table(N, total_mass, max_k=min(k, N))
        value = Fraction(binom(N, k)) * Fraction(tab.theta_star(k, a))
        x = Fraction(1, N)
        col = [value]
        for i in range(1, len(xs) + 1):
            older_x = xs[len(xs) - i]
            num = x * prev_col[i - 1] - older_x * col[i - 1]
            col.append(num / (x - older_x))
        xs.append(x)
        sizes.append(N)
        prev_col = col
        current = col[-1]
        if previous_diag is not None:
            delta = abs(float(current - previous_diag))
            if delta < tol:
                oracle_val = limit_coefficient(k, a, total_mass)
                scale = max(1.0, abs(float(oracle_val)))
                matches = abs(float(current) - float(oracle_val)) <= 10 * tol * scale
                return ThetaLimit(
                    k, a, total_mass, float(current), tuple(sizes), delta, tol,
                    oracle_val, matches,
                )
        previous_diag = current
        N *= 2
    raise ConvergenceError(
        f"theta limit ({k},{a}) did not stabilise below {tol} with N <= {2**14}",
        partial=float(previous_diag) if previous_diag is not None else None,
    )


def tabulated_limit_values(total_mass: Scalar) -> dict[tuple[int, int], Scalar]:
    """Closed forms for the first limit coefficients as previously tabulated
    elsewhere, retained solely for cross-checking. The second row disagrees
    with both the recursion limit and the projection oracle (see
    ``theta_erratum_report``), so these values must never feed the
    decomposition routines."""
    m = total_mass
    return {
        (1, 1): m + 1,
        (2, 1): (m + 3) * (m + 2),
        (2, 2): (m + 3) * (m + 1) / 2,
    }


# ---------------------------------------------------------------------------
# the overlap enumeration oracle


def c_overlap_oracle(
    h: SymmetricKernel,
    f: SymmetricKernel,
    r: int,
    alpha: DiscreteBaseMeasure,
) -> Scalar:
    """E[h(X_1..X_n)·f(X_{n-r+1}..X_{2n-r})], exactly, by enumeration.

    The two order-n windows share their last/first r coordinates. The
    nominal enumeration size K^(2n-r) is checked against
    ``DEFAULT_ENUMERATION_CAP``.  It arbitrates between the two readings
    of ``coeffs.c_overlap``.
    """
    if h.order != f.order:
        raise DomainError("overlap oracle requires kernels of equal order")
    n = h.order
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got (r={r}, n={n})")
    if h.atoms != alpha.atoms or f.atoms != alpha.atoms:
        raise DomainError("kernels and measure disagree on the atom count")
    span = 2 * n - r
    if alpha.atoms**span > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"enumeration of {alpha.atoms}^{span} tuples exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )
    total: Scalar = Fraction(0)
    for labels in itertools.product(range(1, alpha.atoms + 1), repeat=span):
        weight = polya_joint_prob(alpha, labels)
        total = total + weight * h.value_at(labels[:n]) * f.value_at(labels[n - r :])
    return total


# ---------------------------------------------------------------------------
# coefficient erratum report


class ThetaComparison(Record):
    """One coefficient, three sources."""

    order: int
    slot: int
    recursion_limit: float
    oracle: Fraction
    published: Scalar

    @property
    def recursion_vs_oracle(self) -> float:
        return abs(self.recursion_limit - float(self.oracle))

    @property
    def published_vs_oracle(self) -> float:
        return abs(float(self.published) - float(self.oracle))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "slot": self.slot,
            "recursion_limit": self.recursion_limit,
            "oracle": scalar_to_json(self.oracle),
            "published": scalar_to_json(self.published),
            "recursion_vs_oracle": self.recursion_vs_oracle,
            "published_vs_oracle": self.published_vs_oracle,
        }


class ThetaErratumEntry(Record):
    """Full three-way comparison at one total mass, with the arbiter verdict.

    ``reconstruction_residual_oracle`` and ``_published`` measure how far a
    decomposition built with each row-2 coefficient set is from actually
    reconstructing a quadratic test functional on an interior grid; the
    exact decomposition identity forces the true coefficients to residual 0.
    """

    total_mass: Fraction
    comparisons: tuple[ThetaComparison, ...]
    reconstruction_residual_oracle: float
    reconstruction_residual_published: float
    verdict: str

    def to_json(self) -> dict:
        return {
            "total_mass": scalar_to_json(self.total_mass),
            "comparisons": [c.to_json() for c in self.comparisons],
            "reconstruction_residual_oracle": self.reconstruction_residual_oracle,
            "reconstruction_residual_published": self.reconstruction_residual_published,
            "verdict": self.verdict,
        }


class ThetaErratumReport(Record):
    entries: tuple[ThetaErratumEntry, ...]

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}


def _reconstruction_residual(
    alpha: DiscreteBaseMeasure, theta: dict[tuple[int, int], Scalar]
) -> float:
    """Worst interior-grid reconstruction error for eta^2 under a theta set.

    The kernels weight the centred posterior means of eta^2 on layers 1-2
    with the supplied rows (``subset_sum_kernels``; measuring a wrong set
    is the whole point), and the resulting mean-plus-integrals sum is
    compared with the functional itself.
    """
    F = SimplexPolynomial.monomial(2, (2, 0))
    mean = poly_posterior_mean(F, alpha, (0, 0))
    vectors = [mu for n in (1, 2) for mu in occupation_vectors(n, 2)]
    centred = {mu: poly_posterior_mean(F, alpha, mu) - mean for mu in vectors}
    rows = {n: {k: theta[(n, k)] for k in range(1, n + 1)} for n in (1, 2)}
    kernels = subset_sum_kernels(centred, rows, 2).values()
    decomposition = ChaosDecomposition(alpha, mean, tuple(kernels))
    worst = 0.0
    for i in range(1, 10):
        x = Fraction(i, 10)
        point = (x, 1 - x)
        err = abs(float(reconstruct(decomposition, point) - F.evaluate(point)))
        worst = max(worst, err)
    return worst


def theta_erratum_report(
    total_masses: Sequence[Scalar] = (Fraction(1, 2), 1, 2, 5),
) -> ThetaErratumReport:
    """Compare recursion limits, the projection oracle, and tabulated values.

    For each total mass the report carries the three coefficient sources for
    (1,1), (2,1), (2,2), their pairwise gaps, and the reconstruction arbiter
    run with the oracle row against the tabulated row.  The verdict string
    summarizes which sources agree.
    """
    entries = []
    for raw_mass in total_masses:
        mass = Fraction(raw_mass)
        published = tabulated_limit_values(mass)
        oracle_theta = {
            (n, k): value
            for n in (1, 2)
            for k, value in enumerate(oracle_limit_row(mass, n), start=1)
        }
        comparisons = []
        for order, slot in ((1, 1), (2, 1), (2, 2)):
            limit = theta_limit(order, slot, mass, tol=1e-6)
            comparisons.append(
                ThetaComparison(
                    order=order,
                    slot=slot,
                    recursion_limit=float(limit.value),
                    oracle=oracle_theta[(order, slot)],
                    published=published[(order, slot)],
                )
            )
        # Arbiter: reconstruction with each row-2 set on a balanced two-atom
        # measure of the same total mass.
        alpha = two_point_measure(mass)
        published_theta = dict(oracle_theta)
        published_theta[(2, 1)] = Fraction(published[(2, 1)])
        published_theta[(2, 2)] = Fraction(published[(2, 2)])
        residual_oracle = _reconstruction_residual(alpha, oracle_theta)
        residual_published = _reconstruction_residual(alpha, published_theta)

        recursion_ok = all(c.recursion_vs_oracle <= 10 * 1e-6 for c in comparisons)
        published_ok = all(c.published_vs_oracle <= 10 * 1e-6 for c in comparisons)
        if recursion_ok and not published_ok and residual_published > 1e3 * max(residual_oracle, 1e-15):
            verdict = (
                "recursion limits and projection oracle agree; tabulated "
                "second-row values are inconsistent (reconstruction residual "
                f"{residual_published:.3e} against {residual_oracle:.3e} for the "
                "oracle row): the correct closed forms are "
                "theta(2,1) = -(m+3)(m+1)/2 and theta(2,2) = (m+3)(m+2)/2"
            )
        elif recursion_ok and published_ok:
            verdict = "all three sources agree"
        else:
            verdict = (
                "sources disagree in an unexpected pattern; inspect the "
                "comparison table"
            )
        entries.append(
            ThetaErratumEntry(
                total_mass=mass,
                comparisons=tuple(comparisons),
                reconstruction_residual_oracle=residual_oracle,
                reconstruction_residual_published=residual_published,
                verdict=verdict,
            )
        )
    return ThetaErratumReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# named verification suite


class CheckResult(Record):
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class VerificationResult(Record):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _check_recursion_exactness(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    mass = alpha.total_mass
    top = 16 if quick else 64
    worst_n = None
    for N in range(1, top + 1):
        table = theta_table(N, mass, max_k=1)
        expected = (mass + 1) / (N + mass)
        if table.theta(1, 1) != expected:
            worst_n = N
            break
    if worst_n is not None:
        return False, f"theta_N(1,1) mismatch at N={worst_n}"
    return True, f"theta_N(1,1) exact for N <= {top}"


def _check_system_residuals(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    mass = alpha.total_mass
    top = 6 if quick else 8
    for N in range(1, top + 1):
        residuals = system_residuals(theta_table(N, mass))
        bad = {k: v for k, v in residuals.items() if v != 0}
        if bad:
            return False, f"nonzero residuals at N={N}: {sorted(bad)[:3]}"
    return True, f"all defining-system residuals exactly 0 for N <= {top}"


def _check_limits_vs_oracle(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    mass = Fraction(alpha.total_mass)
    top = 4 if quick else 8
    oracle = {n: oracle_limit_row(mass, n) for n in range(1, top + 1)}
    closed = limit_coefficients(mass, top)
    for n, row in oracle.items():
        if row != tuple(closed[(n, k)] for k in range(1, n + 1)):
            return False, f"closed-form theta({n},*) differs from the oracle"
    pairs = ((1, 1), (2, 1), (2, 2)) if quick else ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))
    worst = 0.0
    for n, k in pairs:
        limit = theta_limit(n, k, mass, tol=1e-8)
        worst = max(worst, abs(float(limit.value) - float(oracle[n][k - 1])))
    ok = worst <= 1e-6
    return ok, (
        f"max |recursion limit - oracle| = {worst:.3e} over {len(pairs)} coefficients; "
        f"closed form = oracle exactly for n <= {top}"
    )


def _check_isometry(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    orders = (1, 2) if quick else (1, 2, 3)
    bases = {n: degenerate_basis(alpha, n) for n in orders}
    worst = 0.0
    count = 0
    for basis in bases.values():
        for h in basis:
            for f in basis:
                result = covariance_integrals(h, f, alpha)
                worst = max(worst, abs(float(result.exact - result.predicted)))
                count += 1
    # cross-order covariances must vanish
    for n in orders:
        for m in orders:
            if m <= n:
                continue
            result = covariance_integrals(bases[n][0], bases[m][0], alpha)
            worst = max(worst, abs(float(result.exact)))
            count += 1
    ok = worst <= 1e-10
    return ok, f"worst isometry gap {worst:.3e} over {count} kernel pairs"


def _check_reconstruction(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    max_degree = 2 if quick else 3
    K = alpha.atoms
    worst = 0.0
    tested = 0
    for exponents in occupation_vectors(max_degree, K):
        F = SimplexPolynomial.monomial(K, exponents)
        decomposition = chaos_kernels(F, alpha, sum(exponents))
        for i in range(1, 6):
            x = Fraction(i, 6)
            rest = (1 - x) / (K - 1)
            point = (x,) + (rest,) * (K - 1)
            err = abs(float(reconstruct(decomposition, point) - F.evaluate(point)))
            worst = max(worst, err)
        tested += 1
    ok = worst <= 1e-9
    return ok, f"worst reconstruction error {worst:.3e} over {tested} monomials"


def _check_parseval(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    K = alpha.atoms
    F = SimplexPolynomial.monomial(K, (2,) + (0,) * (K - 1))
    decomposition = chaos_kernels(F, alpha, 2)
    lhs = variance_from_decomposition(decomposition)
    rhs = variance_functional(F, alpha)
    gap = abs(float(lhs - rhs))
    return gap <= 1e-12, f"|Parseval - variance| = {gap:.3e} for a squared mass"


def _check_jacobi(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    params = BetaParams(1, 1) if alpha.atoms != 2 else BetaParams(alpha.weight(1), alpha.weight(2))
    top = 4 if quick else 8
    worst = 0.0
    for n, row in enumerate(jacobi_gram(top, params)):
        for m, value in enumerate(row):
            worst = max(worst, abs(float(value) - (1.0 if n == m else 0.0)))
    base = params.as_measure()
    for n in range(1, (3 if quick else 6) + 1):
        phi = solve_phi_system(n, params)
        worst = max(worst, float(degenerate_check(phi, base)) / max(1.0, float(phi.max_abs())))
        lhs, rhs = jacobi_norm_identity(n, params)
        worst = max(worst, abs(float(lhs) - float(rhs)))
        jn = jacobi_modified(n, params)
        ui = kernel_to_univariate(phi)
        coeff_gap = max(
            abs(float(ui.coefficient(a)) - float(jn.coefficient(a))) for a in range(n + 1)
        )
        worst = max(worst, coeff_gap)
    ok = worst <= 1e-10
    return ok, f"worst Beta-polynomial residual {worst:.3e}"


def _check_wright_fisher(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    theta = alpha if alpha.atoms >= 2 else measure(1, 1)
    model = TransitionModel(theta, 2 if quick else 3)
    dim = theta.atoms - 1
    g = tuple(Fraction(1, theta.atoms + 1) for _ in range(dim))
    gp = tuple(Fraction(1, theta.atoms + 2) for _ in range(dim))
    worst = 0.0
    # reproducing property for R = gamma_1^2
    R = SimplexPolynomial.monomial(dim, (2,) + (0,) * (dim - 1))
    acc: Scalar = 0
    for j in range(0, 3):
        acc = acc + simplex_expectation(theta, q_polynomial(model, j, g).mul(R))
    worst = max(worst, abs(float(acc - R.evaluate(g))))
    # zero mean of each band
    for n in range(1, model.M + 1):
        worst = max(
            worst, abs(float(simplex_expectation(theta, q_polynomial(model, n, g))))
        )
    # independent kernel route
    for n in (1, 2):
        gap = kernel_Q(model, n, g, gp) - q_via_multiple_integrals(model, n, g, gp)
        worst = max(worst, abs(float(gap)))
    # Griffiths' closed form against the stick-breaking bands, exactly
    closed_ok = all(
        kernel_Q(model, n, g, gp)
        == sum(poly.evaluate(g) * poly.evaluate(gp) / norm_sq for poly, norm_sq in model.band(n))
        for n in range(model.M + 1)
    )
    # at K = 2 each band is the monic Beta polynomial of ``beta_bernstein``
    beta_ok = True
    for n in range(model.M + 2) if theta.atoms == 2 else ():
        psi, norm_sq = beta_bernstein(n, *theta.weights)
        kernel = SymmetricKernel(n, 2, {(j, n - j): c for j, c in enumerate(psi)})
        [(poly, band_norm)] = model.band(n)
        coefficients = tuple(poly.terms.get((a,), 0) for a in range(n + 1))
        expected = (kernel_to_univariate(kernel).coefficients, norm_sq)
        beta_ok = beta_ok and (coefficients, band_norm) == expected
    # spectral identity, exactly: the order-n chaos component of F at g is
    # E[F(Y) Q_n(g, Y)] under the stationary law
    F = R.pad_to(theta.atoms)
    decomposition = chaos_kernels(F, theta, model.M)
    components = [decomposition.mean]
    components += [multiple_integral(h, g + (1 - sum(g),)) for h in decomposition.kernels]
    prior = (0,) * theta.atoms
    spectral_ok = components == [
        poly_posterior_mean(F.mul(q_polynomial(model, n, g).pad_to(theta.atoms)), theta, prior)
        for n in range(model.M + 1)
    ]
    # stationary limit
    td = transition_density(model, 60.0, g, gp)
    worst = max(worst, abs(td.value - td.stationary))
    ok = worst <= 1e-8 and closed_ok and beta_ok and spectral_ok
    verdict = "equals" if closed_ok else "differs from"
    spectral = "equal" if spectral_ok else "differ from"
    beta = f"; each band {'is' if beta_ok else 'is not'} the monic Beta polynomial"
    return ok, (
        f"worst transition-expansion residual {worst:.3e}; closed-form Q_n "
        f"{verdict} the stick-breaking band sums, and the chaos components of "
        f"F = gamma_1^2 {spectral} E[F Q_n] for n <= {model.M}{beta if theta.atoms == 2 else ''}"
    )


def _decomposition_estimate(
    table: Mapping[tuple[int, ...], Fraction], sample: ObservedSample
) -> Fraction:
    """The conditional-variance estimate of an exact label table of one
    arity m by the decomposition route: Var[h | obs] minus
    sum_k c(k, |alpha| + n) E[m_k^2 | obs], with m_k the order-k kernels of
    the mean functional M(D) = sum_t h(t) D^c(t) under the posterior.  The
    library takes the closed form E[h^2 | obs] - E[M(D)^2 | obs]; by the
    isometry the two agree exactly."""
    posterior = sample.posterior()
    K, m = posterior.atoms, len(next(iter(table)))
    mean: dict[tuple[int, ...], Fraction] = {}
    first = second = Fraction(0)
    for labels, value in table.items():
        counts = tuple_counts(labels, K)
        mean[counts] = mean.get(counts, 0) + value
        prob = dirichlet_moment(posterior, counts)
        first, second = first + value * prob, second + value * value * prob
    decomposition = chaos_kernels(SimplexPolynomial(K, mean), posterior, m)
    correction = sum(
        c_iso(k, posterior.total_mass) * statistic_product_mean(h, h, posterior)
        for k, h in enumerate(decomposition.kernels, start=1)
    )
    return second - first * first - correction


def _check_bayes(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    sample = ObservedSample(alpha, (1,) if alpha.atoms >= 1 else ())
    table = {(1,): Fraction(1)}
    estimate = estimate_conditional_variance(table, sample)
    posterior = sample.posterior()
    s = posterior.total_mass
    p = posterior.weight(1) / s
    closed = (s / (s + 1)) * (p - p * p)
    gap = abs(float(estimate - closed))
    uniform = estimate_conditional_variance({(1,): 1}, ObservedSample(measure(1, 1)))
    # an asymmetric order-2 table: the closed form against the decomposition
    pair = {(1, 2): Fraction(1), (2, 2): Fraction(-1, 2), (2, 1): Fraction(1, 3)}
    seen = ObservedSample(alpha, (2, 1, 2))
    split = estimate_conditional_variance(pair, seen) - _decomposition_estimate(pair, seen)
    ok = gap == 0 and uniform == Fraction(1, 6) and split == 0
    return ok, (
        f"m=1 closed-form gap {gap:.3e}; uniform indicator estimate {uniform}; "
        f"m=2 closed form vs decomposition gap {float(split):.3e}"
    )


def mass_kernel_identities(
    alpha: DiscreteBaseMeasure, subset: Sequence[int], n: int, point: Sequence[Scalar]
) -> tuple[Scalar, Scalar, Scalar]:
    """Gaps of the three identities behind the exponential functional's kernels.

    The order-n kernel ``bayes.mass_kernel`` of psi (``beta_bernstein`` for
    the mass D(C) ~ Beta(a, b)) must be degenerate, its multiple integral
    at ``point`` must equal the monic Beta(a, b) polynomial at the mass of
    C (taken from the independent power-basis coefficients of
    ``exact_parts``), and c_iso(n, |alpha|) E[h^2] must equal ||P_n||^2.
    E[h^2] sums over occupation vectors, so no K^n enumeration cap applies.
    Returns (degeneracy residual, integral gap, norm gap), all exact zeros.
    """
    C = tuple(subset)
    a = alpha.mass_of(C)
    b = alpha.total_mass - a
    psi, norm = beta_bernstein(n, a, b)
    h = mass_kernel(alpha.atoms, C, psi)
    y = sum(Fraction(point[x - 1]) for x in C)
    _, monic = exact_parts(n, BetaParams(a, b))
    return (
        degenerate_check(h, alpha),
        multiple_integral(h, [Fraction(p) for p in point])
        - sum(g * y**i for i, g in enumerate(monic)),
        c_iso(n, alpha.total_mass) * statistic_product_mean(h, h, alpha) - norm,
    )


def _check_exponential(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    order = 6 if quick else 12
    result = decompose_exponential(measure(1, 1), (1,), 1.0, order)
    expected = 3.0 * (3.0 - math.e)
    gap = abs(result.decomposition.kernel(1).value((1, 0)) - expected)
    rel = abs(result.residual) / result.variance
    ok = gap <= 1e-10 and rel <= 1e-4
    K = alpha.atoms
    # orders up to 4 (quick) or 8, kept to at most 2000 occupation vectors
    # each: the identities are exact sums over the C(n + K - 1, K - 1)
    # vectors, and that count grows fast with the atom count
    top = 4 if quick else 8
    while top > 1 and math.comb(top + K - 1, K - 1) > 2000:
        top -= 1
    point = tuple(Fraction(i, K * (K + 1) // 2) for i in range(1, K + 1))
    for k in range(1, K):
        for n in range(1, top + 1):
            if any(mass_kernel_identities(alpha, range(1, k + 1), n, point)):
                return False, f"Bernstein kernel identity fails at n={n}, C=1..{k}"
    return ok, (
        f"first-kernel gap {gap:.3e}; relative Parseval residual {rel:.3e}; "
        f"Bernstein kernels exact for n <= {top}, C = 1..k, k < {K}"
    )


def _check_polya(alpha: DiscreteBaseMeasure, quick: bool) -> tuple[bool, str]:
    top = 4 if quick else 6
    K = alpha.atoms
    for n in (1, top):
        total = Fraction(0)
        for labels in itertools.product(range(1, K + 1), repeat=n):
            total += Fraction(polya_joint_prob(alpha, labels))
        if total != 1:
            return False, f"joint law does not sum to 1 at n={n}"
    labels = tuple(1 + (i % K) for i in range(top))
    p1 = polya_joint_prob(alpha, labels)
    p2 = polya_joint_prob(alpha, tuple(reversed(labels)))
    if p1 != p2:
        return False, "joint law is not exchangeable"
    occ_total = sum(
        (Fraction(occupation_prob(alpha, c)) for c in occupation_vectors(top, K)),
        Fraction(0),
    )
    if occ_total != 1:
        return False, "occupation law does not sum to 1"
    # the finite split's backward lattice pass against one completion
    # enumeration per conditional mean
    order = top - 1
    statistic = SymmetricKernel.from_function(
        order, K, lambda c: Fraction(sum(j * j * cj for j, cj in enumerate(c)) - 3, 1 + c[0])
    )
    layers, den, _ = _conditional_layers(statistic, alpha)
    for k, layer in enumerate(layers):
        for mu, num in zip(occupation_vectors(k, K), layer):
            if Fraction(num, den) != cond_exp_statistic_counts(statistic, alpha, mu):
                return False, f"backward conditional mean at {mu} differs from enumeration"
    return True, (
        f"joint and occupation laws sum to 1 exactly up to n={top}; backward "
        f"conditional means equal enumeration at all {sum(map(len, layers))} vectors of N={order}"
    )


def _check_ustat(alpha: DiscreteBaseMeasure, seed: int) -> tuple[bool, str]:
    import numpy as np

    from .ustat import approximation_report, direct_loss, ustat_mse

    K = alpha.atoms
    F = SimplexPolynomial.monomial(K, (2,) + (0,) * (K - 1))
    report = approximation_report(F, alpha, 2, rng=np.random.default_rng(seed))
    # the closed-form losses against the window enumeration of the report's kernels
    losses = (report.oracle_loss_enumerated, report.candidate_loss_enumerated)
    kernels = (report.oracle.kernels(), report.candidate.kernels)
    enumerated = all(direct_loss(k, F, alpha, 2) == x for k, x in zip(kernels, losses))
    ok = losses[0] <= losses[1] and enumerated
    detail = (
        f"oracle loss {float(losses[0]):.6g} <= candidate loss {float(losses[1]):.6g}, "
        f"both {'equal to' if enumerated else 'differing from'} the window enumeration"
    )
    # each Monte Carlo loss within 5 standard errors of its exact loss
    estimates = (report.oracle_loss_mc, report.candidate_loss_mc)
    for label, exact, estimate in zip(("oracle", "candidate"), losses, estimates):
        z = abs(estimate.value - float(exact)) / estimate.stderr
        ok = ok and z <= 5.0
        detail += f"; {label} MC {estimate.value:.6g} ({z:.2f} s.e.)"
    # the closed-form U-statistic rate against the enumerated loss of U_6
    # as an approximation of I_2(h), then its exact window-halving ratio
    h = degenerate_basis(alpha, 2)[0]
    scaled = {2: h.scale(Fraction(1, binom(6, 2)))}
    equal = ustat_mse(h, alpha, 6) == direct_loss(scaled, h.to_polynomial(), alpha, 6)
    halving = ustat_mse(h, alpha, 200) / ustat_mse(h, alpha, 400)
    # the closed-form optimum against the backward-pass split of T = E[F | X_1, X_2]
    T = SymmetricKernel.from_function(2, K, lambda mu: poly_posterior_mean(F, alpha, mu))
    split = hoeffding_decompose(T, alpha)
    loss = variance_functional(F, alpha) - statistic_product_mean(T, T, alpha) + split.mean**2
    same = report.oracle.components == split.components and report.oracle.loss == loss
    ok = ok and equal and 1.5 <= halving <= 3.0 and same
    detail += (
        f"; U-statistic mse {'equals' if equal else 'differs from'} enumeration at window 6"
        f"; window-halving mse ratio {float(halving):.6g} (exact)"
        f"; closed-form optimum {'equals' if same else 'differs from'} the lattice split"
    )
    return ok, detail


def run_verification(
    alpha: DiscreteBaseMeasure | None = None,
    quick: bool = False,
    seed: int = 20260825,
) -> VerificationResult:
    """Run the named invariant checks and collect machine-readable results.

    ``alpha`` defaults to a mildly asymmetric two-atom measure; suites that
    need a specific shape (the Beta specialization, the exponential worked
    example) pin their own measures internally.  All stochastic content is
    seeded.  A one-atom measure is refused (DomainError): it has no
    degenerate kernels, so the isometry and decomposition checks are empty.
    """
    base = alpha if alpha is not None else DiscreteBaseMeasure((Fraction(3, 2), Fraction(1, 2)))
    if base.atoms < 2:
        raise DomainError(f"verification needs at least 2 atoms, got {base.atoms}")
    checks: list[CheckResult] = []
    suite: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("coefficient-recursion-exactness", lambda: _check_recursion_exactness(base, quick)),
        ("coefficient-system-residuals", lambda: _check_system_residuals(base, quick)),
        ("coefficient-limits-vs-oracle", lambda: _check_limits_vs_oracle(base, quick)),
        ("integral-isometry", lambda: _check_isometry(base, quick)),
        ("kernel-reconstruction", lambda: _check_reconstruction(base, quick)),
        ("parseval-variance", lambda: _check_parseval(base, quick)),
        ("beta-orthonormal-suite", lambda: _check_jacobi(base, quick)),
        ("transition-density-suite", lambda: _check_wright_fisher(base, quick)),
        ("conditional-variance-estimator", lambda: _check_bayes(base, quick)),
        ("exponential-functional", lambda: _check_exponential(base, quick)),
        ("urn-law-suite", lambda: _check_polya(base, quick)),
        ("window-approximation", lambda: _check_ustat(base, seed)),
    ]
    for name, runner in suite:
        try:
            passed, detail = runner()
        except DFChaosError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append(CheckResult(name=name, passed=passed, detail=detail))
    return VerificationResult(checks=tuple(checks))
