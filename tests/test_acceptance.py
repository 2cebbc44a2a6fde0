"""End-to-end acceptance checks, one test per shipped criterion.

Each test is named ``test_criterion_NN_<behavior>`` so the terminal summary
hook in ``conftest.py`` can emit one PASS/FAIL line per criterion.  Expected
values come from independent oracles (exact enumeration of the urn law,
closed-form posterior moments, reference special-function values), never
from the code paths under test.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dfchaos.bayes import ObservedSample, decompose_exponential, estimate_conditional_variance
from dfchaos.chaos import (
    chaos_kernels,
    covariance_integrals,
    reconstruct,
    statistic_product_mean,
    variance_from_decomposition,
    variance_functional,
)
from dfchaos.coeffs import c_iso, theta_table
from dfchaos.hoeffding import degenerate_basis, degenerate_check
from dfchaos.jacobi import (
    BetaParams,
    jacobi_inner,
    jacobi_modified,
    jacobi_norm_identity,
    kernel_to_univariate,
    solve_phi_system,
)
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import _dirichlet_blocks, measure
from dfchaos.numeric import hyp1f1, multiplicity, occupation_vectors
from dfchaos.polya import (
    occupation_prob,
    polya_joint_prob,
    predictive,
    sample_polya,
)
from dfchaos.ustat import approximation_report, mc_loss, ustat_mse
from dfchaos.validation import (
    direct_loss,
    q_via_multiple_integrals,
    system_residuals,
    theta_erratum_report,
    theta_limit,
)
from dfchaos.wright_fisher import (
    TransitionModel,
    dirichlet_density,
    kernel_Q,
    multi_indices,
    q_polynomial,
    simplex_expectation,
    transition_density,
)

TOTAL_MASSES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))


# ---------------------------------------------------------------------------
# criterion 1: finite coefficient tables are exact


def test_criterion_01_finite_tables_exact():
    started = time.monotonic()
    for mass in TOTAL_MASSES:
        for N in range(1, 65):
            table = theta_table(N, mass, max_k=1)
            assert table.theta(1, 1) == (mass + 1) / (N + mass)
        for N in range(1, 9):
            residuals = system_residuals(theta_table(N, mass))
            if N > 1:
                assert residuals, f"no residual equations produced at N={N}"
            assert all(value == 0 for value in residuals.values())
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# criterion 2: limits converge to the oracle and the tabulated row is refuted


def test_criterion_02_limits_and_erratum():
    for mass in TOTAL_MASSES:
        limit = theta_limit(1, 1, mass)
        assert limit.value == pytest.approx(float(mass + 1), abs=1e-6)
        assert limit.matches_oracle is True
    report = theta_erratum_report(TOTAL_MASSES)
    assert len(report.entries) == len(TOTAL_MASSES)
    for entry in report.entries:
        by_slot = {(c.order, c.slot): c for c in entry.comparisons}
        assert all(c.recursion_vs_oracle <= 1e-5 for c in entry.comparisons)
        assert by_slot[(1, 1)].published_vs_oracle <= 1e-12
        assert by_slot[(2, 1)].published_vs_oracle > 0.1
        assert by_slot[(2, 2)].published_vs_oracle > 0.1
        assert entry.reconstruction_residual_oracle <= 1e-12
        assert entry.reconstruction_residual_published > 1e-2
        assert "inconsistent" in entry.verdict


# ---------------------------------------------------------------------------
# criterion 3: multiple-integral isometry and the subset-mass variance law


def test_criterion_03_isometry_and_indicator_variance():
    started = time.monotonic()
    cases = (
        measure(1, 1),
        measure("3/2", "1/2"),
        measure(1, 1, 1),
        measure("1/2", 1, "3/2"),
    )
    for alpha in cases:
        bases = {n: degenerate_basis(alpha, n) for n in (1, 2, 3)}
        for n in (1, 2, 3):
            c = c_iso(n, alpha.total_mass)
            for h in bases[n]:
                for f in bases[n]:
                    result = covariance_integrals(h, f, alpha)
                    predicted = c * statistic_product_mean(h, f, alpha)
                    assert abs(float(result.exact - predicted)) <= 1e-10
        for n, m in ((1, 2), (1, 3), (2, 3)):
            cross = covariance_integrals(bases[n][0], bases[m][-1], alpha)
            assert abs(float(cross.exact)) <= 1e-10
        # variance of a subset mass: p(1-p)/(mass+1)
        for subset_size in range(1, alpha.atoms):
            F = SimplexPolynomial(
                alpha.atoms,
                {
                    tuple(
                        1 if j == i else 0 for j in range(alpha.atoms)
                    ): Fraction(1)
                    for i in range(subset_size)
                },
            )
            p = alpha.mass_of(tuple(range(1, subset_size + 1))) / alpha.total_mass
            assert variance_functional(F, alpha) == p * (1 - p) / (alpha.total_mass + 1)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# criterion 4: kernel extraction on all low-degree monomials


def _interior_grid(atoms: int, count: int):
    points = []
    if atoms == 2:
        for i in range(1, count + 1):
            x = Fraction(i, count + 1)
            points.append((x, 1 - x))
    else:
        outer = 10
        inner = count // outer
        for i in range(1, outer + 1):
            x = Fraction(i, outer + 1)
            for j in range(1, inner + 1):
                s = Fraction(j, inner + 1)
                points.append((x, s * (1 - x), (1 - s) * (1 - x)))
    return points[:count]


def test_criterion_04_extraction_reconstruction_and_example():
    alphas = {
        2: (measure(1, 1), measure("3/2", "1/2"), measure(2, 3)),
        3: (measure(1, 1, 1), measure("1/2", 1, "3/2"), measure(2, 1, 1)),
    }
    for K, measures_for_K in alphas.items():
        grid = _interior_grid(K, 50)
        assert len(grid) == 50
        for alpha in measures_for_K:
            for degree in range(1, 5):
                for exponents in occupation_vectors(degree, K):
                    F = SimplexPolynomial.monomial(K, exponents)
                    decomposition = chaos_kernels(F, alpha, degree)
                    for n in range(1, degree + 1):
                        kernel = decomposition.kernel(n)
                        if not kernel.is_zero():
                            assert float(degenerate_check(kernel, alpha)) <= 1e-10
                    for point in grid:
                        gap = reconstruct(decomposition, point) - F.evaluate(point)
                        assert abs(float(gap)) <= 1e-9
    # the worked example: mean, kernels and the Parseval split of eta^2
    uniform = measure(1, 1)
    eta_sq = SimplexPolynomial.monomial(2, (2, 0))
    decomposition = chaos_kernels(eta_sq, uniform, 2)
    assert decomposition.mean == Fraction(1, 3)
    h1, h2 = decomposition.kernel(1), decomposition.kernel(2)
    assert (h1.value((1, 0)), h1.value((0, 1))) == (Fraction(1, 2), Fraction(-1, 2))
    assert (h2.value((2, 0)), h2.value((1, 1)), h2.value((0, 2))) == (
        Fraction(1, 6),
        Fraction(-1, 3),
        Fraction(1, 6),
    )
    assert Fraction(1, 3) * statistic_product_mean(h1, h1, uniform) == Fraction(1, 12)
    assert Fraction(1, 10) * statistic_product_mean(h2, h2, uniform) == Fraction(1, 180)
    assert variance_from_decomposition(decomposition) == Fraction(4, 45)
    assert variance_functional(eta_sq, uniform) == Fraction(4, 45)


# ---------------------------------------------------------------------------
# criterion 5: two-atom specialization


def test_criterion_05_beta_polynomial_suite():
    param_sets = (
        BetaParams(1, 1),
        BetaParams(Fraction(1, 2), Fraction(1, 2)),
        BetaParams(3, 2),
    )
    for params in param_sets:
        for n in range(0, 9):
            for m in range(0, 9):
                value = float(jacobi_inner(n, m, params))
                assert abs(value - (1.0 if n == m else 0.0)) <= 1e-10
        base = params.as_measure()
        for n in range(1, 7):
            phi = solve_phi_system(n, params)
            assert float(degenerate_check(phi, base)) <= 1e-12
            induced = kernel_to_univariate(phi)
            target = jacobi_modified(n, params)
            for a in range(n + 1):
                assert abs(float(induced.coefficient(a)) - float(target.coefficient(a))) <= 1e-10 * max(
                    1.0, abs(float(target.coefficient(a)))
                )
            lhs, rhs = jacobi_norm_identity(n, params)
            assert abs(float(lhs) - float(rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 6: conditional-variance estimation


def test_criterion_06_conditional_variance_closed_form():
    table = {(1,): Fraction(1)}
    cases = (
        (measure(1, 1), ()),
        (measure(1, 1), (1,)),
        (measure(1, 1), (1, 2, 2, 1)),
        (measure("3/2", "1/2"), (2,)),
        (measure(2, 1, 1), (3, 1, 1)),
    )
    for alpha, labels in cases:
        sample = ObservedSample(alpha, labels)
        posterior = sample.posterior()
        s = posterior.total_mass
        p = posterior.weight(1) / s
        assert estimate_conditional_variance(table, sample) == (s / (s + 1)) * p * (1 - p)
    assert estimate_conditional_variance(table, ObservedSample(measure(1, 1))) == Fraction(1, 6)


# ---------------------------------------------------------------------------
# criterion 7: the exponential functional


def test_criterion_07_exponential_functional():
    result = decompose_exponential(measure(1, 1), (1,), 1, 20)
    assert result.mean == pytest.approx(hyp1f1(1, 2, 1.0), abs=1e-12)
    assert result.mean == pytest.approx(math.e - 1.0, abs=1e-12)
    # first kernel: the correct closed form is 3(3-e) (ledgered erratum of a
    # misprinted 2(3-e)); cross-checked against the projection definition
    h1 = result.decomposition.kernel(1)
    assert h1.value((1, 0)) == pytest.approx(3.0 * (3.0 - math.e), abs=1e-10)
    assert abs(result.residual) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 8: transition-density expansion


def test_criterion_08_transition_density_suite():
    started = time.monotonic()
    theta3 = measure(2, 1, 1)
    model3 = TransitionModel(theta3, 3)
    probe = (Fraction(1, 4), Fraction(1, 3))
    for exponents in multi_indices(2, 3):
        R = SimplexPolynomial.monomial(2, exponents)
        acc = Fraction(0)
        for n in range(0, sum(exponents) + 1):
            acc += simplex_expectation(theta3, q_polynomial(model3, n, probe).mul(R))
        assert abs(float(acc - R.evaluate(probe))) <= 1e-8
    other = (Fraction(2, 5), Fraction(1, 5))
    for n in (1, 2, 3):
        gap = kernel_Q(model3, n, probe, other) - q_via_multiple_integrals(
            model3, n, probe, other
        )
        assert abs(float(gap)) <= 1e-8

    # two-atom bands factor through the orthonormal Beta polynomials
    theta2 = measure(2, 1)
    model2 = TransitionModel(theta2, 4)
    params = BetaParams(2, 1)
    for n in (1, 2, 3, 4):
        J = jacobi_modified(n, params)
        for x, y in (
            (Fraction(3, 10), Fraction(3, 5)),
            (Fraction(1, 8), Fraction(5, 7)),
        ):
            got = float(kernel_Q(model2, n, (x,), (y,)))
            assert got == pytest.approx(J(float(x)) * J(float(y)), rel=1e-8, abs=1e-8)

    # relaxation to stationarity
    relaxed = transition_density(model2, 60.0, (Fraction(1, 3),), (Fraction(2, 3),))
    assert relaxed.value == pytest.approx(
        dirichlet_density(theta2, (Fraction(1, 3),)), abs=1e-10
    )

    # normalization within the truncation tail for a polynomial weight
    sym = TransitionModel(measure(2, 2), 8)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    for t in (0.25, 1.0):
        total, tail = 0.0, 0.0
        for x, w in zip(nodes, weights):
            out = transition_density(
                sym, t, (Fraction(x).limit_denominator(10**9),), (Fraction(2, 5),)
            )
            total += w * out.value
            tail = max(tail, out.tail_bound)
        assert abs(total - 1.0) <= tail + 1e-6
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# criterion 9: window-halving of the U-statistic mean-square error


def mc_squared_distances(kernel, alpha, windows, reps, rng):
    """(reps, len(windows)) draws of (U_N - I_n(h)(d))^2, the Monte Carlo
    reference of ``ustat_mse``.

    Coupled design: each draw d ~ Dirichlet(alpha) (in the blocks of
    ``measures._dirichlet_blocks``) is followed by conditionally i.i.d.
    labels shared across the windows, larger windows extending smaller
    ones, and every U-statistic is compared with the integral of its kernel
    at the same d.  The U-statistic reads the window's counts: the kernel's
    value at each sub-occupation mu times prod_j C(counts_j, mu_j) ways.
    """
    out = np.empty((reps, len(windows)))
    start = 0
    for d in _dirichlet_blocks(alpha, reps, rng):
        limit = np.zeros(len(d))
        for mu, value in kernel.items():
            limit += float(value) * multiplicity(mu) * np.prod(d ** np.array(mu), axis=1)
        counts, filled = np.zeros(d.shape), 0
        for i, window in enumerate(windows):
            counts, filled = counts + rng.multinomial(window - filled, d), window
            u_stat = np.zeros(len(d))
            for mu, value in kernel.items():
                ways = np.ones(len(d))
                for j, m in enumerate(mu):
                    for t in range(m):
                        ways *= counts[:, j] - t
                    ways /= math.factorial(m)
                u_stat += float(value) * ways
            out[start : start + len(d), i] = (u_stat / math.comb(window, kernel.order) - limit) ** 2
        start += len(d)
    return out


def test_criterion_09_mse_halves_with_window():
    started = time.monotonic()
    alpha = measure(1, 1)
    h = degenerate_basis(alpha, 2)[0]
    exact = [ustat_mse(h, alpha, window) for window in (200, 400)]
    assert exact[0] / exact[1] == Fraction(160398, 79799)
    assert 1.5 <= exact[0] / exact[1] <= 3.0
    # the Monte Carlo reference: each window's mean within 5 standard errors
    reps = 10_000
    draws = mc_squared_distances(h, alpha, [200, 400], reps, np.random.default_rng(20260825))
    means = draws.mean(axis=0)
    for mean, stderr, value in zip(means, draws.std(axis=0, ddof=1) / math.sqrt(reps), exact):
        assert abs(mean - float(value)) <= 5 * stderr
    assert 1.5 <= means[0] / means[1] <= 3.0
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# criterion 10: approximation report for the squared subset mass


def test_criterion_10_approximation_report():
    alpha = measure(1, 1)
    F = SimplexPolynomial.monomial(2, (2, 0))
    frozen = {
        1: (Fraction(11, 180), Fraction(31, 180)),
        2: (Fraction(7, 150), Fraction(2, 15)),
    }
    for window, (oracle_loss, candidate_loss) in frozen.items():
        rng = np.random.default_rng(1000 + window)
        report = approximation_report(F, alpha, window, reps=20_000, rng=rng)
        assert report.oracle_loss_enumerated == oracle_loss
        assert report.candidate_loss_enumerated == candidate_loss
        assert report.oracle_loss_enumerated <= report.candidate_loss_enumerated
        # Monte Carlo confirmations agree with enumeration
        assert report.oracle_loss_mc.value == pytest.approx(
            float(oracle_loss), abs=4 * report.oracle_loss_mc.stderr
        )
        assert report.candidate_loss_mc.value == pytest.approx(
            float(candidate_loss), abs=4 * report.candidate_loss_mc.stderr
        )
        # the closed forms fail to match enumeration; both readings recorded
        assert len(report.discrepancies) == 2
        # projection optimality against a perturbed competitor
        perturbed = {
            order: kernel.add(
                SymmetricKernel.from_function(
                    kernel.order, 2, lambda c: Fraction(1, 97)
                )
            )
            for order, kernel in report.oracle.kernels().items()
        }
        assert (
            direct_loss(perturbed, F, alpha, window)
            > report.oracle_loss_enumerated - Fraction(1, 10**12)
        )


# ---------------------------------------------------------------------------
# criterion 11: urn sampling laws


def test_criterion_11_urn_laws_and_sampler():
    alphas = (measure(1, 1), measure("3/2", "1/2"), measure(1, 1, 1), measure(2, 1, "1/2"))
    for alpha in alphas:
        K = alpha.atoms
        for n in (1, 2, 3) if K == 3 else (1, 2, 4, 6):
            total = Fraction(0)
            for labels in itertools.product(range(1, K + 1), repeat=n):
                total += Fraction(polya_joint_prob(alpha, labels))
            assert total == 1
            occ_total = sum(
                (Fraction(occupation_prob(alpha, c)) for c in occupation_vectors(n, K)),
                Fraction(0),
            )
            assert occ_total == 1
        labels = tuple(1 + (i % K) for i in range(5))
        reference = polya_joint_prob(alpha, labels)
        for perm in itertools.islice(itertools.permutations(labels), 24):
            assert polya_joint_prob(alpha, perm) == reference
        history = labels[:3]
        base = polya_joint_prob(alpha, history)
        nxt = predictive(alpha, history)
        for atom in range(1, K + 1):
            assert polya_joint_prob(alpha, history + (atom,)) == base * nxt[atom - 1]

    # sampler moments within four standard errors at 1e5 draws
    alpha = measure(2, 1)
    rng = np.random.default_rng(271828)
    n, reps = 4, 100_000
    counts = np.array(
        [sample_polya(alpha, n, rng).labels.count(1) for _ in range(reps)]
    )
    mean_exact = float(
        sum(occupation_prob(alpha, c) * c[0] for c in occupation_vectors(n, 2))
    )
    second_exact = float(
        sum(occupation_prob(alpha, c) * c[0] ** 2 for c in occupation_vectors(n, 2))
    )
    sd = math.sqrt(second_exact - mean_exact**2)
    assert abs(counts.mean() - mean_exact) < 4 * sd / math.sqrt(reps)
