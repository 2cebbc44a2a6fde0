"""Property tests: the closed forms against their oracles.

Masses and mutation weights are drawn as p/q with 1 <= p, q <= 12; the
masses named in the coefficient docstrings are pinned as explicit examples.
The kernel polynomials Q_n of Griffiths' closed form are compared with the
Gram-Schmidt oracle (``TransitionModel.band``) at rational interior points.
The batched Monte Carlo loss is held to the enumerated loss it confirms.
The Bernstein kernels of the exponential functional are held to their
three exact identities.  The moment ladder (Dirichlet moments, posterior
means, kernel assembly and the exact Gram-Schmidt basis on integers) is
held to Fraction references built the way the code used to build them,
and its float route to the exact value at the float's rational image.
The finite split (components, projections, degeneracy, reconstruction),
the degeneracy residual and window subset sums are held to per-term
Fraction references and brute force, and the chaos kernels to exact
reconstruction and Parseval.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfchaos.chaos import (
    chaos_kernels,
    poly_posterior_mean,
    reconstruct,
    variance_from_decomposition,
    variance_functional,
)
from dfchaos.coeffs import (
    limit_coefficient,
    limit_coefficients,
    system_residuals,
    tabulated_limit_values,
    theta_table,
    validate_limit_values,
)
from dfchaos.errors import CoefficientValidationError, DomainError
from dfchaos.hoeffding import degenerate_check, hoeffding_decompose
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import DiscreteBaseMeasure, dirichlet_moment, with_counts
from dfchaos.numeric import occupation_vectors, rising_factorial, sub_occupations, tuple_counts
from dfchaos.polya import cond_exp_statistic_counts, polya_joint_prob
from dfchaos.ustat import direct_loss, mc_loss, scaled_kernel_candidate, statistic_from_kernels
from dfchaos.validation import mass_kernel_identities, oracle_limit_row
from dfchaos.wright_fisher import (
    TransitionModel,
    _orthogonal_basis,
    kernel_Q,
    multi_indices,
    q_polynomial,
    transition_density,
)

MASSES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))

# bounded example counts keep the whole file to a few seconds
BOUNDED = settings(max_examples=10, deadline=None, database=None)


@BOUNDED
@given(mass=MASSES, N=st.integers(1, 16))
@example(mass=Fraction(1, 2), N=16)
@example(mass=Fraction(1), N=16)
@example(mass=Fraction(2), N=16)
@example(mass=Fraction(5), N=16)
@example(mass=Fraction(7, 3), N=16)
@example(mass=Fraction(1, 10), N=16)
def test_theta_table_solves_the_defining_system(mass, N):
    residuals = system_residuals(theta_table(N, mass))
    assert all(value == 0 for value in residuals.values())


@BOUNDED
@given(mass=MASSES, n=st.integers(1, 8))
@example(mass=Fraction(1, 2), n=8)
@example(mass=Fraction(1), n=8)
@example(mass=Fraction(2), n=8)
@example(mass=Fraction(5), n=8)
@example(mass=Fraction(7, 3), n=8)
@example(mass=Fraction(1, 10), n=8)
def test_closed_form_limits_equal_the_oracle(mass, n):
    closed = tuple(limit_coefficient(n, k, mass) for k in range(1, n + 1))
    assert closed == oracle_limit_row(mass, n)


@settings(max_examples=25, deadline=None, database=None)
@given(mass=MASSES)
def test_tabulated_row_is_rejected(mass):
    theta = limit_coefficients(mass, 2)
    validate_limit_values(theta, mass, 2)
    published = tabulated_limit_values(mass)
    theta[(2, 1)] = published[(2, 1)]
    theta[(2, 2)] = published[(2, 2)]
    with pytest.raises(CoefficientValidationError):
        validate_limit_values(theta, mass, 2)


# highest truncation M drawn per atom count K; K = 4, M = 3 is also pinned
# once (``..._at_four_atoms``)
MAX_M = {2: 8, 3: 4, 4: 3}


@st.composite
def points(draw, atoms):
    """A rational interior point of the simplex, as K - 1 free coordinates."""
    parts = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    return tuple(Fraction(a, sum(parts)) for a in parts[:-1])


@st.composite
def models(draw):
    atoms = draw(st.integers(2, 4))
    weights = tuple(draw(MASSES) for _ in range(atoms))
    return TransitionModel(weights, draw(st.integers(0, MAX_M[atoms])))


def oracle_q(model, n, g, gp):
    return sum(poly.evaluate(g) * poly.evaluate(gp) / norm_sq for poly, norm_sq in model.band(n))


def assert_kernels_match_the_oracle(model, g, gp):
    for n in range(model.M + 1):
        assert kernel_Q(model, n, g, gp) == oracle_q(model, n, g, gp)
    # the diagonal of the first neglected band, which feeds the tail bound
    top = model.M + 1
    for x in (g, gp):
        assert model._tail_diagonal(x) == oracle_q(model, top, x, x)


@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_closed_form_kernels_equal_the_oracle(data):
    model = data.draw(models())
    atoms = model.theta.atoms
    assert_kernels_match_the_oracle(model, data.draw(points(atoms)), data.draw(points(atoms)))


def test_closed_form_kernels_equal_the_oracle_at_four_atoms():
    model = TransitionModel((Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)), 3)
    g = (Fraction(1, 5), Fraction(1, 10), Fraction(3, 10))
    assert_kernels_match_the_oracle(model, g, (Fraction(1, 7),) * 3)


@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_closed_form_q_polynomial_equals_the_oracle(data):
    model = data.draw(models())
    g = data.draw(points(model.theta.atoms))
    n = data.draw(st.integers(0, model.M))
    oracle = SimplexPolynomial.constant(model.dim, 0)
    for poly, norm_sq in model.band(n):
        oracle = oracle.add(poly.scale(poly.evaluate(g) / norm_sq))
    assert q_polynomial(model, n, g) == oracle


def test_exact_density_builds_no_gram_schmidt_basis():
    before = _orthogonal_basis.cache_info()
    model = TransitionModel((Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)), 8)
    g = (Fraction(1, 5), Fraction(1, 10), Fraction(3, 10))
    result = transition_density(model, Fraction(1, 2), g, (Fraction(1, 7),) * 3)
    assert result.tail_bound > 0
    after = _orthogonal_basis.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@st.composite
def polynomials(draw, atoms):
    """Up to three terms of total degree <= 3 with small rational coefficients."""
    exponents = st.integers(0, 3).flatmap(
        lambda degree: st.sampled_from(list(occupation_vectors(degree, atoms)))
    )
    coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms = draw(st.lists(st.tuples(exponents, coefficients), min_size=1, max_size=3))
    return SimplexPolynomial(atoms, dict(terms))


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mc_loss_confirms_the_enumerated_loss(data):
    weights = data.draw(st.lists(MASSES, min_size=2, max_size=4))
    alpha = DiscreteBaseMeasure(tuple(weights))
    window = data.draw(st.integers(1, 4))
    F = data.draw(polynomials(len(weights)))
    kernels = scaled_kernel_candidate(F, alpha, window).kernels
    exact = float(direct_loss(kernels, F, alpha, window))
    estimate = mc_loss(kernels, F, alpha, window, 4000, np.random.default_rng(20240))
    # 1e-12 absorbs float rounding where F is constant on the simplex
    # (say d_1 + d_2 on two atoms): the exact loss is 0, the draws are not
    assert abs(estimate.value - exact) <= 5 * estimate.stderr + 1e-12


@BOUNDED
@given(data=st.data())
@example(data=None)
def test_mass_kernels_are_exact(data):
    # degenerate, integrate to the monic Beta(a, b) polynomial at the mass
    # of C, and carry its squared norm through the isometry
    if data is None:
        alpha, subset, n = DiscreteBaseMeasure((Fraction(1, 4), 2, Fraction(3, 7), 5)), (1, 3), 6
        point = (Fraction(1, 10), Fraction(2, 5), Fraction(3, 10), Fraction(1, 5))
    else:
        K = data.draw(st.integers(2, 4))
        alpha = DiscreteBaseMeasure(tuple(data.draw(st.lists(MASSES, min_size=K, max_size=K))))
        subset = sorted(data.draw(st.sets(st.integers(1, K), min_size=1, max_size=K - 1)))
        n = data.draw(st.integers(1, 6))
        raw = data.draw(st.lists(st.integers(1, 12), min_size=K, max_size=K))
        point = tuple(Fraction(r, sum(raw)) for r in raw)
    assert mass_kernel_identities(alpha, subset, n, point) == (0, 0, 0)


# ---------------------------------------------------------------------------
# the moment ladder


@st.composite
def rational_measures(draw, max_atoms=4):
    atoms = draw(st.integers(2, max_atoms))
    return DiscreteBaseMeasure(tuple(draw(st.lists(MASSES, min_size=atoms, max_size=atoms))))


def labels_of(counts):
    return [atom for atom, c in enumerate(counts, start=1) for _ in range(c)]


def reference_posterior_mean(F, alpha, counts):
    """E[F | counts] from the posterior measure and Fraction rising factorials."""
    posterior = with_counts(alpha, counts)
    total = Fraction(0)
    for exps, coeff in F.terms.items():
        moment = Fraction(1)
        for w, e in zip(posterior.weights, exps):
            moment *= rising_factorial(w, e)
        total += coeff * moment / rising_factorial(sum(posterior.weights), sum(exps))
    return total


def reference_kernels(F, alpha, max_order):
    """The kernel assembly in Fractions, one posterior mean per sub-occupation."""
    mass = sum(alpha.weights)
    mean = reference_posterior_mean(F, alpha, (0,) * alpha.atoms)
    kernels = []
    for n in range(1, max_order + 1):
        values = {}
        for a_counts in occupation_vectors(n, alpha.atoms):
            acc = Fraction(0)
            for k in range(1, n + 1):
                inner = Fraction(0)
                for mu, ways in sub_occupations(a_counts, k):
                    inner += ways * (reference_posterior_mean(F, alpha, mu) - mean)
                acc += limit_coefficient(n, k, mass) * inner
            values[a_counts] = acc
        kernels.append(SymmetricKernel(n, alpha.atoms, values))
    return mean, kernels


@BOUNDED
@given(alpha=rational_measures(), size=st.integers(0, 6), data=st.data())
def test_ladder_moments_equal_the_urn_law(alpha, size, data):
    counts = data.draw(st.sampled_from(list(occupation_vectors(size, alpha.atoms))))
    moment = dirichlet_moment(alpha, counts)
    assert type(moment) is Fraction
    assert moment == polya_joint_prob(alpha, labels_of(counts))


@BOUNDED
@given(alpha=rational_measures(), data=st.data())
def test_posterior_means_equal_the_posterior_measure(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    for size in range(4):
        for counts in occupation_vectors(size, alpha.atoms):
            assert poly_posterior_mean(F, alpha, counts) == reference_posterior_mean(F, alpha, counts)
    with pytest.raises(DomainError):
        poly_posterior_mean(F, alpha, (1,) * (alpha.atoms + 1))
    with pytest.raises(DomainError):
        poly_posterior_mean(F, alpha, (-1,) + (1,) * (alpha.atoms - 1))


@BOUNDED
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_integer_kernel_assembly_equals_the_fraction_assembly(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    max_order = max(F.degree, 1)
    decomposition = chaos_kernels(F, alpha, max_order)
    mean, kernels = reference_kernels(F, alpha, max_order)
    assert decomposition.mean == mean
    assert decomposition.kernels == tuple(kernels)
    assert all(type(v) is Fraction for h in decomposition.kernels for v in h.values.values())


@BOUNDED
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_completion_weights_equal_the_posterior_urn(alpha, data):
    order = data.draw(st.integers(1, 3))
    domain = list(occupation_vectors(order, alpha.atoms))
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    values = data.draw(st.lists(fractions, min_size=len(domain), max_size=len(domain)))
    statistic = SymmetricKernel(order, alpha.atoms, dict(zip(domain, values)))
    for fixed in range(order + 1):
        for counts in occupation_vectors(fixed, alpha.atoms):
            # every ordering of each completion, under the posterior urn
            posterior = with_counts(alpha, counts)
            expected = Fraction(0)
            for completion in occupation_vectors(order - fixed, alpha.atoms):
                orderings = set(itertools.permutations(labels_of(completion)))
                merged = tuple(f + c for f, c in zip(counts, completion))
                expected += sum(polya_joint_prob(posterior, o) for o in orderings) * statistic.value(merged)
            assert cond_exp_statistic_counts(statistic, alpha, counts) == expected


def product_gram_schmidt(weights, max_degree):
    """Gram-Schmidt as the basis was first built: each projection and norm
    is the expectation of a polynomial product."""
    theta = DiscreteBaseMeasure(weights)
    dim = len(weights) - 1

    def expectation(poly):
        return sum(
            (c * dirichlet_moment(theta, e + (0,)) for e, c in poly.terms.items()), Fraction(0)
        )

    basis, norms = [], []
    for index in multi_indices(dim, max_degree):
        candidate = SimplexPolynomial.monomial(dim, index)
        for prior, norm_sq in zip(basis, norms):
            cross = expectation(candidate.mul(prior))
            if cross != 0:
                candidate = candidate.sub(prior.scale(cross / norm_sq))
        basis.append(candidate)
        norms.append(expectation(candidate.mul(candidate)))
    return tuple(basis), tuple(norms)


@settings(max_examples=6, deadline=None, database=None)
@given(alpha=rational_measures(), data=st.data())
def test_moment_gram_schmidt_equals_the_product_loop(alpha, data):
    max_degree = data.draw(st.integers(1, {2: 5, 3: 3, 4: 2}[alpha.atoms]))
    _, basis, norms = _orthogonal_basis(alpha.weights, max_degree)
    assert (basis, norms) == product_gram_schmidt(alpha.weights, max_degree)


def assert_close(value, exact, rel=1e-13):
    assert abs(value - exact) <= rel * max(abs(exact), 1e-300)


@BOUNDED
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_float_weights_agree_with_their_rational_image(alpha, data):
    # a float measure and the exact measure of its floats' rational values
    floats = DiscreteBaseMeasure(tuple(float(w) for w in alpha.weights))
    image = DiscreteBaseMeasure(tuple(Fraction(w) for w in floats.weights))
    F = data.draw(polynomials(alpha.atoms))
    for size in range(4):
        for counts in occupation_vectors(size, alpha.atoms):
            assert_close(dirichlet_moment(floats, counts), dirichlet_moment(image, counts))
            assert_close(poly_posterior_mean(F, floats, counts), poly_posterior_mean(F, image, counts))
    # a kernel value is a cancelling sum, so it is held to 1e-13 of the sum
    # of its terms' magnitudes: sum_k |theta(n,k)| sum_mu ways (|E[F|mu]| + |E F|)
    max_order = max(F.degree, 1)
    approx = chaos_kernels(F, floats, max_order)
    exact = chaos_kernels(F, image, max_order)
    assert_close(approx.mean, exact.mean)
    mass = sum(image.weights)
    for n, (h_float, h_exact) in enumerate(zip(approx.kernels, exact.kernels), start=1):
        for counts, value in h_exact.items():
            size = sum(
                abs(limit_coefficient(n, k, mass))
                * sum(ways * (abs(poly_posterior_mean(F, image, mu)) + abs(exact.mean))
                      for mu, ways in sub_occupations(counts, k))
                for k in range(1, n + 1)
            )
            assert abs(h_float.value(counts) - value) <= 1e-13 * size


def test_float_inputs_on_exact_weights_of_high_degree():
    # weights over q = 10^7 and degree 40: the ladder's integer numerators
    # pass the float range, so float coefficients, statistic values and
    # theta must meet rounded moments, not those integers
    alpha = DiscreteBaseMeasure((Fraction("0.1234567"), Fraction("0.7654321")))
    exact = SimplexPolynomial(2, {(40 - i, i): Fraction(3 + i, 7) for i in range(41)})
    floats = SimplexPolynomial(2, {e: float(c) for e, c in exact.terms.items()})
    image = SimplexPolynomial(2, {e: Fraction(c) for e, c in floats.terms.items()})
    for counts in [(0, 0), (3, 1)]:
        assert_close(poly_posterior_mean(floats, alpha, counts), poly_posterior_mean(image, alpha, counts))
    domain = list(occupation_vectors(40, 2))
    statistic = SymmetricKernel(40, 2, {mu: 0.5 + 0.01 * mu[0] for mu in domain})
    statistic_image = SymmetricKernel(40, 2, {mu: Fraction(v) for mu, v in statistic.items()})
    for fixed in [(0, 0), (2, 1)]:
        assert_close(
            cond_exp_statistic_counts(statistic, alpha, fixed, cap=2**41),
            cond_exp_statistic_counts(statistic_image, alpha, fixed, cap=2**41),
        )
    mass = sum(alpha.weights)
    theta = {(n, k): float(limit_coefficient(n, k, mass)) for n in range(1, 4) for k in range(1, n + 1)}
    theta_image = {key: Fraction(v) for key, v in theta.items()}
    approx = chaos_kernels(exact, alpha, 3, theta=theta, validate=False)
    reference = chaos_kernels(exact, alpha, 3, theta=theta_image, validate=False)
    for h_float, h_exact in zip(approx.kernels, reference.kernels):
        scale = max(abs(v) for _, v in h_exact.items())
        for counts, value in h_exact.items():
            assert abs(h_float.value(counts) - value) <= 1e-12 * scale


def test_a_grown_ladder_leaves_equality_hash_and_json_alone():
    first = DiscreteBaseMeasure((Fraction(1, 2), Fraction(3, 4), Fraction(2)))
    second = DiscreteBaseMeasure((Fraction(1, 2), Fraction(3, 4), Fraction(2)))
    dirichlet_moment(first, (3, 1, 2))
    poly_posterior_mean(SimplexPolynomial.monomial(3, (1, 1, 0)), first, (2, 0, 1))
    assert first == second
    assert hash(first) == hash(second)
    assert first.to_json() == second.to_json()
    assert {first: 1}[second] == 1


# ---------------------------------------------------------------------------
# the finite split and window statistics: one subset-sum assembly

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
SPLIT_EXAMPLES = settings(max_examples=25, deadline=None, database=None)


@st.composite
def statistics(draw, atoms, min_order=1, max_order=4):
    order = draw(st.integers(min_order, max_order))
    domain = list(occupation_vectors(order, atoms))
    values = draw(st.lists(FRACTIONS, min_size=len(domain), max_size=len(domain)))
    return SymmetricKernel(order, atoms, dict(zip(domain, values)))


def reference_split(statistic, alpha):
    """The finite split in per-term Fractions, as it was first assembled:
    one conditional mean per sub-occupation, and each component lifted to
    its projection by a loop of its own."""
    N, atoms = statistic.order, statistic.atoms
    table = theta_table(N, sum(alpha.weights))
    mean = cond_exp_statistic_counts(statistic, alpha, (0,) * atoms)
    components, projections = [], []
    for s in range(1, N + 1):
        phi = {}
        for a_counts in occupation_vectors(s, atoms):
            acc = Fraction(0)
            for k in range(1, s + 1):
                inner = Fraction(0)
                for mu, ways in sub_occupations(a_counts, k):
                    inner += ways * (cond_exp_statistic_counts(statistic, alpha, mu) - mean)
                acc += table.theta_star(s, k) * inner
            phi[a_counts] = acc
        pi = {
            m_counts: sum((ways * phi[a] for a, ways in sub_occupations(m_counts, s)), Fraction(0))
            for m_counts in occupation_vectors(N, atoms)
        }
        components.append(SymmetricKernel(s, atoms, phi))
        projections.append(SymmetricKernel(N, atoms, pi))
    return mean, tuple(components), tuple(projections)


def reference_degenerate_check(h, alpha):
    """max over histories of |sum_a h(x, a) P(a | x)|, term by term."""
    denom = sum(alpha.weights) + h.order - 1
    worst = Fraction(0)
    for history in occupation_vectors(h.order - 1, alpha.atoms):
        acc = Fraction(0)
        for atom in range(alpha.atoms):
            bumped = tuple(c + (j == atom) for j, c in enumerate(history))
            acc += (alpha.weights[atom] + history[atom]) / denom * h.value(bumped)
        worst = max(worst, abs(acc))
    return worst


@SPLIT_EXAMPLES
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_finite_split_equals_the_fraction_assembly(alpha, data):
    statistic = data.draw(statistics(alpha.atoms))
    split = hoeffding_decompose(statistic, alpha)
    assert (split.mean, split.components, split.projections) == reference_split(statistic, alpha)
    assert all(degenerate_check(phi, alpha) == 0 for phi in split.components)
    assert split.reconstruct() == statistic


@SPLIT_EXAMPLES
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_degenerate_check_equals_the_per_term_residual(alpha, data):
    h = data.draw(statistics(alpha.atoms))
    residual = degenerate_check(h, alpha)
    assert type(residual) is Fraction
    assert residual == reference_degenerate_check(h, alpha)


@SPLIT_EXAMPLES
@given(atoms=st.integers(2, 3), data=st.data())
def test_statistic_from_kernels_is_the_brute_force_subset_sum(atoms, data):
    orders = data.draw(st.sets(st.integers(1, 3), min_size=1))
    kernels = {n: data.draw(statistics(atoms, n, n)) for n in orders}
    window = data.draw(st.integers(max(orders), 5))
    expected = {
        counts: sum(
            (g.value(tuple_counts(subset, atoms))
             for n, g in kernels.items()
             for subset in itertools.combinations(labels_of(counts), n)),
            Fraction(0),
        )
        for counts in occupation_vectors(window, atoms)
    }
    assert statistic_from_kernels(kernels, window, atoms) == SymmetricKernel(window, atoms, expected)


@SPLIT_EXAMPLES
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_chaos_kernels_reconstruct_and_obey_parseval(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    decomposition = chaos_kernels(F, alpha, max(F.degree, 1))
    parts = data.draw(st.lists(st.integers(1, 9), min_size=alpha.atoms, max_size=alpha.atoms))
    point = tuple(Fraction(p, sum(parts)) for p in parts)
    assert reconstruct(decomposition, point) == F.evaluate(point)
    assert variance_from_decomposition(decomposition) == variance_functional(F, alpha)
    assert all(degenerate_check(h, alpha) == 0 for h in decomposition.kernels)
