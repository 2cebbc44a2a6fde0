"""Property tests: the closed forms against their oracles.

Masses and mutation weights are drawn as p/q with 1 <= p, q <= 12; the
masses named in the coefficient docstrings are pinned as explicit examples.
The closed-form finite tables are held to the term-by-term ``psi`` sum of
their diagonal, the cumulative sum that once built their closing row, and
the defining system.
The kernel polynomials Q_n of Griffiths' closed form are compared with the
stick-breaking bands (``TransitionModel.band``) at rational interior points,
both with the Gram-Schmidt oracle ``product_gram_schmidt``, and Q_n with the
chaos kernels through the spectral identity I_n(h_n)(x) = E[F(Y) Q_n(x, Y)].
The batched Monte Carlo loss is held to the enumerated loss it confirms,
and the closed-form U-statistic rate and the report's closed-form losses
to urn enumeration.
The Bernstein kernels of the exponential functional are held to their
three exact identities.  The moment ladder (Dirichlet moments, posterior
means and kernel assembly) is held to Fraction references built the way
the code used to build them, and a float measure to the exact measure of
its floats' rational images.
The finite split (components, projections, degeneracy, reconstruction),
the degeneracy residual and window subset sums are held to per-term
Fraction references and brute force, and the chaos kernels to exact
reconstruction and Parseval.  The split's backward lattice pass and the
martingale tables it feeds are held to one completion enumeration per
conditional mean, the projection oracle to the split of its window
statistic, and a float statistic to its exact image rounded once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfchaos.chaos import (
    _window_split,
    chaos_kernels,
    expectation_of_integral,
    martingale_decomposition,
    multiple_integral,
    poly_posterior_mean,
    reconstruct,
    statistic_product_mean,
    variance_from_decomposition,
    variance_functional,
)
from dfchaos.coeffs import (
    c_iso,
    c_overlap,
    limit_coefficient,
    theta_table,
)
from dfchaos.errors import DomainError
from dfchaos.hoeffding import (
    _conditional_layers,
    degenerate_basis,
    degenerate_check,
    hoeffding_decompose,
)
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import DiscreteBaseMeasure, dirichlet_moment, with_counts
from dfchaos.numeric import binom, occupation_vectors, sub_occupations, tuple_counts
from dfchaos.polya import occupation_prob, polya_joint_prob
from dfchaos.ustat import (
    approximation_report,
    best_symmetric_approx_oracle,
    eval_ustat_counts,
    mc_loss,
    scaled_kernel_candidate,
    statistic_from_kernels,
    ustat_mse,
)
from dfchaos.validation import (
    cond_exp_statistic_counts,
    direct_loss,
    mass_kernel_identities,
    oracle_limit_row,
    psi,
    subset_sum_kernels,
    system_residuals,
)
from dfchaos.wright_fisher import (
    TransitionModel,
    kernel_Q,
    multi_indices,
    q_polynomial,
    transition_density,
)

MASSES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))

# bounded example counts keep the whole file to a few seconds
BOUNDED = settings(max_examples=10, deadline=None, database=None)


def rising(x, k):
    """x(x+1)...(x+k-1) in Fractions, term by term."""
    return math.prod((x + i for i in range(k)), start=Fraction(1))


def closing_row_by_cumulative_sum(table):
    """The closing row k = N as the tables once built it from the rows below:
    theta^(N,N) = 1 and theta^(N,a) = -sum_{s=a..N-1} theta^(s,a)."""
    N = table.N
    row = {(N, N): Fraction(1)}
    for a in range(1, N):
        row[(N, a)] = -sum(table.theta(s, a) for s in range(a, N))
    return row


@BOUNDED
@given(mass=MASSES, N=st.integers(1, 24))
@example(mass=Fraction(1, 2), N=16)
@example(mass=Fraction(1), N=16)
@example(mass=Fraction(2), N=16)
@example(mass=Fraction(5), N=16)
@example(mass=Fraction(7, 3), N=24)
@example(mass=Fraction(1, 10), N=24)
def test_theta_table_solves_the_defining_system(mass, N):
    table = theta_table(N, mass)
    for k in range(1, N + 1):
        # Chu-Vandermonde: psi_N(k,k,k) = 2F1(-k, k-N; m+k; 1)
        diagonal = rising(mass + N, k) / rising(mass + k, k)
        assert diagonal == psi(N, k, k, k, mass)
        assert table.theta_star(k, k) * diagonal == 1
        for a in range(1, k + 1):
            assert table.theta_star(k, a) * binom(N - a, k - a) == table.theta(k, a)
    closing = {key: value for key, value in table.entries.items() if key[0] == N}
    assert closing == closing_row_by_cumulative_sum(table)
    residuals = system_residuals(table)
    assert all(value == 0 for value in residuals.values())


@BOUNDED
@given(mass=MASSES, N=st.integers(1, 24))
def test_starred_rows_are_the_limit_rows_shrunk_by_the_window(mass, N):
    # theta*_N(s, k) = s!/(|alpha|+N)^(s) theta(s, k): the split of N draws
    # weights its conditional means as the chaos kernels do, shrunk by c_s;
    # the table is also held to its product form, in Fractions term by term
    table = theta_table(N, mass)
    for s in range(1, N + 1):
        shrink = c_overlap(N, N - s, mass)
        assert shrink == math.factorial(s) / rising(mass + N, s)
        for k in range(1, s + 1):
            star = table.theta_star(s, k)
            assert star == shrink * limit_coefficient(s, k, mass)
            assert star == (
                (-1) ** (s - k) * (mass + 2 * s - 1) * rising(mass + k, s - 1) / rising(mass + N, s)
            )


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


def band_sum(band, g, gp):
    return sum(poly.evaluate(g) * poly.evaluate(gp) / norm_sq for poly, norm_sq in band)


def assert_kernels_match_the_oracle(model, g, gp):
    for n in range(model.M + 1):
        assert kernel_Q(model, n, g, gp) == band_sum(model.band(n), g, gp)
    # the diagonal of the first neglected band, which feeds the tail bound
    top = model.M + 1
    for x in (g, gp):
        assert model._tail_diagonal(x) == band_sum(model.band(top), x, x)


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


def gram_schmidt_bands(weights, top):
    """The oracle's polynomials and squared norms per degree, in
    ``multi_indices`` order."""
    basis, norms = product_gram_schmidt(weights, top)
    bands = {}
    for index, poly, norm_sq in zip(multi_indices(len(weights) - 1, top), basis, norms):
        bands.setdefault(sum(index), []).append((poly, norm_sq))
    return bands


@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_stick_breaking_bands_equal_gram_schmidt_and_the_closed_form(data):
    atoms = data.draw(st.integers(2, 4))
    weights = tuple(data.draw(MASSES) for _ in range(atoms))
    model = TransitionModel(weights, {2: 7, 3: 3, 4: 2}[atoms])
    g, gp = data.draw(points(atoms)), data.draw(points(atoms))
    oracle = gram_schmidt_bands(model.theta.weights, model.M + 1)
    for n in range(model.M + 2):
        assert band_sum(model.band(n), g, gp) == band_sum(oracle[n], g, gp)
        if n <= model.M:
            assert band_sum(model.band(n), g, gp) == kernel_Q(model, n, g, gp)


@pytest.mark.parametrize(
    "weights, M", [((Fraction(1), Fraction(1, 2)), 12), ((Fraction(12), Fraction(1, 12)), 8)]
)
def test_two_atom_bands_are_the_gram_schmidt_polynomials_term_for_term(weights, M):
    # the float route sums the terms in order, so equal terms in equal order
    # give bit-identical float band sums
    model = TransitionModel(weights, M)
    oracle = gram_schmidt_bands(model.theta.weights, M + 1)
    for n in range(M + 2):
        [(poly, norm_sq)] = model.band(n)
        [(expected, expected_norm)] = oracle[n]
        assert list(poly.terms.items()) == list(expected.terms.items())
        assert norm_sq == expected_norm


@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_closed_form_q_polynomial_equals_the_oracle(data):
    model = data.draw(models())
    g = data.draw(points(model.theta.atoms))
    n = data.draw(st.integers(0, model.M))
    oracle = SimplexPolynomial.constant(model.dim, 0)
    for poly, norm_sq in gram_schmidt_bands(model.theta.weights, n)[n]:
        oracle = oracle.add(poly.scale(poly.evaluate(g) / norm_sq))
    assert q_polynomial(model, n, g) == oracle


def test_exact_density_builds_no_bands():
    model = TransitionModel((Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)), 8)
    g = (Fraction(1, 5), Fraction(1, 10), Fraction(3, 10))
    result = transition_density(model, Fraction(1, 2), g, (Fraction(1, 7),) * 3)
    assert result.tail_bound > 0
    assert "_orthogonal_bands" not in vars(model)


@st.composite
def polynomials(draw, atoms, max_degree=3):
    """Up to three terms of total degree <= max_degree with small rational coefficients."""
    exponents = st.integers(0, max_degree).flatmap(
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
            moment *= rising(w, e)
        total += coeff * moment / rising(sum(posterior.weights), sum(exps))
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


def assert_close(value, exact, rel=1e-13):
    assert abs(value - exact) <= rel * max(abs(exact), 1e-300)


@BOUNDED
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_float_weights_are_read_as_their_exact_image(alpha, data):
    # a float measure is the exact measure of its floats' rational values,
    # so its moments, posterior means and kernels are those Fractions
    floats = DiscreteBaseMeasure(tuple(float(w) for w in alpha.weights))
    image = DiscreteBaseMeasure(tuple(Fraction(float(w)) for w in alpha.weights))
    assert floats == image
    F = data.draw(polynomials(alpha.atoms))
    for size in range(4):
        for counts in occupation_vectors(size, alpha.atoms):
            moment = dirichlet_moment(floats, counts)
            assert type(moment) is Fraction and moment == dirichlet_moment(image, counts)
            assert poly_posterior_mean(F, floats, counts) == poly_posterior_mean(F, image, counts)
    max_order = max(F.degree, 1)
    assert chaos_kernels(F, floats, max_order) == chaos_kernels(F, image, max_order)


def test_float_weight_kernels_equal_those_of_the_image():
    # the float-weight route lost about four digits on these kernels
    F = SimplexPolynomial(3, {(3, 0, 0): -1, (1, 1, 0): Fraction(1, 3), (0, 2, 1): 2})
    image = DiscreteBaseMeasure(tuple(Fraction(w) for w in (0.3, 0.45, 1.1)))
    decomposition = chaos_kernels(F, DiscreteBaseMeasure((0.3, 0.45, 1.1)), 3)
    assert decomposition == chaos_kernels(F, image, 3)
    assert all(type(v) is Fraction for h in decomposition.kernels for _, v in h.items())


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
            cond_exp_statistic_counts(statistic, alpha, fixed),
            cond_exp_statistic_counts(statistic_image, alpha, fixed),
        )
    mass = sum(alpha.weights)
    theta = {n: {k: float(limit_coefficient(n, k, mass)) for k in range(1, n + 1)} for n in range(1, 4)}
    theta_image = {n: {k: Fraction(v) for k, v in row.items()} for n, row in theta.items()}
    mean = poly_posterior_mean(exact, alpha, (0, 0))
    centred = {
        mu: poly_posterior_mean(exact, alpha, mu) - mean
        for n in range(1, 4)
        for mu in occupation_vectors(n, 2)
    }
    approx = subset_sum_kernels(centred, theta, 2)
    for n, h_exact in subset_sum_kernels(centred, theta_image, 2).items():
        for counts, value in h_exact.items():
            got = approx[n].value(counts)
            assert type(got) is float and got == float(value)


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


def enumerated_means(statistic, alpha):
    """E[T | mu] for every mu of size <= N, one completion enumeration each:
    the per-mean route the backward lattice pass replaced."""
    return {
        mu: cond_exp_statistic_counts(statistic, alpha, mu)
        for n in range(statistic.order + 1)
        for mu in occupation_vectors(n, statistic.atoms)
    }


def reference_martingale(H, alpha):
    """The telescoping tables E[H | x, a] - E[H | x] from the enumerated
    means, differences taken in Fractions."""
    ce = enumerated_means(H, alpha)
    tables = []
    for n in range(1, H.order + 1):
        table = {}
        for hist in occupation_vectors(n - 1, H.atoms):
            for atom in range(1, H.atoms + 1):
                bumped = tuple(c + (j == atom - 1) for j, c in enumerate(hist))
                table[(hist, atom)] = ce[bumped] - ce[hist]
        tables.append(table)
    return tables


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_backward_means_equal_the_per_mean_enumeration(alpha, data):
    statistic = data.draw(statistics(alpha.atoms, 0, 5))
    layers, den, rounded = _conditional_layers(statistic, alpha)
    assert not rounded
    backward = {
        mu: Fraction(x, den)
        for k, layer in enumerate(layers)
        for mu, x in zip(occupation_vectors(k, alpha.atoms), layer)
    }
    assert backward == enumerated_means(statistic, alpha)


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_martingale_components_equal_the_per_mean_enumeration(alpha, data):
    H = data.draw(statistics(alpha.atoms, 0, 5))
    components = martingale_decomposition(H, alpha)
    assert [g.table for g in components] == reference_martingale(H, alpha)
    assert all(type(v) is Fraction for g in components for v in g.table.values())


@st.composite
def windowed_functionals(draw, atoms):
    """(F, N): F of degree <= 4, and a window N <= 6 below F's degree d
    or at least d, each half the time when d > 1."""
    F = draw(polynomials(atoms, max_degree=4))
    d = max(F.degree, 1)
    below = d > 1 and draw(st.booleans())
    return F, draw(st.integers(1, d - 1) if below else st.integers(d, 6))


def window_statistic(F, alpha, window):
    """T(mu) = E[F | mu] on the window's layer, one posterior mean per vector."""
    return SymmetricKernel.from_function(
        window, alpha.atoms, lambda mu: poly_posterior_mean(F, alpha, mu)
    )


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_oracle_split_is_the_split_of_the_window_statistic(alpha, data):
    # the closed-form optimum is the split of T(mu) = E[F | mu] over the
    # window: its components up to min(N, d), zero above, and its loss
    # equals the window's enumeration and Var F - Var T
    F, window = data.draw(windowed_functionals(alpha.atoms))
    domain = occupation_vectors(window, alpha.atoms)
    values = {mu: poly_posterior_mean(F, alpha, mu) for mu in domain}
    statistic = SymmetricKernel(window, alpha.atoms, values)
    oracle = best_symmetric_approx_oracle(F, alpha, window)
    split = hoeffding_decompose(statistic, alpha)
    m = len(oracle.components)
    assert m == min(window, max(F.degree, 1))
    assert oracle.components == split.components[:m]
    assert all(h.is_zero() for h in split.components[m:])
    assert split.mean == poly_posterior_mean(F, alpha, (0,) * alpha.atoms)
    assert oracle.loss == direct_loss(oracle.kernels(), F, alpha, window)
    variance = statistic_product_mean(statistic, statistic, alpha) - split.mean**2
    assert oracle.loss == variance_functional(F, alpha) - variance


def test_a_float_functional_optimum_is_the_split_rounded_once():
    # a float coefficient is read as its exact image: each component entry
    # is the backward split's exact value rounded once, bit for bit, and so
    # is the loss
    alpha = DiscreteBaseMeasure((Fraction(1, 3), Fraction(4, 3), Fraction(1, 2)))
    F = SimplexPolynomial(3, {(2, 1, 0): -0.3, (1, 0, 1): 0.1, (0, 0, 1): 0.7, (0, 1, 0): Fraction(1, 3)})
    image = SimplexPolynomial(3, {e: Fraction(c) for e, c in F.terms.items()})
    for window in (1, 2, 5):
        oracle = best_symmetric_approx_oracle(F, alpha, window)
        split = hoeffding_decompose(window_statistic(image, alpha, window), alpha)
        m = len(oracle.components)
        assert all(type(v) is float for h in oracle.components for v in h.values.values())
        assert [h.values for h in oracle.components] == [
            {mu: float(v) for mu, v in h.values.items()} for h in split.components[:m]
        ]
        assert all(h.is_zero() for h in split.components[m:])
        assert oracle.loss == float(best_symmetric_approx_oracle(image, alpha, window).loss)


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_the_window_split_is_the_backward_split_of_its_statistic(alpha, data):
    # decompose --finite's closed form (F's chaos kernels shrunk) against
    # hoeffding_decompose of T(mu) = E[F | mu], the backward pass over the
    # whole lattice: equal in mean, components and projections; a float F
    # gives each entry as the exact split's value rounded once; and the
    # components up to min(N, d) are the projection oracle's, zero above
    F, window = data.draw(windowed_functionals(alpha.atoms))
    rounded = bool(F.terms) and data.draw(st.booleans())
    if rounded:
        F = SimplexPolynomial(F.nvars, {e: float(c) / 3 for e, c in F.terms.items()})
    image = SimplexPolynomial(F.nvars, {e: Fraction(c) for e, c in F.terms.items()})
    split = _window_split(F, alpha, window)
    reference = hoeffding_decompose(window_statistic(image, alpha, window), alpha)

    def once(value):
        return float(value) if rounded else value

    assert (split.N, type(split.mean)) == (window, type(once(reference.mean)))
    assert split.mean == once(reference.mean)
    for got, want in zip(
        split.components + split.projections, reference.components + reference.projections,
        strict=True,
    ):
        assert [(mu, type(v), v) for mu, v in got.items()] == [
            (mu, type(once(v)), once(v)) for mu, v in want.items()
        ]
    oracle = best_symmetric_approx_oracle(F, alpha, window)
    m = len(oracle.components)
    assert m == min(window, max(F.degree, 1))
    assert [h.values for h in oracle.components] == [h.values for h in split.components[:m]]
    assert all(h.is_zero() for h in split.components[m:])


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_the_window_shrinkage_is_the_ustat_rate(alpha, data):
    # E[I_s | window] = c_s U_N(h_s), c_s = N!/(N-s)!/(|alpha|+N)^(s), gives
    # E[(U_N(h_s) - I_s)^2] = E[I_s^2] (1/c_s - 1) for s <= N, and so the
    # scaled-kernel candidate's enumerated loss order by order, which the
    # report reads in closed form beside the optimum's
    F, window = data.draw(windowed_functionals(alpha.atoms))
    mass = alpha.total_mass
    expected = Fraction(0)
    for s, h in enumerate(chaos_kernels(F, alpha, max(F.degree, 1)).kernels, start=1):
        energy = c_iso(s, mass) * statistic_product_mean(h, h, alpha)
        if s <= window:
            c = math.perm(window, s) / math.prod(mass + window + j for j in range(s))
            energy *= 1 / c - 1
            assert ustat_mse(h, alpha, window) == energy
        expected += energy
    kernels = scaled_kernel_candidate(F, alpha, window).kernels
    assert direct_loss(kernels, F, alpha, window) == expected
    report = approximation_report(F, alpha, window)
    assert report.candidate_loss_enumerated == expected
    assert report.oracle_loss_enumerated == report.oracle.loss


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_a_float_functional_report_reads_its_losses_from_the_exact_image(alpha, data):
    # a float coefficient is read as its exact image: the optimum's loss is
    # the enumerated loss of the printed (rounded) oracle kernels, bit for
    # bit, and the candidate's is the exact-image candidate's rounded once
    F, window = data.draw(windowed_functionals(alpha.atoms))
    F = SimplexPolynomial(F.nvars, {e: float(c) / 3 for e, c in F.terms.items()})
    image = SimplexPolynomial(F.nvars, {e: Fraction(c) for e, c in F.terms.items()})
    report = approximation_report(F, alpha, window)
    oracle_loss, candidate_loss = report.oracle_loss_enumerated, report.candidate_loss_enumerated
    assert oracle_loss == direct_loss(report.oracle.kernels(), F, alpha, window)
    exact = scaled_kernel_candidate(image, alpha, window).kernels
    assert candidate_loss == float(direct_loss(exact, image, alpha, window))
    if F.terms:
        assert type(oracle_loss) is type(candidate_loss) is float


@SPLIT_EXAMPLES
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_a_float_statistic_is_split_from_its_exact_image_rounded_once(alpha, data):
    exact = data.draw(statistics(alpha.atoms, 1, 4))
    thirds = {mu: float(v) / 3 for mu, v in exact.values.items()}
    floats = SymmetricKernel(exact.order, exact.atoms, thirds)
    image = SymmetricKernel(exact.order, exact.atoms, {mu: Fraction(v) for mu, v in thirds.items()})
    split, reference = hoeffding_decompose(floats, alpha), hoeffding_decompose(image, alpha)
    assert type(split.mean) is float and split.mean == float(reference.mean)
    for got, want in zip(
        split.components + split.projections, reference.components + reference.projections
    ):
        assert got.values == {mu: float(v) for mu, v in want.values.items()}
    telescoped = zip(martingale_decomposition(floats, alpha), martingale_decomposition(image, alpha))
    for got, want in telescoped:
        assert got.table == {key: float(v) for key, v in want.table.items()}


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


# ---------------------------------------------------------------------------
# the occupation lattice: up-operator subset sums and urn expectations

SCALARS = FRACTIONS | st.floats(-4, 4, allow_nan=False, allow_infinity=False)


def brute_subset_sums(values, rows, atoms):
    """Every row's subset sums by walking each sub-occupation, in Fractions
    (a float read as its exact image)."""
    out = {}
    for n, row in rows.items():
        out[n] = {
            a: sum(
                (
                    Fraction(w) * ways * Fraction(values.get(mu, 0))
                    for k, w in row.items()
                    for mu, ways in sub_occupations(a, k)
                ),
                Fraction(0),
            )
            for a in occupation_vectors(n, atoms)
        }
    return out


@SPLIT_EXAMPLES
@given(atoms=st.integers(1, 3), top=st.integers(0, 4), data=st.data())
def test_lattice_subset_sums_equal_the_sub_occupation_walk(atoms, top, data):
    # rows may weight k = 0, k > n or no k at all, and the values may be
    # empty or floats: a float entry is the exact sum rounded once
    domain = [mu for size in range(top + 1) for mu in occupation_vectors(size, atoms)]
    kept = data.draw(st.lists(st.booleans(), min_size=len(domain), max_size=len(domain)))
    values = {mu: data.draw(SCALARS) for mu, keep in zip(domain, kept) if keep}
    orders = data.draw(st.sets(st.integers(0, top), min_size=1))
    rows = {
        n: data.draw(st.dictionaries(st.integers(0, top + 2), SCALARS, max_size=4))
        for n in orders
    }
    kernels = subset_sum_kernels(values, rows, atoms)
    expected = brute_subset_sums(values, rows, atoms)
    rounded = any(type(v) is float for v in values.values()) or any(
        type(w) is float for row in rows.values() for w in row.values()
    )
    for n in orders:
        for a, want in expected[n].items():
            got = kernels[n].value(a)
            assert type(got) is (float if rounded else Fraction)
            assert got == (float(want) if rounded else want)


def test_lattice_subset_sums_of_edge_rows():
    values = {(0, 0): Fraction(3), (1, 0): Fraction(-1), (0, 1): Fraction(1, 2)}
    zero = dict.fromkeys(occupation_vectors(2, 2), 0)
    # k = 0 weighs the empty sub-occupation once per entry
    assert subset_sum_kernels(values, {2: {0: 5}}, 2)[2].values == dict.fromkeys(zero, 15)
    assert subset_sum_kernels({}, {2: {0: 5, 1: 1}}, 2)[2].values == zero
    assert subset_sum_kernels(values, {2: {3: 1}, 0: {}}, 2)[2].values == zero
    # an order above the window adds nothing to the window's statistic
    g = SymmetricKernel(3, 2, {(3, 0): Fraction(1), (1, 2): Fraction(-2)})
    statistic = statistic_from_kernels({3: g}, 2, 2)
    assert statistic == SymmetricKernel(2, 2, zero)


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_urn_means_equal_the_occupation_probability_sums(alpha, data):
    h = data.draw(statistics(alpha.atoms))
    f = data.draw(statistics(alpha.atoms, h.order, h.order))
    domain = occupation_vectors(h.order, alpha.atoms)
    mean = sum((occupation_prob(alpha, c) * h.value(c) for c in domain), Fraction(0))
    product = sum((occupation_prob(alpha, c) * h.value(c) * f.value(c) for c in domain), Fraction(0))
    assert expectation_of_integral(h, alpha) == mean
    assert statistic_product_mean(h, f, alpha) == product
    assert type(statistic_product_mean(h, f, alpha)) is Fraction
    # a float kernel: the exact mean of its values' images, rounded once
    h_float = SymmetricKernel(h.order, h.atoms, {c: float(v) / 3 for c, v in h.values.items()})
    exact = sum(
        (occupation_prob(alpha, c) * Fraction(h_float.value(c)) * f.value(c) for c in domain),
        Fraction(0),
    )
    assert statistic_product_mean(h_float, f, alpha) == float(exact)


@SPLIT_EXAMPLES
@given(alpha=rational_measures(max_atoms=3), data=st.data())
def test_direct_loss_equals_the_per_vector_expansion(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    window = data.draw(st.integers(1, 3))
    kernels = {n: data.draw(statistics(alpha.atoms, n, n)) for n in range(1, window + 1)}
    statistic = statistic_from_kernels(kernels, window, alpha.atoms)
    mean = poly_posterior_mean(F, alpha, (0,) * alpha.atoms)
    expected = variance_functional(F, alpha)
    for counts in occupation_vectors(window, alpha.atoms):
        prob, s = occupation_prob(alpha, counts), statistic.value(counts)
        expected += prob * s * (s - 2 * (poly_posterior_mean(F, alpha, counts) - mean))
    assert direct_loss(kernels, F, alpha, window) == expected


def reference_evaluate(F, point):
    """The per-term loop that evaluated a polynomial at every point before
    the float coefficients were cached."""
    powers = {}
    total = Fraction(0)
    for exps, coeff in F.terms.items():
        term = coeff
        for j, e in enumerate(exps):
            if e:
                power = powers.get((j, e))
                if power is None:
                    power = powers[(j, e)] = point[j] ** e
                term = term * power
        total = total + term
    return total


@settings(max_examples=60, deadline=None, database=None)
@given(atoms=st.integers(1, 4), data=st.data())
def test_float_point_evaluation_is_the_per_term_loop_bit_for_bit(atoms, data):
    F = data.draw(polynomials(atoms, max_degree=6))
    if data.draw(st.booleans()):
        F = SimplexPolynomial(atoms, {e: float(c) / 7 for e, c in F.terms.items()})
    coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    point = tuple(data.draw(st.lists(coords, min_size=atoms, max_size=atoms)))
    for p in (point, tuple(np.float64(x) for x in point)):
        got, want = F.evaluate(p), reference_evaluate(F, p)
        assert type(got) is type(want)
        assert float(got).hex() == float(want).hex()


@SPLIT_EXAMPLES
@given(alpha=rational_measures(), data=st.data())
def test_chaos_kernels_reconstruct_and_obey_parseval(alpha, data):
    F = data.draw(polynomials(alpha.atoms, max_degree=4))
    decomposition = chaos_kernels(F, alpha, max(F.degree, 1))
    parts = data.draw(st.lists(st.integers(1, 9), min_size=alpha.atoms, max_size=alpha.atoms))
    point = tuple(Fraction(p, sum(parts)) for p in parts)
    assert reconstruct(decomposition, point) == F.evaluate(point)
    assert variance_from_decomposition(decomposition) == variance_functional(F, alpha)
    assert all(degenerate_check(h, alpha) == 0 for h in decomposition.kernels)


@BOUNDED
@given(alpha=rational_measures(), data=st.data())
def test_chaos_components_are_kernel_polynomial_projections(alpha, data):
    # I_n(h_n)(x) = E[F(Y) Q_n(x, Y)] under Dir(alpha), at every order: the
    # limit coefficients of ``coeffs`` and Griffiths' Q_n agree
    F = data.draw(polynomials(alpha.atoms))
    decomposition = chaos_kernels(F, alpha, max(F.degree, 1))
    model = TransitionModel(alpha, decomposition.max_order)
    x = data.draw(points(alpha.atoms))
    full = x + (1 - sum(x),)
    prior = (0,) * alpha.atoms
    for n in range(model.M + 1):
        component = decomposition.mean if n == 0 else multiple_integral(decomposition.kernel(n), full)
        projection = F.mul(q_polynomial(model, n, x).pad_to(alpha.atoms))
        assert component == poly_posterior_mean(projection, alpha, prior)


def urn_mse(h, alpha, window):
    """E[(U_N - I_n(h))^2] = E[U_N^2] - E[I_n(h)^2] by enumeration of label
    sequences under the urn law: E[U_N I_n(h)] = E[I_n(h)^2], since
    E[U_N | D] = I_n(h)(D), and E[I_n(h)^2] is the urn mean of h at two
    disjoint windows of n draws."""
    n, atoms = h.order, h.atoms

    def urn_mean(length, f):
        sequences = itertools.product(range(1, atoms + 1), repeat=length)
        return sum(polya_joint_prob(alpha, seq) * f(seq) for seq in sequences)

    def at(labels):
        return h.value(tuple_counts(labels, atoms))

    square = urn_mean(window, lambda seq: eval_ustat_counts(h, window, tuple_counts(seq, atoms)) ** 2)
    return square - urn_mean(2 * n, lambda seq: at(seq[:n]) * at(seq[n:]))


@settings(max_examples=50, deadline=None, database=None)
@given(atoms=st.integers(1, 3), data=st.data())
def test_ustat_mse_equals_urn_enumeration(atoms, data):
    alpha = DiscreteBaseMeasure(tuple(data.draw(st.lists(MASSES, min_size=atoms, max_size=atoms))))
    h = data.draw(statistics(atoms, max_order=3))
    n = h.order
    window = data.draw(st.integers(n, n + 2))
    assert atoms**window <= 3000
    assert ustat_mse(h, alpha, window) == urn_mse(h, alpha, window)
    # a degenerate kernel's overlap moments are c_overlap(n, r) E[h^2]
    mass = alpha.total_mass
    weights = [binom(n, r) * binom(window - n, n - r) for r in range(n + 1)]
    shares = sum(w * (c_overlap(n, r, mass) - c_iso(n, mass)) for r, w in enumerate(weights))
    for g in degenerate_basis(alpha, n):
        expected = statistic_product_mean(g, g, alpha) * shares / binom(window, n)
        assert ustat_mse(g, alpha, window) == expected
