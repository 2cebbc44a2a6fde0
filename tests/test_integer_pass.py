"""The integer pass of a chaos query against the per-vector routes.

Every conditional mean E[F | mu] of a polynomial comes from one ladder
table (``MomentLadder.posterior_table``) and feeds the integer assembly
directly; second moments, the isometry constant, the conditional-variance
moments and the Jacobi inner products run on ints.  Each is held here to a
test-local copy of the per-vector or per-term ``Fraction`` route it
replaced, exactly, over random p/q measures with K <= 4 and polynomials of
degree <= 4.

A float coefficient, value, mass or theta row takes the same integer route
at its exact image ``Fraction(x)``, rounded once: each helper's result is
pinned to ``float`` of the same helper at the exact-image inputs, bit for
bit, and a NaN or an infinity raises ``NumericError``.  A black box keeps
the per-vector route, and its results and random stream are pinned bit
for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfchaos.chaos as chaos_module
from dfchaos.bayes import ObservedSample, estimate_conditional_variance
from dfchaos.chaos import (
    BlackBoxFunctional,
    chaos_kernels,
    cond_exp_functional,
    covariance_integrals,
    poly_posterior_mean,
    statistic_product_mean,
    variance_functional,
)
from dfchaos.coeffs import c_iso, limit_coefficients
from dfchaos.errors import DomainError, NumericError
from dfchaos.hoeffding import degenerate_basis, degenerate_check, hoeffding_decompose
from dfchaos.jacobi import (
    BetaParams,
    PolynomialCoeffs,
    beta_weight_integral,
    exact_parts,
    jacobi_gram,
    jacobi_inner,
    solve_phi_system,
)
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel, subset_sum_kernels
from dfchaos.measures import DiscreteBaseMeasure, dirichlet_moment
from dfchaos.numeric import (
    exact_numerators,
    multiplicity,
    occupation_vectors,
    tuple_counts,
)
from dfchaos.polya import cond_exp_statistic, cond_exp_statistic_counts

MASSES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
EXAMPLES = settings(max_examples=20, deadline=None, database=None)


@st.composite
def measures(draw, max_atoms=4):
    atoms = draw(st.integers(1, max_atoms))
    return DiscreteBaseMeasure(tuple(draw(st.lists(MASSES, min_size=atoms, max_size=atoms))))


@st.composite
def polynomials(draw, atoms, max_degree=4, coefficients=COEFFICIENTS):
    """Up to five terms of total degree <= max_degree (none: the zero polynomial)."""
    exponents = st.integers(0, max_degree).flatmap(
        lambda degree: st.sampled_from(list(occupation_vectors(degree, atoms)))
    )
    terms = draw(st.lists(st.tuples(exponents, coefficients), min_size=0, max_size=5))
    return SimplexPolynomial(atoms, dict(terms))


def per_vector_kernels(F, alpha, max_order, theta=None, rng=None):
    """The chaos kernels one conditional mean per occupation vector, by size,
    through the mapping form of the subset-sum assembly."""
    if theta is None:
        theta = limit_coefficients(alpha.total_mass, max_order)
    vectors = [mu for n in range(max_order + 1) for mu in occupation_vectors(n, alpha.atoms)]
    if isinstance(F, SimplexPolynomial):
        conds = [poly_posterior_mean(F, alpha, mu) for mu in vectors]
    else:
        labels = [[a for a, c in enumerate(mu, start=1) for _ in range(c)] for mu in vectors]
        conds = [cond_exp_functional(F, alpha, ls, rng).value for ls in labels]
    mean = conds[0]
    rows = {n: {k: theta[(n, k)] for k in range(1, n + 1)} for n in range(1, max_order + 1)}
    kernels = subset_sum_kernels({mu: c - mean for mu, c in zip(vectors, conds)}, rows, alpha.atoms)
    return mean, tuple(kernels.values())


def lattice_values(h):
    return [h.value(a) for a in occupation_vectors(h.order, h.atoms)]


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert float(got).hex() == float(want).hex()


def assert_canonical(h):
    """A package-built kernel: int-tuple keys of the order's layer."""
    for counts in h.values:
        assert type(counts) is tuple and len(counts) == h.atoms
        assert all(type(c) is int and c >= 0 for c in counts)
        assert sum(counts) == h.order


# ---------------------------------------------------------------------------
# the ladder table and the kernels it feeds


@EXAMPLES
@given(alpha=measures(), data=st.data())
def test_posterior_table_equals_the_per_vector_means(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    order = F.degree + data.draw(st.integers(0, 2))
    terms, lead, _ = F.scaled_terms
    layers, den = alpha.moment_ladder.posterior_table(terms, order)
    assert len(layers) == order + 1
    for k, layer in enumerate(layers):
        vectors = occupation_vectors(k, alpha.atoms)
        assert len(layer) == len(vectors)
        for mu, num in zip(vectors, layer):
            assert type(num) is int
            assert Fraction(num, den * lead) == poly_posterior_mean(F, alpha, mu)


@EXAMPLES
@given(alpha=measures(), data=st.data())
@example(alpha=DiscreteBaseMeasure((Fraction(1, 2), Fraction(3, 2))), data=None)
def test_chaos_kernels_equal_the_per_vector_route(alpha, data):
    if data is None:  # a constant F, decomposed past its degree
        F, max_order = SimplexPolynomial.constant(2, Fraction(7, 3)), 3
    else:
        F = data.draw(polynomials(alpha.atoms))
        max_order = max(F.degree, 1) + data.draw(st.integers(0, 2))
    decomposition = chaos_kernels(F, alpha, max_order)
    mean, kernels = per_vector_kernels(F, alpha, max_order)
    assert type(decomposition.mean) is Fraction and decomposition.mean == mean
    assert decomposition.kernels == kernels
    for h in decomposition.kernels:
        assert all(type(v) is Fraction for v in h.values.values())
        assert_canonical(h)
    assert all(h.is_zero() for h in decomposition.kernels[F.degree :])


def test_an_exact_polynomial_takes_no_per_vector_mean(monkeypatch):
    def refuse(*args):
        raise AssertionError("a per-vector posterior mean was taken")

    monkeypatch.setattr(chaos_module, "poly_posterior_mean", refuse)
    alpha = DiscreteBaseMeasure((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)))
    F = SimplexPolynomial(4, {(2, 1, 0, 1): Fraction(-3, 5), (0, 0, 1, 0): 2})
    decomposition = chaos_kernels(F, alpha, 5)
    monkeypatch.undo()
    assert decomposition.kernels == per_vector_kernels(F, alpha, 5)[1]


@EXAMPLES
@given(alpha=measures(), data=st.data())
def test_variance_and_product_means_equal_the_product_polynomial(alpha, data):
    F = data.draw(polynomials(alpha.atoms))
    zeros = (0,) * alpha.atoms
    mean = poly_posterior_mean(F, alpha, zeros)
    variance = variance_functional(F, alpha)
    assert type(variance) is Fraction
    assert variance == poly_posterior_mean(F.mul(F), alpha, zeros) - mean * mean
    if alpha.atoms > 1:
        basis = degenerate_basis(alpha, 1) + degenerate_basis(alpha, 2)
        h, f = data.draw(st.sampled_from(basis)), data.draw(st.sampled_from(basis))
        product = h.to_polynomial().mul(f.to_polynomial())
        assert covariance_integrals(h, f, alpha).exact == poly_posterior_mean(product, alpha, zeros)


@EXAMPLES
@given(mass=MASSES | st.integers(1, 9), n=st.integers(0, 10))
def test_c_iso_equals_the_product_loop(mass, n):
    value = Fraction(1)
    for l in range(1, n + 1):
        value = value * (n - l + 1) / (mass + n + l - 1)
    got = c_iso(n, mass)
    assert type(got) is Fraction and got == value


def test_c_iso_of_a_float_mass_rounds_its_exact_image():
    for mass in (0.3, 2.0, 7.25):
        assert_same_bits(c_iso(5, mass), float(c_iso(5, Fraction(mass))))


# ---------------------------------------------------------------------------
# kernels that keep their numerators


@EXAMPLES
@given(alpha=measures(max_atoms=3), data=st.data())
def test_cached_numerators_equal_exact_numerators(alpha, data):
    F = data.draw(polynomials(alpha.atoms, max_degree=3))
    built = list(chaos_kernels(F, alpha, max(F.degree, 1)).kernels)
    order = data.draw(st.integers(1, 3))
    domain = occupation_vectors(order, alpha.atoms)
    values = data.draw(st.lists(COEFFICIENTS, min_size=len(domain), max_size=len(domain)))
    statistic = SymmetricKernel(order, alpha.atoms, dict(zip(domain, values)))
    split = hoeffding_decompose(statistic, alpha)
    built += [*split.components, *split.projections, split.reconstruct()]
    thirds = {mu: float(v) / 3 for mu, v in zip(domain, values)}
    floats = SymmetricKernel(order, alpha.atoms, thirds)
    for h in [*built, statistic, floats]:
        nums, den, rounded = exact_numerators(lattice_values(h))
        assert h.numerators == (tuple(nums), den, rounded)
    for h in built:
        assert_canonical(h)


# ---------------------------------------------------------------------------
# the conditional-variance estimate


def occupation_sums(h, atoms):
    """(m, occupation vector c -> (sum of h(t), sum of h(t)^2)) over the
    label tuples t with occupation vector c, one ``Fraction`` per entry."""
    if isinstance(h, SymmetricKernel):
        m = h.order
        entries = [(c, multiplicity(c), v) for c, v in h.values.items() if v != 0]
    else:
        (m,) = {len(labels) for labels in h}
        entries = [(tuple_counts(labels, atoms), 1, v) for labels, v in h.items()]
    sums = {}
    for counts, weight, value in entries:
        value = Fraction(value)
        first, second = sums.get(counts, (0, 0))
        sums[counts] = (first + weight * value, second + weight * value * value)
    return m, sums


def reference_estimate(h, sample):
    """The estimate through the decomposition of the mean functional, with
    its moments accumulated one vector at a time."""
    atoms = sample.alpha.atoms
    m, sums = occupation_sums(h, atoms)
    if m == 0 or not sums:
        return 0
    posterior = sample.posterior()
    first = second = 0
    for counts, (value, square) in sums.items():
        prob = dirichlet_moment(posterior, counts)
        first = first + value * prob
        second = second + square * prob
    mean_poly = SimplexPolynomial(atoms, {c: value for c, (value, _) in sums.items()})
    decomposition = chaos_kernels(mean_poly, posterior, m)
    correction = 0
    for k in range(1, m + 1):
        kernel = decomposition.kernel(k)
        correction = correction + c_iso(k, posterior.total_mass) * statistic_product_mean(
            kernel, kernel, posterior
        )
    return second - first * first - correction


@EXAMPLES
@given(alpha=measures(max_atoms=3), data=st.data())
def test_conditional_variance_equals_the_per_vector_moments(alpha, data):
    order = data.draw(st.integers(1, 3))
    domain = occupation_vectors(order, alpha.atoms)
    values = data.draw(st.lists(COEFFICIENTS, min_size=len(domain), max_size=len(domain)))
    h = SymmetricKernel(order, alpha.atoms, dict(zip(domain, values)))
    labels = data.draw(st.lists(st.integers(1, alpha.atoms), max_size=4))
    sample = ObservedSample(alpha, tuple(labels))
    estimate = estimate_conditional_variance(h, sample)
    assert estimate == reference_estimate(h, sample)
    assert type(estimate) is Fraction
    table = {(1,) * order: Fraction(1, 2), (alpha.atoms,) * order: -1}
    assert estimate_conditional_variance(table, sample) == reference_estimate(table, sample)


VALUES = st.one_of(COEFFICIENTS, st.floats(-4, 4))


@settings(max_examples=60, deadline=None, database=None)
@given(alpha=measures(max_atoms=3), data=st.data())
def test_the_closed_form_estimate_equals_the_decomposition_route(alpha, data):
    # E[h^2 | obs] - E[M(D)^2 | obs] against Var[h | obs] minus the
    # isometry-weighted second moments of the kernels of M, for kernels and
    # asymmetric label tables with rational and float values
    order = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        domain = occupation_vectors(order, alpha.atoms)
        support = data.draw(st.lists(st.sampled_from(domain), unique=True))
        h = SymmetricKernel(order, alpha.atoms, {c: data.draw(VALUES) for c in support})
        read = [v for v in h.values.values() if v != 0]
    else:
        labels = st.tuples(*[st.integers(1, alpha.atoms)] * order)
        h = data.draw(st.dictionaries(labels, VALUES, min_size=1, max_size=6))
        read = list(h.values())
    labels = data.draw(st.lists(st.integers(1, alpha.atoms), max_size=4))
    sample = ObservedSample(alpha, tuple(labels))
    estimate = estimate_conditional_variance(h, sample)
    reference = reference_estimate(h, sample)
    if any(isinstance(v, float) for v in read):
        assert_same_bits(estimate, float(reference))
    else:
        assert_same_bits(estimate, Fraction(reference))
        assert estimate == reference


def test_conditional_variance_of_float_values_rounds_the_exact_image():
    alpha = DiscreteBaseMeasure((Fraction(3, 10), Fraction(9, 20), Fraction(11, 10)))
    sample = ObservedSample(alpha, (3,))
    table = {(1, 2, 3): 0.25, (2, 2, 1): 1, (3, 1, 1): -0.7}
    image = {labels: Fraction(v) for labels, v in table.items()}
    estimate = estimate_conditional_variance(table, sample)
    assert_same_bits(estimate, float(estimate_conditional_variance(image, sample)))


# ---------------------------------------------------------------------------
# float inputs round their exact image; black boxes keep the per-vector route


def image(F):
    """A polynomial with each float coefficient read as its exact image."""
    return SimplexPolynomial(F.nvars, {e: Fraction(c) for e, c in F.terms.items()})


def kernel_image(h):
    """A kernel with each float value read as its exact image."""
    return SymmetricKernel(h.order, h.atoms, {a: Fraction(v) for a, v in h.values.items()})


def assert_rounds(got, want):
    """``got`` is ``want`` rounded once to a float."""
    assert_same_bits(got, float(want))


def assert_kernels_round(got, want):
    for g, w in zip(got, want, strict=True):
        for counts, value in w.items():
            assert_rounds(g.value(counts), value)


def test_a_float_coefficient_rounds_the_exact_image_bit_for_bit():
    alpha = DiscreteBaseMeasure((Fraction(3, 10), Fraction(9, 20), Fraction(11, 10)))
    F = SimplexPolynomial(3, {(1, 0, 0): 0.3, (2, 1, 0): Fraction(2), (0, 1, 2): -1.5})
    decomposition = chaos_kernels(F, alpha, 4)
    exact = chaos_kernels(image(F), alpha, 4)
    assert_rounds(decomposition.mean, exact.mean)
    assert_kernels_round(decomposition.kernels, exact.kernels)
    assert sum(len(h.values) for h in decomposition.kernels) == 34
    assert_rounds(variance_functional(F, alpha), variance_functional(image(F), alpha))


def test_float_theta_rows_round_the_exact_table_bit_for_bit():
    alpha = DiscreteBaseMeasure((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)))
    F = SimplexPolynomial(4, {(1, 1, 0, 0): Fraction(2, 3), (0, 0, 3, 1): -5, (0, 1, 0, 0): 1})
    theta = {key: float(value) for key, value in limit_coefficients(alpha.total_mass, 4).items()}
    theta_image = {key: Fraction(value) for key, value in theta.items()}
    _, kernels = per_vector_kernels(F, alpha, 4, theta=theta)
    _, exact = per_vector_kernels(F, alpha, 4, theta=theta_image)
    assert_kernels_round(kernels, exact)


def test_a_black_box_keeps_the_per_vector_route_and_its_random_stream():
    alpha = DiscreteBaseMeasure((Fraction(1, 2), Fraction(1), Fraction(1, 2)))
    F = BlackBoxFunctional(lambda d: d[0] * d[1] + d[2] ** 2, atoms=3, mc_budget=64)
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    decomposition = chaos_kernels(F, alpha, 2, rng=rng)
    mean, kernels = per_vector_kernels(F, alpha, 2, rng=reference_rng)
    assert_same_bits(decomposition.mean, mean)
    for got, want in zip(decomposition.kernels, kernels):
        for counts, value in want.items():
            assert_same_bits(got.value(counts), value)
    assert rng.random() == reference_rng.random()


def test_float_kernels_take_the_exact_degeneracy_check():
    params = BetaParams(Fraction(1, 3), Fraction(5, 2))
    alpha = params.as_measure()
    for n in range(1, 9):
        phi = solve_phi_system(n, params)
        assert_rounds(degenerate_check(phi, alpha), degenerate_check(kernel_image(phi), alpha))


FLOATS = st.floats(-1e3, 1e3, allow_nan=False).filter(bool)


@st.composite
def float_kernels(draw, atoms, order):
    domain = occupation_vectors(order, atoms)
    values = draw(st.lists(FLOATS, min_size=len(domain), max_size=len(domain)))
    return SymmetricKernel(order, atoms, dict(zip(domain, values)))


@settings(max_examples=25, deadline=None, database=None)
@given(alpha=measures(), data=st.data())
@example(
    alpha=DiscreteBaseMeasure((Fraction(3, 10), Fraction(9, 20), Fraction(11, 10))), data=None
)
def test_every_exact_helper_rounds_the_exact_image_of_its_floats(alpha, data):
    atoms = alpha.atoms
    if data is None:  # tiny, huge and inexact binary fractions side by side
        F = SimplexPolynomial(3, {(1, 0, 0): 0.1, (0, 2, 1): 1e150, (0, 0, 0): -3.3e-12})
        h = SymmetricKernel(2, 3, dict.fromkeys(occupation_vectors(2, 3), 0.1))
        f, n, mass = h, 2, 0.3
    else:
        F = data.draw(polynomials(atoms, coefficients=FLOATS).filter(lambda F: F.terms))
        n = data.draw(st.integers(1, 2 if atoms > 2 else 3))
        h, f = data.draw(float_kernels(atoms, n)), data.draw(float_kernels(atoms, n))
        mass = data.draw(st.floats(1e-3, 1e3))
    exact_f, exact_h, exact_g = image(F), kernel_image(h), kernel_image(f)
    zeros = (0,) * atoms
    mu = tuple(range(1, atoms + 1))

    assert_rounds(poly_posterior_mean(F, alpha, mu), poly_posterior_mean(exact_f, alpha, mu))
    assert_rounds(variance_functional(F, alpha), variance_functional(exact_f, alpha))
    order = max(F.degree, 1)
    decomposition, exact = chaos_kernels(F, alpha, order), chaos_kernels(exact_f, alpha, order)
    assert_rounds(decomposition.mean, exact.mean)
    assert_kernels_round(decomposition.kernels, exact.kernels)

    assert_rounds(
        covariance_integrals(h, f, alpha).exact, covariance_integrals(exact_h, exact_g, alpha).exact
    )
    assert_rounds(statistic_product_mean(h, f, alpha), statistic_product_mean(exact_h, exact_g, alpha))
    assert_rounds(degenerate_check(h, alpha), degenerate_check(exact_h, alpha))
    fixed = zeros[:-1] + (1,)
    assert_rounds(
        cond_exp_statistic_counts(h, alpha, fixed), cond_exp_statistic_counts(exact_h, alpha, fixed)
    )
    sample = ObservedSample(alpha, (atoms,))
    assert_rounds(
        estimate_conditional_variance(h, sample), estimate_conditional_variance(exact_h, sample)
    )

    assert_rounds(c_iso(n, mass), c_iso(n, Fraction(mass)))
    params = BetaParams(alpha.weights[0], alpha.total_mass)
    poly = PolynomialCoeffs(tuple(F.terms.values()))
    exact_poly = PolynomialCoeffs(tuple(Fraction(c) for c in poly.coefficients))
    assert_rounds(beta_weight_integral(poly, params), beta_weight_integral(exact_poly, params))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_raises_numeric_error_from_every_exact_helper(bad):
    alpha = DiscreteBaseMeasure((Fraction(3, 10), Fraction(9, 20), Fraction(11, 10)))
    F = SimplexPolynomial(3, {(1, 0, 0): bad, (0, 1, 1): Fraction(1, 2)})
    h = SymmetricKernel(2, 3, {(2, 0, 0): bad, (1, 1, 0): 0.5})
    table = {(1, 2): bad, (3, 3): 1}
    sample = ObservedSample(alpha, (3,))
    params = BetaParams(Fraction(1, 3), Fraction(5, 2))
    calls = [
        lambda: poly_posterior_mean(F, alpha, (0, 0, 0)),
        lambda: variance_functional(F, alpha),
        lambda: chaos_kernels(F, alpha, 2),
        lambda: covariance_integrals(h, h, alpha),
        lambda: statistic_product_mean(h, h, alpha),
        lambda: degenerate_check(h, alpha),
        lambda: cond_exp_statistic(h, alpha, ()),
        lambda: estimate_conditional_variance(h, sample),
        lambda: estimate_conditional_variance(table, sample),
        lambda: beta_weight_integral(PolynomialCoeffs((bad, 1.0)), params),
    ]
    for call in calls:
        with pytest.raises(NumericError, match="non-finite"):
            call()
    # a mass is refused like every measure weight that is not positive and finite
    with pytest.raises(DomainError):
        c_iso(2, bad)


def test_a_float_result_beyond_the_float_range_raises_numeric_error():
    alpha = DiscreteBaseMeasure((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(NumericError, match="leaves the float range"):
        variance_functional(SimplexPolynomial(2, {(1, 0): 1e300}), alpha)


# ---------------------------------------------------------------------------
# the Jacobi inner product


def rising(x, k):
    """x(x+1)...(x+k-1) in Fractions, term by term."""
    return math.prod((x + i for i in range(k)), start=Fraction(1))


def reference_inner(n, m, params):
    """<J_n, J_m> with the bilinear sum in Fractions, term by term."""
    kn, gn = exact_parts(n, params)
    km, gm = exact_parts(m, params)
    bilinear = Fraction(0)
    for a, ga in enumerate(gn):
        for b, gb in enumerate(gm):
            moment = rising(params.a1, a + b) / rising(params.total, a + b)
            bilinear += ga * gb * moment
    if bilinear == 0:
        return Fraction(0)
    if n == m:
        return kn * bilinear
    return math.sqrt(float(kn * km)) * float(bilinear)


@settings(max_examples=8, deadline=None, database=None)
@given(a1=MASSES, a0=MASSES)
@example(a1=Fraction(1, 3), a0=Fraction(5, 2))
def test_jacobi_inner_products_equal_the_fraction_bilinear_sum(a1, a0):
    params = BetaParams(a1, a0)
    gram = jacobi_gram(8, params)
    for n in range(9):
        for m in range(9):
            want = reference_inner(n, m, params)
            got = jacobi_inner(n, m, params)
            assert type(got) is type(want) and got == want
            assert type(gram[n][m]) is type(want) and gram[n][m] == want
