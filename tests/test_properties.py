"""Property tests: the closed forms against their oracles.

Masses and mutation weights are drawn as p/q with 1 <= p, q <= 12; the
masses named in the coefficient docstrings are pinned as explicit examples.
The kernel polynomials Q_n of Griffiths' closed form are compared with the
Gram-Schmidt oracle (``TransitionModel.band``) at rational interior points.
The batched Monte Carlo loss is held to the enumerated loss it confirms.
The Bernstein kernels of the exponential functional are held to their
three exact identities.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfchaos.coeffs import (
    limit_coefficient,
    limit_coefficients,
    system_residuals,
    tabulated_limit_values,
    theta_table,
    validate_limit_values,
)
from dfchaos.errors import CoefficientValidationError
from dfchaos.kernels import SimplexPolynomial
from dfchaos.measures import DiscreteBaseMeasure
from dfchaos.numeric import occupation_vectors
from dfchaos.ustat import direct_loss, mc_loss, scaled_kernel_candidate
from dfchaos.validation import mass_kernel_identities, oracle_limit_row
from dfchaos.wright_fisher import (
    TransitionModel,
    _orthogonal_basis,
    kernel_Q,
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


# highest truncation M drawn per atom count K: the oracle's Gram-Schmidt
# build at K = 4, M + 1 = 4 takes about 2 s, so that case is pinned once
# (``..._at_four_atoms``) instead of drawn
MAX_M = {2: 8, 3: 4, 4: 2}


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
