"""Transition-density expansions over the stationary Dirichlet law."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dfchaos.errors import DomainError
from dfchaos.jacobi import BetaParams, jacobi_modified
from dfchaos.kernels import SimplexPolynomial
from dfchaos.measures import measure
from dfchaos.numeric import limit_row
from dfchaos.wright_fisher import (
    TransitionDensity,
    TransitionModel,
    _atom_series,
    dirichlet_density,
    gram_schmidt_P,
    kernel_Q,
    multi_indices,
    q_polynomial,
    q_via_multiple_integrals,
    rho,
    simplex_expectation,
    transition_density,
)


def test_multi_indices_graded_lexicographic():
    order = multi_indices(2, 2)
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(multi_indices(3, 3)) == 20


def test_stationary_density_values():
    assert dirichlet_density(measure(2, 1), (Fraction(1, 2),)) == pytest.approx(1.0)
    assert dirichlet_density(measure(2, 1), (0.25,)) == pytest.approx(0.5)
    # uniform Dirichlet on the 2-simplex has constant density 2
    assert dirichlet_density(measure(1, 1, 1), (0.2, 0.3)) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        dirichlet_density(measure(2, 1), (0.0,))
    with pytest.raises(DomainError):
        dirichlet_density(measure(1, 1, 1), (0.5, 0.5))


def test_eigenvalues_decay():
    total = 3
    assert rho(1, 0.5, total) == pytest.approx(math.exp(-0.5 * 3 * 0.5))
    assert rho(2, 0.5, total) == pytest.approx(math.exp(-0.5 * 2 * 1 * 0.5 - 0.5 * 3 * 2 * 0.5))
    assert rho(3, 0.5, total) < rho(2, 0.5, total) < rho(1, 0.5, total)


def test_band_kernels_have_zero_mean_and_reproduce():
    theta = measure(2, 1, 1)
    model = TransitionModel(theta, 3)
    g = (Fraction(1, 4), Fraction(1, 3))
    for n in range(1, 4):
        assert simplex_expectation(theta, q_polynomial(model, n, g)) == 0
    # band sums recover any polynomial of degree <= 3 at the diagonal point
    for exponents in multi_indices(2, 3):
        R = SimplexPolynomial.monomial(2, exponents)
        acc = Fraction(0)
        for n in range(0, sum(exponents) + 1):
            acc += simplex_expectation(theta, q_polynomial(model, n, g).mul(R))
        assert acc == R.evaluate(g)


def test_kernel_symmetry_and_integral_route():
    theta = measure("3/2", 1, "1/2")
    model = TransitionModel(theta, 3)
    g = (Fraction(1, 5), Fraction(2, 5))
    gp = (Fraction(1, 2), Fraction(1, 4))
    for n in (1, 2, 3):
        direct = kernel_Q(model, n, g, gp)
        assert direct == kernel_Q(model, n, gp, g)
        assert direct == q_via_multiple_integrals(model, n, g, gp)


def test_two_atom_kernels_match_beta_polynomials():
    theta = measure(2, 1)
    model = TransitionModel(theta, 4)
    params = BetaParams(2, 1)
    for n in (1, 2, 3, 4):
        J = jacobi_modified(n, params)
        for x, y in ((Fraction(3, 10), Fraction(3, 5)), (Fraction(3, 20), Fraction(17, 20))):
            got = float(kernel_Q(model, n, (x,), (y,)))
            expected = J(float(x)) * J(float(y))
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_orthonormal_float_basis():
    P = gram_schmidt_P(measure(1, 2, 1), 2)
    # rows evaluate to an orthonormal family under the stationary law
    theta = measure(1, 2, 1)
    names = multi_indices(2, 2)
    for i, pi in enumerate(P):
        for j, pj in enumerate(P):
            acc = simplex_expectation(theta, pi.mul(pj))
            assert float(acc) == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)
    assert len(P) == len(names)


def test_transition_density_normalizes_and_relaxes():
    theta = measure(2, 2)
    model = TransitionModel(theta, 8)
    start = (Fraction(2, 5),)
    # quadrature of a polynomial integrand: Gauss-Legendre is effectively exact
    nodes, weights = np.polynomial.legendre.leggauss(60)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    for t in (0.25, 1.0):
        total = 0.0
        tail = 0.0
        for x, w in zip(nodes, weights):
            result = transition_density(model, t, (Fraction(x).limit_denominator(10**9),), start)
            total += w * result.value
            tail = max(tail, result.tail_bound)
        assert abs(total - 1.0) <= tail + 1e-6
    # long time horizon: the expansion collapses to the stationary density
    late = transition_density(model, 50.0, (Fraction(1, 3),), start)
    assert late.value == pytest.approx(late.stationary, abs=1e-10)
    assert late.stationary == pytest.approx(dirichlet_density(theta, (Fraction(1, 3),)))


def test_float_weights_give_the_exact_model():
    # the float-weight Gram-Schmidt basis gave an infinite tail bound at
    # M = 12 and a NaN density at M = 16, behind a once-shown warning
    g, gp = (Fraction(1, 3),), (Fraction(1, 5),)
    for M in (12, 16):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floats = TransitionModel((1.0, 0.5), M)
            got = transition_density(floats, 0.5, g, gp)
        exact = TransitionModel((Fraction(1), Fraction(1, 2)), M)
        assert got == transition_density(exact, 0.5, g, gp)
        assert math.isfinite(got.value) and math.isfinite(got.tail_bound)
        assert [kernel_Q(floats, n, g, gp) for n in range(M + 1)] == [
            kernel_Q(exact, n, g, gp) for n in range(M + 1)
        ]


def test_transition_density_domain_checks():
    model = TransitionModel(measure(2, 1), 4)
    with pytest.raises(DomainError):
        transition_density(model, 0.0, (Fraction(1, 2),), (Fraction(1, 2),))
    with pytest.raises(DomainError):
        transition_density(model, 1.0, (Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 2),))
    with pytest.raises(DomainError):
        kernel_Q(model, 9, (Fraction(1, 2),), (Fraction(1, 2),))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_transition_density_refuses_a_non_finite_time(t):
    model = TransitionModel(measure(1, Fraction(1, 2)), 4)
    with pytest.raises(DomainError, match="finite"):
        transition_density(model, t, (Fraction(1, 3),), (Fraction(1, 2),))
    with pytest.raises(DomainError, match="finite"):
        rho(1, t, 1)


@pytest.mark.parametrize(
    "point", [(math.nan, 0.25), (0.25, math.nan), (math.inf, 0.25), (-math.inf, 0.25)]
)
def test_transition_density_refuses_a_non_finite_coordinate(point):
    model = TransitionModel(measure(1, Fraction(1, 2), 2), 3)
    with pytest.raises(DomainError, match="interior"):
        transition_density(model, 0.5, point, (0.25, 0.25))
    with pytest.raises(DomainError, match="interior"):
        transition_density(model, 0.5, (0.25, 0.25), point)


@pytest.mark.parametrize(
    "mass",
    [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2),
     Fraction(7, 3), Fraction(5), Fraction(12)],
)
def test_integer_tables_equal_their_fraction_forms(mass):
    # the shared limit row against theta(n,m) = (m+2n-1) (-1)^(n-m)
    # rising(|theta|+m, n-1) / n!, m = 0 included, the model's kernel rows
    # against C(n,m) theta(n,m) m! rising(|theta|, m), and the atom series
    # against 1/(k! rising(theta_i, k)), all in Fractions term by term
    def rising(x, k):
        return math.prod((x + i for i in range(k)), start=Fraction(1))

    top = 21
    rows = TransitionModel((mass / 2, mass / 2), top - 1)._coeffs
    assert rows[0] == ((1,), 1)
    for n in range(1, top + 1):
        lead = (mass + 2 * n - 1) / math.factorial(n)
        theta = [(-1) ** (n - m) * lead * rising(mass + m, n - 1) for m in range(n + 1)]
        nums, den = limit_row(mass.numerator, mass.denominator, n)
        assert [Fraction(c, den) for c in nums] == theta
        nums, den = rows[n]
        assert [Fraction(c, den) for c in nums] == [
            math.comb(n, m) * theta[m] * math.factorial(m) * rising(mass, m) for m in range(n + 1)
        ]
    weights = (mass, mass / 3, 1 / mass)
    series, dens = _atom_series(weights, top)
    for w, row, den in zip(weights, series, dens):
        assert [Fraction(c, den) for c in row] == [
            1 / (math.factorial(k) * rising(w, k)) for k in range(top + 1)
        ]


def test_model_and_density_are_immutable_values():
    theta = measure(1, "1/2")
    model = TransitionModel(theta, 4)
    assert model == TransitionModel(theta=(Fraction(1), Fraction(1, 2)), M=4)
    assert model != TransitionModel(theta, 5)
    assert (model == (theta, 4)) is False
    assert hash(model) == hash((theta, 4))
    assert repr(model) == (
        "TransitionModel(theta=DiscreteBaseMeasure(weights=(Fraction(1, 1), Fraction(1, 2))), M=4)"
    )
    for name, value in (("M", 5), ("theta", theta), ("cache", {})):
        with pytest.raises(AttributeError):
            setattr(model, name, value)

    density = transition_density(model, 0.5, (Fraction(1, 3),), (Fraction(1, 2),))
    fields = (
        density.value,
        density.stationary,
        density.contributions,
        density.tail_bound,
        density.negative,
    )
    assert TransitionDensity(*fields) == density
    assert TransitionDensity(
        value=fields[0],
        stationary=fields[1],
        contributions=fields[2],
        tail_bound=fields[3],
        negative=fields[4],
    ) == density
    assert TransitionDensity(0.0, *fields[1:]) != density
    assert hash(density) == hash(fields)
    assert repr(density) == (
        "TransitionDensity(value=%r, stationary=%r, contributions=%r, tail_bound=%r, negative=%r)"
        % fields
    )
    with pytest.raises(AttributeError):
        density.value = 0.0
    with pytest.raises(AttributeError):
        del density.negative
