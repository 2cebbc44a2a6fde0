"""Kernel extraction, multiple integrals, covariance identities, martingale view."""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from dfchaos.chaos import (
    BlackBoxFunctional,
    ChaosDecomposition,
    chaos_kernels,
    cond_exp_functional,
    covariance_integrals,
    expectation_of_integral,
    functional_mean,
    martingale_decomposition,
    multiple_integral,
    reconstruct,
    statistic_product_mean,
    variance_from_decomposition,
    variance_functional,
)
from dfchaos.errors import DomainError
from dfchaos.hoeffding import degenerate_basis, degenerate_check
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import measure

ETA_SQ = SimplexPolynomial.monomial(2, (2, 0))
UNIFORM = measure(1, 1)


def test_worked_example_squared_mass():
    decomposition = chaos_kernels(ETA_SQ, UNIFORM, 2)
    assert decomposition.mean == Fraction(1, 3)
    h1, h2 = decomposition.kernel(1), decomposition.kernel(2)
    assert (h1.value((1, 0)), h1.value((0, 1))) == (Fraction(1, 2), Fraction(-1, 2))
    assert h2.value((2, 0)) == Fraction(1, 6)
    assert h2.value((1, 1)) == Fraction(-1, 3)
    assert h2.value((0, 2)) == Fraction(1, 6)


def test_worked_example_parseval():
    decomposition = chaos_kernels(ETA_SQ, UNIFORM, 2)
    assert variance_from_decomposition(decomposition) == Fraction(4, 45)
    assert variance_functional(ETA_SQ, UNIFORM) == Fraction(4, 45)
    # per-order split 1/12 + 1/180
    h1, h2 = decomposition.kernel(1), decomposition.kernel(2)
    assert Fraction(1, 3) * statistic_product_mean(h1, h1, UNIFORM) == Fraction(1, 12)
    assert Fraction(1, 10) * statistic_product_mean(h2, h2, UNIFORM) == Fraction(1, 180)


def test_kernels_are_degenerate_and_orders_beyond_degree_vanish():
    alpha = measure(2, 1, "1/2")
    F = SimplexPolynomial(
        3, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1), (1, 0, 0): Fraction(1)}
    )
    decomposition = chaos_kernels(F, alpha, 4)
    for n in (1, 2):
        assert degenerate_check(decomposition.kernel(n), alpha) == 0
    assert decomposition.kernel(3).is_zero()
    assert decomposition.kernel(4).is_zero()


def test_reconstruction_is_exact_on_the_simplex():
    alpha = measure("1/2", 1, "3/2")
    F = SimplexPolynomial(
        3, {(2, 1, 0): Fraction(1), (0, 1, 0): Fraction(-2), (1, 1, 1): Fraction(3)}
    )
    decomposition = chaos_kernels(F, alpha, 3)
    for point in (
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 10), Fraction(3, 5), Fraction(3, 10)),
        (Fraction(2, 7), Fraction(4, 7), Fraction(1, 7)),
    ):
        assert reconstruct(decomposition, point) == F.evaluate(point)


def test_multiple_integral_evaluates_the_induced_polynomial():
    h = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
    )
    x = (Fraction(1, 3), Fraction(2, 3))
    # x1^2 - 2*2*x1*x2 + x2^2 with the (1,1) multiplicity of 2
    assert multiple_integral(h, x) == Fraction(1, 9) - 4 * Fraction(2, 9) + Fraction(4, 9)
    assert expectation_of_integral(h, UNIFORM) == 0


def test_covariance_identities():
    alpha = measure(1, 1)
    h1 = degenerate_basis(alpha, 1)[0]
    h2 = degenerate_basis(alpha, 2)[0]
    same = covariance_integrals(h2, h2, alpha)
    assert same.exact == same.predicted
    cross = covariance_integrals(h1, h2, alpha)
    assert cross.exact == 0 and cross.predicted == 0
    # non-degenerate kernels route through their orthogonal components
    g = SymmetricKernel(2, 2, {(2, 0): Fraction(1)})
    mixed = covariance_integrals(g, g, alpha)
    assert mixed.exact == mixed.predicted
    assert mixed.route != "degenerate-isometry"


def test_json_round_trip():
    decomposition = chaos_kernels(ETA_SQ, UNIFORM, 2)
    clone = ChaosDecomposition.from_json(decomposition.to_json())
    assert clone.mean == decomposition.mean
    for n in (1, 2):
        assert clone.kernel(n).values == decomposition.kernel(n).values


def test_martingale_identity_but_not_orthogonal():
    alpha = measure(1, 1)
    # indicator that both draws hit atom 1
    H = SymmetricKernel(2, 2, {(2, 0): Fraction(1)})
    components = martingale_decomposition(H, alpha)
    mean = expectation_of_integral(H, alpha)
    # identity: mean + sum_n integral(g_n) reproduces E[H | D] as a polynomial
    total = SimplexPolynomial.constant(2, mean)
    for g in components:
        total = total.add(g.to_polynomial())
    direct = cond_exp_functional(
        SimplexPolynomial.monomial(2, (2, 0)), alpha
    )  # E[d1^2 | .] as number; instead compare pointwise:
    for x in (Fraction(1, 4), Fraction(2, 3)):
        point = (x, 1 - x)
        # E[H | D = point] = point_1^2 for the ordered-pair indicator
        assert total.evaluate(point) == x * x
    # cross moment of the induced integrals does not vanish
    g1 = components[0].symmetrised().to_polynomial()
    g2 = components[1].symmetrised().to_polynomial()
    from dfchaos.chaos import poly_posterior_mean

    cross = poly_posterior_mean(g1.mul(g2), alpha, (0, 0)) - poly_posterior_mean(
        g1, alpha, (0, 0)
    ) * poly_posterior_mean(g2, alpha, (0, 0))
    assert cross != 0
    assert direct == Fraction(1, 3)


def test_black_box_matches_exact_mean():
    rng = np.random.default_rng(31)
    F = BlackBoxFunctional(lambda masses: masses[0] ** 2, atoms=2, mc_budget=20_000)
    estimate = functional_mean(F, UNIFORM, rng)
    assert estimate.value == pytest.approx(1 / 3, abs=4 * estimate.stderr)
    assert estimate.draws == 20_000


def test_black_box_kernels_at_the_default_budget_are_fast_and_centred():
    # K = 3, order 3: 20 conditional means of 10,000 posterior draws each
    alpha = measure("1/2", 1, "3/2")
    poly = SimplexPolynomial(
        3, {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(1), (3, 0, 0): Fraction(-1)}
    )
    F = BlackBoxFunctional(lambda d: d[0] * d[1] + d[2] ** 2 - d[0] ** 3, atoms=3)
    assert F.mc_budget == 10_000
    started = time.perf_counter()
    decomposition = chaos_kernels(F, alpha, 3, rng=np.random.default_rng(41))
    assert time.perf_counter() - started < 2.0
    stderr = functional_mean(F, alpha, np.random.default_rng(42)).stderr
    exact = float(functional_mean(poly, alpha))
    assert abs(decomposition.mean - exact) < 5 * stderr


def test_order_bounds():
    with pytest.raises(DomainError):
        chaos_kernels(ETA_SQ, UNIFORM, 0)
