"""Two-atom specialization: orthonormal Beta-weight polynomials and kernels."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from dfchaos.errors import DomainError, NumericError
from dfchaos.jacobi import (
    MAX_JACOBI_ORDER,
    BetaParams,
    as_functional,
    beta_bernstein,
    beta_weight_integral,
    exact_parts,
    jacobi_gram,
    jacobi_inner,
    jacobi_modified,
    jacobi_norm_identity,
    kernel_to_univariate,
    solve_phi_system,
)
from dfchaos.hoeffding import degenerate_check
from dfchaos.kernels import SymmetricKernel

PARAM_SETS = (
    BetaParams(1, 1),
    BetaParams(Fraction(1, 2), Fraction(1, 2)),
    BetaParams(3, 2),
)


def test_exact_parts_first_orders_uniform():
    k1, g1 = exact_parts(1, BetaParams(1, 1))
    assert k1 == 12 and g1 == (Fraction(-1, 2), Fraction(1))
    k2, g2 = exact_parts(2, BetaParams(1, 1))
    assert k2 == 180 and g2 == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_first_polynomial_uniform_is_sqrt3_times_2x_minus_1():
    poly = jacobi_modified(1, BetaParams(1, 1))
    root3 = math.sqrt(3.0)
    assert float(poly.coefficient(0)) == pytest.approx(-root3, rel=1e-15)
    assert float(poly.coefficient(1)) == pytest.approx(2 * root3, rel=1e-15)
    assert jacobi_modified(0, BetaParams(1, 1)).coefficients == (1.0,)


def test_orthonormality_is_exact_on_rational_parameters():
    for params in PARAM_SETS:
        for n in range(0, 9):
            for m in range(0, 9):
                value = jacobi_inner(n, m, params)
                if n == m:
                    assert value == 1
                else:
                    assert value == 0


def test_norm_identity_exact():
    for params in PARAM_SETS:
        for n in range(1, 7):
            lhs, rhs = jacobi_norm_identity(n, params)
            assert lhs == rhs


def test_phi_kernels_degenerate_and_match_polynomials():
    for params in PARAM_SETS:
        base = params.as_measure()
        for n in range(1, 7):
            phi = solve_phi_system(n, params)
            assert float(degenerate_check(phi, base)) <= 1e-12
            induced = kernel_to_univariate(phi)
            target = jacobi_modified(n, params)
            for a in range(n + 1):
                assert float(induced.coefficient(a)) == pytest.approx(
                    float(target.coefficient(a)), rel=1e-12, abs=1e-12
                )


def test_beta_weight_integral_moments():
    params = BetaParams(2, 1)
    # E[x^a] under Beta(2,1): rising(2,a)/rising(3,a)
    poly = jacobi_modified(0, params)
    assert beta_weight_integral(poly, params) == 1
    x = kernel_to_univariate(solve_phi_system(1, params))
    assert beta_weight_integral(x.mul(x), params) == pytest.approx(1.0, rel=1e-13)


def test_as_functional_matches_polynomial():
    params = BetaParams(1, 1)
    poly = jacobi_modified(2, params)
    F = as_functional(poly)
    assert F.nvars == 2
    x = Fraction(1, 3)
    assert F.evaluate((x, 1 - x)) == pytest.approx(float(poly(float(x))), rel=1e-13)


@pytest.mark.parametrize("a1, a0", [(1.25, 0.75), (0.3, 2.7)])
def test_float_parameters_are_read_exactly(a1, a0):
    params = BetaParams(a1, a0)
    assert (params.a1, params.a0) == (Fraction(a1), Fraction(a0))
    for n in range(0, 17):
        for m in range(0, 17):
            assert jacobi_inner(n, m, params) == (1 if n == m else 0)
    lhs, rhs = jacobi_norm_identity(12, params)
    assert lhs == rhs == 1


def test_gram_matrix_is_exactly_the_identity_at_the_order_cap():
    assert MAX_JACOBI_ORDER == 60
    gram = jacobi_gram(MAX_JACOBI_ORDER, BetaParams(Fraction(1, 3), Fraction(5, 2)))
    for i, row in enumerate(gram):
        assert row == [1 if j == i else 0 for j in range(MAX_JACOBI_ORDER + 1)]


@pytest.mark.parametrize(
    "params",
    [
        BetaParams(Fraction(1, 3), Fraction(5, 2)),
        BetaParams(Fraction(7, 2), Fraction(1, 9)),
        BetaParams(0.3, 2.7),
        BetaParams(2.5, 0.25),
    ],
)
def test_gram_matrix_equals_the_pairwise_inner_products(params):
    # the Hankel route of the Gram matrix against one convolution per pair
    for n in (0, 1, 30):
        pairwise = [[jacobi_inner(i, j, params) for j in range(n + 1)] for i in range(n + 1)]
        assert repr(jacobi_gram(n, params)) == repr(pairwise)


@pytest.mark.parametrize(
    "params", PARAM_SETS + (BetaParams(Fraction(1, 3), Fraction(5, 2)), BetaParams(0.3, 2.7))
)
def test_phi_kernel_lead_is_the_rounded_sqrt_of_k(params):
    # sqrt(k_n) read from the Bernstein norm is the float leading coefficient
    # of ``jacobi_modified``, bit for bit
    for n in (1, 2, 7, 30, MAX_JACOBI_ORDER):
        k, _ = exact_parts(n, params)
        psi, norm = beta_bernstein(n, params.a1, params.a0)
        assert k * norm == 1
        lead = jacobi_modified(n, params).coefficient(n)
        phi = solve_phi_system(n, params)
        assert phi.value((n, 0)) == float(psi[n]) * lead
        assert phi.value((0, n)) == float(psi[0]) * lead


def test_order_cap_and_domain_errors():
    with pytest.raises(NumericError):
        jacobi_modified(MAX_JACOBI_ORDER + 1, BetaParams(1, 1))
    with pytest.raises(NumericError):
        solve_phi_system(MAX_JACOBI_ORDER + 1, BetaParams(1, 1))
    with pytest.raises(DomainError):
        jacobi_modified(-1, BetaParams(1, 1))
    with pytest.raises(DomainError):
        BetaParams(0, 1)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            BetaParams(1, bad)


def test_a_normalising_constant_beyond_the_float_range_raises_numeric_error():
    # k_20 of these parameters is about 1e314: its exact parts are fine, its sqrt is not
    params = BetaParams(Fraction(1000000007, 3), Fraction(1, 500000000))
    for build in (jacobi_modified, solve_phi_system):
        with pytest.raises(NumericError, match="leaves the float range"):
            build(20, params)
    gram = jacobi_gram(20, params)
    assert all(gram[i][j] == (i == j) for i in range(21) for j in range(21))


def _bernstein_kernel(psi):
    n = len(psi) - 1
    return SymmetricKernel(n, 2, {(j, n - j): p for j, p in enumerate(psi)})


@pytest.mark.parametrize(
    "a, b",
    [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (3, 2), (Fraction(1, 3), Fraction(7, 2)),
     (Fraction(5, 4), Fraction(1, 10))],
)
def test_beta_bernstein_is_the_monic_polynomial(a, b):
    # kernel_to_univariate is the independent route back to the power basis
    for n in range(0, 21):
        psi, norm = beta_bernstein(n, a, b)
        k, g = exact_parts(n, BetaParams(a, b))
        assert kernel_to_univariate(_bernstein_kernel(psi)).coefficients == g
        assert norm == 1 / k


def test_beta_bernstein_has_no_degree_cap_and_reads_floats_exactly():
    psi, norm = beta_bernstein(60, Fraction(1, 2), 3)
    assert kernel_to_univariate(_bernstein_kernel(psi)).coefficient(60) == 1
    assert 0 < norm < Fraction(1, 4) ** 60
    for n in range(0, 6):
        assert beta_bernstein(n, 1.25, 0.3) == beta_bernstein(n, Fraction(1.25), Fraction(0.3))
    with pytest.raises(DomainError):
        beta_bernstein(-1, 1, 1)
    with pytest.raises(DomainError):
        beta_bernstein(2, 0, 1)


def test_beta_bernstein_refuses_parameters_that_are_not_finite():
    for bad in (math.nan, math.inf):
        for a, b in ((bad, 1), (2, bad)):
            with pytest.raises(DomainError, match="positive and finite"):
                beta_bernstein(2, a, b)


def test_float_parameter_kernels_match_polynomials():
    for params in (BetaParams(1.25, 0.75), BetaParams(0.3, 2.7)):
        for n in range(1, 9):
            induced = kernel_to_univariate(solve_phi_system(n, params))
            target = jacobi_modified(n, params)
            scale = max(abs(c) for c in target.coefficients)
            for a in range(n + 1):
                assert abs(induced.coefficient(a) - target.coefficient(a)) <= 1e-12 * scale
