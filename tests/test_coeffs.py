"""Projection coefficient tables, limits, oracle cross-checks, constants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfchaos.coeffs import (
    c_iso,
    c_overlap,
    limit_coefficient,
    limit_coefficients,
    theta_table,
)
from dfchaos.chaos import statistic_product_mean
from dfchaos.errors import ConvergenceError, DomainError
from dfchaos.kernels import SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import binom
from dfchaos.validation import (
    c_overlap_oracle,
    phi,
    psi,
    system_residuals,
    tabulated_limit_values,
    theta_limit,
)


def test_theta_first_order_closed_form():
    for mass in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        for N in (1, 2, 5, 12):
            table = theta_table(N, mass, max_k=1)
            assert table.theta(1, 1) == (mass + 1) / (N + mass)


def test_theta_table_frozen_row_mass_two_N_six():
    table = theta_table(6, 2)
    assert table.theta(1, 1) == Fraction(3, 8)
    assert table.theta(2, 1) == Fraction(-25, 24)
    assert table.theta(2, 2) == Fraction(5, 18)


def test_theta_star_scaling():
    table = theta_table(5, 2)
    for k in range(1, 6):
        for a in range(1, k + 1):
            assert table.theta_star(k, a) == table.theta(k, a) / binom(5 - a, k - a)


def test_system_residuals_vanish():
    for mass in (Fraction(1, 2), 3):
        for N in (1, 3, 5):
            residuals = system_residuals(theta_table(N, mass))
            assert all(value == 0 for value in residuals.values())


def test_float_mass_table_equals_its_exact_image():
    # in floats the closing row's alternating sum cancelled: theta_table(32,
    # 0.3) was off by a relative 21, and its residuals were 1e-15 floats
    table = theta_table(32, 0.3)
    assert table.total_mass == Fraction(0.3)
    assert table.entries == theta_table(32, Fraction(0.3)).entries
    residuals = system_residuals(table).values()
    assert all(type(r) is Fraction and r == 0 for r in residuals)
    for mass in (0.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            theta_table(4, mass)


def test_theta_limit_matches_oracle():
    for mass in (Fraction(1, 2), Fraction(2)):
        for n, k in ((1, 1), (2, 1), (2, 2)):
            limit = theta_limit(n, k, mass)
            oracle = limit_coefficient(n, k, mass)
            assert limit.matches_oracle is True
            assert limit.value == pytest.approx(float(oracle), abs=1e-6)


def test_theta_limit_reports_divergence_budget():
    with pytest.raises(ConvergenceError) as excinfo:
        theta_limit(1, 1, 2, tol=1e-30)
    assert excinfo.value.partial is not None


def test_limit_coefficient_rows_mass_two():
    assert limit_coefficient(1, 1, 2) == 3
    assert limit_coefficient(2, 1, 2) == Fraction(-15, 2)
    assert limit_coefficient(2, 2, 2) == 10
    assert limit_coefficient(3, 1, 2) == 14
    assert limit_coefficient(3, 2, 2) == Fraction(-70, 3)
    assert limit_coefficient(3, 3, 2) == 35


def test_limit_coefficient_general_mass_row_two():
    for mass in (Fraction(1, 2), Fraction(1), Fraction(5)):
        assert limit_coefficient(1, 1, mass) == mass + 1
        assert limit_coefficient(2, 1, mass) == -(mass + 3) * (mass + 1) / 2
        assert limit_coefficient(2, 2, mass) == (mass + 3) * (mass + 2) / 2


def test_top_coefficient_inverts_isometry_constant():
    for mass in (Fraction(1, 2), Fraction(2)):
        for n in (1, 2, 3, 4):
            assert limit_coefficient(n, n, mass) == 1 / Fraction(c_iso(n, mass))


def test_tabulated_values_second_row_disagrees():
    mass = Fraction(2)
    published = tabulated_limit_values(mass)
    assert published[(1, 1)] == limit_coefficient(1, 1, mass)
    assert published[(2, 1)] != limit_coefficient(2, 1, mass)
    assert published[(2, 2)] != limit_coefficient(2, 2, mass)


def test_c_iso_values():
    assert c_iso(1, 2) == Fraction(1, 3)
    assert c_iso(2, 2) == Fraction(1, 10)
    assert c_iso(1, Fraction(1, 2)) == Fraction(2, 3)


def test_c_overlap_readings_and_oracle():
    alpha = measure(1, 1)
    h = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
    )
    second_moment = statistic_product_mean(h, h, alpha)
    assert second_moment == 2
    # overlapping-window expectations from exact enumeration
    assert c_overlap_oracle(h, h, 0, alpha) == Fraction(1, 5)
    assert c_overlap_oracle(h, h, 1, alpha) == Fraction(1, 2)
    assert c_overlap_oracle(h, h, 2, alpha) == 2
    # the reduced reading reproduces the oracle; the literal one zeroes r >= 1
    for r in (0, 1, 2):
        predicted = c_overlap(2, r, 2, bound="reduced") * second_moment
        assert predicted == c_overlap_oracle(h, h, r, alpha)
    assert c_overlap(2, 0, 2, bound="full") == c_iso(2, 2)
    assert c_overlap(2, 1, 2, bound="full") == 0
    assert c_overlap(2, 2, 2, bound="full") == 0


@settings(max_examples=100, deadline=None, database=None)
@given(
    mass=st.floats(min_value=0.01, max_value=50),
    n=st.integers(0, 8),
    overlap=st.integers(0, 8),
)
@example(mass=0.1, n=3, overlap=0)
@example(mass=13.049279805819122, n=4, overlap=0)
def test_float_mass_factors_round_their_exact_image_once(mass, n, overlap):
    # a stepwise float product missed this value in about half of all calls
    r = overlap % (n + 1)
    for bound in ("reduced", "full"):
        got = c_overlap(n, r, mass, bound=bound)
        assert type(got) is float
        assert got == float(c_overlap(n, r, Fraction(mass), bound=bound))
    assert c_iso(n, mass) == float(c_iso(n, Fraction(mass)))


@settings(max_examples=25, deadline=None, database=None)
@given(
    mass=st.builds(Fraction, st.integers(1, 40), st.integers(1, 15)),
    n=st.integers(1, 20),
)
@example(mass=Fraction(7, 3), n=20)
@example(mass=Fraction(1, 10), n=20)
def test_limit_coefficient_equals_the_literal_closed_form(mass, n):
    # theta(n,k) = (m+2n-1) (-1)^(n-k) rising(m+k, n-1) / n!, in Fractions
    def rising(x, k):
        return math.prod((x + i for i in range(k)), start=Fraction(1))

    lead = (mass + 2 * n - 1) / math.factorial(n)
    table = limit_coefficients(mass, n)
    for k in range(1, n + 1):
        expected = (-1) ** (n - k) * lead * rising(mass + k, n - 1)
        assert limit_coefficient(n, k, mass) == expected == table[(n, k)]


def test_c_overlap_rejects_bad_reading():
    with pytest.raises(DomainError):
        c_overlap(2, 1, 2, bound="sideways")


def test_limit_coefficient_rejects_nonpositive_mass():
    for mass in (0, Fraction(-1, 2), -3):
        with pytest.raises(DomainError):
            limit_coefficient(1, 1, mass)
    assert type(limit_coefficient(2, 1, 2)) is Fraction


@pytest.mark.parametrize(
    "constant",
    [
        lambda mass: c_iso(2, mass),
        lambda mass: c_overlap(3, 1, mass),
        lambda mass: c_overlap(2, 2, mass),
        lambda mass: psi(6, 2, 3, 3, mass),
        lambda mass: phi(4, 3, 1, 1, mass),
    ],
    ids=["c_iso", "c_overlap", "c_overlap-full-overlap", "psi", "phi"],
)
@pytest.mark.parametrize("mass", [float("inf"), float("nan"), 0, -1.5, Fraction(-1, 2)])
def test_constants_refuse_a_mass_that_is_not_positive_and_finite(constant, mass):
    # an infinite mass gave 0.0 (c_iso, c_overlap) or nan (psi, phi)
    with pytest.raises(DomainError):
        constant(mass)


def test_limit_coefficients_need_a_positive_order():
    for order in (0, -1):
        with pytest.raises(DomainError):
            limit_coefficients(2, order)
