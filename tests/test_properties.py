"""Property tests: the closed-form coefficients against their oracles.

Masses are drawn as p/q with 1 <= p, q <= 12; the masses named in the
coefficient docstrings are pinned as explicit examples.
"""

from __future__ import annotations

from fractions import Fraction

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
from dfchaos.validation import oracle_limit_row

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
