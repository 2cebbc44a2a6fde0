"""Beta-polynomial parts on integer ladders against their rising-factorial forms.

``jacobi`` builds the Bernstein coefficients psi, the power-basis
coefficients g, the squared norm ||P_n||^2 and k_n = 1/||P_n||^2 as
integers over one denominator per order.  The references here are the
printed formulas, each rising factorial a product of ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dfchaos.bayes import decompose_exponential
from dfchaos.jacobi import (
    BetaParams,
    _integer_parts,
    beta_bernstein,
    exact_parts,
    solve_phi_system,
)
from dfchaos.measures import measure
from dfchaos.numeric import common_denominator, hyp1f1, occupation_vectors


def _rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def _psi(n, a, b):
    lead = _rising(n + a + b - 1, n)
    return [
        (-1) ** (n - j) * _rising(a + j, n - j) * _rising(n + b - j, j) / lead
        for j in range(n + 1)
    ]


def _norm(n, a, b):
    num = math.factorial(n) * _rising(a, n) * _rising(b, n)
    return num / (_rising(a + b, 2 * n) * _rising(n + a + b - 1, n))


def _g(n, a1, a0):
    p = a1 + a0 - 1
    return [
        math.comb(n, a) * (-1) ** (n - a) * _rising(a1 + a, n - a) / _rising(p + a + n, n - a)
        for a in range(n + 1)
    ]


PARAMETER = st.one_of(
    st.fractions(min_value=0, max_value=10, max_denominator=60).filter(lambda x: x > 0),
    st.floats(min_value=2.0**-20, max_value=10.0),
)


@settings(max_examples=40, deadline=None, database=None)
@given(a=PARAMETER, b=PARAMETER, n=st.integers(0, 30))
def test_ladder_parts_equal_the_rising_factorial_formulas(a, b, n):
    x, y = Fraction(a), Fraction(b)
    psi, norm = beta_bernstein(n, a, b)
    assert list(psi) == _psi(n, x, y)
    assert norm == _norm(n, x, y)
    k, g = exact_parts(n, BetaParams(a, b))
    assert list(g) == _g(n, x, y)
    assert k == 1 / _norm(n, x, y)
    # the integer parts are the least-common-denominator numerators
    _, nums, den = _integer_parts(n, BetaParams(a, b))
    assert (nums, den) == common_denominator(_g(n, x, y))


PRIORS = (measure("1/2", "3/2"), measure("1/2", 1, "1/2"), measure("1/4", "1/2", "3/4", "1/2"))


def test_exponential_kernels_round_the_exact_parts_once():
    # P2-P4 of the benchmark session; every value is c_n times one rounded psi_j
    for alpha in PRIORS:
        for subset in ((1,), (2,), (1, alpha.atoms - 1)):
            C = tuple(sorted(set(subset)))
            a = alpha.mass_of(C)
            b = alpha.total_mass - a
            for lam in (Fraction(-40), Fraction(-1), Fraction(1, 2), Fraction(5, 2)):
                result = decompose_exponential(alpha, subset, lam, 8)
                lam_f, power = float(lam), 1.0
                for n in range(1, 9):
                    power *= lam_f / n
                    c_n = power * hyp1f1(float(a + n), float(a + b + 2 * n), lam_f)
                    psi = _psi(n, a, b)
                    kernel = result.decomposition.kernels[n - 1]
                    for o in occupation_vectors(n, alpha.atoms):
                        assert kernel.values[o] == c_n * float(psi[sum(o[x - 1] for x in C)])
                    assert result.contributions[n - 1] == c_n * c_n * float(_norm(n, a, b))


def test_phi_kernels_are_unchanged():
    for a1, a0 in ((1, 1), (Fraction(1, 3), Fraction(5, 2)), (Fraction(5, 4), Fraction(1, 10)),
                   (0.3, 2.7), (7, Fraction(2, 9))):
        params = BetaParams(a1, a0)
        x, y = params.a1, params.a0
        for n in range(0, 25):
            phi = solve_phi_system(n, params)
            lead = math.sqrt(float(1 / _norm(n, x, y)))
            assert phi.values == {(m, n - m): float(p) * lead for m, p in enumerate(_psi(n, x, y))}
            assert all(type(v) is float for v in phi.values.values())
