"""Conditional-variance estimation and the exponential worked example."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from dfchaos import bayes
from dfchaos.bayes import (
    ObservedSample,
    decompose_exponential,
    estimate_conditional_variance,
)
from dfchaos.chaos import poly_posterior_mean
from dfchaos.coeffs import limit_coefficients
from dfchaos.errors import DomainError
from dfchaos.kernels import SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import hyp1f1, occupation_vectors, sub_occupations
from dfchaos.polya import expectation_statistic


def _closed_form_single_draw(alpha, labels, atom=1):
    posterior = ObservedSample(alpha, labels).posterior()
    s = posterior.total_mass
    p = posterior.weight(atom) / s
    return (s / (s + 1)) * p * (1 - p)


def test_single_draw_indicator_closed_form():
    table = {(1,): Fraction(1)}
    for alpha, labels in (
        (measure(1, 1), ()),
        (measure(1, 1), (1, 2, 1)),
        (measure("3/2", "1/2"), (2, 2)),
        (measure(2, 1, 1), (3, 1)),
    ):
        estimate = estimate_conditional_variance(table, ObservedSample(alpha, labels))
        assert estimate == _closed_form_single_draw(alpha, labels)


def test_uniform_prior_value_one_sixth():
    estimate = estimate_conditional_variance(
        {(1,): 1}, ObservedSample(measure(1, 1))
    )
    assert estimate == Fraction(1, 6)


def test_pair_statistic_matches_total_variance_split():
    # E[Var(h(X1,X2)|D) | obs] = E[h^2|obs] - E[(E h d^2)^2 | obs]
    alpha = measure(1, 1)
    h = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(1, 2), (0, 2): Fraction(-1)}
    )
    for labels in ((), (1,), (1, 2, 2)):
        sample = ObservedSample(alpha, labels)
        posterior = sample.posterior()
        second = expectation_statistic(
            SymmetricKernel(2, 2, {c: v * v for c, v in h.values.items()}), posterior
        )
        mean_poly = h.to_polynomial()
        mean_sq = poly_posterior_mean(mean_poly.mul(mean_poly), posterior, (0, 0))
        expected = second - mean_sq
        assert estimate_conditional_variance(h, sample) == expected


def test_estimator_accepts_asymmetric_tables():
    alpha = measure(1, 1)
    asym = {(1, 2): Fraction(1)}  # ordered-pair indicator, not symmetric
    estimate = estimate_conditional_variance(asym, ObservedSample(alpha))
    # E[d1 d2 (1 - d1 d2)]-style variance must be positive
    assert 0 < estimate < 1


def test_observed_sample_validation():
    with pytest.raises(DomainError):
        ObservedSample(measure(1, 1), (3,))


def test_exponential_mean_and_variance_are_confluent_values():
    alpha = measure(1, 1)
    result = decompose_exponential(alpha, (1,), 1, 12)
    assert result.mean == pytest.approx(math.e - 1.0, abs=1e-12)
    assert result.mean == pytest.approx(hyp1f1(1, 2, 1.0), abs=1e-14)
    variance = hyp1f1(1, 2, 2.0) - (math.e - 1.0) ** 2
    assert result.variance == pytest.approx(variance, abs=1e-12)


def test_exponential_first_kernel_constant():
    result = decompose_exponential(measure(1, 1), (1,), 1, 12)
    h1 = result.decomposition.kernel(1)
    target = 3.0 * (3.0 - math.e)
    assert h1.value((1, 0)) == pytest.approx(target, abs=1e-10)
    assert h1.value((0, 1)) == pytest.approx(-target, abs=1e-10)


def test_exponential_parseval_residual_shrinks():
    shallow = decompose_exponential(measure(1, 1), (1,), 1, 4)
    deep = decompose_exponential(measure(1, 1), (1,), 1, 20)
    assert abs(deep.residual) <= 1e-6
    assert abs(deep.residual) < abs(shallow.residual)
    assert all(c >= 0 for c in deep.contributions)


def test_exponential_subset_validation():
    with pytest.raises(DomainError):
        decompose_exponential(measure(1, 1), (), 1, 4)
    with pytest.raises(DomainError):
        decompose_exponential(measure(1, 1), (1, 2), 1, 4)
    with pytest.raises(DomainError):
        decompose_exponential(measure(1, 1), (5,), 1, 4)


def _unshared_kernels(alpha, subset, lam, max_order):
    """The kernel sums of ``decompose_exponential`` with one series per term."""
    lam_f, total = float(lam), alpha.total_mass
    a_C = float(sum(alpha.weight(x) for x in subset))
    mean = hyp1f1(a_C, float(total), lam_f)
    theta = limit_coefficients(total, max_order)
    kernels = []
    for n in range(1, max_order + 1):
        values = {}
        for a in occupation_vectors(n, alpha.atoms):
            acc = 0.0
            for k in range(1, n + 1):
                for mu, ways in sub_occupations(a, k):
                    hits = sum(mu[x - 1] for x in subset)
                    centred = hyp1f1(a_C + hits, float(total) + k, lam_f) - mean
                    acc += float(theta[(n, k)]) * ways * centred
            values[a] = acc
        kernels.append(values)
    return mean, kernels


@pytest.mark.parametrize(
    "alpha, subset, lam, order",
    [
        (measure("1/2", 1, "1/2"), (1, 2), 2, 8),
        (measure("1/4", "1/2", "3/4", "1/2"), (2, 4), -3, 5),
        (measure(1, 1), (1,), 1, 12),
    ],
)
def test_exponential_evaluates_each_series_once(monkeypatch, alpha, subset, lam, order):
    calls = []

    def counting(a, b, z):
        calls.append((a, b, z))
        return hyp1f1(a, b, z)

    monkeypatch.setattr(bayes, "hyp1f1", counting)
    result = decompose_exponential(alpha, subset, lam, order)
    assert len(calls) == len(set(calls))
    mean, kernels = _unshared_kernels(alpha, subset, lam, order)
    assert result.mean == mean
    assert [dict(h.items()) for h in result.decomposition.kernels] == kernels
