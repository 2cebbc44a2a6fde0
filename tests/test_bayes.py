"""Conditional-variance estimation and the exponential worked example."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from dfchaos import bayes, chaos, coeffs
from dfchaos.bayes import (
    ObservedSample,
    decompose_exponential,
    estimate_conditional_variance,
)
from dfchaos.chaos import poly_posterior_mean
from dfchaos.coeffs import limit_coefficients
from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.kernels import SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import hyp1f1, occupation_vectors, sub_occupations
from dfchaos.validation import expectation_statistic


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


# a two-entry table of arity 8 on ten unit atoms: K^m = 10**8 label tuples,
# but the decomposition reads the C(8 + 10, 10) = 43,758 occupation vectors
# of at most 8 points
ARITY_8_TABLE = {(1,) * 8: Fraction(1), (1, 2, 3, 4, 5, 6, 7, 8): Fraction(2)}
TEN_ATOMS_SEEN_TWICE = ObservedSample(measure(*([1] * 10)), (1, 2))


def test_conditional_variance_cap_counts_the_lattice():
    estimate = estimate_conditional_variance(ARITY_8_TABLE, TEN_ATOMS_SEEN_TWICE)
    assert estimate == Fraction(3486151916099, 29599515805860000)


def test_conditional_variance_cap_refuses_before_any_kernel(monkeypatch):
    # the posterior is the first step after the gate, the product of the
    # mean functional's terms the costly one
    def not_reached(*args, **kwargs):
        raise AssertionError("a step after the cap gate ran")

    monkeypatch.setattr(bayes, "with_observations", not_reached)
    monkeypatch.setattr(bayes, "_product_sum", not_reached)
    # a one-entry arity-22 table on ten atoms: C(32, 10) = 64,512,240 vectors
    arity_22_table = {(1,) * 22: Fraction(1)}
    with pytest.raises(ResourceCapError, match="64512240 vectors exceeds cap 10000000"):
        estimate_conditional_variance(arity_22_table, TEN_ATOMS_SEEN_TWICE)


def test_conditional_variance_takes_no_decomposition(monkeypatch):
    def no_decomposition(*args, **kwargs):
        raise AssertionError("the decomposition route ran")

    for module, name in (
        (chaos, "chaos_kernels"),
        (chaos, "statistic_product_mean"),
        (coeffs, "c_iso"),
    ):
        monkeypatch.setattr(module, name, no_decomposition)
        assert not hasattr(bayes, name)
    h = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(1, 2), (0, 2): Fraction(-1)}
    )
    sample = ObservedSample(measure(1, 1), (1, 2, 2))
    assert estimate_conditional_variance(h, sample) > 0
    assert estimate_conditional_variance(ARITY_8_TABLE, TEN_ATOMS_SEEN_TWICE) == Fraction(
        3486151916099, 29599515805860000
    )


def test_observed_sample_validation():
    with pytest.raises(DomainError):
        ObservedSample(measure(1, 1), (3,))


@pytest.mark.parametrize("label", [1.7, 1.0, True, Fraction(1), "1", None])
def test_a_label_that_is_not_an_integer_is_refused(label):
    alpha = measure(1, 1, 1)
    with pytest.raises(DomainError, match="is not an integer"):
        ObservedSample(alpha, (2, label))
    with pytest.raises(DomainError, match="is not an integer"):
        estimate_conditional_variance({(label, 2): 1}, ObservedSample(alpha))
    with pytest.raises(DomainError, match="is not an integer"):
        decompose_exponential(alpha, (label,), 1, 2)
    assert ObservedSample(alpha, (np.int64(2), 3)).labels == (2, 3)


def test_a_value_table_key_that_is_not_a_tuple_is_refused():
    sample = ObservedSample(measure(1, 1))
    for table in ({1: 1}, {(1,): 1, 2: 1}, {"12": 1}):
        with pytest.raises(DomainError, match="is not a tuple of labels"):
            estimate_conditional_variance(table, sample)


def test_a_zero_estimate_keeps_the_type_of_its_values():
    sample = ObservedSample(measure(1, "1/2"), (2,))
    for h in (
        {(): Fraction(3)},
        SymmetricKernel(0, 2, {(0, 0): 1}),
        SymmetricKernel(2, 2, {}),
        SymmetricKernel(2, 2, {(1, 1): 0, (2, 0): 0.0}),
        {(1, 2): 0, (2, 1): Fraction(0)},
    ):
        estimate = estimate_conditional_variance(h, sample)
        assert type(estimate) is Fraction and estimate == 0
    for h in ({(): 0.5}, {(1, 2): 0.0, (2, 2): 0}, {(1,): 1.25}):
        estimate = estimate_conditional_variance(h, sample)
        assert type(estimate) is float
    assert estimate_conditional_variance({(): 0.5}, sample) == 0.0


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


def test_exponential_order_must_be_an_int():
    alpha = measure(1, 1, 1)
    for bad in (2.5, True, 0):
        with pytest.raises(DomainError, match="max_order"):
            decompose_exponential(alpha, (1,), 2, bad)


def test_mass_kernel_refuses_an_atom_outside_the_support():
    with pytest.raises(DomainError, match="atom 4 outside support 1..3"):
        bayes.mass_kernel(3, (4,), [1, 2, 3])
    h = bayes.mass_kernel(3, (3, 1, 3), [1, "1/2", 0.25])
    assert h.values == {
        o: [Fraction(1), Fraction(1, 2), 0.25][o[0] + o[2]] for o in occupation_vectors(2, 3)
    }


def test_exponential_caps_the_kernel_size():
    # sum over n <= 30 of C(n + 9, 9) = C(40, 10) - 1 ~ 8.5e8 values on ten
    # atoms: refused before any kernel is built; two atoms hold 31 * 32 / 2
    ten = measure(*([1] * 10))
    with pytest.raises(ResourceCapError):
        decompose_exponential(ten, (1,), 1, 30)
    assert decompose_exponential(ten, (1,), 1, 3).order == 3
    assert decompose_exponential(measure(1, 1), (1,), 1, 30).order == 30


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
def test_exponential_calls_hyp1f1_once_per_order(monkeypatch, alpha, subset, lam, order):
    calls = []

    def counting(a, b, z):
        calls.append((a, b, z))
        return hyp1f1(a, b, z)

    monkeypatch.setattr(bayes, "hyp1f1", counting)
    result = decompose_exponential(alpha, subset, lam, order)
    # the mean, the second moment and one series per order
    assert len(calls) == order + 2
    # the theta route of the paper agrees where its 1F1 differences still
    # keep enough digits (it loses them at higher orders)
    mean, kernels = _unshared_kernels(alpha, subset, lam, min(order, 6))
    assert result.mean == mean
    for h, reference in zip(result.decomposition.kernels, kernels):
        scale = max(abs(v) for v in reference.values())
        assert all(abs(h.value(o) - v) <= 1e-6 * scale for o, v in reference.items())


def _mpmath_kernels(alpha, subset, lam, orders):
    """The theta route evaluated in 100-digit arithmetic: the reference for
    the float kernels (its 1F1 differences cancel, but 100 digits leave
    more than 40 after the worst cancellation here).  The sub-occupations
    of a vector with j draws in C that have h of their k draws in C number
    C(j, h) C(n - j, k - h), so each value is a sum over (k, h)."""
    mpmath = pytest.importorskip("mpmath")

    def _mp(value):
        value = Fraction(value)
        return mpmath.mpf(value.numerator) / value.denominator

    with mpmath.workdps(100):
        total = alpha.total_mass
        a_C = sum(alpha.weight(x) for x in subset)
        theta = limit_coefficients(total, max(orders))
        series = {}

        def hyp(a, b):
            if (a, b) not in series:
                series[(a, b)] = mpmath.hyp1f1(_mp(a), _mp(b), _mp(lam))
            return series[(a, b)]

        mean = hyp(a_C, total)
        kernels = {}
        for n in orders:
            by_hits = []
            for j in range(n + 1):
                acc = mpmath.mpf(0)
                for k in range(1, n + 1):
                    inner = mpmath.mpf(0)
                    for h in range(max(0, k - n + j), min(j, k) + 1):
                        ways = math.comb(j, h) * math.comb(n - j, k - h)
                        inner += ways * (hyp(a_C + h, total + k) - mean)
                    acc += _mp(theta[(n, k)]) * inner
                by_hits.append(float(acc))
            kernels[n] = {
                o: by_hits[sum(o[x - 1] for x in subset)]
                for o in occupation_vectors(n, alpha.atoms)
            }
        return float(mean), kernels


def _assert_kernels_match(result, mean, kernels, rel=1e-10):
    assert result.mean == pytest.approx(mean, rel=rel)
    for n, reference in kernels.items():
        h = result.decomposition.kernel(n)
        scale = max(abs(v) for v in reference.values())
        worst = max(abs(h.value(o) - v) for o, v in reference.items()) / scale
        assert worst <= rel, (n, worst)


MPMATH_MEASURES = [
    (measure(1, 1), (1,)),
    (measure("1/2", "3/2"), (1,)),
    (measure("1/2", 1, "1/2"), (1, 3)),
]


@pytest.mark.parametrize("alpha, subset", MPMATH_MEASURES)
def test_exponential_high_order_kernels_match_mpmath(alpha, subset):
    # the theta route in floats missed these by factors up to 4e28
    lam = 1 if alpha.atoms == 3 else 2
    result = decompose_exponential(alpha, subset, lam, 20)
    mean, kernels = _mpmath_kernels(alpha, subset, lam, range(12, 21))
    _assert_kernels_match(result, mean, kernels)


@pytest.mark.parametrize("alpha, subset", MPMATH_MEASURES)
@pytest.mark.parametrize("lam", ["-1/2", -3, -10])
def test_exponential_negative_lambda_matches_mpmath(alpha, subset, lam):
    result = decompose_exponential(alpha, subset, Fraction(lam), 10)
    mean, kernels = _mpmath_kernels(alpha, subset, Fraction(lam), range(1, 11))
    _assert_kernels_match(result, mean, kernels)


def test_exponential_float_weights_equal_their_rational_image():
    floats = measure(0.3, 0.45, 1.1)
    image = measure(Fraction(0.3), Fraction(0.45), Fraction(1.1))
    for lam in (-2.5, 0.7):
        got = decompose_exponential(floats, (2, 3), lam, 8)
        want = decompose_exponential(image, (2, 3), lam, 8)
        assert (got.mean, got.variance, got.contributions) == (
            want.mean, want.variance, want.contributions
        )
        assert [dict(h.items()) for h in got.decomposition.kernels] == [
            dict(h.items()) for h in want.decomposition.kernels
        ]


def test_exponential_residual_bound_covers_cancelled_variance():
    # Var G = 1F1(1, 2, 2e-9) - mean^2 cancels to 0.0 in floats, so the
    # residual is -c_1^2 ||P_1||^2 = -8.3e-20: pure rounding, inside the bound
    result = decompose_exponential(measure(1, 1), (1,), 1e-9, 6)
    assert result.variance == 0.0
    assert result.residual < 0
    assert abs(result.residual) <= result.residual_bound
    assert result.residual_bound == pytest.approx(8 * 2.0**-52 * 2.0, rel=1e-8)


@pytest.mark.parametrize("weights", [(1, 1), (10, "1/10"), ("1/10", 10)])
@pytest.mark.parametrize("lam", [-40, -10, -1, "1/1000", 5, 20])
def test_exponential_converged_residual_is_inside_its_bound(weights, lam):
    # at order 100 the truncation tail is far below one ulp, so what is
    # left is the rounding the bound describes
    result = decompose_exponential(measure(*weights), (1,), Fraction(lam), 100)
    assert abs(result.residual) <= result.residual_bound
