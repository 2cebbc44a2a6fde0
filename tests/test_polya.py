"""Urn sampling laws: joint probabilities, predictive rule, conditional means."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.kernels import SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import occupation_vectors
from dfchaos.polya import (
    empirical_measure,
    occupation_prob,
    polya_joint_prob,
    predictive,
    sample_polya,
)
from dfchaos.validation import (
    cond_exp_statistic,
    cond_exp_statistic_counts,
    expectation_statistic,
)


def test_joint_prob_hand_value():
    alpha = measure(1, 1)
    # P(1) * P(1 | one 1) * P(2 | two 1s) = 1/2 * 2/3 * 1/4
    assert polya_joint_prob(alpha, (1, 1, 2)) == Fraction(1, 12)


def test_joint_prob_exchangeable():
    alpha = measure("3/2", "1/2", 1)
    labels = (1, 3, 2, 1, 3)
    reference = polya_joint_prob(alpha, labels)
    for perm in itertools.permutations(labels):
        assert polya_joint_prob(alpha, perm) == reference


def test_joint_prob_sums_to_one():
    alpha = measure(2, "1/2")
    for n in (1, 2, 3, 4):
        total = sum(
            polya_joint_prob(alpha, labels)
            for labels in itertools.product((1, 2), repeat=n)
        )
        assert total == 1


def test_predictive_factorizes_the_joint_law():
    alpha = measure(1, 2)
    history = (2, 1, 2)
    base = polya_joint_prob(alpha, history)
    next_probs = predictive(alpha, history)
    for atom in (1, 2):
        assert polya_joint_prob(alpha, history + (atom,)) == base * next_probs[atom - 1]


def test_occupation_prob_uniform_two_atoms():
    alpha = measure(1, 1)
    # under the uniform two-atom urn all three occupation vectors of n=2 tie
    for counts in ((2, 0), (1, 1), (0, 2)):
        assert occupation_prob(alpha, counts) == Fraction(1, 3)
    assert sum(occupation_prob(alpha, c) for c in occupation_vectors(5, 2)) == 1


def test_expectation_and_conditional_expectation():
    alpha = measure(1, 1)
    h = SymmetricKernel(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    # E[1_{X=1}] = 1/2; after observing atom 1 the predictive mass moves up
    assert expectation_statistic(h, alpha) == Fraction(1, 2)
    assert cond_exp_statistic(h, alpha, (1,)) == Fraction(1)
    # conditioning a 2-draw mean indicator on one observed atom-1 draw
    h2 = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(1, 2), (0, 2): Fraction(0)}
    )
    assert cond_exp_statistic(h2, alpha, (1,)) == Fraction(2, 3) * 1 + Fraction(
        1, 3
    ) * Fraction(1, 2)
    assert cond_exp_statistic_counts(h2, alpha, (1, 0)) == cond_exp_statistic(
        h2, alpha, (1,)
    )


def test_conditional_expectation_respects_cap():
    # a sparse order-22 statistic on ten unit atoms has C(31, 9) = 20,160,075
    # completions of the empty block, over the cap
    alpha = measure(*[1] * 10)
    h = SymmetricKernel(22, 10, {(22,) + (0,) * 9: Fraction(1)})
    with pytest.raises(ResourceCapError, match="20160075 completions exceeds cap 10000000"):
        cond_exp_statistic(h, alpha, ())


def test_empirical_measure():
    assert empirical_measure((1, 1, 2), atoms=2) == (Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(DomainError):
        empirical_measure((), atoms=2)


def test_sampler_matches_occupation_law():
    alpha = measure(2, 1)
    rng = np.random.default_rng(99)
    n, reps = 4, 20_000
    first_counts = np.array(
        [sample_polya(alpha, n, rng).labels.count(1) for _ in range(reps)]
    )
    mean_exact = float(
        sum(occupation_prob(alpha, c) * c[0] for c in occupation_vectors(n, 2))
    )
    second = float(
        sum(occupation_prob(alpha, c) * c[0] ** 2 for c in occupation_vectors(n, 2))
    )
    sd = (second - mean_exact**2) ** 0.5
    assert abs(first_counts.mean() - mean_exact) < 4 * sd / reps**0.5
