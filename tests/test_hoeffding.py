"""Finite-sample orthogonal split of symmetric statistics."""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import pytest

from dfchaos.chaos import martingale_decomposition
from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.hoeffding import (
    degenerate_basis,
    degenerate_check,
    hoeffding_decompose,
)
from dfchaos.kernels import SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import occupation_vectors
from dfchaos.polya import polya_joint_prob


def _posterior_mean_eta_sq(counts):
    # E[d1^2 | counts] under the uniform two-atom prior
    a = 1 + counts[0]
    s = 2 + sum(counts)
    return Fraction(a * (a + 1), s * (s + 1))


def test_degenerate_check_detects():
    alpha = measure(1, 1)
    balanced = SymmetricKernel(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    tilted = SymmetricKernel(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(1, 2)})
    assert degenerate_check(balanced, alpha) == 0
    assert degenerate_check(tilted, alpha) > 0


def test_degenerate_basis_dimensions():
    # occupation vectors minus predictive constraints (one per history)
    assert len(degenerate_basis(measure(1, 1), 2)) == 3 - 2
    assert len(degenerate_basis(measure(1, 1, 1), 2)) == 6 - 3
    for h in degenerate_basis(measure(2, "1/2"), 3):
        assert degenerate_check(h, measure(2, "1/2")) == 0


def test_split_of_two_draw_posterior_mean():
    alpha = measure(1, 1)
    H = SymmetricKernel.from_function(2, 2, _posterior_mean_eta_sq)
    split = hoeffding_decompose(H, alpha)
    assert split.mean == Fraction(1, 3)
    phi1, phi2 = split.component(1), split.component(2)
    assert phi1.value((1, 0)) == Fraction(1, 8)
    assert phi1.value((0, 1)) == Fraction(-1, 8)
    assert phi2.value((2, 0)) == Fraction(1, 60)
    assert phi2.value((1, 1)) == Fraction(-1, 30)
    assert phi2.value((0, 2)) == Fraction(1, 60)


def test_split_reconstructs_and_components_degenerate():
    alpha = measure("3/2", "1/2")
    H = SymmetricKernel(
        3,
        2,
        {
            (3, 0): Fraction(2),
            (2, 1): Fraction(1, 2),
            (1, 2): Fraction(-1),
            (0, 3): Fraction(4),
        },
    )
    split = hoeffding_decompose(H, alpha)
    rebuilt = split.reconstruct()
    for counts in occupation_vectors(3, 2):
        assert rebuilt.value(counts) == H.value(counts)
    for s in (1, 2, 3):
        assert degenerate_check(split.component(s), alpha) == 0


def test_split_projections_mutually_orthogonal():
    alpha = measure(1, 2)
    H = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(-1), (0, 2): Fraction(3)}
    )
    split = hoeffding_decompose(H, alpha)
    projections = [split.projection(s) for s in (1, 2)]
    # E over the joint urn law of proj_s * proj_t for s != t, and of
    # (H - mean - sum proj_s) against anything, must vanish
    def joint_mean(f, g):
        total = Fraction(0)
        for labels in itertools.product((1, 2), repeat=2):
            weight = polya_joint_prob(alpha, labels)
            counts = (labels.count(1), labels.count(2))
            total += weight * f.value(counts) * g.value(counts)
        return total

    assert joint_mean(projections[0], projections[1]) == 0


def test_split_requires_matching_atoms():
    with pytest.raises(DomainError):
        hoeffding_decompose(
            SymmetricKernel(1, 3, {(1, 0, 0): Fraction(1)}), measure(1, 1)
        )


@pytest.mark.parametrize("decompose", [hoeffding_decompose, martingale_decomposition])
def test_cap_stops_the_first_and_largest_enumeration(decompose, monkeypatch):
    # every conditional mean is taken once, up front and by size, so the
    # mean's C(N + K - 1, K - 1) = 10 completions, the most of any vector,
    # hit the cap before anything else is computed
    alpha = measure(1, "1/2", 2)
    H = SymmetricKernel.from_function(
        3, 3, lambda counts: Fraction(counts[0] - counts[2], 1 + counts[1])
    )
    module = sys.modules[decompose.__module__]
    original = module.cond_exp_statistic_counts
    calls = []

    def spy(statistic, alpha, counts, cap):
        calls.append(tuple(counts))
        return original(statistic, alpha, counts, cap=cap)

    monkeypatch.setattr(module, "cond_exp_statistic_counts", spy)
    with pytest.raises(ResourceCapError):
        decompose(H, alpha, cap=9)
    assert calls == [(0, 0, 0)]
    calls.clear()
    decompose(H, alpha, cap=10)
    every = [mu for n in range(4) for mu in occupation_vectors(n, 3)]
    assert calls == every
