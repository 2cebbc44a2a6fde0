"""Finite-sample orthogonal split of symmetric statistics."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfchaos import chaos, hoeffding
from dfchaos.chaos import martingale_decomposition
from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.hoeffding import (
    degenerate_basis,
    degenerate_check,
    hoeffding_decompose,
)
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel, subset_sum_assembly
from dfchaos.measures import MomentLadder, measure
from dfchaos.numeric import occupation_vectors
from dfchaos.polya import polya_joint_prob
from dfchaos.validation import _rref


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


def nullspace(matrix):
    """Row-reduction basis of the exact null space: one vector per free
    column of the reduced form, 1 there and 0 at the other free columns."""
    reduced, pivots = _rref([[Fraction(v) for v in row] for row in matrix])
    ncols = len(matrix[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def test_nullspace_oracle_rank_one():
    basis = nullspace([[Fraction(1), Fraction(1)]])
    assert len(basis) == 1
    x, y = basis[0]
    assert x + y == 0 and (x, y) != (0, 0)


WEIGHTS = st.builds(Fraction, st.integers(1, 20), st.integers(1, 9))


@settings(max_examples=40, deadline=None, database=None)
@given(weights=st.lists(WEIGHTS, min_size=2, max_size=5), order=st.integers(1, 4))
def test_degenerate_basis_equals_the_row_reduction_basis(weights, order):
    # the predictive-average conditions from their definition: for every
    # history x of size n-1, sum_a h(x + e_a) (alpha_a + x_a) / (|alpha| + n-1)
    atoms = len(weights)
    alpha = measure(*weights)
    domain = occupation_vectors(order, atoms)
    matrix = []
    for history in occupation_vectors(order - 1, atoms):
        row = dict.fromkeys(domain, Fraction(0))
        for a in range(atoms):
            successor = history[:a] + (history[a] + 1,) + history[a + 1 :]
            row[successor] = (weights[a] + history[a]) / (sum(weights) + order - 1)
        matrix.append([row[v] for v in domain])
    basis = degenerate_basis(alpha, order)
    assert [[h.value(v) for v in domain] for h in basis] == nullspace(matrix)
    assert len(basis) == math.comb(order + atoms - 2, atoms - 2)
    assert all(degenerate_check(h, alpha) == 0 for h in basis)


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


@pytest.mark.parametrize(
    "decompose", [hoeffding_decompose, martingale_decomposition, chaos._window_split]
)
def test_cap_stops_the_first_and_largest_enumeration(decompose, monkeypatch):
    # one cap rule: a split holds its lattice, the C(N + K, K) occupation
    # vectors of size <= N.  On ten unit atoms at N = 22 that is C(32, 10) =
    # 64,512,240 vectors, over the cap, refused before any lattice layer,
    # table or component is built; C(6, 3) = 20 on three atoms at N = 3 builds
    ten_atoms = measure(*[1] * 10)
    alpha = measure(1, "1/2", 2)
    if decompose is chaos._window_split:
        F = SimplexPolynomial(3, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1, 3)})
        oversized = (SimplexPolynomial(10, {(1,) + (0,) * 9: Fraction(1)}), ten_atoms, 22)
        args = (F, alpha, 3)
    else:
        oversized = (SymmetricKernel(22, 10, {(22,) + (0,) * 9: Fraction(1)}), ten_atoms)
        args = (
            SymmetricKernel.from_function(
                3, 3, lambda counts: Fraction(counts[0] - counts[2], 1 + counts[1])
            ),
            alpha,
        )
    built = []

    def spy(label, fn):
        def wrapper(*a, **kw):
            built.append(label)
            return fn(*a, **kw)

        return wrapper

    monkeypatch.setattr(hoeffding, "_predictive_rows", spy("layer", hoeffding._predictive_rows))
    monkeypatch.setattr(hoeffding, "subset_sum_assembly", spy("assembly", subset_sum_assembly))
    monkeypatch.setattr(chaos, "subset_sum_assembly", spy("kernels", subset_sum_assembly))
    monkeypatch.setattr(
        MomentLadder, "posterior_table", spy("table", MomentLadder.posterior_table)
    )
    with pytest.raises(ResourceCapError, match="64512240 occupation vectors exceeds cap 10000000"):
        decompose(*oversized)
    assert built == []
    decompose(*args)
    # the means are one pass (three predictive steps), then the components
    # and the three projections are assembled; the window split takes F's
    # chaos kernels from one posterior table of order deg F = 2 instead
    assert built == {
        hoeffding_decompose: ["layer"] * 3 + ["assembly"] * 4,
        martingale_decomposition: ["layer"] * 3,
        chaos._window_split: ["table", "kernels"] + ["assembly"] * 3,
    }[decompose]
