"""Finite-sample orthogonal decomposition of symmetric urn statistics.

Any symmetric statistic of N exchangeable urn draws splits uniquely into its
mean plus N mutually orthogonal projections; the order-s projection is a sum
over s-subsets of a *degenerate* symmetric function of s arguments, obtained
by weighting partial conditional expectations with the starred coefficient
table. It is the chaos kernels' subset-sum formula with theta*_N(s, k) in
place of theta(n, k), run by the same ``kernels.subset_sum_kernels``, which
also lifts each component to its order-N projection. Degeneracy here means:
averaging the function over its last argument under the one-step predictive
law gives zero at every history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coeffs import theta_table
from .errors import DomainError
from .kernels import SymmetricKernel, subset_sum_kernels
from .measures import DiscreteBaseMeasure
from .numeric import (
    Scalar,
    common_denominator,
    exact_ratio,
    is_exact,
    nullspace,
    occupation_vectors,
)
from .polya import DEFAULT_ENUMERATION_CAP, cond_exp_statistic_counts


def _predictive_rows(weights: Sequence[Scalar], order: int) -> tuple[list, Scalar]:
    """(rows, d): per history x of size order-1, the pairs (x + e_a, w_a)
    with P(next draw = a | x) = w_a / d.  With the weights p_a / q over their
    common denominator, w_a = p_a + x_a q and d = sum_a p_a + (order-1) q."""
    p, q = common_denominator(weights)
    rows = []
    for history in occupation_vectors(order - 1, len(weights)):
        row = []
        for atom in range(len(weights)):
            bumped = list(history)
            bumped[atom] += 1
            row.append((tuple(bumped), p[atom] + history[atom] * q))
        rows.append(row)
    return rows, sum(p) + (order - 1) * q


def degenerate_check(h: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """Worst predictive-average residual of a kernel over all histories.

    Returns max over histories x of length order-1 of
    | sum_a h(x, a) · P(next draw = a | x) |; exactly zero iff h is
    degenerate for this base measure. Order-1 kernels are checked against
    the empty history (the base predictive). With h's values over their
    common denominator the sums run on ints and one ratio is formed at the
    end (floats throughout when a value or weight is a float).
    """
    if h.atoms != alpha.atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    if h.order < 1:
        raise DomainError("degeneracy is defined for orders >= 1")
    values, weights = list(h.values.values()), alpha.weights
    if not (is_exact(values) and is_exact(weights)):
        values, weights = [float(v) for v in values], [float(w) for w in weights]
    nums, value_den = common_denominator(values)
    table = dict(zip(h.values, nums))
    rows, den = _predictive_rows(weights, h.order)
    worst = max(abs(sum(w * table.get(bumped, 0) for bumped, w in row)) for row in rows)
    return exact_ratio(worst, value_den * den)


def degenerate_basis(alpha: DiscreteBaseMeasure, order: int) -> list[SymmetricKernel]:
    """Exact rational basis of the order-n degenerate kernels for alpha.

    Solves the predictive-average conditions (each row times the common
    denominator d, which leaves the basis unchanged) as a homogeneous
    linear system over the rationals; the dimension equals the number of
    occupation vectors of size n minus the number of size n-1.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    domain = list(occupation_vectors(order, alpha.atoms))
    index = {counts: i for i, counts in enumerate(domain)}
    matrix = []
    for row in _predictive_rows(alpha.weights, order)[0]:
        dense = [0] * len(domain)
        for bumped, w in row:
            dense[index[bumped]] = w
        matrix.append(dense)
    basis = nullspace(matrix)
    return [
        SymmetricKernel(order, alpha.atoms, dict(zip(domain, vec))) for vec in basis
    ]


@dataclass(frozen=True)
class HoeffdingDecomposition:
    """mean + sum over s of (s-subset sums of phi_s) for a statistic of N draws.

    ``components[s-1]`` is phi_s (degenerate, order s); ``projections[s-1]``
    is the induced order-s statistic of all N draws.
    """

    alpha: DiscreteBaseMeasure
    N: int
    mean: Scalar
    components: tuple[SymmetricKernel, ...]
    projections: tuple[SymmetricKernel, ...]

    def component(self, s: int) -> SymmetricKernel:
        if not 1 <= s <= self.N:
            raise DomainError(f"component order must lie in 1..{self.N}")
        return self.components[s - 1]

    def projection(self, s: int) -> SymmetricKernel:
        if not 1 <= s <= self.N:
            raise DomainError(f"projection order must lie in 1..{self.N}")
        return self.projections[s - 1]

    def reconstruct(self) -> SymmetricKernel:
        total = SymmetricKernel.from_function(
            self.N, self.alpha.atoms, lambda counts: self.mean
        )
        for projection in self.projections:
            total = total.add(projection)
        return total


def hoeffding_decompose(
    statistic: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> HoeffdingDecomposition:
    """Full orthogonal decomposition of a symmetric statistic of N draws."""
    if statistic.atoms != alpha.atoms:
        raise DomainError("statistic and measure disagree on the atom count")
    N = statistic.order
    if N < 1:
        raise DomainError("the statistic must depend on at least one draw")
    table = theta_table(N, alpha.total_mass)
    # by size, so the largest enumeration (the mean) comes first and the cap
    # is hit before any component is built
    vectors = [mu for n in range(N + 1) for mu in occupation_vectors(n, alpha.atoms)]
    conds = [cond_exp_statistic_counts(statistic, alpha, mu, cap=cap) for mu in vectors]
    mean = conds[0]
    rows = {s: {k: table.theta_star(s, k) for k in range(1, s + 1)} for s in range(1, N + 1)}
    components = subset_sum_kernels(
        {mu: c - mean for mu, c in zip(vectors, conds)}, rows, alpha.atoms
    )
    projections = [
        subset_sum_kernels(phi.values, {N: {s: 1}}, alpha.atoms)[N]
        for s, phi in components.items()
    ]
    return HoeffdingDecomposition(
        alpha, N, mean, tuple(components.values()), tuple(projections)
    )
