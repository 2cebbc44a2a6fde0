"""Finite-sample orthogonal decomposition of symmetric urn statistics.

Any symmetric statistic of N exchangeable urn draws splits uniquely into its
mean plus N mutually orthogonal projections; the order-s projection is a sum
over s-subsets of a *degenerate* symmetric function of s arguments, obtained
by weighting partial conditional expectations with the starred coefficient
table. Degeneracy here means: averaging the function over its last argument
under the one-step predictive law gives zero at every history.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coeffs import CoefficientTable, theta_table
from .errors import DomainError
from .kernels import SymmetricKernel
from .measures import DiscreteBaseMeasure
from .numeric import Scalar, nullspace, occupation_vectors, sub_occupations
from .polya import (
    DEFAULT_ENUMERATION_CAP,
    cond_exp_statistic_counts,
    expectation_statistic,
)


def degenerate_check(h: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """Worst predictive-average residual of a kernel over all histories.

    Returns max over histories x of length order-1 of
    | sum_a h(x, a) · P(next draw = a | x) |; exactly zero iff h is
    degenerate for this base measure. Order-1 kernels are checked against
    the empty history (the base predictive).
    """
    if h.atoms != alpha.atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    if h.order < 1:
        raise DomainError("degeneracy is defined for orders >= 1")
    total = alpha.total_mass
    worst: Scalar = Fraction(0)
    for history in occupation_vectors(h.order - 1, alpha.atoms):
        denom = total + (h.order - 1)
        acc: Scalar = Fraction(0)
        for atom in range(1, alpha.atoms + 1):
            weight = (alpha.weights[atom - 1] + history[atom - 1]) / denom
            bumped = list(history)
            bumped[atom - 1] += 1
            acc = acc + weight * h.value(tuple(bumped))
        worst = max(worst, abs(acc))
    return worst


def degenerate_basis(alpha: DiscreteBaseMeasure, order: int) -> list[SymmetricKernel]:
    """Exact rational basis of the order-n degenerate kernels for alpha.

    Solves the predictive-average conditions as a homogeneous linear system
    over the rationals; the dimension equals the number of occupation
    vectors of size n minus the number of size n-1.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    domain = list(occupation_vectors(order, alpha.atoms))
    index = {counts: i for i, counts in enumerate(domain)}
    total = alpha.total_mass
    rows = []
    for history in occupation_vectors(order - 1, alpha.atoms):
        row = [Fraction(0)] * len(domain)
        denom = total + (order - 1)
        for atom in range(1, alpha.atoms + 1):
            weight = (alpha.weights[atom - 1] + history[atom - 1]) / denom
            bumped = list(history)
            bumped[atom - 1] += 1
            row[index[tuple(bumped)]] += weight
        rows.append(row)
    basis = nullspace(rows)
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


class _CondExpCache:
    """Shared cache of E[T | occupation counts] across projection orders."""

    def __init__(self, statistic: SymmetricKernel, alpha: DiscreteBaseMeasure, cap: int):
        self.statistic = statistic
        self.alpha = alpha
        self.cap = cap
        self._store: dict[tuple[int, ...], Scalar] = {}

    def __call__(self, counts: tuple[int, ...]) -> Scalar:
        if counts not in self._store:
            self._store[counts] = cond_exp_statistic_counts(
                self.statistic, self.alpha, counts, cap=self.cap
            )
        return self._store[counts]


def _component_tables(
    statistic: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    s: int,
    table: CoefficientTable,
    mean: Scalar,
    ce: _CondExpCache,
) -> tuple[SymmetricKernel, SymmetricKernel]:
    N, atoms = statistic.order, statistic.atoms
    phi_values = {}
    for a_counts in occupation_vectors(s, atoms):
        acc: Scalar = Fraction(0)
        for k in range(1, s + 1):
            weight = table.theta_star(s, k)
            inner: Scalar = Fraction(0)
            for mu, ways in sub_occupations(a_counts, k):
                inner = inner + ways * (ce(mu) - mean)
            acc = acc + weight * inner
        phi_values[a_counts] = acc
    phi_s = SymmetricKernel(s, atoms, phi_values)

    pi_values = {}
    for m_counts in occupation_vectors(N, atoms):
        acc = Fraction(0)
        for a_counts, ways in sub_occupations(m_counts, s):
            acc = acc + ways * phi_s.value(a_counts)
        pi_values[m_counts] = acc
    return phi_s, SymmetricKernel(N, atoms, pi_values)


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
    ce = _CondExpCache(statistic, alpha, cap)
    mean = expectation_statistic(statistic, alpha, cap=cap)
    components = []
    projections = []
    for s in range(1, N + 1):
        phi_s, pi_s = _component_tables(statistic, alpha, s, table, mean, ce)
        components.append(phi_s)
        projections.append(pi_s)
    return HoeffdingDecomposition(alpha, N, mean, tuple(components), tuple(projections))
