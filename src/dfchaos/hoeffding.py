"""Finite-sample orthogonal decomposition of symmetric urn statistics.

Any symmetric statistic of N exchangeable urn draws splits uniquely into its
mean plus N mutually orthogonal projections; the order-s projection is a sum
over s-subsets of a *degenerate* symmetric function of s arguments, obtained
by weighting partial conditional expectations with the starred coefficient
table. It is the chaos kernels' subset-sum formula with theta*_N(s, k) in
place of theta(n, k), run by the same ``kernels.subset_sum_assembly``; the
order-s projection is then the order-N subset sum of phi_s, the same
assembly with a unit row.  Degeneracy here means: averaging the function
over its last argument under the one-step predictive law gives zero at
every history.

Every conditional mean comes from one backward pass over the occupation
lattice.  One draw of the urn gives, for |mu| = k < N,

    E[T | mu] = sum_i (p_i + mu_i q) / (P + k q) · E[T | mu + e_i],

with the weights p_i / q over their common denominator and P = sum_i p_i,
so layer k is an integer vector over d · prod_{j=k}^{N-1} (P + j q), d the
denominator of T's values; lifted by prod_{j<k} (P + j q), every layer is
over one denominator and the assembly forms no Fraction in between.  The
split of T(mu) = E[F(D) | mu] (``decompose --finite``) needs no pass: its
components are F's chaos kernels shrunk by s!/(|alpha|+N)^(s)
(``chaos._window_split``), and ``hoeffding_decompose`` of T is its oracle.

One cap rule: a path caps what it holds.  The split holds its lattice, the
C(N + K, K) occupation vectors of size <= N, and refuses one larger than
``DEFAULT_ENUMERATION_CAP`` (``ResourceCapError``) before any layer is
built.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .coeffs import _theta_star_rows
from .errors import DEFAULT_ENUMERATION_CAP, DomainError, ResourceCapError
from .kernels import SymmetricKernel, subset_sum_assembly
from .measures import DiscreteBaseMeasure
from .numeric import (
    Record,
    Scalar,
    binom,
    common_denominator,
    occupation_lattice,
    ratio,
)


def _predictive_rows(weights: Sequence[Scalar], order: int) -> tuple[Iterator, Scalar]:
    """(rows, d): per history x of size order-1, in lattice order, the pairs
    (rank of x + e_a in the order-n lattice layer, w_a) with
    P(next draw = a | x) = w_a / d.  With the weights p_a / q over their
    common denominator, w_a = p_a + x_a q and d = sum_a p_a + (order-1) q.
    The histories and their successors are read from the cached lattice."""
    p, q = common_denominator(weights)
    lower = occupation_lattice(order - 1, len(weights))
    rows = (
        zip(ranks, [pa + xa * q for pa, xa in zip(p, history)])
        for history, ranks in zip(lower.vectors, lower.up)
    )
    return rows, sum(p) + (order - 1) * q


def degenerate_check(h: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """Worst predictive-average residual of a kernel over all histories.

    Returns max over histories x of length order-1 of
    | sum_a h(x, a) · P(next draw = a | x) |; exactly zero iff h is
    degenerate for this base measure. Order-1 kernels are checked against
    the empty history (the base predictive). With h's values over their
    common denominator (the kernel's cached ``numerators``) the sums run on
    ints and one ratio is formed at the end.  A float value is read as its
    exact image and the residual rounded once, to a float.
    """
    if h.atoms != alpha.atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    if h.order < 1:
        raise DomainError("degeneracy is defined for orders >= 1")
    column, value_den, rounded = h.numerators
    rows, den = _predictive_rows(alpha.weights, h.order)
    worst = max(abs(sum(w * column[rank] for rank, w in row)) for row in rows)
    return ratio(worst, value_den * den, rounded)


def degenerate_basis(alpha: DiscreteBaseMeasure, order: int) -> list[SymmetricKernel]:
    """Exact rational basis of the order-n degenerate kernels for alpha.

    The conditions are one equation per history x of size n-1:
    sum_a w_a h(x + e_a) = 0, w_a = p_a + x_a q (``_predictive_rows``).
    Each solves for its pivot x + e_1, whose first count is one above that
    of every other term:

        h(x + e_1) = -sum_{a >= 2} w_a h(x + e_a) / (p_1 + x_1 q).

    The vectors with a_1 = 0 are free, one basis kernel each (1 there, 0 at
    the other free vectors), and level j = a_1 follows from level j-1 as
    integers N(x + e_1) = -sum_{a >= 2} w_a N(x + e_a) over the ladder
    denominator prod_{i<j} (p_1 + i q) (``moment_ladder.row(0, 0, n)``).
    So the dimension is C(n+K-2, K-2).  Row reduction of the same system,
    columns in lattice order (a_1 descending), pivots on exactly these
    vectors, as they come first and are independent: its null-space basis
    has the same free vectors in the same order and the same unique pivot
    values, so the two bases are equal (the tests keep that oracle).
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    lattice = occupation_lattice(order, alpha.atoms)
    # histories by ascending x_1: each row's pivot reads only lower levels
    rows = [list(row) for row in _predictive_rows(alpha.weights, order)[0]][::-1]
    dens = alpha.moment_ladder.row(0, 0, order)
    top = dens[order]
    basis = []
    for free, vector in enumerate(lattice.vectors):
        if vector[0]:
            continue
        nums = [0] * len(lattice.vectors)
        nums[free] = 1
        for (pivot, _), *rest in rows:
            nums[pivot] = -sum(w * nums[rank] for rank, w in rest)
        lifted = [x * (top // dens[a[0]]) for x, a in zip(nums, lattice.vectors)]
        basis.append(SymmetricKernel._from_numerators(order, alpha.atoms, lifted, top))
    return basis


class HoeffdingDecomposition(Record):
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


def _check_lattice(N: int, atoms: int) -> None:
    """The split's one cap: its C(N + K, K) lattice vectors, every occupation
    vector of size <= N, checked before any layer is built."""
    size = binom(N + atoms, atoms)
    if size > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"the split's lattice of {size} occupation vectors exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )


def _conditional_layers(
    statistic: SymmetricKernel, alpha: DiscreteBaseMeasure
) -> tuple[list[list[int]], int, bool]:
    """(layers, D, rounded) with E[T | mu] = layers[k][i] / D for every mu of
    size k <= N, i its rank in ``occupation_lattice(k, K)``.

    The backward pass of the module docstring: layer N is T's cached
    ``numerators`` over d, each lower layer is one predictive step
    (``_predictive_rows``) on the layer above, and layer k is lifted by
    S(k) = prod_{j<k} (P + j q), the measure's moment-ladder row, so that
    D = d S(N).  A float value is read as its exact image and ``rounded``
    says to round each mean once, at the end.
    """
    N = statistic.order
    _check_lattice(N, alpha.atoms)
    nums, scale, rounded = statistic.numerators
    layers = [list(nums)]
    for k in range(N - 1, -1, -1):
        above = layers[-1]
        rows, _ = _predictive_rows(alpha.weights, k + 1)
        layers.append([sum(w * above[rank] for rank, w in row) for row in rows])
    layers.reverse()
    totals = alpha.moment_ladder.row(alpha.atoms, 0, N)  # S(0), ..., S(N)
    lifted = [[totals[k] * x for x in layer] for k, layer in enumerate(layers)]
    return lifted, scale * totals[N], rounded


def _from_components(
    alpha: DiscreteBaseMeasure, N: int, mean: tuple[int, int], components: list, rounded: bool
) -> HoeffdingDecomposition:
    """The split of N draws with the mean num / den and these exact components
    of orders 1, 2, ... (zero above the last).  Projection s is the order-N
    subset sum of component s: ``subset_sum_assembly`` with the unit row
    {N: ({s: 1}, 1)}, or no weight and no up-step for a zero component.
    With ``rounded`` every entry is rounded once, at the end, to a float."""
    atoms, phis, projections = alpha.atoms, [], []
    for s in range(1, N + 1):
        h = components[s - 1] if s <= len(components) else SymmetricKernel(s, atoms, {})
        nums, den, _ = h.numerators
        phis.append(SymmetricKernel._from_numerators(s, atoms, nums, den, rounded))
        row = {N: ({s: 1} if any(nums) else {}, 1)}
        projections.append(subset_sum_assembly({s: nums}.__getitem__, den, rounded, row, atoms)[N])
    return HoeffdingDecomposition(alpha, N, ratio(*mean, rounded), tuple(phis), tuple(projections))


def hoeffding_decompose(
    statistic: SymmetricKernel, alpha: DiscreteBaseMeasure
) -> HoeffdingDecomposition:
    """Full orthogonal decomposition of a symmetric statistic of N draws.

    Every conditional mean comes from one backward lattice pass
    (``_conditional_layers``); more than ``DEFAULT_ENUMERATION_CAP``
    lattice vectors raise ResourceCapError before any is built; the theta*_N
    rows (``coeffs._theta_star_rows``) weight the centred layers.  For
    rational values the result is exact; a float value is read as its
    exact image and the mean and every component and projection entry are
    rounded once, to floats (``_from_components``).
    """
    if statistic.atoms != alpha.atoms:
        raise DomainError("statistic and measure disagree on the atom count")
    if statistic.order < 1:
        raise DomainError("the statistic must depend on at least one draw")
    layers, den, rounded = _conditional_layers(statistic, alpha)
    N, mass = statistic.order, alpha.total_mass
    rows = _theta_star_rows(mass.numerator, mass.denominator, N, N)
    centred = [[x - layers[0][0] for x in layer] for layer in layers]
    components = subset_sum_assembly(centred.__getitem__, den, False, rows, alpha.atoms)
    return _from_components(alpha, N, (layers[0][0], den), [*components.values()], rounded)
