"""Bayesian conditional-variance estimation and the exponential functional.

Given observations from an exchangeable reinforced sequence, the optimal
squared-loss estimate of the conditional variance  Var(h(X) | D)  of a
statistic h of m future draws is its posterior mean  E[Var(h | D) | obs].
Writing M(D) for the conditional mean functional  E[h | D]  (a degree-m
polynomial in the masses), that is the finite closed form

    estimate = E[h^2 | observations] - E[ M(D)^2 | observations ],

two Dirichlet moment sums over the posterior, taken on integer ladders.
The paper's decomposition gives the same number: by the isometry,
E[M(D)^2 | obs] - E[h | obs]^2 = sum_{k=1..m} c(k, |alpha| + n) E[m_k^2 | obs]
with m_k the order-k kernels of M under the posterior, so the estimate is
also  Var[h | obs] - sum_k c(k, |alpha| + n) E[m_k^2 | obs].  That route
is the oracle of the tests and of ``verify``, not the production path.

The second half of the module decomposes the exponential functional
G = exp(lambda * D(C)).  G depends only on the mass Y = D(C) ~ Beta(a, b),
a = alpha(C), b = |alpha| - a, and the proportions inside and outside C
are independent of Y, so its order-n component is c_n P_n(Y) with P_n the
monic Beta(a, b) orthogonal polynomial.  Integrating Rodrigues' formula
(DLMF 18.5.5) n times by parts against e^(lambda y) gives
E[e^(lambda Y) P_n(Y)] = lambda^n / n! ||P_n||^2 1F1(a + n; |alpha| + 2n;
lambda), hence c_n = lambda^n / n! * 1F1(a + n; |alpha| + 2n; lambda); read
as a kernel, P_n is its Bernstein form (``jacobi.beta_bernstein``).  Its
coefficients psi_j and squared norm come from the integer ladders of
``jacobi``: integer numerators over one denominator per order, each
rounded once, so no ``Fraction`` is built per kernel entry.  This is the
Bernstein/Jacobi structure of Griffiths (Adv. Appl. Probab. 11, 1979) that
``wright_fisher`` uses for the transition density.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, Sequence

from .chaos import ChaosDecomposition, _product_sum
from .errors import DEFAULT_ENUMERATION_CAP, DomainError, ResourceCapError
from .jacobi import _bernstein_integers
from .kernels import SymmetricKernel, _ExactKernel
from .measures import DiscreteBaseMeasure, with_observations
from .numeric import (
    Record,
    Scalar,
    as_integer,
    as_scalar,
    binom,
    common_denominator,
    exact_numerators,
    hyp1f1,
    multiplicity,
    occupation_lattice,
    occupation_vectors,
    ratio,
    tuple_counts,
)

__all__ = [
    "ObservedSample",
    "estimate_conditional_variance",
    "ExponentialDecomposition",
    "decompose_exponential",
    "mass_kernel",
    "DEFAULT_EXPONENTIAL_ORDER",
]

#: Default truncation order for exponential decompositions; adequate for
#: |lambda| <= 2, and the residual is always reported rather than assumed.
DEFAULT_EXPONENTIAL_ORDER = 12


class ObservedSample(Record):
    """A prior base measure together with observed atom labels (1-based)."""

    alpha: DiscreteBaseMeasure
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(as_integer(x) for x in self.labels)
        tuple_counts(labels, self.alpha.atoms)  # refuses a label outside 1..K
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def posterior(self) -> DiscreteBaseMeasure:
        return with_observations(self.alpha, self.labels)


def _occupation_integers(
    h: SymmetricKernel | Mapping[tuple[int, ...], Scalar], atoms: int
) -> tuple[int, dict[tuple[int, ...], tuple[int, int]], int, bool]:
    """(m, sums, d, rounded): the arity m of h and its values h(t) = a / d
    over one denominator, summed by occupation vector.

    ``sums`` maps an occupation vector c to the integers (A, B) = (sum of a,
    sum of a^2) over the label tuples t with occupation vector c.  A
    symmetric kernel contributes mult(c)·a and mult(c)·a^2 on each vector
    where it is nonzero, and its zeros are not read; a plain mapping from
    tuples of 1-based labels to values need not be symmetric, and missing
    tuples count as zero.  The values are read by ``exact_numerators`` (a
    float as its exact image), and ``rounded`` says whether any value read
    was a float.  A kernel built from numerators hands over its cached
    ``numerators``; another is read by its listed values, so its layer is
    not enumerated before the cap gate.
    """
    if isinstance(h, SymmetricKernel):
        if h.atoms != atoms:
            raise DomainError(f"kernel is over {h.atoms} atoms, expected {atoms}")
        m = h.order
        if isinstance(h, _ExactKernel):
            nums, d, rounded = h.numerators
            lattice = occupation_lattice(m, atoms)
            vectors, weights = lattice.vectors, lattice.multiplicities
            entries = [(c, w, a) for c, w, a in zip(vectors, weights, nums) if a]
        else:
            nonzero = {c: v for c, v in h.values.items() if v != 0}
            nums, d, rounded = exact_numerators(nonzero.values())
            entries = [(c, multiplicity(c), a) for c, a in zip(nonzero, nums)]
    else:
        for raw in h:
            if not isinstance(raw, tuple):
                raise DomainError(f"value-table key {raw!r} is not a tuple of labels")
        arities = {len(k) for k in h}
        if len(arities) != 1:
            raise DomainError(f"value table mixes arities {sorted(arities) if arities else '(empty)'}")
        (m,) = arities
        keys = [tuple_counts(tuple(map(as_integer, raw)), atoms) for raw in h]
        nums, d, rounded = exact_numerators(as_scalar(v) for v in h.values())
        entries = [(c, 1, a) for c, a in zip(keys, nums)]
    sums: dict[tuple[int, ...], tuple[int, int]] = {}
    for c, w, a in entries:
        first, second = sums.get(c, (0, 0))
        sums[c] = (first + w * a, second + w * a * a)
    return m, sums, d, rounded


def estimate_conditional_variance(
    h: SymmetricKernel | Mapping[tuple[int, ...], Scalar],
    sample: ObservedSample,
) -> Scalar:
    """Optimal squared-loss estimate of Var(h(X_{n+1..n+m}) | D) given data.

    Exact evaluation of E[Var(h | D) | obs] in the closed form

        E[h^2 | obs] - E[M(D)^2 | obs],   M(D) = E[h | D] = sum_c A(c) D^c / d,

    with h = a / d over one denominator and A(c), B(c) the sums of a and
    a^2 over the label tuples of occupation vector c
    (``_occupation_integers``).  E[h^2 | obs] is one posterior ladder sum
    of B, E[M(D)^2 | obs] one ladder sum of the products of the A terms
    (``chaos._product_sum``), and the estimate one quotient over
    q1 q2 d^2.  By the isometry this equals the decomposition form
    Var[h | obs] - sum_{k=1..m} c(k, |alpha| + n) E[m_k(X_k)^2 | obs], with
    m_k the order-k kernels of M under the posterior; that route is kept
    as the oracle of the tests and of ``verify``.

    A block of m future draws on K atoms whose lattice of C(m + K, K)
    occupation vectors of at most m points exceeds
    ``DEFAULT_ENUMERATION_CAP`` raises
    ResourceCapError before any moment is taken: the lattice bounds the
    terms of M (at most C(m + K - 1, K - 1)) and so the pairs that
    E[M(D)^2 | obs] multiplies.  Because everything is phrased through the
    posterior, conditioning on data and folding the data into the base
    measure give identical results by construction.  The estimate is a
    ``Fraction`` (``Fraction(0)`` for an order-0 or all-zero table); a
    float value of h is read as its exact image and the estimate rounded
    once, to a float.
    """
    atoms = sample.alpha.atoms
    m, sums, d, rounded = _occupation_integers(h, atoms)
    if m == 0 or not sums:
        return ratio(0, 1, rounded)
    lattice = binom(m + atoms, atoms)
    if lattice > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"future block lattice of C(m + K, K) = {lattice} vectors exceeds cap "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    posterior = sample.posterior()
    # E[h^2 | obs] = second / (q1 d^2)
    squares = [(c, b) for c, (_, b) in sums.items()]
    second, q1 = posterior.moment_ladder.posterior_sum(squares, (0,) * atoms)
    # E[M(D)^2 | obs] = mean_square / (q2 d^2)
    terms = ([(c, a) for c, (a, _) in sums.items() if a], 1, False)
    mean_square, q2, _ = _product_sum(terms, terms, posterior)
    return ratio(second * q2 - mean_square * q1, q1 * q2 * d * d, rounded)


class ExponentialDecomposition(Record):
    """Decomposition of exp(lambda * D(C)) truncated at ``order``.

    ``contributions[n-1]`` is the order-n variance share c_n^2 ||P_n||^2.
    ``residual`` is the variance minus their sum: exactly, the truncation
    tail (nonnegative, decreasing in the order); computed, it also carries
    the rounding of Var G = 1F1(a, |alpha|, 2 lambda) - mean^2, which
    cancels for small |lambda|.  ``residual_bound`` is the size of that
    rounding, (8 + 2|lambda|) ulps of 1F1(a, |alpha|, 2 lambda) + mean^2 (a
    factor calibrated on 1/10 <= a, b <= 10, |lambda| <= 100 only):
    |residual| <= residual_bound means the sum has converged to rounding.
    """

    decomposition: ChaosDecomposition
    lam: float
    subset: tuple[int, ...]
    mean: float
    variance: float
    contributions: tuple[float, ...]
    residual: float
    residual_bound: float

    @property
    def order(self) -> int:
        return len(self.contributions)


def _atom_subset(subset: Sequence[int], atoms: int) -> tuple[int, ...]:
    """The distinct atoms of ``subset``, sorted; ``DomainError`` for an atom
    outside 1..atoms."""
    C = tuple(sorted(set(map(as_integer, subset))))
    for x in C:
        if not 1 <= x <= atoms:
            raise DomainError(f"atom {x} outside support 1..{atoms}")
    return C


def mass_kernel(atoms: int, subset: Sequence[int], psi: Sequence[Scalar]) -> SymmetricKernel:
    """The order len(psi) - 1 kernel o -> psi[j(o)], j(o) the draws of o in ``subset``.

    The subset is checked and the n + 1 distinct values coerced once, before
    the kernel is built.  Exact values go over their common denominator
    and the kernel keeps the numerators; a float among them keeps the
    values as given."""
    n = len(psi) - 1
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if atoms < 1:
        raise DomainError(f"need at least one atom, got {atoms}")
    index = [x - 1 for x in _atom_subset(subset, atoms)]
    values = [as_scalar(v) for v in psi]
    if float in map(type, values):
        return SymmetricKernel._trusted(
            n, atoms, {o: values[sum([o[i] for i in index])] for o in occupation_vectors(n, atoms)}
        )
    values, den = common_denominator(values)
    nums = [values[sum([o[i] for i in index])] for o in occupation_vectors(n, atoms)]
    return SymmetricKernel._from_numerators(n, atoms, nums, den)


def decompose_exponential(
    alpha: DiscreteBaseMeasure,
    subset: Sequence[int],
    lam: Scalar,
    max_order: int = DEFAULT_EXPONENTIAL_ORDER,
) -> ExponentialDecomposition:
    """Decomposition kernels of G = exp(lambda * D(C)) up to ``max_order``.

    With a = alpha(C), b = |alpha| - a and j(o) the draws in C of an
    occupation vector o of order n,

        mean = 1F1(a; |alpha|; lambda),   h_n(o) = c_n psi_{j(o)},
        c_n = lambda^n / n! * 1F1(a + n; |alpha| + 2n; lambda),

    and the order-n share is c_n^2 ||P_n||^2, with psi and ||P_n||^2 the
    exact Bernstein coefficients and squared norm of the monic Beta(a, b)
    polynomial (``jacobi.beta_bernstein``), as integers over one
    denominator per order.  One 1F1 per order times exact rationals, each
    rounded once, so the kernels carry float rounding only, at any order.
    The subset must have 0 < alpha(C) < |alpha|: D(C) is a nondegenerate
    Beta mass.  ``max_order`` must be an int >= 1.  More than
    ``DEFAULT_ENUMERATION_CAP`` kernel values in all, C(max_order + K, K) - 1
    on K atoms, raise ResourceCapError.
    """
    C = _atom_subset(subset, alpha.atoms)
    if not C or len(C) == alpha.atoms:
        raise DomainError(
            "subset must be proper and nonempty so the mass D(C) is strictly "
            "between 0 and 1"
        )
    if isinstance(max_order, bool) or not isinstance(max_order, int) or max_order < 1:
        raise DomainError(f"max_order must be an int >= 1, got {max_order!r}")
    if math.comb(max_order + alpha.atoms, alpha.atoms) - 1 > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"order-{max_order} kernels on {alpha.atoms} atoms exceed cap {DEFAULT_ENUMERATION_CAP}"
        )
    lam_f = float(lam)
    a = alpha.mass_of(C)
    b = alpha.total_mass - a
    total_f = float(a + b)

    mean = hyp1f1(float(a), total_f, lam_f)
    second = hyp1f1(float(a), total_f, 2.0 * lam_f)
    variance = second - mean * mean

    kernels = []
    contributions = []
    power = 1.0  # lambda^n / n!
    for n in range(1, max_order + 1):
        power *= lam_f / n
        c_n = power * hyp1f1(float(a + n), float(a + b + 2 * n), lam_f)
        psi, den, norm_num, norm_den = _bernstein_integers(n, a, b)
        kernels.append(mass_kernel(alpha.atoms, C, [c_n * (x / den) for x in psi]))
        contributions.append(c_n * c_n * (norm_num / norm_den))
    decomposition = ChaosDecomposition(alpha=alpha, mean=mean, kernels=tuple(kernels))

    return ExponentialDecomposition(
        decomposition=decomposition,
        lam=lam_f,
        subset=C,
        mean=mean,
        variance=variance,
        contributions=tuple(contributions),
        residual=variance - math.fsum(contributions),
        residual_bound=(8 + 2 * abs(lam_f)) * sys.float_info.epsilon * (second + mean * mean),
    )
