"""Bayesian conditional-variance estimation and the exponential functional.

Given observations from an exchangeable reinforced sequence, the optimal
squared-loss estimate of the conditional variance  Var(h(X) | D)  of a
statistic h of m future draws is its posterior mean.  Writing M(D) for the
conditional mean functional  E[h | D]  (a degree-m polynomial in the
masses), the posterior mean collapses to the finite closed form

    estimate = Var[h | observations]
               - sum_{k=1..m} c(k, |alpha| + n) E[ m_k(X_k)^2 | observations ]

where m_k are the order-k decomposition kernels of M under the posterior
measure and c is the isometry constant — the decomposition is what turns
E[M(D)^2 | observations] into a finite sum of kernel second moments.

The second half of the module decomposes the exponential functional
G = exp(lambda * D(C)) for an atom subset C.  All of its conditional means
are confluent hypergeometric values (D(C) given k observations, j of them
in C, is Beta(a_C + j, a - a_C + k - j), and E exp(lambda Beta(a, b)) =
1F1(a, a + b, lambda)), so the decomposition kernels are images of the
coefficient limits applied to 1F1 differences, and Parseval gives a
computable truncation residual against the exact variance
Var G = 1F1(a_C, a, 2 lambda) - mean^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .chaos import ChaosDecomposition, chaos_kernels
from .coeffs import c_iso, limit_coefficients
from .errors import DomainError, ResourceCapError
from .kernels import SimplexPolynomial, SymmetricKernel
from .measures import DiscreteBaseMeasure, dirichlet_moment, with_observations
from .numeric import (
    Scalar,
    as_scalar,
    hyp1f1,
    occupation_vectors,
    sub_occupations,
    tuple_counts,
)
from .polya import DEFAULT_ENUMERATION_CAP, expectation_statistic

__all__ = [
    "ObservedSample",
    "estimate_conditional_variance",
    "ExponentialDecomposition",
    "decompose_exponential",
    "DEFAULT_EXPONENTIAL_ORDER",
]

#: Default truncation order for exponential decompositions; adequate for
#: |lambda| <= 2, and the residual is always reported rather than assumed.
DEFAULT_EXPONENTIAL_ORDER = 12


@dataclass(frozen=True)
class ObservedSample:
    """A prior base measure together with observed atom labels (1-based)."""

    alpha: DiscreteBaseMeasure
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        for x in labels:
            if not 1 <= x <= self.alpha.atoms:
                raise DomainError(f"label {x} outside support 1..{self.alpha.atoms}")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def posterior(self) -> DiscreteBaseMeasure:
        return with_observations(self.alpha, self.labels)


def _as_value_table(
    h: SymmetricKernel | Mapping[tuple[int, ...], Scalar], atoms: int
) -> tuple[int, dict[tuple[int, ...], Scalar]]:
    """Normalize a statistic of a label block to (arity, ordered-tuple table).

    Accepts either a symmetric kernel (expanded over all orderings) or a
    plain mapping from 1-based label tuples to values; the mapping need not
    be symmetric.  Missing tuples count as zero.
    """
    if isinstance(h, SymmetricKernel):
        if h.atoms != atoms:
            raise DomainError(f"kernel is over {h.atoms} atoms, expected {atoms}")
        table: dict[tuple[int, ...], Scalar] = {}
        for labels in itertools.product(range(1, atoms + 1), repeat=h.order):
            value = h.value(tuple_counts(labels, atoms))
            if value != 0:
                table[labels] = value
        return h.order, table
    arities = {len(k) for k in h.keys()}
    if len(arities) != 1:
        raise DomainError(f"value table mixes arities {sorted(arities) if arities else '(empty)'}")
    (m,) = arities
    table = {}
    for raw, value in h.items():
        labels = tuple(int(x) for x in raw)
        for x in labels:
            if not 1 <= x <= atoms:
                raise DomainError(f"label {x} outside support 1..{atoms}")
        table[labels] = as_scalar(value)
    return m, table


def _mean_functional(
    table: Mapping[tuple[int, ...], Scalar], atoms: int
) -> SimplexPolynomial:
    """The polynomial  E[h(X_1..X_m) | D] = sum_tuples h(t) prod_j d_{t_j}."""
    terms: dict[tuple[int, ...], Scalar] = {}
    for labels, value in table.items():
        counts = tuple_counts(labels, atoms)
        terms[counts] = terms.get(counts, 0) + value
    terms = {k: v for k, v in terms.items() if v != 0}
    if not terms:
        return SimplexPolynomial.constant(atoms, 0)
    return SimplexPolynomial(atoms, terms)


def estimate_conditional_variance(
    h: SymmetricKernel | Mapping[tuple[int, ...], Scalar],
    sample: ObservedSample,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Scalar:
    """Optimal squared-loss estimate of Var(h(X_{n+1..n+m}) | D) given data.

    Exact evaluation of

        Var[h | obs] - sum_{k=1..m} c(k, |alpha| + n) E[ m_k(X_k)^2 | obs ]

    with m_k the order-k kernels of the conditional-mean functional under
    the posterior.  The sum is finite because a statistic of m coordinates
    has no components beyond order m.  Enumeration is K^m over the future
    block; the cap guards that loop.  Because everything is phrased through
    the posterior, conditioning on data and folding the data into the base
    measure give identical results by construction.
    """
    atoms = sample.alpha.atoms
    m, table = _as_value_table(h, atoms)
    if m == 0 or not table:
        return 0
    if atoms**m > cap:
        raise ResourceCapError(
            f"future block enumeration K^m = {atoms}**{m} exceeds cap {cap}"
        )
    posterior = sample.posterior()

    first: Scalar = 0
    second: Scalar = 0
    for labels, value in table.items():
        prob = dirichlet_moment(posterior, tuple_counts(labels, atoms))
        first = first + value * prob
        second = second + value * value * prob
    variance = second - first * first

    mean_poly = _mean_functional(table, atoms)
    decomposition = chaos_kernels(mean_poly, posterior, m)
    total = posterior.total_mass
    correction: Scalar = 0
    for k in range(1, m + 1):
        kernel = decomposition.kernel(k)
        if kernel.is_zero():
            continue
        squared = SymmetricKernel(
            kernel.order, kernel.atoms, {c: v * v for c, v in kernel.items()}
        )
        correction = correction + c_iso(k, total) * expectation_statistic(squared, posterior, cap=cap)
    return variance - correction


@dataclass(frozen=True)
class ExponentialDecomposition:
    """Decomposition of exp(lambda * D(C)) truncated at ``order``.

    ``contributions[n-1]`` is the order-n variance share c(n) E[h_n^2];
    ``residual`` is the exact variance minus the captured sum (nonnegative
    up to float noise, decreasing in the truncation order).
    """

    decomposition: ChaosDecomposition
    lam: float
    subset: tuple[int, ...]
    mean: float
    variance: float
    contributions: tuple[float, ...]
    residual: float

    @property
    def order(self) -> int:
        return len(self.contributions)


def decompose_exponential(
    alpha: DiscreteBaseMeasure,
    subset: Sequence[int],
    lam: Scalar,
    max_order: int = DEFAULT_EXPONENTIAL_ORDER,
) -> ExponentialDecomposition:
    """Decomposition kernels of G = exp(lambda * D(C)) up to ``max_order``.

    mean = 1F1(a_C, |alpha|, lambda) and for each occupation vector a of
    order n

        h_n(a) = sum_k theta(n, k) * sum over sub-occupations mu of size k
                 of ways(mu) * [ 1F1(a_C + inC(mu), |alpha| + k, lambda)
                                 - mean ]

    where inC(mu) counts the observations landing in C.  The subset must
    have 0 < alpha(C) < |alpha| so that D(C) is a nondegenerate Beta mass.
    """
    C = tuple(sorted(set(int(x) for x in subset)))
    for x in C:
        if not 1 <= x <= alpha.atoms:
            raise DomainError(f"atom {x} outside support 1..{alpha.atoms}")
    if not C or len(C) == alpha.atoms:
        raise DomainError(
            "subset must be proper and nonempty so the mass D(C) is strictly "
            "between 0 and 1"
        )
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    lam_f = float(lam)
    total = alpha.total_mass
    total_f = float(total)
    a_C = sum(alpha.weight(x) for x in C)
    a_C_f = float(a_C)

    mean = hyp1f1(a_C_f, total_f, lam_f)
    in_C = tuple(1 if atom in C else 0 for atom in range(1, alpha.atoms + 1))

    theta = limit_coefficients(total, max_order)
    # The series depends only on (hits, k): evaluate each pair once per call.
    centred_at: dict[tuple[int, int], float] = {}
    kernels = []
    for n in range(1, max_order + 1):
        values: dict[tuple[int, ...], Scalar] = {}
        for a in occupation_vectors(n, alpha.atoms):
            acc = 0.0
            for k in range(1, n + 1):
                theta_nk = float(theta[(n, k)])
                for mu, ways in sub_occupations(a, k):
                    hits = sum(c * flag for c, flag in zip(mu, in_C))
                    centred = centred_at.get((hits, k))
                    if centred is None:
                        centred = hyp1f1(a_C_f + hits, total_f + k, lam_f) - mean
                        centred_at[(hits, k)] = centred
                    acc += theta_nk * ways * centred
            values[a] = acc
        kernels.append(SymmetricKernel(n, alpha.atoms, values))
    decomposition = ChaosDecomposition(alpha=alpha, mean=mean, kernels=tuple(kernels))

    variance = hyp1f1(a_C_f, total_f, 2.0 * lam_f) - mean * mean
    contributions = []
    for n, kernel in enumerate(kernels, start=1):
        squared = SymmetricKernel(
            kernel.order, kernel.atoms, {c: v * v for c, v in kernel.items()}
        )
        share = float(c_iso(n, total)) * float(expectation_statistic(squared, alpha))
        contributions.append(share)
    residual = variance - math.fsum(contributions)

    return ExponentialDecomposition(
        decomposition=decomposition,
        lam=lam_f,
        subset=C,
        mean=mean,
        variance=variance,
        contributions=tuple(contributions),
        residual=residual,
    )
