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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chaos import ChaosDecomposition, chaos_kernels, statistic_product_mean
from .coeffs import c_iso
from .errors import DEFAULT_ENUMERATION_CAP, DomainError, ResourceCapError
from .jacobi import _bernstein_integers
from .kernels import SimplexPolynomial, SymmetricKernel
from .measures import DiscreteBaseMeasure, with_observations
from .numeric import (
    Scalar,
    as_scalar,
    binom,
    exact_image,
    exact_numerators,
    hyp1f1,
    multiplicity,
    occupation_vectors,
    ratio,
    tuple_counts,
    variance_ratio,
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


def _occupation_sums(
    h: SymmetricKernel | Mapping[tuple[int, ...], Scalar], atoms: int
) -> tuple[int, dict[tuple[int, ...], tuple[Scalar, Scalar]], bool]:
    """(arity m, occupation vector c -> (sum of h(t), sum of h(t)^2), rounded).

    The sums run over the label tuples t with occupation vector c.  A
    symmetric kernel contributes mult(c)·h(c) and mult(c)·h(c)^2 on each
    vector where it is nonzero; a plain mapping from 1-based label tuples
    to values need not be symmetric, and missing tuples count as zero.
    Each value is read as its exact image (``exact_image``), so the sums
    are exact; ``rounded`` says whether any value was a float.
    """
    if isinstance(h, SymmetricKernel):
        if h.atoms != atoms:
            raise DomainError(f"kernel is over {h.atoms} atoms, expected {atoms}")
        m = h.order
        entries = ((c, multiplicity(c), v) for c, v in h.values.items() if v != 0)
    else:
        arities = {len(k) for k in h.keys()}
        if len(arities) != 1:
            raise DomainError(f"value table mixes arities {sorted(arities) if arities else '(empty)'}")
        (m,) = arities
        entries = (
            (tuple_counts(tuple(int(x) for x in raw), atoms), 1, as_scalar(value))
            for raw, value in h.items()
        )
    sums: dict[tuple[int, ...], tuple[Scalar, Scalar]] = {}
    rounded = False
    for counts, weight, value in entries:
        rounded = rounded or isinstance(value, float)
        value = exact_image(value)
        first, second = sums.get(counts, (0, 0))
        sums[counts] = (first + weight * value, second + weight * value * value)
    return m, sums, rounded


def _posterior_variance(
    sums: Mapping[tuple[int, ...], tuple[Scalar, Scalar]], posterior: DiscreteBaseMeasure
) -> Scalar:
    """Var[h | obs] = E[h^2 | obs] - E[h | obs]^2 from the exact occupation
    sums of ``_occupation_sums``.

    Each moment is sum_c (sum over c) E[D^c] under the posterior: two
    integer ladder sums, and the variance is one Fraction
    (``variance_ratio``).
    """
    zeros = (0,) * posterior.atoms
    moments = []
    for column in zip(*sums.values()):
        nums, den, _ = exact_numerators(column)
        num, q = posterior.moment_ladder.posterior_sum(zip(sums, nums), zeros)
        moments.append((num, q * den))
    return variance_ratio(*moments)


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
    has no components beyond order m.  The decomposition takes a
    conditional mean at every occupation vector of at most m points, so a
    block whose lattice of C(m + K, K) vectors exceeds ``cap`` raises
    ResourceCapError before any kernel is built.  Because everything is
    phrased through the posterior, conditioning on data and folding the
    data into the base measure give identical results by construction.
    A float value of h is read as its exact image and the estimate rounded
    once, to a float.
    """
    atoms = sample.alpha.atoms
    m, sums, rounded = _occupation_sums(h, atoms)
    if m == 0 or not sums:
        return 0
    lattice = binom(m + atoms, atoms)
    if lattice > cap:
        raise ResourceCapError(
            f"future block lattice of C(m + K, K) = {lattice} vectors exceeds cap {cap}"
        )
    posterior = sample.posterior()
    variance = _posterior_variance(sums, posterior)

    # the conditional mean E[h | D] = sum_c (sum of h over c) d^c
    mean_poly = SimplexPolynomial(atoms, {c: value for c, (value, _) in sums.items()})
    decomposition = chaos_kernels(mean_poly, posterior, m)
    total = posterior.total_mass
    correction: Scalar = 0
    for k in range(1, m + 1):
        kernel = decomposition.kernel(k)
        if kernel.is_zero():
            continue
        second_moment = statistic_product_mean(kernel, kernel, posterior)
        correction = correction + c_iso(k, total) * second_moment
    estimate = variance - correction
    return ratio(estimate.numerator, estimate.denominator, rounded)


@dataclass(frozen=True)
class ExponentialDecomposition:
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
    C = tuple(sorted(set(int(x) for x in subset)))
    for x in C:
        if not 1 <= x <= atoms:
            raise DomainError(f"atom {x} outside support 1..{atoms}")
    return C


def mass_kernel(atoms: int, subset: Sequence[int], psi: Sequence[Scalar]) -> SymmetricKernel:
    """The order len(psi) - 1 kernel o -> psi[j(o)], j(o) the draws of o in ``subset``.

    The subset is checked and the n + 1 distinct values coerced once, before
    the kernel is built."""
    n = len(psi) - 1
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if atoms < 1:
        raise DomainError(f"need at least one atom, got {atoms}")
    index = [x - 1 for x in _atom_subset(subset, atoms)]
    values = [as_scalar(v) for v in psi]
    return SymmetricKernel._trusted(
        n, atoms, {o: values[sum([o[i] for i in index])] for o in occupation_vectors(n, atoms)}
    )


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
