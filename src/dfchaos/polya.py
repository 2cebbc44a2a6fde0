"""The reinforced-urn sequence directed by a Dirichlet random measure.

A sequence (X_1, X_2, ...) on {1..K} follows the urn law when each draw
lands on atom a with probability (weight_a + #previous hits on a) / (total
mass + #previous draws). The sequence is exchangeable; conditionally on the
directing Dirichlet measure the draws are i.i.d. from it, and the posterior
of the directing measure given observations is the conjugate update.

A single conditional expectation of a symmetric statistic,
``cond_exp_statistic_counts``, sums over the completions of the fixed block,
collapsed to occupation vectors; the number of completions,
C(N - #fixed + K - 1, K - 1), is checked against the one fixed cap,
``DEFAULT_ENUMERATION_CAP``.  It answers single queries and is the
independent oracle of the tests and of ``verify``: the finite split
(``hoeffding``) takes every conditional mean at once, in one backward
pass over the occupation lattice, and caps the C(N + K, K) lattice
vectors it holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import DEFAULT_ENUMERATION_CAP, DomainError, ResourceCapError
from .kernels import SymmetricKernel
from .measures import DiscreteBaseMeasure, check_counts, dirichlet_moment, with_counts
from .numeric import (
    Record,
    Scalar,
    binom,
    exact_numerators,
    multiplicity,
    occupation_vectors,
    ratio,
    tuple_counts,
)

if TYPE_CHECKING:
    import numpy as np


class PolyaSample(Record):
    """A realised urn sequence together with the base measure that drove it."""

    alpha: DiscreteBaseMeasure
    labels: tuple[int, ...]

    def __post_init__(self):
        tuple_counts(self.labels, self.alpha.atoms)  # refuses a label outside 1..K

    def counts(self) -> tuple[int, ...]:
        return tuple_counts(self.labels, self.alpha.atoms)

    def __len__(self) -> int:
        return len(self.labels)


def polya_joint_prob(alpha: DiscreteBaseMeasure, labels: Sequence[int]) -> Scalar:
    """P(X_1 = labels[0], ..., X_n = labels[n-1]) under the urn law.

    Computed as the literal product of predictive weights, so tests can
    compare it independently against the rising-factorial formula
    (dirichlet_moment of the occupation vector).
    """
    total = alpha.total_mass
    seen = [0] * alpha.atoms
    prob: Scalar = Fraction(1)
    for i, a in enumerate(labels):
        if not 1 <= a <= alpha.atoms:
            raise DomainError(f"label {a} outside 1..{alpha.atoms}")
        prob = prob * (alpha.weights[a - 1] + seen[a - 1]) / (total + i)
        seen[a - 1] += 1
    return prob


def occupation_prob(alpha: DiscreteBaseMeasure, counts: Sequence[int]) -> Scalar:
    """P(occupation vector of (X_1..X_n) = counts) = mult(counts)·joint prob."""
    if len(counts) != alpha.atoms:
        raise DomainError("counts length must equal the number of atoms")
    return multiplicity(counts) * dirichlet_moment(alpha, counts)


def predictive(alpha: DiscreteBaseMeasure, history: Sequence[int]) -> tuple[Scalar, ...]:
    """Distribution of the next draw given an observed history."""
    posterior = with_counts(alpha, tuple_counts(history, alpha.atoms))
    total = posterior.total_mass
    return tuple(w / total for w in posterior.weights)


def sample_polya(
    alpha: DiscreteBaseMeasure, n: int, rng: np.random.Generator
) -> PolyaSample:
    """Draw an urn sequence of length n (sequential inverse-CDF sampling)."""
    if n < 0:
        raise DomainError(f"sequence length must be >= 0, got {n}")
    weights = [float(w) for w in alpha.weights]
    total = float(alpha.total_mass)
    labels = []
    for i in range(n):
        u = rng.random() * (total + i)
        acc = 0.0
        pick = alpha.atoms
        for j, w in enumerate(weights):
            acc += w
            if u < acc:
                pick = j + 1
                break
        labels.append(pick)
        weights[pick - 1] += 1.0
    return PolyaSample(alpha, tuple(labels))


def empirical_measure(sample: PolyaSample | Sequence[int], atoms: int | None = None):
    """Empirical frequencies of a label sequence, as exact rationals."""
    if isinstance(sample, PolyaSample):
        labels, atoms = sample.labels, sample.alpha.atoms
    else:
        labels = tuple(sample)
        if atoms is None:
            raise DomainError("atom count required for a bare label sequence")
    if not labels:
        raise DomainError("cannot form the empirical measure of an empty sequence")
    counts = tuple_counts(labels, atoms)
    n = len(labels)
    return tuple(Fraction(c, n) for c in counts)


def cond_exp_statistic(
    statistic: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    fixed: Sequence[int],
) -> Scalar:
    """E[T(X_1..X_N) | X_1..X_a = fixed], exactly.

    `statistic` is a symmetric function of N = statistic.order points given
    by its occupation-vector table; `fixed` pins the first a coordinates
    (by exchangeability only its occupation vector matters, so the labels
    are counted once and handed to ``cond_exp_statistic_counts``). The
    remaining N-a coordinates are integrated out under the posterior urn
    law.
    """
    return cond_exp_statistic_counts(statistic, alpha, tuple_counts(fixed, alpha.atoms))


def cond_exp_statistic_counts(
    statistic: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    fixed_counts: Sequence[int],
) -> Scalar:
    """Same as cond_exp_statistic but with the fixed block given as counts.

    A completion's weight is its multiplicity times the posterior moment
    E[D^completion | fixed], a shift on the prior's moment ladder; the
    statistic's values go over one common denominator, so the weighted sum
    runs on ints and one Fraction is formed at the end.  A float value is
    read as its exact image and the mean rounded once, to a float.  More
    than ``DEFAULT_ENUMERATION_CAP`` completions raise ResourceCapError.
    """
    if statistic.atoms != alpha.atoms:
        raise DomainError("statistic and measure disagree on the atom count")
    check_counts(alpha.atoms, fixed_counts)
    n_free = statistic.order - sum(fixed_counts)
    if n_free < 0:
        raise DomainError(
            f"cannot fix {sum(fixed_counts)} of {statistic.order} coordinates"
        )
    size = binom(n_free + alpha.atoms - 1, alpha.atoms - 1)
    if size > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"enumeration of {size} completions exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )
    completions = list(occupation_vectors(n_free, alpha.atoms))
    values, scale, rounded = exact_numerators(
        statistic.value(tuple(f + c for f, c in zip(fixed_counts, completion)))
        for completion in completions
    )
    terms = [
        (completion, multiplicity(completion) * value)
        for completion, value in zip(completions, values)
        if value
    ]
    num, den = alpha.moment_ladder.posterior_sum(terms, fixed_counts)
    return ratio(num, den * scale, rounded)


def expectation_statistic(statistic: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """E[T(X_1..X_N)] under the urn law."""
    return cond_exp_statistic(statistic, alpha, ())
