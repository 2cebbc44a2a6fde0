"""The reinforced-urn sequence directed by a Dirichlet random measure.

A sequence (X_1, X_2, ...) on {1..K} follows the urn law when each draw
lands on atom a with probability (weight_a + #previous hits on a) / (total
mass + #previous draws). The sequence is exchangeable; conditionally on the
directing Dirichlet measure the draws are i.i.d. from it, and the posterior
of the directing measure given observations is the conjugate update.

Conditional expectations of a symmetric statistic are not taken here: the
finite split (``hoeffding``) takes every conditional mean at once, in one
backward pass over the occupation lattice, and caps the C(N + K, K) lattice
vectors it holds.  Its independent oracle, one completion enumeration per
conditional mean, lives in ``validation``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .measures import DiscreteBaseMeasure, dirichlet_moment, with_counts
from .numeric import Record, Scalar, multiplicity, tuple_counts

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
    weights = list(alpha.float_weights)
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
