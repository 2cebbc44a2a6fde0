"""Finite discrete base measures and the Dirichlet laws they direct.

A base measure puts strictly positive weight on each atom of ``{1..K}``.
The associated random probability is Dirichlet with those weights as
concentration parameters; observing points simply adds unit mass at the
observed atoms (conjugacy), and mixed moments of the Dirichlet masses are
ratios of rising factorials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .numeric import Scalar, as_scalar, rising_factorial, scalar_to_json

if TYPE_CHECKING:  # numpy loads only on the float and Monte Carlo paths
    import numpy as np


@dataclass(frozen=True)
class DiscreteBaseMeasure:
    """A measure alpha = sum_j weights[j] * delta_{j+1} with all weights > 0."""

    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.weights:
            raise DomainError("a base measure needs at least one atom")
        coerced = tuple(as_scalar(w) for w in self.weights)
        for w in coerced:
            if not w > 0:
                raise DomainError(f"atom weights must be > 0, got {w}")
        object.__setattr__(self, "weights", coerced)

    @property
    def atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> Scalar:
        return sum(self.weights)

    def weight(self, atom: int) -> Scalar:
        """Weight of a 1-based atom label."""
        if not 1 <= atom <= self.atoms:
            raise DomainError(f"atom {atom} outside 1..{self.atoms}")
        return self.weights[atom - 1]

    def mass_of(self, subset: Sequence[int]) -> Scalar:
        """Total weight of a set of atom labels."""
        labels = set(subset)
        for a in labels:
            if not 1 <= a <= self.atoms:
                raise DomainError(f"atom {a} outside 1..{self.atoms}")
        return sum(self.weights[a - 1] for a in sorted(labels))

    def as_floats(self) -> np.ndarray:
        import numpy as np

        return np.array([float(w) for w in self.weights])

    def to_json(self) -> dict:
        return {"weights": [scalar_to_json(w) for w in self.weights]}

    @classmethod
    def from_json(cls, payload: dict) -> "DiscreteBaseMeasure":
        if "weights" not in payload:
            raise DomainError("measure JSON needs a 'weights' field")
        return cls(tuple(as_scalar(w) for w in payload["weights"]))


def measure(*weights) -> DiscreteBaseMeasure:
    """Convenience constructor: measure(1, '1/2', 3) -> DiscreteBaseMeasure."""
    return DiscreteBaseMeasure(tuple(weights))


def with_observations(alpha: DiscreteBaseMeasure, observations: Sequence[int]) -> DiscreteBaseMeasure:
    """Posterior base measure after observing the given atom labels.

    Each observation adds unit mass at its atom; the support never changes.
    """
    counts = [0] * alpha.atoms
    for a in observations:
        if not 1 <= a <= alpha.atoms:
            raise DomainError(f"observed label {a} outside 1..{alpha.atoms}")
        counts[a - 1] += 1
    return DiscreteBaseMeasure(tuple(w + c for w, c in zip(alpha.weights, counts)))


def with_counts(alpha: DiscreteBaseMeasure, counts: Sequence[int]) -> DiscreteBaseMeasure:
    """Posterior after observing `counts[j]` points on atom j+1."""
    if len(counts) != alpha.atoms:
        raise DomainError("counts length must equal the number of atoms")
    if any(c < 0 for c in counts):
        raise DomainError("counts must be non-negative")
    return DiscreteBaseMeasure(tuple(w + c for w, c in zip(alpha.weights, counts)))


def dirichlet_moment(alpha: DiscreteBaseMeasure, exponents: Sequence[int]) -> Scalar:
    """E[prod_j D_j^{m_j}] for D ~ Dirichlet(alpha).

    Equals prod_j rising(theta_j, m_j) / rising(|alpha|, sum m_j); exact for
    rational weights. Exponents must be non-negative integers.
    """
    if len(exponents) != alpha.atoms:
        raise DomainError("exponent vector length must equal the number of atoms")
    cleaned = []
    for m in exponents:
        if m < 0 or int(m) != m:
            raise DomainError(f"exponents must be non-negative integers, got {m}")
        cleaned.append(int(m))
    return _dirichlet_moment_cached(alpha.weights, alpha.total_mass, tuple(cleaned))


@lru_cache(maxsize=1 << 16, typed=True)  # typed: see numeric._rising_cached
def _dirichlet_moment_cached(
    weights: tuple[Scalar, ...], total_mass: Scalar, exponents: tuple[int, ...]
) -> Scalar:
    numerator: Scalar = Fraction(1)
    for w, m in zip(weights, exponents):
        numerator = numerator * rising_factorial(w, m)
    return numerator / rising_factorial(total_mass, sum(exponents))


def sample_dirichlet(alpha: DiscreteBaseMeasure, rng: np.random.Generator) -> tuple[float, ...]:
    """One draw of the Dirichlet mass vector, as a tuple summing to 1.

    Uses normalised Gamma variates from the caller-owned generator; a
    degenerate all-zero draw (possible for very small shapes in floating
    point) is redrawn.
    """
    shapes = alpha.as_floats()
    while True:
        gammas = rng.gamma(shape=shapes)
        s = gammas.sum()
        if s > 0:
            return tuple(gammas / s)


def as_simplex_point(values: Sequence[Scalar], atoms: int | None = None) -> tuple[Scalar, ...]:
    """Validate a probability vector (sums to 1; exact for rationals)."""
    point = tuple(as_scalar(v) for v in values)
    if atoms is not None and len(point) != atoms:
        raise DomainError(f"expected {atoms} coordinates, got {len(point)}")
    for v in point:
        if v < 0:
            raise DomainError(f"simplex coordinates must be >= 0, got {v}")
    total = sum(point)
    if isinstance(total, Fraction):
        if total != 1:
            raise DomainError(f"simplex coordinates must sum to 1, got {total}")
    elif abs(total - 1.0) > 1e-12:
        raise DomainError(f"simplex coordinates must sum to 1 within 1e-12, got {total}")
    return point
