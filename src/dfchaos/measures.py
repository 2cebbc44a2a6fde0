"""Finite discrete base measures and the Dirichlet laws they direct.

A base measure puts strictly positive weight on each atom of ``{1..K}``.
The associated random probability is Dirichlet with those weights as
concentration parameters; observing points simply adds unit mass at the
observed atoms (conjugacy), and mixed moments of the Dirichlet masses are
ratios of rising factorials.

Moment ladder.  Every moment is read from one table per measure, built on
first use and grown on demand (``DiscreteBaseMeasure.moment_ladder``).
Write the weights over their least common denominator q as p_j / q, with
P = sum_j p_j.  The ladder holds the integer rows

    R_j(m) = prod_{i<m} (p_j + i q),    S(n) = prod_{i<n} (P + i q),

and since rising(p_j / q, m) = R_j(m) / q^m, the powers of q cancel:

    E[prod_j D_j^{e_j}] = prod_j R_j(e_j) / S(|e|).

Conjugacy makes a posterior moment a shift on the prior's ladder,
E[D^e | counts c] = M(e + c) / M(c) with M(e) the moment above, so
posterior means are sums of integer products over one denominator, and
a single reduced Fraction is formed at the end; no posterior measure is
built.  A chaos decomposition needs the posterior mean of one polynomial
at every count vector up to an order; ``MomentLadder.posterior_table``
puts all of them over the one denominator S(top + order) in a single
integer pass.  A float weight is read once as its exact image
``Fraction(x)``, so every weight is a Fraction and the ladder is always
integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DomainError
from .numeric import (
    Record,
    Scalar,
    as_scalar,
    cached_attribute,
    common_denominator,
    occupation_lattice,
    scalar_to_json,
    tuple_counts,
)

if TYPE_CHECKING:  # numpy loads only on the float and Monte Carlo paths
    import numpy as np


class DiscreteBaseMeasure(Record):
    """A measure alpha = sum_j weights[j] * delta_{j+1}: finite weights > 0,
    each stored as a Fraction (a float as its exact image ``Fraction(x)``).

    Immutable; equality, hashing and ``repr`` read the weights only."""

    weights: Sequence[Scalar]

    def __post_init__(self) -> None:
        if not self.weights:
            raise DomainError("a base measure needs at least one atom")
        coerced = tuple(as_scalar(w) for w in self.weights)
        for w in coerced:
            if not w > 0 or (isinstance(w, float) and w == math.inf):
                raise DomainError(f"atom weights must be positive and finite, got {w}")
        weights = tuple(Fraction(w) if isinstance(w, float) else w for w in coerced)
        object.__setattr__(self, "weights", weights)

    @property
    def atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> Fraction:
        return self.moment_ladder.total_mass

    @cached_attribute
    def moment_ladder(self) -> "MomentLadder":
        """The rising-factorial rows every moment of this measure reads.

        Built on first use and kept in the instance, outside ``_fields``,
        so equality, hashing and JSON see the weights only."""
        return MomentLadder(self.weights)

    def weight(self, atom: int) -> Fraction:
        """Weight of a 1-based atom label."""
        if not 1 <= atom <= self.atoms:
            raise DomainError(f"atom {atom} outside 1..{self.atoms}")
        return self.weights[atom - 1]

    def mass_of(self, subset: Sequence[int]) -> Fraction:
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
    return with_counts(alpha, tuple_counts(observations, alpha.atoms))


def check_counts(atoms: int, counts: Sequence[int]) -> None:
    """Refuse an occupation-count vector of the wrong length or with a negative entry."""
    if len(counts) != atoms:
        raise DomainError("counts length must equal the number of atoms")
    if any(c < 0 for c in counts):
        raise DomainError("counts must be non-negative")


def with_counts(alpha: DiscreteBaseMeasure, counts: Sequence[int]) -> DiscreteBaseMeasure:
    """Posterior after observing `counts[j]` points on atom j+1."""
    check_counts(alpha.atoms, counts)
    return DiscreteBaseMeasure(tuple(w + c for w, c in zip(alpha.weights, counts)))


class MomentLadder:
    """Rising-factorial rows of one measure over a common denominator.

    ``row(j, c)[e]`` = prod_{i<e} (b_j + (c + i) q) with b_j = p_j for an
    atom j < K and b_K = P: the rows of the module docstring are
    R_j = row(j, 0) and S = row(K, 0), and a row started at c > 0 is the
    shifted product R_j(c + e) / R_j(c) that a posterior moment needs.
    Every entry is an integer.  Rows are built on first use and only ever
    extended.

    ``posterior_sum`` is one posterior mean: sum_e a_e E[D^e | c] for
    integer weights, as (N, Q).  ``posterior_table`` is every posterior
    mean of one polynomial at once, for all count vectors mu with
    |mu| <= d: on layer k = |mu| the term e contributes
    a_e tail_k[|e|] prod_j row(j, mu_j)[e_j], with
    tail_k[s] = prod_{s <= i < top}(P + (k + i) q) and top the degree, and
    lifting layer k by the integer S(k) S(top + d) / S(top + k) puts every
    layer over D = S(top + d).  ``urn_weights`` holds the occupation
    probabilities of one layer as integers over S(n).
    """

    __slots__ = ("q", "bases", "total_mass", "_rows", "_urn")

    def __init__(self, weights: Sequence[Fraction]):
        p, self.q = common_denominator(weights)
        self.bases = (*p, sum(p))
        self.total_mass = sum(weights)
        self._rows: dict[tuple[int, int], list] = {}
        self._urn: dict[int, tuple[list[int], int]] = {}

    def urn_weights(self, order: int) -> tuple[list[int], int]:
        """(W, S(n)), n = order: the urn law of n draws from the measure,
        P(a) = mult(a) E[D^a] = W[i] / S(n) for the i-th vector a of
        ``occupation_lattice(n, K)``, with W[i] = mult(a) prod_j R_j(a_j).
        Built once per order; every urn expectation of that order is one
        dot product with it."""
        cached = self._urn.get(order)
        if cached is None:
            atoms = len(self.bases) - 1
            lattice = occupation_lattice(order, atoms)
            rows = [self.row(j, 0, order) for j in range(atoms)]
            weights = []
            for a, mult in zip(lattice.vectors, lattice.multiplicities):
                for row, e in zip(rows, a):
                    mult *= row[e]
                weights.append(mult)
            cached = self._urn[order] = weights, self.row(atoms, 0, order)[order]
        return cached

    def row(self, j: int, start: int, top: int) -> list:
        """row(j, start), holding at least the indices 0..top.

        A row is extended by storing a longer copy, so a list once handed
        out never changes."""
        row = self._rows.get((j, start), [1])
        if len(row) <= top:
            base, q = self.bases[j], self.q
            row = list(row)
            value = row[-1]
            for i in range(start + len(row) - 1, start + top):
                value = value * (base + i * q)
                row.append(value)
            self._rows[(j, start)] = row
        return row

    def moment(self, exponents: Sequence[int]) -> Fraction:
        """E[prod_j D_j^{e_j}] = prod_j R_j(e_j) / S(|e|)."""
        return Fraction(*self.posterior_sum([(exponents, 1)], (0,) * (len(self.bases) - 1)))

    def posterior_sum(
        self, terms: Iterable[tuple[Sequence[int], int]], counts: Sequence[int]
    ) -> tuple[int, int]:
        """(N, Q) with N / Q = sum of a * E[D^e | counts c] over the (e, a) terms.

        By conjugacy E[D^e | c] = prod_j row(j, c_j)[e_j] / row(K, |c|)[|e|].
        Over Q = row(K, |c|)[d], d the largest |e|, the term of e
        contributes a prod_j row(j, c_j)[e_j] times the integer tail
        Q / row(K, |c|)[|e|] = prod_{|e| <= i < d} (P + (|c| + i) q).  The
        weights a are ints (a caller puts its values over their common
        denominator first, ``numeric.exact_numerators``), so N and Q are ints.
        """
        atoms = len(self.bases) - 1
        check_counts(atoms, counts)
        terms = list(terms)
        top = max((sum(e) for e, _ in terms), default=0)
        rows = [self.row(j, c, top) for j, c in enumerate(counts)]
        base = sum(counts)
        mass, q = self.bases[atoms], self.q
        tails = [1] * (top + 1)  # tails[k] = Q / row(K, |c|)[k]
        for k in range(top - 1, -1, -1):
            tails[k] = tails[k + 1] * (mass + (base + k) * q)
        total = 0
        for exponents, weight in terms:
            value = weight * tails[sum(exponents)]
            for row, e in zip(rows, exponents):
                if e:
                    value *= row[e]
            total += value
        return total, self.row(atoms, base, top)[top]

    def posterior_table(
        self, terms: Sequence[tuple[Sequence[int], int]], order: int, start: int = 0
    ) -> tuple[list[list[int]], int]:
        """(layers, D): every posterior sum of one integer polynomial at once.

        ``layers[k - start]`` lists, by rank in ``occupation_lattice(k, K)``,
        the integers N(mu) with N(mu) / D = sum of a * E[D^e | counts mu]
        over the (e, a) terms, for every layer start <= k <= order, all over
        the one denominator D = S(top + order), top the largest |e|.  Entry mu is
        ``posterior_sum`` at counts mu, over its denominator
        row(K, k)[top] = S(top + k) / S(k), times the lift of the class
        docstring.  The tails, the lift and the rows are shared by a whole
        layer, and no Fraction is formed.  The weights a must be ints.
        """
        atoms = len(self.bases) - 1
        top = max((sum(e) for e, _ in terms), default=0)
        mass, q = self.bases[atoms], self.q
        totals = self.row(atoms, 0, top + order)  # S(0), ..., S(top + order)
        den = totals[top + order]
        rows = [[self.row(j, c, top) for c in range(order + 1)] for j in range(atoms)]
        factors = [tuple((j, ej) for j, ej in enumerate(e) if ej) for e, _ in terms]
        layers = []
        for k in range(start, order + 1):
            lift = totals[k] * (den // totals[top + k])
            tails = [lift] * (top + 1)  # lifted: tails[s] = lift * tail_k[s]
            for s in range(top - 1, -1, -1):
                tails[s] = tails[s + 1] * (mass + (k + s) * q)
            scaled = [(a * tails[sum(e)], f) for (e, a), f in zip(terms, factors)]
            layer = []
            for mu in occupation_lattice(k, atoms).vectors:
                picked = [rows[j][c] for j, c in enumerate(mu)]
                total = 0
                for value, f in scaled:
                    for j, ej in f:
                        value *= picked[j][ej]
                    total += value
                layer.append(total)
            layers.append(layer)
        return layers, den


def dirichlet_moment(alpha: DiscreteBaseMeasure, exponents: Sequence[int]) -> Fraction:
    """E[prod_j D_j^{m_j}] for D ~ Dirichlet(alpha).

    Equals prod_j rising(theta_j, m_j) / rising(|alpha|, sum m_j), read from
    the measure's moment ladder, as an exact Fraction. Exponents must be
    non-negative integers.
    """
    if len(exponents) != alpha.atoms:
        raise DomainError("exponent vector length must equal the number of atoms")
    cleaned = []
    for m in exponents:
        if m < 0 or int(m) != m:
            raise DomainError(f"exponents must be non-negative integers, got {m}")
        cleaned.append(int(m))
    return alpha.moment_ladder.moment(cleaned)


# Rows per Monte Carlo block: large enough that numpy's per-call overhead
# vanishes, small enough that a block's (MC_BLOCK, K) draws stay a few
# hundred KiB whatever the number of draws.
MC_BLOCK = 4096


def _dirichlet_blocks(
    alpha: DiscreteBaseMeasure, reps: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The ``reps`` draws of D ~ Dirichlet(alpha) behind every Monte Carlo
    path: consecutive (n <= MC_BLOCK, K) arrays, each one ``rng.dirichlet``
    call made only when the block is requested, so that a consumer may draw
    from ``rng`` between blocks."""
    if reps < 1:
        raise DomainError(f"a Monte Carlo estimate needs at least one draw, got {reps}")
    weights = alpha.as_floats()
    for start in range(0, reps, MC_BLOCK):
        yield rng.dirichlet(weights, size=min(MC_BLOCK, reps - start))


def sample_dirichlet(alpha: DiscreteBaseMeasure, rng: np.random.Generator) -> tuple[float, ...]:
    """One draw of the Dirichlet mass vector, as a tuple summing to 1."""
    return tuple(next(_dirichlet_blocks(alpha, 1, rng))[0])
