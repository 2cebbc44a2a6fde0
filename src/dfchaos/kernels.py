"""Symmetric kernels and polynomial functionals on the finite simplex.

A symmetric function of ``n`` points on ``{1..K}`` is stored as a table
keyed by occupation vectors (how many of the points hit each atom); the
canonical-form invariants (keys sum to the order, length K) are enforced at
construction. Polynomial functionals of the mass vector are sparse
multi-exponent -> coefficient maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DomainError
from .numeric import (
    Scalar,
    as_scalar,
    common_denominator,
    exact_ratio,
    is_exact,
    multiplicity,
    occupation_vectors,
    scalar_to_json,
    sub_occupations,
    tuple_counts,
)


@dataclass(frozen=True)
class SymmetricKernel:
    """A symmetric function of `order` points on `atoms` atoms.

    ``values`` maps occupation vectors to values; missing vectors mean 0.
    """

    order: int
    atoms: int
    values: Mapping[tuple[int, ...], Scalar]

    def __post_init__(self):
        if self.order < 0:
            raise DomainError(f"order must be >= 0, got {self.order}")
        if self.atoms < 1:
            raise DomainError(f"need at least one atom, got {self.atoms}")
        cleaned = {}
        for counts, value in self.values.items():
            counts = tuple(int(c) for c in counts)
            if len(counts) != self.atoms:
                raise DomainError(f"occupation vector {counts} has wrong length")
            if any(c < 0 for c in counts) or sum(counts) != self.order:
                raise DomainError(
                    f"occupation vector {counts} is not a size-{self.order} multiset"
                )
            cleaned[counts] = as_scalar(value)
        object.__setattr__(self, "values", cleaned)

    # -- access ------------------------------------------------------------

    def value(self, counts: Sequence[int]) -> Scalar:
        return self.values.get(tuple(counts), Fraction(0))

    def value_at(self, labels: Sequence[int]) -> Scalar:
        """Value at an ordered tuple of atom labels."""
        if len(labels) != self.order:
            raise DomainError(f"expected {self.order} labels, got {len(labels)}")
        return self.value(tuple_counts(labels, self.atoms))

    def items(self):
        """(occupation vector, value) over the full domain, canonical order."""
        for counts in occupation_vectors(self.order, self.atoms):
            yield counts, self.value(counts)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self.values.values())

    def max_abs(self) -> Scalar:
        vals = [abs(v) for _, v in self.items()]
        return max(vals) if vals else Fraction(0)

    # -- algebra -----------------------------------------------------------

    def scale(self, factor: Scalar) -> "SymmetricKernel":
        return SymmetricKernel(
            self.order, self.atoms, {c: factor * v for c, v in self.values.items()}
        )

    def add(self, other: "SymmetricKernel") -> "SymmetricKernel":
        if (self.order, self.atoms) != (other.order, other.atoms):
            raise DomainError("kernels must share order and atom count")
        out = dict(self.values)
        for c, v in other.values.items():
            out[c] = out.get(c, Fraction(0)) + v
        return SymmetricKernel(self.order, self.atoms, out)

    def sub(self, other: "SymmetricKernel") -> "SymmetricKernel":
        return self.add(other.scale(Fraction(-1)))

    def to_polynomial(self) -> "SimplexPolynomial":
        """The induced polynomial of the mass vector: the integral of this
        kernel against the n-fold product measure, sum_m h(m)·mult(m)·d^m.

        Built once per kernel and shared by every later call (kernels are
        immutable), so evaluating a decomposition at many points does not
        rebuild it."""
        return self._polynomial

    @cached_property
    def _polynomial(self) -> "SimplexPolynomial":
        terms = {}
        for counts, value in self.values.items():
            if value != 0:
                terms[counts] = value * multiplicity(counts)
        return SimplexPolynomial(self.atoms, terms)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_function(
        cls, order: int, atoms: int, fn: Callable[[tuple[int, ...]], Scalar]
    ) -> "SymmetricKernel":
        return cls(order, atoms, {c: fn(c) for c in occupation_vectors(order, atoms)})

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "K": self.atoms,
            "values": [
                {"counts": list(c), "value": scalar_to_json(v)} for c, v in self.items()
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SymmetricKernel":
        try:
            order = int(payload["order"])
            atoms = int(payload["K"])
            entries = payload["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed kernel JSON: {exc}") from exc
        values = {}
        for entry in entries:
            values[tuple(int(c) for c in entry["counts"])] = as_scalar(entry["value"])
        return cls(order, atoms, values)


def subset_sum_kernels(
    values: Mapping[tuple[int, ...], Scalar],
    rows: Mapping[int, Mapping[int, Scalar]],
    atoms: int,
) -> dict[int, SymmetricKernel]:
    """For each order n of ``rows``, the order-n kernel

        a -> sum_k w[n][k] · sum_{mu <= a, |mu| = k} ways(mu) · v(mu),

    v = ``values`` (a missing vector means 0) and ways(mu) = prod_j
    C(a_j, mu_j), the number of k-subsets of the n points realising mu.
    The limit coefficients theta(n, k) as weights give the chaos kernels,
    the starred table theta*_N(s, k) the finite-sample components, and a
    unit row {N: {s: 1}} the order-N subset sum of an order-s kernel.

    The values go over one common denominator and each row over its own,
    so the sums run on ints and each entry is one Fraction.  If any value
    or weight is a float, all run as floats over the denominator 1: an
    integer numerator has no bound and need not fit a float.
    """
    exact = is_exact(values.values()) and all(is_exact(r.values()) for r in rows.values())
    cast = list if exact else (lambda xs: [float(x) for x in xs])
    nums, value_den = common_denominator(cast(values.values()))
    table = dict(zip(values, nums))
    kernels = {}
    for n, row in rows.items():
        weights, row_den = common_denominator(cast(row.values()))
        den = row_den * value_den
        out = {}
        for a_counts in occupation_vectors(n, atoms):
            acc = 0
            for k, w in zip(row, weights):
                inner = 0
                for mu, ways in sub_occupations(a_counts, k):
                    inner += ways * table.get(mu, 0)
                acc += w * inner
            out[a_counts] = exact_ratio(acc, den)
        kernels[n] = SymmetricKernel(n, atoms, out)
    return kernels


@dataclass(frozen=True)
class SimplexPolynomial:
    """A polynomial in the masses (d_1..d_nvars), sparse exponent map."""

    nvars: int
    terms: Mapping[tuple[int, ...], Scalar]

    def __post_init__(self):
        cleaned = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps}")
            coeff = as_scalar(coeff)
            if coeff != 0:
                cleaned[exps] = cleaned.get(exps, Fraction(0)) + coeff
        object.__setattr__(self, "terms", cleaned)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise DomainError(f"expected {self.nvars} coordinates, got {len(point)}")
        if self._integer_terms is not None and is_exact(point):
            return self._evaluate_exact(point)
        # each distinct power x_j**e is computed once per call and shared
        # by every term that uses it (same values as computing it per term)
        powers: dict[tuple[int, int], Scalar] = {}
        total: Scalar = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for j, e in enumerate(exps):
                if e:
                    power = powers.get((j, e))
                    if power is None:
                        power = powers[(j, e)] = point[j] ** e
                    term = term * power
            total = total + term
        return total

    @cached_property
    def _integer_terms(self) -> tuple[list, int, int] | None:
        """(terms, L, degree), the coefficients as c_e / L over their common
        denominator and each term as (c_e, |e|, its (j, e_j) with e_j > 0);
        None when a coefficient is a float."""
        if not is_exact(self.terms.values()):
            return None
        coeffs, lead = common_denominator(list(self.terms.values()))
        terms = [
            (c, sum(exps), tuple((j, e) for j, e in enumerate(exps) if e))
            for exps, c in zip(self.terms, coeffs)
        ]
        return terms, lead, self.degree

    def _evaluate_exact(self, point: Sequence[Scalar]) -> Fraction:
        """The same sum in ints: with the coordinates a_j / b over their
        common denominator, each term is homogenised by b^(degree - |e|) to
        the one denominator L b^degree."""
        terms, lead, top = self._integer_terms
        coords, b = common_denominator(point)
        b_powers = [1]
        for _ in range(top):
            b_powers.append(b_powers[-1] * b)
        powers: dict[tuple[int, int], int] = {}
        total = 0
        for coeff, size, factors in terms:
            term = coeff * b_powers[top - size]
            for key in factors:
                power = powers.get(key)
                if power is None:
                    power = powers[key] = coords[key[0]] ** key[1]
                term *= power
            total += term
        return Fraction(total, lead * b_powers[top])

    def scale(self, factor: Scalar) -> "SimplexPolynomial":
        return SimplexPolynomial(self.nvars, {e: factor * c for e, c in self.terms.items()})

    def add(self, other: "SimplexPolynomial") -> "SimplexPolynomial":
        if self.nvars != other.nvars:
            raise DomainError("polynomials must share their variable count")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return SimplexPolynomial(self.nvars, out)

    def sub(self, other: "SimplexPolynomial") -> "SimplexPolynomial":
        return self.add(other.scale(Fraction(-1)))

    def mul(self, other: "SimplexPolynomial") -> "SimplexPolynomial":
        if self.nvars != other.nvars:
            raise DomainError("polynomials must share their variable count")
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return SimplexPolynomial(self.nvars, out)

    def pad_to(self, nvars: int) -> "SimplexPolynomial":
        """Reinterpret in a larger variable set (new variables unused)."""
        if nvars < self.nvars:
            raise DomainError("cannot shrink the variable set")
        extra = (0,) * (nvars - self.nvars)
        return SimplexPolynomial(nvars, {e + extra: c for e, c in self.terms.items()})

    def to_json(self) -> dict:
        ordered = sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))
        return {
            "nvars": self.nvars,
            "terms": [
                {"exponents": list(e), "coeff": scalar_to_json(c)} for e, c in ordered
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SimplexPolynomial":
        try:
            entries = payload["terms"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed polynomial JSON: {exc}") from exc
        terms: dict[tuple[int, ...], Scalar] = {}
        nvars = payload.get("nvars")
        for entry in entries:
            exps = tuple(int(e) for e in entry["exponents"])
            if nvars is None:
                nvars = len(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + as_scalar(entry["coeff"])
        if nvars is None:
            raise DomainError("polynomial JSON has no terms and no 'nvars'")
        return cls(int(nvars), terms)

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff: Scalar = Fraction(1)):
        return cls(nvars, {tuple(int(e) for e in exponents): coeff})

    @classmethod
    def constant(cls, nvars: int, value: Scalar):
        return cls(nvars, {(0,) * nvars: value})


@dataclass(frozen=True)
class PredictableComponent:
    """One term of the predictable (filtration) decomposition of a statistic.

    The order-n component g_n(x_1..x_n) is symmetric in its first n-1
    arguments only, so it is stored as a map
    (occupation vector of x_1..x_{n-1}, last atom) -> value.
    """

    order: int
    atoms: int
    table: Mapping[tuple[tuple[int, ...], int], Scalar]

    def value(self, history_counts: Sequence[int], last: int) -> Scalar:
        return self.table.get((tuple(history_counts), last), Fraction(0))

    def symmetrised(self) -> SymmetricKernel:
        """Average over orderings; integrals against product measures only
        ever see this symmetrisation."""
        sums: dict[tuple[int, ...], Scalar] = {}
        for (hist, last), value in self.table.items():
            full = list(hist)
            full[last - 1] += 1
            key = tuple(full)
            weight = Fraction(multiplicity(hist))
            sums[key] = sums.get(key, Fraction(0)) + weight * value
        out = {}
        for counts, total in sums.items():
            out[counts] = total / multiplicity(counts)
        return SymmetricKernel(self.order, self.atoms, out)

    def to_polynomial(self) -> SimplexPolynomial:
        """Integral against the n-fold product measure, as a polynomial."""
        terms: dict[tuple[int, ...], Scalar] = {}
        for (hist, last), value in self.table.items():
            full = list(hist)
            full[last - 1] += 1
            key = tuple(full)
            contribution = value * multiplicity(hist)
            terms[key] = terms.get(key, Fraction(0)) + contribution
        return SimplexPolynomial(self.atoms, terms)
