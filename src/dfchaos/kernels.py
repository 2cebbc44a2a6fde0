"""Symmetric kernels and polynomial functionals on the finite simplex.

A symmetric function of ``n`` points on ``{1..K}`` is stored as a table
keyed by occupation vectors (how many of the points hit each atom); the
canonical-form invariants (keys sum to the order, length K) are enforced at
construction. Polynomial functionals of the mass vector are sparse
multi-exponent -> coefficient maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DomainError
from .numeric import (
    Record,
    Scalar,
    as_integer,
    as_scalar,
    cached_attribute,
    common_denominator,
    exact_numerators,
    is_exact,
    multiplicity,
    occupation_lattice,
    occupation_vectors,
    ratio,
    scalar_to_json,
    tuple_counts,
)

#: The value of a missing entry, shared: ``Fraction`` is immutable.
_ZERO = Fraction(0)


class SymmetricKernel(Record):
    """A symmetric function of `order` points on `atoms` atoms.

    ``values`` maps occupation vectors to values; missing vectors mean 0.
    The public constructor ``SymmetricKernel(order, atoms, values)`` checks
    and coerces every entry.  The package's exact routes build a kernel
    from integers instead (``_from_numerators``): the numerators by rank in
    ``occupation_lattice(order, atoms)`` over one denominator.  Such a
    kernel keeps the integers, and its ``values`` map, one ``Fraction`` per
    vector of the layer, is built on first read; ``numerators``,
    ``is_zero``, ``scale``, ``add``, ``sub`` and ``to_json`` read the
    integers.  Both forms of one kernel are equal and serialise alike.
    """

    _fields = ("order", "atoms", "values")

    def __init__(self, order: int, atoms: int, values: Mapping[tuple[int, ...], Scalar]):
        if order < 0:
            raise DomainError(f"order must be >= 0, got {order}")
        if atoms < 1:
            raise DomainError(f"need at least one atom, got {atoms}")
        cleaned = {}
        for counts, value in values.items():
            counts = tuple(int(c) for c in counts)
            if len(counts) != atoms:
                raise DomainError(f"occupation vector {counts} has wrong length")
            if any(c < 0 for c in counts) or sum(counts) != order:
                raise DomainError(
                    f"occupation vector {counts} is not a size-{order} multiset"
                )
            cleaned[counts] = as_scalar(value)
        super().__init__(order, atoms, cleaned)

    def __eq__(self, other):
        # a kernel built from numerators equals the same values built publicly
        if not isinstance(other, SymmetricKernel):
            return NotImplemented
        return (self.order, self.atoms, self.values) == (other.order, other.atoms, other.values)

    def __repr__(self) -> str:
        fields = f"order={self.order!r}, atoms={self.atoms!r}, values={self.values!r}"
        return f"SymmetricKernel({fields})"

    # -- access ------------------------------------------------------------

    def value(self, counts: Sequence[int]) -> Scalar:
        return self.values.get(tuple(counts), _ZERO)

    def value_at(self, labels: Sequence[int]) -> Scalar:
        """Value at an ordered tuple of atom labels."""
        if len(labels) != self.order:
            raise DomainError(f"expected {self.order} labels, got {len(labels)}")
        return self.value(tuple_counts(labels, self.atoms))

    def items(self):
        """(occupation vector, value) over the full domain, canonical order."""
        for counts in occupation_vectors(self.order, self.atoms):
            yield counts, self.value(counts)

    def is_zero(self) -> bool:
        return not any(self.values.values())

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
        return SymmetricKernel._trusted(self.order, self.atoms, out)

    def sub(self, other: "SymmetricKernel") -> "SymmetricKernel":
        return self.add(other.scale(Fraction(-1)))

    @cached_attribute
    def numerators(self) -> tuple[tuple[int, ...], int, bool]:
        """(nums, d, rounded): the values on the order's lattice layer, by
        rank in ``occupation_lattice``, as nums[i] / d over their least
        common denominator (``exact_numerators``: a float is read as its
        exact image and ``rounded`` says one was seen).  Built once per
        kernel and shared by every urn expectation and degeneracy check
        that reads it."""
        vectors = occupation_lattice(self.order, self.atoms).vectors
        nums, den, rounded = exact_numerators([self.value(a) for a in vectors])
        return tuple(nums), den, rounded

    def to_polynomial(self) -> "SimplexPolynomial":
        """The induced polynomial of the mass vector: the integral of this
        kernel against the n-fold product measure, sum_m h(m)·mult(m)·d^m.

        Built once per kernel and shared by every later call (kernels are
        immutable), so evaluating a decomposition at many points does not
        rebuild it."""
        return self._polynomial

    @cached_attribute
    def _polynomial(self) -> "SimplexPolynomial":
        terms = {}
        for counts, value in self.values.items():
            if value != 0:
                terms[counts] = value * multiplicity(counts)
        return SimplexPolynomial(self.atoms, terms)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_numerators(
        cls, order: int, atoms: int, nums: Sequence[int], den: int, rounded: bool = False
    ) -> "SymmetricKernel":
        """The kernel with value nums[i] / den at the i-th vector of
        ``occupation_lattice(order, atoms)``, for ints with den > 0.  The
        integers are kept and read as they are (``_ExactKernel``); with
        ``rounded`` every value is rounded once, to a float (``ratio``), and
        the floats are kept instead."""
        if rounded:
            vectors = occupation_lattice(order, atoms).vectors
            return cls._trusted(
                order, atoms, {a: ratio(x, den, True) for a, x in zip(vectors, nums)}
            )
        kernel = object.__new__(_ExactKernel)
        object.__setattr__(kernel, "order", order)
        object.__setattr__(kernel, "atoms", atoms)
        object.__setattr__(kernel, "nums", nums)
        object.__setattr__(kernel, "den", den)
        return kernel

    @classmethod
    def _trusted(
        cls, order: int, atoms: int, values: dict[tuple[int, ...], Scalar]
    ) -> "SymmetricKernel":
        """A kernel the package built itself as a value map, without the
        re-coercion of the public constructor: the keys are canonical int
        tuples of the order's layer and the values Fractions or floats.
        Float tables (rounded entries, the Jacobi kernels) take this
        route.  Like every constructor here it stores the fields one by
        one past ``Record``'s guard: an update of ``vars(kernel)`` would
        move them out of the interpreter's fast per-instance layout, which
        every ``value`` call reads."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "order", order)
        object.__setattr__(kernel, "atoms", atoms)
        object.__setattr__(kernel, "values", values)
        return kernel

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
        """The kernel of a ``to_json`` payload.  A payload that lists every
        vector of its layer with exact values (as ``to_json`` writes one)
        is kept as numerators over their common denominator: its vectors
        all lie in the layer, and there are as many as the layer holds,
        counted up to the payload's size only.  Any other payload goes
        through the public constructor, so reading it never enumerates a
        layer larger than the payload."""
        values = {}
        try:
            order = as_integer(payload["order"])
            atoms = as_integer(payload["K"])
            for entry in payload["values"]:
                values[tuple(map(as_integer, entry["counts"]))] = as_scalar(entry["value"])
        except (KeyError, TypeError, DomainError) as exc:
            raise DomainError(f"malformed kernel JSON: {exc}") from exc
        in_layer = atoms >= 1 and values and all(
            len(a) == atoms and min(a) >= 0 and sum(a) == order for a in values
        )
        if in_layer and is_exact(values.values()):
            size = 1  # C(order + i, i), i < K: the layer's size, unless the payload is smaller
            for i in range(1, atoms):
                size = size * (order + i) // i
                if size > len(values):
                    break
            if size == len(values):
                vectors = occupation_lattice(order, atoms).vectors
                nums, den = common_denominator([values[a] for a in vectors])
                return cls._from_numerators(order, atoms, nums, den)
        return cls(order, atoms, values)


class _ExactKernel(SymmetricKernel):
    """A kernel built from numerators (``SymmetricKernel._from_numerators``):
    ``nums`` by lattice rank over ``den``.  Its value map is built on first
    read; the numerators, zero test, algebra and JSON read the integers.
    A class of its own, so a value-map kernel looks its values up without a
    descriptor in the way."""

    @cached_attribute
    def values(self) -> dict[tuple[int, ...], Fraction]:
        den = self.den
        vectors = occupation_lattice(self.order, self.atoms).vectors
        return {a: Fraction(x, den) for a, x in zip(vectors, self.nums)}

    @cached_attribute
    def numerators(self) -> tuple[tuple[int, ...], int, bool]:
        """The stored integers over their least common denominator: divided
        by their common factor with the denominator, once."""
        nums, den = self.nums, self.den
        common = math.gcd(den, *nums)
        if common == 1:
            return tuple(nums), den, False
        return tuple(x // common for x in nums), den // common, False

    def is_zero(self) -> bool:
        return not any(self.nums)

    def scale(self, factor: Scalar) -> SymmetricKernel:
        if not isinstance(factor, (int, Fraction)):
            return super().scale(factor)
        p, q = factor.numerator, factor.denominator
        nums = [p * x for x in self.nums]
        return self._from_numerators(self.order, self.atoms, nums, q * self.den)

    def add(self, other: SymmetricKernel) -> SymmetricKernel:
        shape = (self.order, self.atoms)
        if not isinstance(other, _ExactKernel) or (other.order, other.atoms) != shape:
            return super().add(other)  # which refuses a kernel of another shape
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = [a * x + b * y for x, y in zip(self.nums, other.nums)]
        return self._from_numerators(self.order, self.atoms, nums, den)

    def to_json(self) -> dict:
        """The public form's JSON, each value reduced once from the integers."""
        den = self.den
        vectors = occupation_lattice(self.order, self.atoms).vectors
        return {
            "order": self.order,
            "K": self.atoms,
            "values": [
                {"counts": list(c), "value": _fraction_text(x, den)}
                for c, x in zip(vectors, self.nums)
            ],
        }


def _fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ints with den > 0, without the
    Fraction: the reduced 'p/q', or 'p' when the quotient is an integer."""
    common = math.gcd(num, den)
    if common != 1:
        num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def subset_sum_assembly(
    layer: Callable[[int], Sequence[int]],
    den: int,
    rounded: bool,
    rows: Mapping[int, tuple[Mapping[int, int], int]],
    atoms: int,
) -> dict[int, SymmetricKernel]:
    """For each order n of ``rows``, the order-n kernel

        a -> sum_k w[n][k] · sum_{mu <= a, |mu| = k} ways(mu) · v(mu),

    ways(mu) = prod_j C(a_j, mu_j), the k-subsets of the n points realising
    mu; weights at k < 0 or k > n add nothing.  ``layer(k)`` lists by rank
    in ``occupation_lattice(k, atoms)`` the numerators of v on layer k,
    all over ``den``, and ``rows[n]`` is the weight row of order n as
    ({k: numerator}, d), over its own denominator;
    ``rounded`` rounds every entry once, to a float.  Each layer is read
    at most once, and only if a row weights it.

    The sub-occupations are never walked.  With U the up operator of the
    occupation lattice, (Uf)(a) = sum_{i: a_i > 0} f(a - e_i), and
    mult(a) ways(mu) = C(n, k) mult(mu) mult(a - mu),

        mult(a) · h_n(a) = sum_k w[n][k] C(n, k) (U^(n-k) [mult · v_k])(a),

    v_k the values on layer k; the sum runs by Horner's rule, one up-step
    per layer.  Every step adds ints.  Times den · d, h_n(a) is an integer
    sum of weights times values, so mult(a) divides the accumulated entry
    exactly: the kernel keeps the quotients as its numerators over den · d
    (``SymmetricKernel._from_numerators``), and no Fraction is formed.
    """
    layers: dict[int, list[int]] = {}  # layer k: mult(mu) · numerator of v(mu), by rank

    def weighted(k: int) -> list[int]:
        out = layers.get(k)
        if out is None:
            mults = occupation_lattice(k, atoms).multiplicities
            out = layers[k] = [m * x for m, x in zip(mults, layer(k))]
        return out

    kernels = {}
    for n, (row, row_den) in rows.items():
        terms = {k: w * math.comb(n, k) for k, w in row.items() if 0 <= k <= n and w}
        lattice = occupation_lattice(n, atoms)
        if terms:
            low = min(terms)
            acc = [terms[low] * x for x in weighted(low)]
            for m in range(low + 1, n + 1):
                pick = acc.__getitem__
                acc = [sum(map(pick, below)) for below in occupation_lattice(m, atoms).down]
                w = terms.get(m)
                if w:
                    acc = [x + w * y for x, y in zip(acc, weighted(m))]
            nums = [x // m for x, m in zip(acc, lattice.multiplicities)]
        else:
            nums = [0] * len(lattice.vectors)
        kernels[n] = SymmetricKernel._from_numerators(n, atoms, nums, den * row_den, rounded)
    return kernels


class SimplexPolynomial(Record):
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
                cleaned[exps] = cleaned[exps] + coeff if exps in cleaned else coeff
        object.__setattr__(self, "terms", cleaned)

    @cached_attribute
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise DomainError(f"expected {self.nvars} coordinates, got {len(point)}")
        if self.degree and all(type(x) is float for x in point):
            return self._evaluate_floats(point)
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

    @cached_attribute
    def _factors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per term, its (j, e_j) with e_j > 0."""
        return tuple(tuple((j, e) for j, e in enumerate(exps) if e) for exps in self.terms)

    @cached_attribute
    def scaled_terms(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int, bool]:
        """(pairs, L, rounded): the terms as (e, c_e) with the coefficients
        c_e / L as integer numerators over their common denominator
        (``exact_numerators``: a float coefficient is read as its exact
        image and ``rounded`` says one was seen).  Built once; every
        posterior mean of this polynomial reads it."""
        coeffs, lead, rounded = exact_numerators(self.terms.values())
        return tuple(zip(self.terms, coeffs)), lead, rounded

    @cached_attribute
    def float_coefficients(self) -> tuple[float, ...]:
        """Each coefficient rounded once to a float, in term order."""
        return tuple(float(c) for c in self.terms.values())

    @cached_attribute
    def _integer_terms(self) -> tuple[list, int, int] | None:
        """(terms, L, degree), the coefficients as c_e / L over their common
        denominator and each term as (c_e, |e|, its (j, e_j) with e_j > 0);
        None when a coefficient is a float."""
        if not is_exact(self.terms.values()):
            return None
        pairs, lead, _ = self.scaled_terms
        terms = [(c, sum(exps), factors) for (exps, c), factors in zip(pairs, self._factors)]
        return terms, lead, self.degree

    def _evaluate_floats(self, point: Sequence[float]) -> float:
        """The per-term loop at an all-float point, each coefficient rounded
        once in advance: bit for bit what the loop gives, as Fraction times
        float rounds the Fraction to a float before multiplying."""
        powers: dict[tuple[int, int], float] = {}
        total = 0.0
        for term, factors in zip(self.float_coefficients, self._factors):
            for key in factors:
                power = powers.get(key)
                if power is None:
                    power = powers[key] = point[key[0]] ** key[1]
                term = term * power
            total = total + term
        return total

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
        terms: dict[tuple[int, ...], Scalar] = {}
        try:
            entries, nvars = payload["terms"], payload.get("nvars")
            for entry in entries:
                exps = tuple(map(as_integer, entry["exponents"]))
                if nvars is None:
                    nvars = len(exps)
                coeff = as_scalar(entry["coeff"])
                terms[exps] = terms[exps] + coeff if exps in terms else coeff
            if nvars is None:
                raise DomainError("no terms and no 'nvars'")
            nvars = as_integer(nvars)
        except (KeyError, TypeError, OverflowError, DomainError) as exc:
            raise DomainError(f"malformed polynomial JSON: {exc}") from exc
        return cls(nvars, terms)

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff: Scalar = Fraction(1)):
        return cls(nvars, {tuple(int(e) for e in exponents): coeff})

    @classmethod
    def constant(cls, nvars: int, value: Scalar):
        return cls(nvars, {(0,) * nvars: value})


class PredictableComponent(Record):
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

    def _summed(self) -> dict[tuple[int, ...], Scalar]:
        """Per occupation vector of all n points, the values of the
        histories and last atoms that reach it, each weighted by the
        number of orderings of its history."""
        sums: dict[tuple[int, ...], Scalar] = {}
        for (hist, last), value in self.table.items():
            full = list(hist)
            full[last - 1] += 1
            key = tuple(full)
            sums[key] = sums.get(key, Fraction(0)) + value * multiplicity(hist)
        return sums

    def symmetrised(self) -> SymmetricKernel:
        """Average over orderings; integrals against product measures only
        ever see this symmetrisation."""
        out = {counts: total / multiplicity(counts) for counts, total in self._summed().items()}
        return SymmetricKernel(self.order, self.atoms, out)

    def to_polynomial(self) -> SimplexPolynomial:
        """Integral against the n-fold product measure, as a polynomial."""
        return SimplexPolynomial(self.atoms, self._summed())
