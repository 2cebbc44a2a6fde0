"""Exact combinatorics, scalar parsing, value records and special functions.

Everything here is deliberately boring: rational quantities are computed with
``fractions.Fraction`` (so the rest of the package can promise bit-exact
results for rational inputs), and the one genuinely transcendental piece
(the confluent hypergeometric series) is a thin, contract-checked layer.

Conventions used throughout the package:

* atoms are labelled ``1..K``;
* an *occupation vector* for ``n`` points on ``K`` atoms is a length-``K``
  tuple of non-negative ints summing to ``n`` (how many points sit on each
  atom); symmetric objects are stored as tables keyed by these tuples;
* a production path takes a rising product x(x+1)...(x+k-1) of a rational
  x = p/q as a quotient of partial products of the integer ladder p + i q
  (``integer_ladder``, or a ``measures.MomentLadder`` row) over q^k; only
  the oracles multiply Fractions.

``Record`` is the one base of the package's value classes: it gives them
the constructor, equality, hashing, ``repr`` and immutability of a frozen
dataclass, and ``cached_attribute`` their values computed on first read.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, NumericError

Scalar = Fraction | float | int

# ---------------------------------------------------------------------------
# scalar parsing / serialisation ("3/2" <-> Fraction(3, 2))


def as_scalar(value) -> Scalar:
    """Coerce a user-supplied number into Fraction (exact) or float.

    Strings and ints become Fractions; floats stay floats, so a helper that
    reads one as its exact image (``exact_numerators``) knows to round its
    result once.  A plain 'p/q' or 'p' string of decimal digits (as
    ``scalar_to_json`` writes one) is read by ``int``; any other string by
    ``Fraction``'s own parser, which accepts and refuses the same strings.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            if (num[1:] if num[:1] == "-" else num).isdecimal() and (
                den.isdecimal() or not slash
            ):
                return Fraction(int(num), int(den) if slash else 1)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse scalar {value!r}") from exc
    raise DomainError(f"unsupported scalar type {type(value).__name__}")


def as_integer(value) -> int:
    """An integer field of a payload (an atom label, an exponent, an order)
    as an int: ``DomainError`` for a bool or a value that is not an integer
    (1.7, 2.0 and "2" included), which ``int`` would truncate or parse."""
    if isinstance(value, bool):
        raise DomainError(f"{value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{value!r} is not an integer") from None


def scalar_to_json(value: Scalar):
    """Serialise a scalar: Fractions as 'p/q' strings, floats as numbers."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    return float(value)


def scalar_from_json(value) -> Scalar:
    return as_scalar(value)


# ---------------------------------------------------------------------------
# immutable value records

_store = object.__setattr__


class Record:
    """The value behaviour of a frozen dataclass, without importing
    ``dataclasses`` (which loads ``inspect`` and ``ast``, several ms of a
    cold process).

    The fields are the class annotations, after the base's; an annotation
    with a value is a default.  A class that sets ``_fields`` keeps it and
    writes its own ``__init__``.  The generic one takes the fields by
    position or keyword, then calls the class's ``__post_init__``, if any.
    ``==`` (within one class), ``hash`` and ``repr`` read the fields in
    order; assigning or deleting one raises ``AttributeError``.  Fields and
    ``cached_attribute`` values are stored with ``object.__setattr__``: a
    write through ``vars(self)`` moves the attributes out of the
    interpreter's fast per-instance layout and slows every later read.
    """

    _fields: tuple[str, ...] = ()
    __post_init__ = None

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        for name, value in zip(names, args):
            _store(self, name, value)
        if kwargs or len(args) != len(names):
            cls = type(self)
            for name in names[len(args) :]:
                try:
                    value = kwargs.pop(name) if name in kwargs else getattr(cls, name)
                except AttributeError:
                    raise TypeError(f"{cls.__name__} needs a value for {name!r}") from None
                _store(self, name, value)
            if kwargs or len(args) > len(names):
                raise TypeError(f"{cls.__name__} takes the fields {names}, got {args}, {kwargs}")
        post_init = type(self).__post_init__
        if post_init is not None:
            post_init(self)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class cached_attribute:
    """A method read as an attribute, computed on the first read of each
    instance and stored there, under the method's name, with
    ``object.__setattr__`` (past a ``Record``'s guard, keeping the fast
    layout).  With no ``__set__``, it is shadowed by the stored value from
    then on; read on the class, it returns itself."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        _store(instance, self.name, value)
        return value


# ---------------------------------------------------------------------------
# combinatorics


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); zero when b > a or b < 0."""
    if a < 0:
        raise DomainError(f"binom requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def integer_ladder(first: int, step: int, count: int) -> list[int]:
    """The count + 1 partial products [1, f_0, f_0 f_1, ...] of the integer
    ladder f_i = first + i step."""
    return list(accumulate(range(first, first + count * step, step), mul, initial=1))


def rising_product(first: int, step: int, count: int) -> int:
    """The product first (first + step) ... (first + (count - 1) step): the
    last partial product of ``integer_ladder``, as one product."""
    return math.prod(range(first, first + count * step, step))


@lru_cache(maxsize=1 << 10)
def limit_row(p: int, q: int, n: int) -> tuple[tuple[int, ...], int]:
    """The limit coefficients theta(n, k), k = 0..n, n >= 1, of the mass
    m = p/q (closed form in ``coeffs.limit_coefficient``) as (numerators, d):
    ±(p+(2n-1)q)·L[k+n-1]/L[k] over q^n·n! on the ladder L[x] = prod_{i<x}
    (p+iq), less the row's common factor; L[k+n-1]/L[k] slides one ladder
    step per k.  The package's one coefficient row: ``coeffs`` (as
    ``_limit_row``) and ``wright_fisher`` read it.  Cached and shared."""
    lead = p + (2 * n - 1) * q
    span, nums = rising_product(p, q, n - 1), []
    for k in range(n + 1):
        nums.append(-lead * span if (n - k) % 2 else lead * span)
        span = span * (p + (k + n - 1) * q) // (p + k * q)
    den = q**n * math.factorial(n)
    common = math.gcd(den, *nums)
    return tuple(x // common for x in nums), den // common


def is_exact(values) -> bool:
    """True when every value is an int or a Fraction (no float among them)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def common_denominator(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """(numerators, d) with values[i] = numerators[i] / d: exact values as
    integer numerators over their least common denominator, so sums and
    products of them run on ints."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_image(value: Scalar) -> int | Fraction:
    """A float as its exact image ``Fraction(x)``; an int or a Fraction as
    itself.  A NaN or an infinity has no image and raises ``NumericError``."""
    if not isinstance(value, float):
        return value
    if not math.isfinite(value):
        raise NumericError(f"non-finite value {value} in an exact sum")
    return Fraction(value)


def exact_numerators(values: Iterable[Scalar]) -> tuple[list[int], int, bool]:
    """(numerators, d, rounded) with values[i] = numerators[i] / d exactly.

    This is how every exact helper reads its values, coefficients and
    masses: a float is read as its exact image (``exact_image``), so the
    numerators are always ints; ``rounded`` says whether any value was a
    float, and a caller that saw one rounds its result once, at the end
    (``ratio``).
    """
    values = list(values)
    rounded = not is_exact(values)
    if rounded:
        values = [exact_image(v) for v in values]
    nums, den = common_denominator(values)
    return nums, den, rounded


def ratio(num: int, den: int, rounded: bool) -> Scalar:
    """num / den for ints: a reduced Fraction, or the float it rounds to
    (int true division rounds correctly, so this is ``float(Fraction(num,
    den))``).  A quotient beyond the float range raises ``NumericError``."""
    if not rounded:
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:
        size = math.log10(abs(num)) - math.log10(abs(den))
        raise NumericError(f"a value of about 1e{size:.0f} leaves the float range") from None


def variance_ratio(first: tuple[int, int], second: tuple[int, int]) -> Fraction:
    """E[X^2] - E[X]^2 from E[X] = N1 / Q1 and E[X^2] = N2 / Q2 as integer
    pairs: the one Fraction (N2 Q1^2 - N1^2 Q2) / (Q2 Q1^2)."""
    (n1, q1), (n2, q2) = first, second
    return Fraction(n2 * q1 * q1 - n1 * n1 * q2, q2 * q1 * q1)


def occupation_vectors(order: int, atoms: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors for `order` points on `atoms` atoms.

    Deterministic order: first coordinate descending, then recursively the
    same on the remainder, so (n,0,...,0) comes first and (0,...,0,n) last.
    Read from the cached ``occupation_lattice``.
    """
    return occupation_lattice(order, atoms).vectors


def _enumerate_vectors(order: int, atoms: int) -> Iterator[tuple[int, ...]]:
    if atoms == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in _enumerate_vectors(order - first, atoms - 1):
            yield (first,) + rest


class OccupationLattice:
    """One layer of the occupation lattice: the vectors of `order` points on
    `atoms` atoms, in ``occupation_vectors`` order, with

    * ``rank``: vector -> its position;
    * ``multiplicities``: the number of ordered tuples with each vector;
    * ``down``: per vector a, the ranks in the layer below of a - e_i for
      each atom i with a_i > 0, in atom order;
    * ``up``: per vector x, the ranks in the layer above of x + e_i for
      every atom i, in atom order.

    ``down`` is what the up operator (Uf)(a) = sum_{i: a_i > 0} f(a - e_i)
    reads; ``up`` lists a history's successors under one more draw.
    Layers are immutable and shared through ``occupation_lattice``.
    """

    def __init__(self, order: int, atoms: int):
        self.order = order
        self.atoms = atoms
        self.vectors = tuple(_enumerate_vectors(order, atoms))
        self.rank = {v: i for i, v in enumerate(self.vectors)}

    @cached_attribute
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(multiplicity(v) for v in self.vectors)

    @cached_attribute
    def down(self) -> tuple[tuple[int, ...], ...]:
        if self.order == 0:
            return ((),)
        below = occupation_lattice(self.order - 1, self.atoms).rank
        return tuple(
            tuple(below[v[:i] + (c - 1,) + v[i + 1 :]] for i, c in enumerate(v) if c)
            for v in self.vectors
        )

    @cached_attribute
    def up(self) -> tuple[tuple[int, ...], ...]:
        above = occupation_lattice(self.order + 1, self.atoms).rank
        return tuple(
            tuple(above[v[:i] + (c + 1,) + v[i + 1 :]] for i, c in enumerate(v))
            for v in self.vectors
        )


# Bounded: a long-running process meets few (order, atoms) pairs, and a layer is
# rebuilt in time linear in its size if it was evicted.
@lru_cache(maxsize=128)
def occupation_lattice(order: int, atoms: int) -> OccupationLattice:
    """The cached lattice layer of `order` points on `atoms` atoms."""
    if atoms < 1:
        raise DomainError(f"need at least one atom, got {atoms}")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return OccupationLattice(order, atoms)


def multiplicity(counts: Sequence[int]) -> int:
    """Number of ordered tuples with the given occupation vector: n!/prod m_j!."""
    n = sum(counts)
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def tuple_counts(labels: Sequence[int], atoms: int) -> tuple[int, ...]:
    """Occupation vector of an ordered label tuple (labels are 1-based)."""
    counts = [0] * atoms
    for a in labels:
        if not 1 <= a <= atoms:
            raise DomainError(f"label {a} outside 1..{atoms}")
        counts[a - 1] += 1
    return tuple(counts)


def sub_occupations(counts: Sequence[int], k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Sub-vectors mu <= counts with |mu| = k, with the number of index
    subsets realising each: prod_j C(counts_j, mu_j)."""
    counts = tuple(counts)

    def rec(j: int, remaining: int):
        if remaining == 0:  # the size is used up: only the zero tail is left
            yield (0,) * (len(counts) - j), 1
            return
        if j == len(counts):
            return
        hi = min(counts[j], remaining)
        for take in range(hi, -1, -1):
            ways_here = math.comb(counts[j], take)
            for rest, ways in rec(j + 1, remaining - take):
                yield (take,) + rest, ways_here * ways

    yield from rec(0, k)


# ---------------------------------------------------------------------------
# special functions


_HYP_MAX_TERMS = 10_000
# Largest accepted ratio of the biggest series term to the sum: beyond it
# the float sum has lost more than six of its sixteen digits to cancellation.
_HYP_CANCELLATION = 1e6


def hyp1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) by its power series.

    For z < 0 the series alternates and cancels catastrophically (at
    z = -40 its terms reach 4e14 against a sum of 0.025), so it is summed
    after Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z)
    (DLMF 13.2.39), whose terms share one sign when b >= a.

    The series is summed until the absolute term stays below 1e-17 times
    the partial sum for three consecutive terms; b must not be a
    non-positive integer (poles of the series).  Raises ``NumericError``
    carrying the partial sum when the series does not settle within
    ``_HYP_MAX_TERMS`` terms, or when its largest term exceeds
    ``_HYP_CANCELLATION`` times the sum (too few digits left), or when the
    series overflows or e^z underflows (z below about -708).
    """
    b = float(b)
    if b <= 0 and float(b).is_integer():
        raise DomainError(f"hyp1f1 undefined for non-positive integer b={b}")
    scale, s_a, s_z = (math.exp(z), b - a, -z) if z < 0 else (1.0, a, z)
    total = 1.0
    term = 1.0
    largest = 1.0
    quiet = 0
    for k in range(_HYP_MAX_TERMS):
        term *= (s_a + k) / (b + k) * s_z / (k + 1)
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        if size < 1e-17 * abs(total):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        # an overflowed sum never settles: report it as overflow below
        if math.isfinite(total):
            raise NumericError(
                f"hyp1f1({a}, {b}, {z}) did not settle within {_HYP_MAX_TERMS} terms",
                partial=scale * total,
            )
    if not math.isfinite(total) or scale < sys.float_info.min:
        raise NumericError(
            f"hyp1f1({a}, {b}, {z}): the series or e^z leaves the float range",
            partial=scale * total,
        )
    if largest > _HYP_CANCELLATION * abs(total):
        raise NumericError(
            f"hyp1f1({a}, {b}, {z}): series terms up to {largest:.3g} cancel "
            f"to {total:.3g}, leaving too few correct digits",
            partial=scale * total,
        )
    return scale * total
