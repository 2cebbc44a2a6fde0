"""Spectral expansion of a neutral multi-allele diffusion's transition density.

The stationary law is the Dirichlet distribution on the simplex attached to
positive mutation weights theta = (theta_1 .. theta_K).  Its orthonormal
polynomials P_n (multi-indexed over the K-1 free coordinates) assemble into
degree-n kernel polynomials

    Q_n(x, y) = sum over |n| = n of  P_n(x) * P_n(y),

and the transition density after time t is the eigen-decayed series

    f_theta(x) * (1 + sum_{n >= 1} rho_n(t) Q_n(x, y)),

with rho_n(t) = exp(-n(n-1)t/2 - |theta| n t / 2).

Q_n needs no orthogonalization.  Griffiths' closed form (R. C. Griffiths,
"A transition density expansion for a multi-allele diffusion model",
Adv. Appl. Probab. 11, 1979) reads, for full simplex points x, y and n >= 1,

    Q_n(x, y) = (|theta|+2n-1) sum_{m=0..n} (-1)^(n-m)
                rising(|theta|+m, n-1) / (m! (n-m)!) * xi_m(x, y),
    xi_m(x, y) = rising(|theta|, m) sum_{|l|=m} mult(l)
                 prod_i (x_i y_i)^l_i / rising(theta_i, l_i),

with Q_0 = 1.  Griffiths' coefficient is C(n, m) theta(n,m), with theta the
limit projection coefficient of ``coeffs`` at total mass |theta| (its m = 0
entry included), read from the one cached integer row
``numeric.limit_row``.  Folded with the factor m! rising(|theta|, m) of
xi_m it is c[n][m] = (-1)^(n-m) (|theta|+2n-1) rising(|theta|, n+m-1) / (n-m)!.
With |theta| = p/q every rising factorial is a ladder of integer products
(p + i q), and so is each atom's series 1/(k! rising(theta_i, k)) at
theta_i = p_i/q_i.  ``TransitionModel`` builds both tables up to order
M + 1, each row as integers over its denominator, with no Fraction
arithmetic and without loading ``coeffs``.  The inner sums of all
orders at once are the coefficients of one truncated product of K power
series in z_i = x_i y_i (O(K n^2) integer operations, no sum over
compositions), and each Q_n is one integer dot product and one Fraction.

Routes.  The weights are always exact: a float weight is read as its
exact image ``Fraction(x)`` by ``DiscreteBaseMeasure``.  Rational points
take the closed form and give exact Fractions, for ``kernel_Q``, the
density and its tail bound.  A float coordinate and ``q_polynomial`` take
the band sums instead: the exact orthogonal bands are built on first use,
and each band sum e(x) e(y) / norm^2 is evaluated in floats at a float
point and in Fractions at an exact one.

Bands.  The orthogonal polynomials are the stick-breaking family of
Karlin and McGregor (``_stick_breaking_bands``): each is a product of one
monic Beta polynomial per free coordinate, in closed form on ``jacobi``'s
integer ladders, with a closed-form squared norm.  At K = 2 it is the
monic Beta polynomial itself.  ``gram_schmidt_P`` and
``TransitionModel.band`` read the same bands, so Griffiths' closed form and
the bands are two independent closed forms of Q_n; the tests and
``verify`` also re-derive Q_n through the decomposition engine.  Points on
the simplex are passed as their K-1 free coordinates; the last coordinate
is implied.

Imports.  The closed form needs only ``measures`` and ``numeric``:
``kernels`` and ``jacobi`` are imported inside the band builder and
``q_polynomial``, so a cold process that evaluates densities at rational
points loads neither ``kernels``, ``jacobi`` nor ``coeffs``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, check_cap
from .measures import DiscreteBaseMeasure
from .numeric import (
    Record,
    Scalar,
    as_scalar,
    binom,
    cached_attribute,
    common_denominator,
    integer_ladder,
    is_exact,
    limit_row,
    occupation_lattice,
    ratio,
    rising_product,
)

if TYPE_CHECKING:  # kernels loads only with the bands and in the oracles
    from .kernels import SimplexPolynomial

__all__ = [
    "multi_indices",
    "simplex_expectation",
    "dirichlet_density",
    "gram_schmidt_P",
    "TransitionModel",
    "TransitionDensity",
    "kernel_Q",
    "q_polynomial",
    "rho",
    "transition_density",
]


def multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of length ``dim`` with total degree <= max_degree.

    Ordered graded-lexicographically: primarily by total degree, ties broken
    by the tuple itself, the order of the stick-breaking bands and of their
    terms; the tie-break is just a deterministic choice.  Each degree's
    vectors are the cached occupation-lattice layer of that many points on
    ``dim`` atoms, sorted.
    """
    if dim < 1:
        raise DomainError(f"need at least one free coordinate, got {dim}")
    if max_degree < 0:
        raise DomainError(f"max_degree must be >= 0, got {max_degree}")
    indices: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        indices.extend(sorted(occupation_lattice(degree, dim).vectors))
    return indices


def _validated_theta(theta: DiscreteBaseMeasure | Sequence[Scalar]) -> DiscreteBaseMeasure:
    if isinstance(theta, DiscreteBaseMeasure):
        measure = theta
    else:
        measure = DiscreteBaseMeasure(tuple(theta))
    if measure.atoms < 2:
        raise DomainError(f"need at least two mutation weights, got {measure.atoms}")
    return measure


def _validated_point(gamma: Sequence[Scalar], dim: int) -> tuple[Scalar, ...]:
    """The free coordinates as a tuple, refused unless strictly interior (a
    NaN fails every test); exact ones are checked on their numerators x_i / b."""
    point = tuple(as_scalar(g) for g in gamma)
    if len(point) != dim:
        raise DomainError(f"expected {dim} free coordinates, got {len(point)}")
    if is_exact(point):
        x, b = common_denominator(point)
        inside = all(c > 0 for c in x) and sum(x) < b
    else:
        inside = all(g > 0 for g in point) and sum(point) < 1
    if not inside:
        raise DomainError(f"point {point} is not strictly interior to the simplex")
    return point


def _full_point(gamma: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    return gamma + (1 - sum(gamma),)


def _integer_full_point(gamma: tuple[Scalar, ...]) -> tuple[list[int], int]:
    """(x, b): the full point of exact free coordinates as x_i / b."""
    x, b = common_denominator(gamma)
    return x + [b - sum(x)], b


def simplex_expectation(theta: DiscreteBaseMeasure, poly: SimplexPolynomial) -> Scalar:
    """Exact stationary expectation of a polynomial in the free coordinates.

    The free coordinates are the first K-1 masses of a Dirichlet(theta)
    vector, so each term is a Dirichlet moment with exponent 0 on the last
    atom, and the whole sum is one posterior sum of the moment ladder at
    the prior.  A float coefficient is read as its exact image and the
    result rounded once.
    """
    if poly.nvars != theta.atoms - 1:
        raise DomainError(
            f"polynomial has {poly.nvars} variables, expected {theta.atoms - 1}"
        )
    pairs, lead, rounded = poly.scaled_terms
    num, den = theta.moment_ladder.posterior_sum(
        [(e + (0,), c) for e, c in pairs], (0,) * theta.atoms
    )
    return ratio(num, den * lead, rounded)


def dirichlet_density(theta: DiscreteBaseMeasure | Sequence[Scalar], gamma: Sequence[Scalar]) -> float:
    """Stationary density at an interior simplex point (K-1 free coordinates).

    f(gamma) = Gamma(|theta|) / prod_j Gamma(theta_j) *
               gamma_1^(theta_1 - 1) ... gamma_{K-1}^(theta_{K-1} - 1) *
               (1 - gamma_1 - ... - gamma_{K-1})^(theta_K - 1).

    The final exponent belongs to the K-th weight: the density must assign
    the implied coordinate its own parameter, as the K = 2 case
    f(x) = x^(theta_1 - 1) (1-x)^(theta_2 - 1) / B(theta_1, theta_2) shows.
    Boundary points are rejected rather than extrapolated.
    """
    measure = _validated_theta(theta)
    point = _validated_point(gamma, measure.atoms - 1)
    weights = measure.float_weights
    log_norm = math.lgamma(float(measure.total_mass)) - sum(math.lgamma(w) for w in weights)
    full = [float(g) for g in _full_point(point)]
    log_density = log_norm + sum((w - 1.0) * math.log(g) for w, g in zip(weights, full))
    return math.exp(log_density)


def _stick_breaking_bands(
    weights: tuple[Fraction, ...], top: int
) -> dict[int, list[tuple[SimplexPolynomial, Fraction, float]]]:
    """Per degree n <= top, the orthogonal P_m with |m| = n in ``multi_indices``
    order, each with its squared norm, exact and as a float.

    Stick-breaking (Karlin-McGregor; Griffiths and Spano, Bernoulli 17,
    2011): with S_j = 1 - x_1 - ... - x_{j-1}, A_j = theta_{j+1} + ... +
    theta_K, N_j = m_{j+1} + ... + m_{K-1} and psi the Bernstein
    coefficients of the monic Beta(theta_j, A_j + 2 N_j) polynomial p_j
    (``jacobi._bernstein_integers``, integers over one denominator),

        P_m = prod_j sum_i C(m_j, i) psi_i x_j^i S_{j+1}^(m_j - i),
        ||P_m||^2 = prod_j rising(A_j, 2 N_j) / rising(theta_j + A_j, 2 N_j) ||p_j||^2.

    The term x^m has coefficient 1 and comes first, the others follow in
    ``multi_indices`` order: at K = 2, exact Gram-Schmidt's polynomial and
    term order.
    """
    from .jacobi import _bernstein_integers, _over_one_unit
    from .kernels import SimplexPolynomial

    dim = len(weights) - 1
    tails = [sum(weights[j + 1 :]) for j in range(dim)]
    factors: dict[tuple[int, int, int], tuple[dict, int, Fraction]] = {}

    def factor(j: int, m: int, count: int) -> tuple[dict, int, Fraction]:
        """(integer terms, their denominator, squared-norm factor) of factor j;
        S^k, S = 1 - (the first j + 1 coordinates), expands over their
        occupation lattice: the term x^a, |a| = s, is (-1)^s C(k, s) mult(a)."""
        if (j, m, count) not in factors:
            psi, lead, num, den = _bernstein_integers(m, weights[j], tails[j] + 2 * count)
            terms: dict[tuple[int, ...], int] = {}
            for i, c in enumerate(psi):
                for s in range(m - i + 1):
                    scale = (-1) ** s * math.comb(m, i) * math.comb(m - i, s) * c
                    lattice = occupation_lattice(s, j + 1)
                    for a, mult in zip(lattice.vectors, lattice.multiplicities):
                        e = a[:j] + (a[j] + i,) + (0,) * (dim - j - 1)
                        terms[e] = terms.get(e, 0) + scale * mult
            A, B, u = _over_one_unit(tails[j], weights[j] + tails[j])
            beta = Fraction(
                rising_product(A, u, 2 * count) * num, rising_product(B, u, 2 * count) * den
            )
            factors[(j, m, count)] = terms, lead, beta
        return factors[(j, m, count)]

    bands: dict[int, list[tuple[SimplexPolynomial, Fraction, float]]] = {}
    for index in multi_indices(dim, top):
        terms, den, norm_sq = {(0,) * dim: 1}, 1, Fraction(1)
        for j in range(dim):
            nums, lead, beta = factor(j, index[j], sum(index[j + 1 :]))
            product: dict[tuple[int, ...], int] = {}
            for e1, c1 in terms.items():
                for e2, c2 in nums.items():
                    key = tuple(map(add, e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
            terms, den, norm_sq = product, den * lead, norm_sq * beta
        ordered = dict.fromkeys([index])
        for e in sorted(terms, key=lambda e: (sum(e), e)):
            ordered[e] = Fraction(terms[e], den)
        poly = SimplexPolynomial(dim, ordered)
        bands.setdefault(sum(index), []).append((poly, norm_sq, float(norm_sq)))
    return bands


def gram_schmidt_P(
    theta: DiscreteBaseMeasure | Sequence[Scalar], max_degree: int
) -> list[SimplexPolynomial]:
    """Orthonormal polynomial basis up to ``max_degree``, graded lex order.

    P_0 = 1; the element attached to multi-index n has exact degree |n|;
    the whole family is orthonormal under the stationary Dirichlet law.
    Coefficients are floats (the normalization is an irrational square
    root) over the exact stick-breaking polynomials of
    ``_stick_breaking_bands``.
    """
    measure = _validated_theta(theta)
    bands = _stick_breaking_bands(measure.weights, max_degree)
    return [
        poly.scale(1.0 / math.sqrt(norm_f))
        for degree in range(max_degree + 1)
        for poly, _, norm_f in bands[degree]
    ]


def rho(n: int, t: Scalar, total: Scalar) -> float:
    """Eigenvalue decay factor exp(-n(n-1)t/2 - total*n*t/2) of the order-n band."""
    if n < 1:
        raise DomainError(f"decay factor defined for n >= 1, got {n}")
    t_f = float(t)
    if not 0 <= t_f < math.inf:
        raise DomainError(f"time must be finite and >= 0, got {t}")
    return math.exp(-0.5 * n * (n - 1) * t_f - 0.5 * float(total) * n * t_f)


def _atom_series(
    weights: Sequence[Fraction], top: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(rows, dens): per atom i the coefficients 1/(k! rising(theta_i, k)),
    k = 0..top, as an integer row over its own denominator dens[i].

    With theta_i = p/q and A[k] = (top!/k!) prod_{k <= j < top} (p + j q),
    coefficient k is q^k A[k] over A[0]; A is one descending ladder,
    A[k] = A[k+1] (k+1) (p + k q).  The row and its denominator are divided
    by their common factor.
    """
    rows, dens = [], []
    for w in weights:
        p, q = w.numerator, w.denominator
        ladder = [1] * (top + 1)
        for k in range(top - 1, -1, -1):
            ladder[k] = ladder[k + 1] * (k + 1) * (p + k * q)
        nums = [a * q**k for k, a in enumerate(ladder)]
        common = math.gcd(*nums)
        rows.append(tuple(c // common for c in nums))
        dens.append(ladder[0] // common)
    return tuple(rows), tuple(dens)


def _product_coefficients(
    series: tuple[tuple[int, ...], ...], z: Sequence[int], top: int
) -> list[int]:
    """E_0..E_top: the coefficients of u^m in prod_i sum_k series[i][k] (z_i u)^k.

    With atom i's series over its denominator D_i, D = prod_i D_i and
    z_i = z[i] / b, the coefficient
    e_m = sum over |l| = m of prod_i z_i^l_i / (l_i! rising(theta_i, l_i))
    is E_m / (D b^m): every composition of m carries b^m.  K - 1 truncated
    convolutions of ints replace the sum over compositions: O(K top^2)
    integer operations.
    """
    out: list[int] = []
    for coeffs, zi in zip(series, z):
        terms = [coeffs[0]]
        power = 1
        for k in range(1, top + 1):
            power *= zi
            terms.append(coeffs[k] * power)
        if not out:
            out = terms
            continue
        out = [sum(out[j] * terms[m - j] for j in range(m + 1)) for m in range(top + 1)]
    return out


class TransitionModel(Record):
    """Mutation weights plus the tables of the kernel polynomials up to order M + 1.

    The extra order feeds the truncation tail bound.  The build
    (``__post_init__``, a step of its own so that a profiler can time it)
    precomputes two small tables of Griffiths' closed form from the exact
    weights, as integer rows over their denominators; the stick-breaking
    bands are built only on first use by the float-point route,
    ``q_polynomial`` or an oracle (``band``).  The instance is immutable,
    and equal to another with the same ``theta`` and ``M``; evaluations are
    pure apart from the memo of diagonal tail kernels Q_{M+1}(x, x).  More
    than ``DEFAULT_ENUMERATION_CAP`` coefficients, (M+2)(M+3)/2, raise
    ResourceCapError before any table is built.
    """

    theta: DiscreteBaseMeasure | Sequence[Scalar]
    M: int

    def __post_init__(self) -> None:
        measure = _validated_theta(self.theta)
        if self.M < 0:
            raise DomainError(f"truncation order must be >= 0, got {self.M}")
        size = (self.M + 2) * (self.M + 3) // 2
        check_cap(size, f"a table of {size} kernel-polynomial coefficients")
        top = self.M + 1
        atoms = measure.atoms
        object.__setattr__(self, "theta", measure)
        # the number of orthogonal polynomials of exact degree n, per band
        # (the benchmark's tracer reports their total as the basis size)
        bands = {n: range(binom(n + atoms - 2, atoms - 2)) for n in range(top + 1)}
        object.__setattr__(self, "_bands", bands)
        object.__setattr__(self, "_series", _atom_series(measure.weights, top))
        # c[n][m]: the limit row times n!/(n-m)! L[m] q^(n-m) over d q^n, with
        # L[m] = q^m rising(|theta|, m), less the row's common factor; Q_0 = 1
        p, q = measure.total_mass.numerator, measure.total_mass.denominator
        ladder, rows = integer_ladder(p, q, top), [((1,), 1)]
        for n in range(1, top + 1):
            row, den = limit_row(p, q, n)
            nums = [c * math.perm(n, m) * ladder[m] * q ** (n - m) for m, c in enumerate(row)]
            common = math.gcd(den * q**n, *nums)
            rows.append((tuple(x // common for x in nums), den * q**n // common))
        object.__setattr__(self, "_coeffs", tuple(rows))
        object.__setattr__(self, "_diagonal", {})

    @property
    def dim(self) -> int:
        return self.theta.atoms - 1

    def band(self, n: int) -> list[tuple[SimplexPolynomial, Scalar]]:
        """Unnormalized orthogonal polynomials of exact degree n with norms^2
        (the stick-breaking bands)."""
        if n < 0 or n > self.M + 1:
            raise DomainError(f"band {n} outside cached range 0..{self.M + 1}")
        return [(poly, norm_sq) for poly, norm_sq, _ in self._orthogonal_bands[n]]

    @cached_attribute
    def _orthogonal_bands(self) -> dict[int, list[tuple[SimplexPolynomial, Scalar, float]]]:
        """Per degree, each (polynomial, squared norm, that norm as a float)."""
        return _stick_breaking_bands(self.theta.weights, self.M + 1)

    def _closed_form(self, *points: tuple[Scalar, ...]) -> bool:
        return all(is_exact(p) for p in points)

    def _kernels(self, orders: range, g: tuple[Scalar, ...], gp: tuple[Scalar, ...]) -> list[Scalar]:
        """Q_n for n in ``orders`` at two validated points: the closed form
        (one product for all orders) at exact points, the stick-breaking
        band sums at a float point."""
        if not self._closed_form(g, gp):
            return [self._band_sum(n, g, gp) for n in orders]
        # Q_n = sum_m c[n][m] E_m / (D b^m) over one denominator, b the
        # product of the two points' denominators: one integer dot product
        # by Horner's rule in b and one Fraction per order
        (x, bx), (y, by) = _integer_full_point(g), _integer_full_point(gp)
        b = bx * by
        z = [u * v for u, v in zip(x, y)]
        series, dens = self._series
        e = _product_coefficients(series, z, orders.stop - 1)
        out = []
        for n in orders:
            row, row_den = self._coeffs[n]
            acc, scale = 0, row_den * math.prod(dens)
            for c, e_m in zip(row, e):
                acc = acc * b + c * e_m
            out.append(Fraction(acc, scale * b**n))
        return out

    def _band_sum(self, n: int, g: tuple[Scalar, ...], gp: tuple[Scalar, ...]) -> Scalar:
        """Q_n(g, g') as the band sum of e(g) e(g') / ||e||^2.

        Each polynomial is evaluated once per distinct point (once in all
        when g' is g, as for a diagonal).  A float product is divided by
        the squared norm rounded once to a float, cached per band: that is
        what dividing a float by the Fraction computes, so the sum is bit
        for bit the same."""
        total: Scalar = 0
        for poly, norm_sq, norm_f in self._orthogonal_bands[n]:
            left = poly.evaluate(g)
            term = left * (left if gp is g else poly.evaluate(gp))
            total = total + term / (norm_f if type(term) is float else norm_sq)
        return total

    def _tail_diagonal(self, g: tuple[Scalar, ...]) -> Scalar:
        """Q_{M+1}(g, g), memoized per exact point."""
        if not self._closed_form(g):
            return self._band_sum(self.M + 1, g, g)
        value = self._diagonal.get(g)
        if value is None:
            value = self._kernels(range(self.M + 1, self.M + 2), g, g)[0]
            self._diagonal[g] = value
        return value

    def _q_polynomial(self, n: int, g: tuple[Scalar, ...]) -> SimplexPolynomial:
        from .kernels import SimplexPolynomial

        terms: dict[tuple[int, ...], Scalar] = {}
        for poly, norm_sq, _ in self._orthogonal_bands[n]:
            weight = poly.evaluate(g) / norm_sq
            for e, c in poly.terms.items():
                terms[e] = terms.get(e, 0) + weight * c
        return SimplexPolynomial(self.dim, terms)


def kernel_Q(
    model: TransitionModel, n: int, gamma: Sequence[Scalar], gamma_prime: Sequence[Scalar]
) -> Scalar:
    """Degree-n kernel polynomial sum_{|n| = n} P_n(gamma) P_n(gamma').

    Rational points take Griffiths' closed form (module docstring) and give
    the exact rational value, float weights included (they are exact); a
    float point sums e(gamma) e(gamma') / norm^2 over the stick-breaking band.
    Symmetric in its two arguments; Q_0 = 1.
    """
    if n < 0 or n > model.M:
        raise DomainError(f"kernel order {n} outside model truncation 0..{model.M}")
    g = _validated_point(gamma, model.dim)
    gp = _validated_point(gamma_prime, model.dim)
    return model._kernels(range(n, n + 1), g, gp)[0]


def q_polynomial(model: TransitionModel, n: int, gamma: Sequence[Scalar]) -> SimplexPolynomial:
    """Q_n with the second argument fixed: a polynomial in the free coordinates.

    Integrating it against the stationary law gives exactly 0 for n >= 1
    (orthogonality of each basis element to constants), which is what makes
    the truncated transition density integrate to 1.  It is the band sum
    of e(gamma) e / norm^2 over the stick-breaking band: exact at an exact
    point, whatever the weights' input type, with float coefficients at a
    float point.
    """
    if n < 0 or n > model.M:
        raise DomainError(f"kernel order {n} outside model truncation 0..{model.M}")
    return model._q_polynomial(n, _validated_point(gamma, model.dim))


class TransitionDensity(Record):
    """Truncated transition density value with its error diagnostics.

    ``value`` = stationary * (1 + sum of contributions); ``contributions``
    holds (n, rho_n, Q_n, term) per order; ``tail_bound`` bounds the
    absolute truncation error through the next band's diagonal kernel
    values; ``negative`` flags a truncation artifact (the exact density is
    nonnegative, truncated series need not be — values are reported as-is).
    """

    value: float
    stationary: float
    contributions: tuple[tuple[int, float, float, float], ...]
    tail_bound: float
    negative: bool


def transition_density(
    model: TransitionModel, t: Scalar, gamma: Sequence[Scalar], gamma_prime: Sequence[Scalar]
) -> TransitionDensity:
    """Truncated spectral transition density between two interior points.

    value = f(gamma) * (1 + sum_{n=1..M} rho_n(t) Q_n(gamma, gamma')),
    tail bound = f(gamma) * rho_{M+1}(t) * sqrt(Q_{M+1}(gamma, gamma) *
    Q_{M+1}(gamma', gamma')) — the first neglected term bounded by
    Cauchy-Schwarz on the reproducing kernel, with rho decreasing in n.

    Accuracy.  The weights are exact (a float weight is its image
    ``Fraction(x)``), so at rational points every Q_n is exact and only the
    final products and sums round.  A float coordinate takes the band
    route, whose float evaluation of the monomial expansion
    loses digits as M grows: against the exact Q_n at the float's rational
    image, its error relative to max_n |Q_n| stays within 5e-8 for
    theta = (1, 1/2), M = 12 on the grid (i/16, j/16) (2.9e-8 measured),
    but reaches 6.5e-5 for theta = (12, 1/12) at M = 12 and 1e-2 for
    theta = (1, 1/2) at M = 20.  At K = 3 it stays within 1e-12 for
    theta = (1, 1/2, 1/2), M = 5 on the grid of points (i/8, j/8) (2.3e-13
    measured).  Pass ``Fraction(x)`` for an exact result.
    """
    t_f = float(t)
    if not 0 < t_f < math.inf:
        raise DomainError(f"time must be finite and > 0, got {t}")
    g = _validated_point(gamma, model.dim)
    gp = _validated_point(gamma_prime, model.dim)
    stationary = dirichlet_density(model.theta, g)
    total_mass = model.theta.total_mass

    contributions = []
    bracket_terms = []
    for n, q in enumerate(model._kernels(range(1, model.M + 1), g, gp), start=1):
        decay = rho(n, t_f, total_mass)
        q_val = float(q)
        term = decay * q_val
        contributions.append((n, decay, q_val, term))
        bracket_terms.append(term)
    bracket = 1.0 + math.fsum(bracket_terms)
    value = stationary * bracket

    next_band = model.M + 1
    decay_next = rho(next_band, t_f, total_mass)
    diag = float(model._tail_diagonal(g)) * float(model._tail_diagonal(gp))
    tail = stationary * decay_next * math.sqrt(max(diag, 0.0))

    return TransitionDensity(value, stationary, tuple(contributions), tail, value < 0.0)
