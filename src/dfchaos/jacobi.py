"""Beta-weight orthonormal polynomials on [0, 1] and their kernel form.

For a two-atom support the mass of the first atom,  eta = D({1}),  is a
Beta(a1, a0) variable, and the order-n orthogonal component of any
square-integrable functional of eta is spanned by a single orthonormal
polynomial J_n.  This module evaluates those polynomials from their
closed-form gamma-ratio coefficients, integrates polynomials against the
Beta weight exactly, and converts each J_n into the equivalent symmetric
two-atom kernel phi_n whose order-n integral against the random measure
reproduces J_n(eta): J_n in the Bernstein basis, whose coefficients have
the closed form of ``beta_bernstein`` (no linear solve).

Although the printed coefficients are gamma ratios, each one is a ratio of
rising factorials, and with both parameters over one denominator, a = A/u
and b = B/u, each rising factorial is an integer product
prod_i (A + i u) over a power of u.  Every coefficient of an order is then
a product of one entry of a suffix ladder and one of a prefix ladder,
integers over one shared denominator, and the squared norm is an integer
pair; the entire polynomial is  sqrt(k_n) * (exact rational vector)  with
k_n itself an exact rational.  Float parameters enter as their exact
rational image ``Fraction(x)``, so there is one route for every parameter
type.  All inner products are evaluated on the integer side and only the
final sqrt introduces a rounding; orthogonality residuals are exact zeros.
k_n is the reciprocal of the squared norm of ``beta_bernstein``, the one
norm formula, and the kernel of ``solve_phi_system`` reads its leading
coefficient sqrt(k_n) from there.  The degree is capped at
``MAX_JACOBI_ORDER`` for the cost of the CLI's exact Gram check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .coeffs import c_iso
from .errors import DomainError, NumericError
from .kernels import SimplexPolynomial, SymmetricKernel
from .measures import DiscreteBaseMeasure, dirichlet_moment
from .numeric import Record, Scalar, as_scalar, binom, exact_numerators, integer_ladder, ratio
from .numeric import rising_product

__all__ = [
    "BetaParams",
    "PolynomialCoeffs",
    "exact_parts",
    "jacobi_modified",
    "beta_weight_integral",
    "jacobi_inner",
    "jacobi_gram",
    "beta_bernstein",
    "solve_phi_system",
    "jacobi_norm_identity",
    "kernel_to_univariate",
    "as_functional",
]

#: Largest supported degree.  The closed form itself has no limit; the cap
#: bounds the CLI's exact Gram check over all pairs i, j <= n, which costs
#: O(n^3) integer products (``jacobi_gram(60, BetaParams(1/3, 5/2))`` takes
#: about 0.1 s on a 2-core x86-64 machine under Python 3.11).
MAX_JACOBI_ORDER = 60


def _beta_pair(a: Scalar, b: Scalar) -> tuple[Fraction, Fraction]:
    """The exact images of two Beta parameters; ``DomainError`` unless both
    are positive and finite."""
    a, b = as_scalar(a), as_scalar(b)
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError(f"Beta parameters must be positive and finite, got ({a}, {b})")
    return Fraction(a), Fraction(b)


class BetaParams(Record):
    """Parameters (a1, a0) of the Beta weight  x^(a1-1) (1-x)^(a0-1) / B(a1, a0).

    ``a1`` weights the atom whose mass is ``x`` and ``a0`` the complementary
    atom, matching the two-atom base measure ``measure(a1, a0)``.  A float
    parameter is stored as its exact rational image ``Fraction(x)``.
    """

    a1: Fraction
    a0: Fraction

    def __post_init__(self) -> None:
        a1, a0 = _beta_pair(self.a1, self.a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a0", a0)

    @property
    def total(self) -> Fraction:
        return self.a1 + self.a0

    def as_measure(self) -> DiscreteBaseMeasure:
        """The two-atom base measure with weights (a1, a0)."""
        return DiscreteBaseMeasure((self.a1, self.a0))


class PolynomialCoeffs(Record):
    """A univariate polynomial stored as coefficients (c_0, ..., c_n) of x^a.

    The leading coefficient must be nonzero unless the polynomial is a bare
    constant, so ``degree`` is always meaningful.
    """

    coefficients: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(as_scalar(c) for c in self.coefficients)
        if not coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero (degree overstated)")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, a: int) -> Scalar:
        if 0 <= a < len(self.coefficients):
            return self.coefficients[a]
        return 0

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def mul(self, other: "PolynomialCoeffs") -> "PolynomialCoeffs":
        out = [0] * (self.degree + other.degree + 1)
        for i, ci in enumerate(self.coefficients):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coefficients):
                out[i + j] = out[i + j] + ci * cj
        return _trimmed(out)


def _trimmed(coeffs: Sequence[Scalar]) -> PolynomialCoeffs:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return PolynomialCoeffs(tuple(out))


def _validated_order(n: int) -> None:
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    if n > MAX_JACOBI_ORDER:
        raise NumericError(f"degree {n} exceeds the supported range n <= {MAX_JACOBI_ORDER}")


def _root(k: Fraction) -> float:
    """sqrt(k) of an exact k > 0: the correctly rounded quotient, then one
    sqrt.  A k beyond the float range raises ``NumericError`` (``ratio``)."""
    return math.sqrt(ratio(k.numerator, k.denominator, True))


def _over_one_unit(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(A, B, u) with a = A / u and b = B / u, u the least common denominator."""
    u = math.lcm(a.denominator, b.denominator)
    return a.numerator * (u // a.denominator), b.numerator * (u // b.denominator), u


def _squared_norm(n: int, A: int, B: int, u: int, lead: int) -> tuple[int, int]:
    """||P_n||^2 = N / Q of the monic Beta(A/u, B/u) polynomial (= 1/k_n), from
    n! rising(a, n) rising(b, n) / (rising(a+b, 2n) rising(n+a+b-1, n)) with
    lead = u^n rising(n+a+b-1, n)."""
    num = math.factorial(n) * rising_product(A, u, n) * rising_product(B, u, n) * u**n
    return num, rising_product(A + B, u, 2 * n) * lead


def _bernstein_integers(n: int, a: Fraction, b: Fraction) -> tuple[list[int], int, int, int]:
    """(Psi, L, N, Q): the Bernstein coefficients psi_j = Psi_j / L and the
    squared norm ||P_n||^2 = N / Q of ``beta_bernstein``, for exact a, b > 0.

    With a = A/u and b = B/u, psi_j L is the suffix product
    prod_{j<=i<n} -(A + i u) times the prefix product
    prod_{i<j} (B + (n-1-i) u), and L = prod_{i<n} (A + B + (n-1+i) u).
    """
    A, B, u = _over_one_unit(a, b)
    suffix = integer_ladder(-A - (n - 1) * u, u, n)  # suffix[n - j] = prod_{j<=i<n} -(A + i u)
    prefix = integer_ladder(B + (n - 1) * u, -u, n)
    lead = rising_product(A + B + (n - 1) * u, u, n)
    psi = [suffix[n - j] * prefix[j] for j in range(n + 1)]
    return psi, lead, *_squared_norm(n, A, B, u, lead)


def _integer_parts(n: int, params: BetaParams) -> tuple[Fraction, list[int], int]:
    """(k_n, G, L): ``exact_parts`` with the coefficients g_a = G_a / L over
    their least common denominator.

    With a1 = A/u and a0 = B/u, g_a L is C(n, a) times the suffix product
    prod_{a<=i<n} -(A + i u) and the prefix product
    prod_{i<a} (A + B + (n-1+i) u), whose full length is L."""
    _validated_order(n)
    A, B, u = _over_one_unit(params.a1, params.a0)
    suffix = integer_ladder(-A - (n - 1) * u, u, n)
    prefix = integer_ladder(A + B + (n - 1) * u, u, n)
    lead = prefix[n]
    nums = [math.comb(n, a) * suffix[n - a] * prefix[a] for a in range(n + 1)]
    shared = math.gcd(lead, *nums)
    num, den = _squared_norm(n, A, B, u, lead)
    return Fraction(den, num), [x // shared for x in nums], lead // shared


def exact_parts(n: int, params: BetaParams) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact factorization J_n = sqrt(k_n) * sum_a g_a x^a.

    The printed gamma ratios reduce to rising factorials:

        g_a = C(n, a) (-1)^(n-a) rising(q + a, n - a) / rising(p + a + n, n - a)
        k_n = (2n + p) rising(n + p, n) rising(p + 1, 2n - 1)
              / (n! rising(a1, n) rising(a0, n))

    with p = a1 + a0 - 1 and q = a1; k_n is read as the reciprocal of the
    squared norm of ``beta_bernstein`` (the same rational).  With the
    parameters over one denominator each g_a is one entry of a suffix
    ladder times one of a prefix ladder, integers over a shared
    denominator (``_integer_parts``), wrapped in ``Fraction``s here.  Every
    ladder factor is strictly positive, so no gamma-pole case arises, and
    n = 0 is the empty product (1, (1,)).
    """
    k, nums, den = _integer_parts(n, params)
    return k, tuple(Fraction(x, den) for x in nums)


def jacobi_modified(n: int, params: BetaParams) -> PolynomialCoeffs:
    """Coefficients of the degree-n orthonormal polynomial for the Beta weight.

    J_n(x) = sqrt(k_n) * sum_a g_{n,a}(p, q) x^a  with p = a1 + a0 - 1 and
    q = a1, where

        g_{n,a}(p, q) = C(n, a) (-1)^(n-a) G(q+n) G(p+a+n) / (G(p+2n) G(a+q))

    and the normalizing constant

        k_n = (2n + a1 + a0 - 1) G(2n + a1 + a0 - 1)^2 * B(a1, a0)
              / (n! G(n+a1) G(n+a0) G(n + a1 + a0 - 1)).

    The result has unit norm against the Beta(a1, a0) weight and a positive
    leading coefficient (g_{n,n} = 1, so the sign is carried entirely by
    sqrt(k_n) > 0).  The coefficients are the exact integer parts of
    ``exact_parts``, each rounded once as G_a / L; each returned float
    carries the rounding of that quotient and the final sqrt/multiply only.
    A k_n beyond the float range raises ``NumericError``.
    """
    k, nums, den = _integer_parts(n, params)
    root = _root(k)
    coeffs = tuple(x / den * root for x in nums)
    if coeffs[-1] < 0:  # unreachable with g_{n,n} = 1, kept as an explicit guarantee
        coeffs = tuple(-c for c in coeffs)
    return PolynomialCoeffs(coeffs)


def beta_weight_integral(poly: PolynomialCoeffs, params: BetaParams) -> Scalar:
    """Integral of a polynomial against the Beta(a1, a0) weight on [0, 1].

    Uses the exact monomial moments  E[x^a] = rising(a1, a) / rising(a1 + a0, a),
    E[D_1^a] of the two-atom measure (a1, a0): the coefficients over their
    common denominator make the integral one integer ladder sum and one
    Fraction.  A float coefficient is read as its exact image and the
    integral rounded once, to a float.
    """
    nums, den, rounded = exact_numerators(poly.coefficients)
    ladder = params.as_measure().moment_ladder
    num, q = ladder.posterior_sum([((a, 0), c) for a, c in enumerate(nums) if c], (0, 0))
    return ratio(num, q * den, rounded)


def _bilinear(
    parts_n: tuple[Fraction, list[int], int],
    parts_m: tuple[Fraction, list[int], int],
    num: int,
    den: int,
) -> Scalar:
    """<J_n, J_m> from the integer parts of both orders and the bilinear sum
    sum_{a,b} G_a G'_b E[x^(a+b)] = num / den of their numerators: an exact
    rational on the diagonal (k_n times the sum) and at a zero, else the
    float sqrt(k_n k_m) times the sum."""
    (kn, gn, ln), (km, gm, lm) = parts_n, parts_m
    if num == 0:
        return Fraction(0)
    bilinear = Fraction(num, den * ln * lm)
    if len(gn) == len(gm):
        return kn * bilinear
    return _root(kn * km) * float(bilinear)


def jacobi_inner(n: int, m: int, params: BetaParams) -> Scalar:
    """Inner product of J_n and J_m against the Beta weight.

    The rational bilinear sum  sum_{a,b} g_a g_b E[x^(a+b)]  is computed
    first and the irrational factor sqrt(k_n k_m) applied last, so the
    orthogonality zeros are exact rational zeros and the diagonal values
    are exact rationals (k_n times the bilinear sum).  For one pair the sum
    is an integer convolution of the two numerator vectors,
    c_s = sum_{a+b=s} G_a G'_b, followed by one posterior sum of the
    two-atom measure (a1, a0), since E[x^s] = E[D_1^s] under it.
    """
    parts = _integer_parts(n, params)
    other = parts if m == n else _integer_parts(m, params)
    gn, gm = parts[1], other[1]
    conv = [0] * (len(gn) + len(gm) - 1)
    for a, x in enumerate(gn):
        for b, y in enumerate(gm):
            conv[a + b] += x * y
    ladder = params.as_measure().moment_ladder
    num, den = ladder.posterior_sum([((s, 0), c) for s, c in enumerate(conv) if c], (0, 0))
    return _bilinear(parts, other, num, den)


def jacobi_gram(n: int, params: BetaParams) -> list[list[Scalar]]:
    """The matrix of ``jacobi_inner(i, j, params)`` over 0 <= i, j <= n.

    The moments E[x^s], s <= 2n, are put over one denominator Q, so the
    bilinear sum of orders i <= j is G_i . (H G_j) / Q with H the integer
    Hankel matrix H_ab = Q E[x^(a+b)]: one vector H G_j per order and one
    dot product per pair, O(n^3) integer products in all.  Each
    off-diagonal pair is computed once: the bilinear sum is symmetric and
    so is its float product with sqrt(k_i k_j).
    """
    parts = [_integer_parts(i, params) for i in range(n + 1)]
    # E[x^s] = R(s) / S(s) on the ladder rows of the measure (a1, a0), and
    # hankel[s] = Q E[x^s] over Q = S(2n)
    ladder = params.as_measure().moment_ladder
    first, totals = ladder.row(0, 0, 2 * n), ladder.row(2, 0, 2 * n)
    den = totals[2 * n]
    hankel = [first[s] * (den // totals[s]) for s in range(2 * n + 1)]
    gram: list[list[Scalar]] = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        g = parts[j][1]
        column = [sum(hankel[a + b] * y for b, y in enumerate(g)) for a in range(j + 1)]
        for i in range(j + 1):
            num = sum(x * y for x, y in zip(parts[i][1], column))
            gram[i][j] = gram[j][i] = _bilinear(parts[i], parts[j], num, den)
    return gram


def beta_bernstein(n: int, a: Scalar, b: Scalar) -> tuple[tuple[Fraction, ...], Fraction]:
    """Bernstein coefficients psi and squared norm of the monic Beta(a, b) polynomial.

    P_n(y) = sum_j C(n, j) psi_j y^j (1-y)^(n-j) is the Jacobi polynomial
    P_n^(b-1, a-1)(2y - 1) of Rodrigues' formula (DLMF 18.5.5) over its
    leading coefficient:

        psi_j     = (-1)^(n-j) rising(a+j, n-j) rising(n+b-j, j) / rising(n+a+b-1, n)
        ||P_n||^2 = n! rising(a, n) rising(b, n) / (rising(a+b, 2n) rising(n+a+b-1, n))

    (the norm is 1/k_n of ``exact_parts``).  With a and b over one
    denominator u, the psi_j share the denominator u^n rising(n+a+b-1, n),
    and each numerator is a suffix product on the ladder of a times a
    prefix product on the ladder of b (``_bernstein_integers``); the
    integers are wrapped in ``Fraction``s once, here.  Float parameters
    enter as their exact image ``Fraction(x)``; a parameter that is not
    positive and finite raises ``DomainError``.  All values are exact, at
    any degree.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    psi, lead, num, den = _bernstein_integers(n, *_beta_pair(a, b))
    return tuple(Fraction(x, lead) for x in psi), Fraction(num, den)


def solve_phi_system(n: int, params: BetaParams) -> SymmetricKernel:
    """The symmetric two-atom kernel whose order-n integral equals J_n(eta).

    With phi_m the kernel value on tuples with m entries at atom 1, the
    order-n integral is the Bernstein sum  sum_m C(n, m) phi_m eta^m
    (1 - eta)^(n-m), so phi_m = psi_m (``beta_bernstein``, exact, rounded
    once from its integer numerator and denominator) times the leading
    coefficient sqrt(k_n) = 1/||P_n|| of J_n (one float, rounded as in
    ``jacobi_modified``, and refused the same way beyond the float range),
    for every parameter type.  The kernel is degenerate: its integral lies
    in the order-n component.
    """
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    _validated_order(n)
    psi, den, norm_num, norm_den = _bernstein_integers(n, params.a1, params.a0)
    lead = _root(Fraction(norm_den, norm_num))
    return SymmetricKernel._trusted(
        n, 2, {(m, n - m): x / den * lead for m, x in enumerate(psi)}
    )


def kernel_to_univariate(kernel: SymmetricKernel) -> PolynomialCoeffs:
    """Order-n integral of a two-atom kernel as a polynomial in eta = d_1.

    The integral is  sum_m phi_m C(n, m) d_1^m d_2^(n-m);  substituting
    d_2 = 1 - d_1 and expanding binomially yields univariate coefficients.
    """
    if kernel.atoms != 2:
        raise DomainError(f"expected a two-atom kernel, got {kernel.atoms} atoms")
    n = kernel.order
    out: list[Scalar] = [0] * (n + 1)
    for counts, value in kernel.items():
        m = counts[0]
        if value == 0:
            continue
        base = value * binom(n, m)
        for j in range(n - m + 1):
            sign = -1 if j % 2 else 1
            out[m + j] = out[m + j] + base * binom(n - m, j) * sign
    return _trimmed(out)


def as_functional(poly: PolynomialCoeffs) -> SimplexPolynomial:
    """The same polynomial read as a functional of the two-atom measure.

    x^a becomes d_1^a, so the result can be fed to the decomposition engine.
    """
    terms = {
        (a, 0): c for a, c in enumerate(poly.coefficients) if c != 0
    }
    if not terms:
        return SimplexPolynomial.constant(2, 0)
    return SimplexPolynomial(2, terms)


def jacobi_norm_identity(n: int, params: BetaParams) -> tuple[Scalar, Scalar]:
    """Both sides of the norm identity linking J_n to its kernel phi_n.

    Returns (lhs, rhs) where

        lhs = integral of J_n(x)^2 against the Beta weight  (= 1 by
              orthonormality, computed independently from the coefficients),
        rhs = c(n, a1 + a0) * sum_m C(n, m) phi_m^2 *
              E[x^m (1 - x)^(n-m)]  under the Beta weight,

    i.e. the squared norm of the order-n integral of phi_n computed through
    the isometry constant.  Both sides are exact rationals and identical;
    they are returned unreconciled so callers can compare them at their own
    tolerance.
    """
    if n < 1:
        raise DomainError(f"norm identity needs n >= 1, got {n}")
    lhs = jacobi_inner(n, n, params)

    alpha = params.as_measure()
    psi, norm = beta_bernstein(n, params.a1, params.a0)
    acc = Fraction(0)
    for m, value in enumerate(psi):
        acc += binom(n, m) * value * value * dirichlet_moment(alpha, (m, n - m))
    return lhs, acc * c_iso(n, params.total) / norm
