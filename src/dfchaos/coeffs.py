"""Projection coefficients for symmetric statistics of urn sequences.

Three layers live here:

* the finite-sample coefficient engine: the rational functions ``phi`` and
  ``psi``, and the table of projection weights theta_N^(k,a) (and their
  binomially rescaled "starred" form) used by the finite decomposition.
  With m the total mass and rising(x, j) = x(x+1)...(x+j-1), every row,
  the closing row k = N included, is one product

      theta*_N(k,a) = (-1)^(k-a) · (m+2k-1) · rising(m+a, k-1) / rising(m+N, k),

  the closed-form solution of a triangular system whose diagonal
  psi_N(k,k,k) sums by Chu–Vandermonde; ``system_residuals`` re-substitutes
  a table into that defining system, with ``psi`` summed term by term;
* the infinite-sample limits theta^(n,k) = lim_N C(N,n)·theta*_N(n,k),

      theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

  whose products C(n,k)·theta(n,k), k = 0 included, are the coefficients
  of Griffiths' kernel polynomials (``wright_fisher`` builds those on
  integer ladders of its own, and the tests check them against this form);
* the isometry constants c(n, |alpha|) and the overlapping-window covariance
  factors c(r, n, |alpha|), the latter in both circulating closed-form
  readings.

With m = p/q, every product above is a quotient of integers on one ladder
L[x] = prod_{i<x} (p+iq), over a power of q (and n! for a limit row): the
theta* rows and the limit rows are cached as integer numerators over one
denominator per row, and c(n), c(r, n) are each one such quotient.  The
independent routes that only check these forms (the extrapolation of the
finite tables, the tabulated alternative row, the two-point projection
oracle and the overlap enumeration) live in ``validation``.  All of it is
exact over ``fractions.Fraction`` for rational total mass; a float mass is
read as its exact image ``Fraction(x)``, and the isometry and overlap
factors of a float mass are rounded once, to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import DomainError
from .numeric import Scalar, binom, integer_ladder, ratio

# ---------------------------------------------------------------------------
# the rational building blocks


def _check_mass(total_mass: Scalar) -> None:
    """Refuse a total mass that is not positive and finite (NaN included)."""
    if not 0 < total_mass < math.inf:
        raise DomainError(f"total mass must be positive and finite, got {total_mass}")


def _exact_mass(total_mass: Scalar) -> Fraction:
    _check_mass(total_mass)
    return Fraction(total_mass)


def phi(n: int, m: int, r: int, p: int, total_mass: Scalar) -> Scalar:
    """The elementary overlap factor.

    phi(n,m,r,p) = (m-r)!/(m-r-p)! · prod_{s=1..m-r-p} (|alpha|+r+p+s-1)
                   / prod_{s=1..m-r} (|alpha|+n+s-1)

    Preconditions: 0 <= r <= m <= n, 0 <= p <= m-r, 0 < total mass < inf.
    """
    if not (0 <= r <= m <= n):
        raise DomainError(f"phi requires 0 <= r <= m <= n, got (n={n}, m={m}, r={r})")
    if not (0 <= p <= m - r):
        raise DomainError(f"phi requires 0 <= p <= m-r, got p={p}, m-r={m - r}")
    _check_mass(total_mass)
    value: Scalar = Fraction(math.perm(m - r, p))
    for s in range(1, m - r - p + 1):
        value = value * (total_mass + r + p + s - 1)
    for s in range(1, m - r + 1):
        value = value / (total_mass + n + s - 1)
    return value


def psi(N: int, q: int, n: int, m: int, total_mass: Scalar) -> Scalar:
    """The window-counting sum sum_r C(q,r)·C(N-n, m-r)_*·phi(n,m,r,q-r).

    Preconditions: 1 <= q <= m <= n <= N, 0 < total mass < inf.
    """
    if not (1 <= q <= m <= n <= N):
        raise DomainError(f"psi requires 1 <= q <= m <= n <= N, got ({q}, {n}, {m}, N={N})")
    _check_mass(total_mass)
    total: Scalar = Fraction(0)
    for r in range(q + 1):
        weight = binom(q, r) * binom(N - n, m - r)
        if weight:
            total = total + weight * phi(n, m, r, q - r, total_mass)
    return total


# ---------------------------------------------------------------------------
# finite-sample coefficient tables


class CoefficientTable(NamedTuple):
    """Projection weights theta_N^(k,a) for statistics of N urn draws.

    ``entries[(k, a)]`` holds theta_N^(k,a) for 1 <= a <= k <= max_k;
    ``starred[(k, a)]`` holds theta_N^(k,a) / C(N-a, k-a). When
    ``max_k == N`` the table includes the closing row k = N.  The total
    mass and every entry are exact Fractions.
    """

    N: int
    total_mass: Fraction
    max_k: int
    entries: Mapping[tuple[int, int], Fraction]
    starred: Mapping[tuple[int, int], Fraction]

    def theta(self, k: int, a: int) -> Fraction:
        try:
            return self.entries[(k, a)]
        except KeyError:
            raise DomainError(
                f"theta({k},{a}) not in table (N={self.N}, max_k={self.max_k})"
            ) from None

    def theta_star(self, k: int, a: int) -> Fraction:
        try:
            return self.starred[(k, a)]
        except KeyError:
            raise DomainError(
                f"theta_star({k},{a}) not in table (N={self.N}, max_k={self.max_k})"
            ) from None


def theta_table(N: int, total_mass: Scalar, max_k: int | None = None) -> CoefficientTable:
    """Build the coefficient table for sample size N, in closed form.

    With m the total mass, every row k <= N is

        theta*_N(k,a) = (-1)^(k-a) · rho(k,a) · rising(m+k, k) / rising(m+N, k)
                      = (-1)^(k-a) · (m+2k-1) · rising(m+a, k-1) / rising(m+N, k),
        rho(k,a)      = rising(m+a, k-a) / rising(m+k+a-1, k-a),

    and theta_N(k,a) = C(N-a, k-a)·theta*_N(k,a).  The rows solve the
    defining triangular system theta^(k,k)·psi(k,k,k) = 1 and, for q < k,
    sum_{i=q..k} sum_{j=q..i} theta^(i,j)·psi(q,k,j) = 0, which
    ``system_residuals`` re-substitutes.  Its diagonal is a terminating
    2F1 at 1, summed by Chu–Vandermonde (DLMF 15.4.24):

        psi_N(k,k,k) = sum_j C(k,j) (N-k)!/(N-k-j)! / rising(m+k, j)
                     = 2F1(-k, k-N; m+k; 1) = rising(m+N, k) / rising(m+k, k),

    and rho(k,a)·rising(m+k, k) telescopes to (m+2k-1)·rising(m+a, k-1).
    So theta*_N(k,a) = k!/rising(m+N, k) · theta(k,a): the limit row
    (``limit_coefficient``) shrunk, as the window split shrinks the chaos
    kernels (``chaos._window_kernels``).  The tests keep every residual
    exactly zero, the closing row k = N equal to the cumulative sum
    theta^(N,a) = -sum_{s=a..N-1} theta^(s,a), and the diagonal equal to
    ``psi``, on random rational masses for N <= 24.

    With m = p/q every factor is an integer over a power of q, and the
    powers cancel: theta*_N(k,a) = ±(p+(2k-1)q)·L[a+k-1]/L[a] / (L[N+k]/L[N])
    on the ladder L[x] = prod_{i<x} (p+iq): cached integer rows, which the
    finite split reads directly (``_theta_star_rows``), wrapped one Fraction
    per entry.  A float mass is read as its exact image, as in the limits.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    mass = _exact_mass(total_mass)
    if max_k is None:
        max_k = N
    if not 1 <= max_k <= N:
        raise DomainError(f"max_k must lie in 1..N, got {max_k}")

    entries: dict[tuple[int, int], Fraction] = {}
    starred: dict[tuple[int, int], Fraction] = {}
    for k, (row, den) in _theta_star_rows(mass.numerator, mass.denominator, N, max_k).items():
        for a in range(k, 0, -1):
            star = starred[(k, a)] = Fraction(row[a], den)
            entries[(k, a)] = star * binom(N - a, k - a)
    return CoefficientTable(N, mass, max_k, entries, starred)


@lru_cache(maxsize=1 << 10)
def _theta_star_rows(p: int, q: int, N: int, max_k: int) -> dict[int, tuple[dict[int, int], int]]:
    """The rows theta*_N(k, 1..k), k <= max_k, of the mass p/q as {k: ({a:
    numerator}, d)}: the integers of ``theta_table`` over L[N+k]/L[N], less
    the row's common factor.  Shared; the maps must not be changed."""
    ladder = integer_ladder(p, q, N + max_k)
    rows = {}
    for k in range(1, max_k + 1):
        lead = p + (2 * k - 1) * q
        nums = [(-1) ** (k - a) * lead * (ladder[a + k - 1] // ladder[a]) for a in range(1, k + 1)]
        den = ladder[N + k] // ladder[N]
        common = math.gcd(den, *nums)
        rows[k] = {a: x // common for a, x in enumerate(nums, start=1)}, den // common
    return rows


def system_residuals(table: CoefficientTable) -> dict[tuple[int, int], Scalar]:
    """Re-substitute the table into every defining equation.

    Returns a map (k, q) -> residual: for q = k the normalisation
    theta^(k,k)·psi(k,k,k) - 1, for q < k the homogeneous sum
    sum_{i=q..k} sum_{j=q..i} theta^(i,j)·psi(q,k,j), summed as
    sum_{j=q..k} psi(q,k,j) · sum_{i=j..k} theta^(i,j). Every residual is
    exactly zero for a correctly built rational table.
    """
    out: dict[tuple[int, int], Scalar] = {}
    N, mass = table.N, table.total_mass
    for k in range(1, min(table.max_k, N - 1) + 1):
        out[(k, k)] = table.theta(k, k) * psi(N, k, k, k, mass) - 1
        column = {
            j: sum((table.theta(i, j) for i in range(j, k + 1)), Fraction(0))
            for j in range(1, k + 1)
        }
        for q in range(1, k):
            acc: Scalar = Fraction(0)
            for j in range(q, k + 1):
                acc = acc + column[j] * psi(N, q, k, j, mass)
            out[(k, q)] = acc
    return out


# ---------------------------------------------------------------------------
# limits in closed form


@lru_cache(maxsize=1 << 10)
def _limit_row(p: int, q: int, n: int) -> tuple[dict[int, int], int]:
    """The row theta^(n, 1..n) of the mass p/q as ({k: numerator}, d): the
    integers ±(p+(2n-1)q)·L[k+n-1]/L[k] of ``limit_coefficient`` over
    q^n·n!, less the row's common factor, so d is the row's least common
    denominator.  ``chaos_kernels`` hands these rows to
    ``kernels.subset_sum_assembly``.  Shared; the maps must not be changed."""
    ladder = integer_ladder(p, q, 2 * n - 1)
    lead = p + (2 * n - 1) * q
    nums = [(-1) ** (n - k) * lead * (ladder[k + n - 1] // ladder[k]) for k in range(1, n + 1)]
    den = q**n * math.factorial(n)
    common = math.gcd(den, *nums)
    return {k: x // common for k, x in enumerate(nums, start=1)}, den // common


def limit_coefficient(n: int, k: int, total_mass: Scalar) -> Fraction:
    """theta^(n,k): the limit projection coefficient, in closed form.

        theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

    so theta(n,n) = 1/c_iso(n); C(n,k)·theta(n,k) is Griffiths' coefficient
    of the kernel polynomial Q_n (Adv. Appl. Probab. 11, 1979;
    ``wright_fisher`` builds those products on integer ladders, k = 0
    included).  The k = 0 entry never reaches a chaos kernel (the centred
    mean of the empty vector is 0), so here k >= 1.  The
    coefficients are pinned by the extraction conditions: the formula
    sum_k theta(n,k) sum_{|S|=k} E[F | X_S] must return the order-n kernel
    of F for every F = I_j(h), h degenerate of order j <= n.
    Sketch: E[I_j(h) | X_1..X_k] = j!/rising(m+k, j) · sum_{|T|=j, T<=[k]}
    h(X_T) (zero for k < j), so the conditions become the triangular system

        sum_{k=j..n} theta(n,k) · C(n-j, k-j) · j!/rising(m+k, j) = [j = n],

    which the closed form solves (a terminating alternating sum, checked
    exactly for n <= 20 on seven masses).  The closed form also equals the
    two-point projection oracle (``validation.oracle_limit_row``) exactly
    for n <= 10 on eight masses from 1/10 to 7.

    With m = p/q, m+2n-1 = (p+(2n-1)q)/q and rising(m+k, n-1) =
    L[k+n-1]/L[k] / q^(n-1) on the ladder L[x] = prod_{i<x} (p+iq) of
    ``theta_table``, so a row is integers over q^n·n! (``_limit_row``,
    cached).  A float mass is read as its exact image.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got (n={n}, k={k})")
    mass = _exact_mass(total_mass)
    row, den = _limit_row(mass.numerator, mass.denominator, n)
    return Fraction(row[k], den)


def limit_coefficients(total_mass: Scalar, max_order: int) -> dict[tuple[int, int], Fraction]:
    """All theta^(n,k) for n <= max_order, keyed by (n, k)."""
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    out: dict[tuple[int, int], Fraction] = {}
    for n in range(1, max_order + 1):
        for k in range(1, n + 1):
            out[(n, k)] = limit_coefficient(n, k, total_mass)
    return out


# ---------------------------------------------------------------------------
# isometry and overlap constants


# typed: a float mass gives a float and an equal exact mass a Fraction
@lru_cache(maxsize=1 << 10, typed=True)
def c_iso(n: int, total_mass: Scalar) -> Scalar:
    """The order-n isometry constant prod_{l=1..n} (n-l+1)/(|alpha|+n+l-1).

    This is the variance scale of an order-n integral: the covariance of two
    same-order integrals of degenerate kernels h, f equals
    c_iso(n)·E[h(X_1..X_n)·f(X_1..X_n)].  It is the zero-overlap factor
    ``c_overlap(n, 0)``, so a mass a/b gives the one Fraction
    n! b^n / prod_l (a + (n+l-1) b) and a float mass the float it rounds
    to.  Cached: every variance and covariance of one measure reads the
    same few constants.
    """
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    return c_overlap(n, 0, total_mass)


def c_overlap(n: int, r: int, total_mass: Scalar, bound: str = "reduced") -> Scalar:
    """Covariance factor for two order-n windows sharing r coordinates.

    Two closed-form readings circulate, differing in the product's upper
    bound u:

    * ``reduced``: prod_{l=1..n-r} (n-r-l+1)/(|alpha|+n+l-1) — matches the
      exact enumeration oracle (``validation.c_overlap_oracle``); gives 1
      at full overlap and c_iso(n) at zero overlap;
    * ``full``: prod_{l=1..n} (n-r-l+1)/(|alpha|+n+l-1) — the numerator hits
      zero as soon as r >= 1, so every partial overlap is assigned zero
      covariance, contradicting the oracle already at r = n.

    Both are kept so reports can show them side by side.  With |alpha| =
    a/b either reading is one quotient on the integer ladder
    L[x] = prod_{i<x} (a+ib): (n-r)!/(n-r-u)! · b^u / (L[n+u]/L[n]), the
    falling product being zero for u > n-r.  A float mass is read as its
    exact image and the factor rounded once, to a float (``ratio``).
    """
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got (r={r}, n={n})")
    if bound not in ("reduced", "full"):
        raise DomainError(f"bound must be 'reduced' or 'full', got {bound!r}")
    mass = _exact_mass(total_mass)
    a, b = mass.numerator, mass.denominator
    upper = (n - r) if bound == "reduced" else n
    den = math.prod(range(a + n * b, a + (n + upper) * b, b))
    return ratio(math.perm(n - r, upper) * b**upper, den, isinstance(total_mass, float))
