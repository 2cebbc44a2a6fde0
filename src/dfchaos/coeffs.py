"""Projection coefficients for symmetric statistics of urn sequences.

Three layers live here, all read from one coefficient row:

* the infinite-sample limits theta^(n,k) = lim_N C(N,n)·theta*_N(n,k),

      theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

  with m the total mass and rising(x, j) = x(x+1)...(x+j-1), cached as one
  integer row theta(n, 0..n) (``numeric.limit_row``, here ``_limit_row``).
  Its entries k >= 1 weight the chaos kernels, and its products
  C(n,k)·theta(n,k), k = 0 included, are the coefficients of Griffiths'
  kernel polynomials, which ``wright_fisher`` reads from the same row;
* the finite-sample table of projection weights theta_N^(k,a) (and their
  binomially rescaled "starred" form).  Every starred row, the closing row
  k = N included, is the limit row shrunk by the window,

      theta*_N(k,a) = k!/rising(m+N, k) · theta(k,a)
                    = (-1)^(k-a) · (m+2k-1) · rising(m+a, k-1) / rising(m+N, k),

  the closed-form solution of a triangular system whose diagonal sums by
  Chu–Vandermonde (``theta_table``).  The finite split shrinks its order-s
  component by the same factor, ``c_overlap(N, N - s)``;
* the isometry constants c(n, |alpha|) and the overlapping-window covariance
  factors c(r, n, |alpha|), the latter in both circulating closed-form
  readings.

With m = p/q, every product above is a quotient of integers on one ladder
L[x] = prod_{i<x} (p+iq), over a power of q (and n! for a limit row), and
c(n), c(r, n) are each one such quotient.  The independent routes that
only check these forms (the defining system summed term by term, the
extrapolation of the finite tables, the tabulated alternative row, the
two-point projection oracle and the overlap enumeration) live in
``validation``.  All of it is exact over
``fractions.Fraction`` for rational total mass; a float mass is read as its
exact image ``Fraction(x)``, and the isometry and overlap factors of a
float mass are rounded once, to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import DomainError
from .numeric import Scalar, binom, integer_ladder, ratio, rising_product
from .numeric import limit_row as _limit_row

# ---------------------------------------------------------------------------
# the rational building blocks


def _check_mass(total_mass: Scalar) -> None:
    """Refuse a total mass that is not positive and finite (NaN included)."""
    if not 0 < total_mass < math.inf:
        raise DomainError(f"total mass must be positive and finite, got {total_mass}")


def _exact_mass(total_mass: Scalar) -> Fraction:
    _check_mass(total_mass)
    return Fraction(total_mass)


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
    sum_{i=q..k} sum_{j=q..i} theta^(i,j)·psi(q,k,j) = 0, with the sums

        psi_N(q,n,j) = sum_r C(q,r) · C(N-n, j-r) · phi(n,j,r,q-r),
        phi(n,j,r,p) = (j-r)!/(j-r-p)! · rising(m+r+p, j-r-p) / rising(m+n, j-r),

    C(x, y) zero outside 0 <= y <= x.  The diagonal is a terminating 2F1
    at 1, summed by Chu–Vandermonde (DLMF 15.4.24):

        psi_N(k,k,k) = sum_j C(k,j) (N-k)!/(N-k-j)! / rising(m+k, j)
                     = 2F1(-k, k-N; m+k; 1) = rising(m+N, k) / rising(m+k, k),

    and rho(k,a)·rising(m+k, k) telescopes to (m+2k-1)·rising(m+a, k-1).
    So theta*_N(k,a) = k!/rising(m+N, k) · theta(k,a): the limit row
    (``limit_coefficient``) shrunk, as the window split shrinks the chaos
    kernels (``hoeffding._shrunk``).  The tests and ``verify`` re-substitute
    the table into the defining system, with psi summed term by term, and
    keep every residual exactly zero, the closing row k = N equal to the
    cumulative sum theta^(N,a) = -sum_{s=a..N-1} theta^(s,a), and the
    diagonal equal to psi_N(k,k,k), on random rational masses for N <= 24.

    With m = p/q, k!/rising(m+N, k) = k! q^k / (L[N+k]/L[N]) on the ladder
    L[x] = prod_{i<x} (p+iq), read from N on one ladder for all rows, and
    each entry is one Fraction of integers.  A float mass is read as its
    exact image, as in the limits.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    mass = _exact_mass(total_mass)
    if max_k is None:
        max_k = N
    if not 1 <= max_k <= N:
        raise DomainError(f"max_k must lie in 1..N, got {max_k}")

    p, q = mass.numerator, mass.denominator
    window = integer_ladder(p + N * q, q, max_k)  # window[k] = q^k rising(m+N, k)
    entries: dict[tuple[int, int], Fraction] = {}
    starred: dict[tuple[int, int], Fraction] = {}
    for k in range(1, max_k + 1):
        row, den = _limit_row(p, q, k)
        shrink = math.factorial(k) * q**k // den  # den divides q^k k!, the row's lcd
        for a in range(k, 0, -1):
            star = starred[(k, a)] = Fraction(shrink * row[a], window[k])
            entries[(k, a)] = star * binom(N - a, k - a)
    return CoefficientTable(N, mass, max_k, entries, starred)


# ---------------------------------------------------------------------------
# limits in closed form


def _kernel_weights(mass: Fraction, top: int) -> dict[int, tuple[dict[int, int], int]]:
    """The limit rows theta(n, 1..n), n <= top, as ``kernels.subset_sum_assembly``
    weights: theta(n, 0) never reaches a kernel (the centred empty mean is 0)."""
    rows = {n: _limit_row(mass.numerator, mass.denominator, n) for n in range(1, top + 1)}
    return {n: (dict(zip(range(1, n + 1), row[1:])), den) for n, (row, den) in rows.items()}


def limit_coefficient(n: int, k: int, total_mass: Scalar) -> Fraction:
    """theta^(n,k): the limit projection coefficient, in closed form.

        theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

    so theta(n,n) = 1/c_iso(n); C(n,k)·theta(n,k) is Griffiths' coefficient
    of the kernel polynomial Q_n (Adv. Appl. Probab. 11, 1979;
    ``wright_fisher`` reads those products from the same row, k = 0
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
    L[k+n-1]/L[k] / q^(n-1) on the ladder L[x] = prod_{i<x} (p+iq), so a
    row is integers over q^n·n! (``_limit_row``, cached).  A float mass is
    read as its exact image.
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
    den = rising_product(a + n * b, b, upper)
    return ratio(math.perm(n - r, upper) * b**upper, den, isinstance(total_mass, float))
