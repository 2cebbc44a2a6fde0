"""Projection coefficients for symmetric statistics of urn sequences.

Three layers live here:

* the finite-sample coefficient engine: the rational functions ``phi`` and
  ``psi``, and the table of projection weights theta_N^(k,a) (and their
  binomially rescaled "starred" form) used by the finite decomposition.
  With m the total mass and rising(x, j) = x(x+1)...(x+j-1), the rows solve
  a triangular system in closed form:

      rho(k,a)       = rising(m+a, k-a) / rising(m+k+a-1, k-a)
      theta*_N(k,a)  = (-1)^(k-a) · rho(k,a) / psi_N(k,k,k)        (k < N)

  ``system_residuals`` re-substitutes a table into that defining system;
* the infinite-sample limits theta^(n,k) = lim_N C(N,n)·theta*_N(n,k),

      theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

  also the coefficients of Griffiths' kernel polynomials (``wright_fisher``
  reads them, k = 0 included), with ``theta_limit`` as an independent route
  (exact extrapolation in 1/N of the finite tables); the two-point
  projection oracle that solves for the same row lives in ``validation``;
* the isometry constants c(n, |alpha|) and the overlapping-window covariance
  factors c(r, n, |alpha|), the latter in both circulating closed-form
  readings plus an exact enumeration oracle that arbitrates between them.

All of it is exact over ``fractions.Fraction`` for rational total mass; the
tables and the limits read a float mass as its exact image ``Fraction(x)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import (
    CoefficientValidationError,
    ConvergenceError,
    DomainError,
    ResourceCapError,
)
from .kernels import SymmetricKernel
from .measures import DiscreteBaseMeasure
from .numeric import Scalar, binom, binom_star, falling_ratio, rising_factorial
from .polya import DEFAULT_ENUMERATION_CAP, polya_joint_prob

# ---------------------------------------------------------------------------
# the rational building blocks


def _check_mass(total_mass: Scalar) -> None:
    """Refuse a total mass that is not positive and finite (NaN included)."""
    if not 0 < total_mass < math.inf:
        raise DomainError(f"total mass must be positive and finite, got {total_mass}")


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
    value: Scalar = Fraction(falling_ratio(m - r, m - r - p))
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
        weight = binom(q, r) * binom_star(N - n, m - r)
        if weight:
            total = total + weight * phi(n, m, r, q - r, total_mass)
    return total


# ---------------------------------------------------------------------------
# finite-sample coefficient tables


@dataclass(frozen=True)
class CoefficientTable:
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


def _rho(k: int, a: int, total_mass: Scalar) -> Scalar:
    """rising(m+a, k-a) / rising(m+k+a-1, k-a): the within-row ratio of the
    finite tables (it does not depend on N; their diagonal does)."""
    num = rising_factorial(total_mass + a, k - a)
    return num / rising_factorial(total_mass + k + a - 1, k - a)


def theta_table(N: int, total_mass: Scalar, max_k: int | None = None) -> CoefficientTable:
    """Build the coefficient table for sample size N, in closed form.

    With m the total mass, every row k < N is

        theta*_N(k,a) = (-1)^(k-a) · rho(k,a) / psi_N(k,k,k),
        rho(k,a)      = rising(m+a, k-a) / rising(m+k+a-1, k-a),

    and theta_N(k,a) = C(N-a, k-a)·theta*_N(k,a).  The ratios within a row
    do not depend on N; only the diagonal 1/psi_N(k,k,k) does (psi > 0 for
    m > 0, so no row is singular); C(N,k)·theta*_N(k,a) tends to the
    rho-free product of ``limit_coefficient``.  The closing row is
    theta^(N,N) = 1, theta^(N,a) = -sum_{s=a..N-1} theta^(s,a); it is
    produced only when max_k >= N (it needs every lower row).

    The rows are the unique solution of the defining triangular system
    theta^(k,k)·psi(k,k,k) = 1 and, for q < k,
    sum_{i=q..k} sum_{j=q..i} theta^(i,j)·psi(q,k,j) = 0, which
    ``system_residuals`` re-substitutes.  The closed form was checked equal
    to the exact recursive solution of that system for N = 1..16 on eight
    masses from 1/10 to 7, and at N = 24 and 32 for two of them; the tests
    keep every residual exactly zero for N <= 16 on random rational masses.
    A float mass is read as its exact image ``Fraction(x)``, as in the limits.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    mass = _exact_mass(total_mass)
    if max_k is None:
        max_k = N
    if not 1 <= max_k <= N:
        raise DomainError(f"max_k must lie in 1..N, got {max_k}")

    entries: dict[tuple[int, int], Fraction] = {}
    for k in range(1, min(max_k, N - 1) + 1):
        diag = psi(N, k, k, k, mass)
        for a in range(k, 0, -1):
            star = (-1) ** (k - a) * _rho(k, a, mass) / diag
            entries[(k, a)] = star * binom(N - a, k - a)

    if max_k >= N:
        entries[(N, N)] = Fraction(1)
        for a in range(1, N):
            entries[(N, a)] = -sum(entries[(s, a)] for s in range(a, N))

    starred = {(k, a): value / binom(N - a, k - a) for (k, a), value in entries.items()}
    return CoefficientTable(N, mass, max_k, entries, starred)


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
# limits, route 1: extrapolation of the exact finite tables


@dataclass(frozen=True)
class ThetaLimit:
    """A converged limit estimate with its convergence evidence."""

    k: int
    a: int
    total_mass: Scalar
    value: float
    sample_sizes: tuple[int, ...]
    last_delta: float
    tolerance: float
    oracle_value: Fraction | None = None
    matches_oracle: bool | None = None


def theta_limit(
    k: int,
    a: int,
    total_mass: Scalar,
    tol: float = 1e-8,
    max_N: int = 2**14,
    cross_validate: bool = True,
) -> ThetaLimit:
    """lim_N C(N,k)·theta*_N(k,a) by exact Neville extrapolation in 1/N.

    Sample sizes double (N = k, 2k, 4k, ...); the target is a rational
    function of N, so the interpolating-polynomial diagonal converges
    quickly. The value is reported only once two successive diagonal
    entries agree within ``tol``; otherwise ConvergenceError carries the
    best partial value. With ``cross_validate`` the converged value is
    compared against the closed-form ``limit_coefficient`` and both are
    attached.
    """
    if not 1 <= a <= k:
        raise DomainError(f"need 1 <= a <= k, got (k={k}, a={a})")
    xs: list[Fraction] = []
    prev_col: list[Fraction] = []
    sizes: list[int] = []
    previous_diag: Fraction | None = None
    N = k
    while N <= max_N:
        tab = theta_table(N, total_mass, max_k=min(k, N))
        value = Fraction(binom(N, k)) * Fraction(tab.theta_star(k, a))
        x = Fraction(1, N)
        col = [value]
        for i in range(1, len(xs) + 1):
            older_x = xs[len(xs) - i]
            num = x * prev_col[i - 1] - older_x * col[i - 1]
            col.append(num / (x - older_x))
        xs.append(x)
        sizes.append(N)
        prev_col = col
        current = col[-1]
        if previous_diag is not None:
            delta = abs(float(current - previous_diag))
            if delta < tol:
                oracle_val = None
                matches = None
                if cross_validate:
                    oracle_val = limit_coefficient(k, a, total_mass)
                    scale = max(1.0, abs(float(oracle_val)))
                    matches = abs(float(current) - float(oracle_val)) <= 10 * tol * scale
                return ThetaLimit(
                    k, a, total_mass, float(current), tuple(sizes), delta, tol,
                    oracle_val, matches,
                )
        previous_diag = current
        N *= 2
    raise ConvergenceError(
        f"theta limit ({k},{a}) did not stabilise below {tol} with N <= {max_N}",
        partial=float(previous_diag) if previous_diag is not None else None,
    )


def tabulated_limit_values(total_mass: Scalar) -> dict[tuple[int, int], Scalar]:
    """Closed forms for the first limit coefficients as previously tabulated
    elsewhere, retained solely for cross-checking. The second row disagrees
    with both the recursion limit and the projection oracle (see
    ``validation.theta_erratum_report``), so these values must never feed
    the decomposition routines."""
    m = total_mass
    return {
        (1, 1): m + 1,
        (2, 1): (m + 3) * (m + 2),
        (2, 2): (m + 3) * (m + 1) / 2,
    }


# ---------------------------------------------------------------------------
# limits, route 2: the closed form


def _exact_mass(total_mass: Scalar) -> Fraction:
    _check_mass(total_mass)
    return Fraction(total_mass)


@lru_cache(maxsize=None)
def _limit_row(total_mass: Fraction, n: int) -> tuple[Fraction, ...]:
    """(theta^(n,0), ..., theta^(n,n)) from the closed form, for n >= 1."""
    lead = (total_mass + 2 * n - 1) / math.factorial(n)
    return tuple(
        (-1) ** (n - k) * lead * rising_factorial(total_mass + k, n - 1) for k in range(n + 1)
    )


def limit_coefficient(n: int, k: int, total_mass: Scalar) -> Fraction:
    """theta^(n,k): the limit projection coefficient, in closed form.

        theta(n,k) = (m+2n-1) · (-1)^(n-k) · rising(m+k, n-1) / n!,

    so theta(n,n) = 1/c_iso(n); C(n,k)·theta(n,k) is Griffiths' coefficient
    of the kernel polynomial Q_n (Adv. Appl. Probab. 11, 1979).  Its k = 0
    entry, which ``wright_fisher`` reads, never reaches a chaos kernel (the
    centred mean of the empty vector is 0), so here k >= 1.  The
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
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got (n={n}, k={k})")
    return _limit_row(_exact_mass(total_mass), n)[k]


def limit_coefficients(total_mass: Scalar, max_order: int) -> dict[tuple[int, int], Fraction]:
    """All theta^(n,k) for n <= max_order, keyed by (n, k)."""
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    out: dict[tuple[int, int], Fraction] = {}
    for n in range(1, max_order + 1):
        for k in range(1, n + 1):
            out[(n, k)] = limit_coefficient(n, k, total_mass)
    return out


def validate_limit_values(
    values: Mapping[tuple[int, int], Scalar],
    total_mass: Scalar,
    max_order: int,
    tol: float = 1e-9,
) -> None:
    """Check supplied limit coefficients against the closed form.

    For each order n <= max_order, compares the supplied theta^(n,·) with
    the closed-form row and raises CoefficientValidationError naming the
    first order whose worst deviation exceeds ``tol`` relative to the row's
    largest coefficient.  The projection conditions pin the row uniquely,
    so this is the same gate as re-checking those conditions.  Used to
    refuse decompositions driven by unvalidated coefficient sets.
    """
    mass = _exact_mass(total_mass)
    for n in range(1, max_order + 1):
        row_values = []
        for k in range(1, n + 1):
            if (n, k) not in values:
                raise CoefficientValidationError(
                    f"missing limit coefficient ({n},{k}) in supplied set"
                )
            row_values.append(values[(n, k)])
        exact = _limit_row(mass, n)[1:]
        scale = max(abs(float(t)) for t in exact)
        worst = max(abs(float(v - t)) for v, t in zip(row_values, exact)) / scale
        if worst > tol:
            raise CoefficientValidationError(
                f"supplied theta({n},*) fail the projection conditions "
                f"(worst relative deviation {worst:.3e} > {tol:.1e})"
            )


# ---------------------------------------------------------------------------
# isometry and overlap constants


def c_iso(n: int, total_mass: Scalar) -> Scalar:
    """The order-n isometry constant prod_{l=1..n} (n-l+1)/(|alpha|+n+l-1).

    This is the variance scale of an order-n integral: the covariance of two
    same-order integrals of degenerate kernels h, f equals
    c_iso(n)·E[h(X_1..X_n)·f(X_1..X_n)].  An exact mass a/b gives the one
    Fraction n! b^n / prod_l (a + (n+l-1) b); a float mass keeps the float
    product.
    """
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    _check_mass(total_mass)
    if isinstance(total_mass, float):
        value: Scalar = Fraction(1)
        for l in range(1, n + 1):
            value = value * (n - l + 1) / (total_mass + n + l - 1)
        return value
    mass = Fraction(total_mass)
    a, b = mass.numerator, mass.denominator
    den = 1
    for l in range(1, n + 1):
        den *= a + (n + l - 1) * b
    return Fraction(math.factorial(n) * b**n, den)


def c_overlap(n: int, r: int, total_mass: Scalar, bound: str = "reduced") -> Scalar:
    """Covariance factor for two order-n windows sharing r coordinates.

    Two closed-form readings circulate, differing in the product's upper
    bound:

    * ``reduced``: prod_{l=1..n-r} (n-r-l+1)/(|alpha|+n+l-1) — matches the
      exact enumeration oracle (c_overlap_oracle); gives 1 at full overlap
      and c_iso(n) at zero overlap;
    * ``full``: prod_{l=1..n} (n-r-l+1)/(|alpha|+n+l-1) — the numerator hits
      zero as soon as r >= 1, so every partial overlap is assigned zero
      covariance, contradicting the oracle already at r = n.

    Both are kept so reports can show them side by side.
    """
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got (r={r}, n={n})")
    if bound not in ("reduced", "full"):
        raise DomainError(f"bound must be 'reduced' or 'full', got {bound!r}")
    _check_mass(total_mass)
    upper = (n - r) if bound == "reduced" else n
    value: Scalar = Fraction(1)
    for l in range(1, upper + 1):
        value = value * (n - r - l + 1) / (total_mass + n + l - 1)
    return value


def c_overlap_oracle(
    h: SymmetricKernel,
    f: SymmetricKernel,
    r: int,
    alpha: DiscreteBaseMeasure,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Scalar:
    """E[h(X_1..X_n)·f(X_{n-r+1}..X_{2n-r})], exactly, by enumeration.

    The two order-n windows share their last/first r coordinates. The
    nominal enumeration size K^(2n-r) is checked against ``cap``.
    """
    if h.order != f.order:
        raise DomainError("overlap oracle requires kernels of equal order")
    n = h.order
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got (r={r}, n={n})")
    if h.atoms != alpha.atoms or f.atoms != alpha.atoms:
        raise DomainError("kernels and measure disagree on the atom count")
    span = 2 * n - r
    if alpha.atoms**span > cap:
        raise ResourceCapError(
            f"enumeration of {alpha.atoms}^{span} tuples exceeds cap {cap}"
        )
    total: Scalar = Fraction(0)
    for labels in itertools.product(range(1, alpha.atoms + 1), repeat=span):
        weight = polya_joint_prob(alpha, labels)
        total = total + weight * h.value_at(labels[:n]) * f.value_at(labels[n - r :])
    return total
