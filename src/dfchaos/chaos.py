"""Orthogonal (chaotic) decomposition of square-integrable functionals of a
Dirichlet random measure on a finite support.

Every such functional F(D) splits as its mean plus a sum of multiple
integrals of degenerate symmetric kernels against tensor powers of the
measure itself; on a finite support the order-n integral of a kernel
h is the polynomial  sum_m h(m) · mult(m) · prod_j d_j^{m_j}  over
occupation vectors m, and the kernels are extracted by weighting posterior
conditional expectations with the limit projection coefficients:

    h_(F,n)(a_1..a_n) = sum_k theta^(n,k) · sum over k-subsets j of
                        E[F - E F | X_{j_1} = a_{j_1}, ...].

Distinct orders are orthogonal, covariances collapse through the isometry
constants, and the variance obeys the Parseval-type identity
Var F = sum_n c(n)·E[h_(F,n)(X_1..X_n)^2].

Polynomial functionals (sparse multi-exponent maps) follow an exact
rational path end to end; black-box functionals carry a declared Monte
Carlo budget for their conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .coeffs import c_iso, limit_coefficient, validate_limit_values
from .errors import DomainError
from .hoeffding import degenerate_check, hoeffding_decompose
from .kernels import (
    PredictableComponent,
    SimplexPolynomial,
    SymmetricKernel,
    subset_sum_kernels,
)
from .measures import DiscreteBaseMeasure, sample_dirichlet, with_counts
from .numeric import (
    Scalar,
    binom,
    common_denominator,
    exact_ratio,
    occupation_vectors,
    tuple_counts,
)
from .polya import (
    DEFAULT_ENUMERATION_CAP,
    cond_exp_statistic_counts,
    occupation_prob,
)

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class BlackBoxFunctional:
    """An opaque functional of the mass vector with a Monte Carlo budget.

    ``fn`` maps a tuple of K masses to a number; ``mc_budget`` is the number
    of posterior draws each conditional expectation may spend.
    """

    fn: Callable[[tuple[float, ...]], float]
    atoms: int
    mc_budget: int = 10_000


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error attached."""

    value: float
    stderr: float
    draws: int


Functional = SimplexPolynomial | BlackBoxFunctional


def _functional_atoms(F: Functional) -> int:
    return F.nvars if isinstance(F, SimplexPolynomial) else F.atoms


def poly_posterior_mean(
    F: SimplexPolynomial, alpha: DiscreteBaseMeasure, counts: Sequence[int]
) -> Scalar:
    """E[F(D) | observed occupation counts], exact via conjugate moments.

    The coefficients go over one common denominator and the moments are
    shifts on the prior's moment ladder, so the sum runs on ints and one
    Fraction is formed at the end (floats throughout on a float path).
    """
    coeffs, scale = common_denominator(list(F.terms.values()))
    num, den = alpha.moment_ladder.posterior_sum(zip(F.terms, coeffs), counts)
    return exact_ratio(num, den * scale)


def cond_exp_functional(
    F: Functional,
    alpha: DiscreteBaseMeasure,
    observations: Sequence[int] = (),
    rng: np.random.Generator | None = None,
):
    """E[F(D) | observed atom labels].

    Exact (rational for rational data) when F is polynomial; a Monte Carlo
    MCEstimate over the posterior when F is a black box, in which case a
    generator is required.
    """
    counts = tuple_counts(observations, alpha.atoms)
    if isinstance(F, SimplexPolynomial):
        if F.nvars != alpha.atoms:
            raise DomainError("functional and measure disagree on the atom count")
        return poly_posterior_mean(F, alpha, counts)
    if rng is None:
        raise DomainError("black-box conditional expectations need a generator")
    import numpy as np

    posterior = with_counts(alpha, counts)
    values = np.empty(F.mc_budget)
    for i in range(F.mc_budget):
        values[i] = F.fn(sample_dirichlet(posterior, rng))
    stderr = float(values.std(ddof=1) / np.sqrt(F.mc_budget)) if F.mc_budget > 1 else float("inf")
    return MCEstimate(float(values.mean()), stderr, F.mc_budget)


def functional_mean(F: Functional, alpha: DiscreteBaseMeasure, rng=None):
    return cond_exp_functional(F, alpha, (), rng)


def variance_functional(F: SimplexPolynomial, alpha: DiscreteBaseMeasure) -> Scalar:
    """Var F(D), exactly, via first and second moments of the masses."""
    if not isinstance(F, SimplexPolynomial):
        raise DomainError("exact variance needs a polynomial functional")
    mean = poly_posterior_mean(F, alpha, (0,) * alpha.atoms)
    second = poly_posterior_mean(F.mul(F), alpha, (0,) * alpha.atoms)
    return second - mean * mean


# ---------------------------------------------------------------------------
# multiple integrals


def multiple_integral(h: SymmetricKernel, point: Sequence[Scalar]) -> Scalar:
    """Integral of h against the n-fold product of a fixed mass vector:
    sum_m h(m)·mult(m)·prod_j point_j^{m_j}."""
    if len(point) != h.atoms:
        raise DomainError(f"expected {h.atoms} masses, got {len(point)}")
    return h.to_polynomial().evaluate(tuple(point))


def expectation_of_integral(h: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """E[integral of h dD^n] = E[h(X_1..X_n)] under the urn law."""
    if h.atoms != alpha.atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    total: Scalar = Fraction(0)
    for counts, value in h.items():
        if value != 0:
            total = total + occupation_prob(alpha, counts) * value
    return total


def statistic_product_mean(
    h: SymmetricKernel, f: SymmetricKernel, alpha: DiscreteBaseMeasure
) -> Scalar:
    """E[h(X_1..X_n)·f(X_1..X_n)] for same-order kernels, exactly."""
    if (h.order, h.atoms) != (f.order, f.atoms):
        raise DomainError("kernels must share order and atom count")
    total: Scalar = Fraction(0)
    for counts in occupation_vectors(h.order, h.atoms):
        hv, fv = h.value(counts), f.value(counts)
        if hv != 0 and fv != 0:
            total = total + occupation_prob(alpha, counts) * hv * fv
    return total


# ---------------------------------------------------------------------------
# the decomposition


@dataclass(frozen=True)
class ChaosDecomposition:
    """mean + multiple integrals of ``kernels[n-1]`` (order n) for n = 1..M."""

    alpha: DiscreteBaseMeasure
    mean: Scalar
    kernels: tuple[SymmetricKernel, ...]

    @property
    def max_order(self) -> int:
        return len(self.kernels)

    def kernel(self, n: int) -> SymmetricKernel:
        if not 1 <= n <= self.max_order:
            raise DomainError(f"kernel order must lie in 1..{self.max_order}")
        return self.kernels[n - 1]

    def to_json(self) -> dict:
        from .numeric import scalar_to_json

        return {
            "mean": scalar_to_json(self.mean),
            "alpha": self.alpha.to_json(),
            "kernels": [k.to_json() for k in self.kernels],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ChaosDecomposition":
        from .numeric import as_scalar

        alpha = DiscreteBaseMeasure.from_json(payload["alpha"])
        kernels = tuple(SymmetricKernel.from_json(k) for k in payload["kernels"])
        for i, k in enumerate(kernels, start=1):
            if k.order != i:
                raise DomainError("kernel orders must run 1..M without gaps")
        return cls(alpha, as_scalar(payload["mean"]), kernels)


def chaos_kernels(
    F: Functional,
    alpha: DiscreteBaseMeasure,
    max_order: int,
    theta: Mapping[tuple[int, int], Scalar] | None = None,
    rng: np.random.Generator | None = None,
    validate: bool = True,
) -> ChaosDecomposition:
    """Extract the decomposition kernels of F up to the given order.

    With ``theta=None`` the exact oracle coefficients for |alpha| are used.
    A caller-supplied coefficient set is first checked against the
    projection conditions and refused (CoefficientValidationError) if it
    fails; ``validate=False`` skips that gate and exists only so diagnostic
    reports can show what known-bad coefficient sets would produce.

    For polynomial F of degree d, max_order >= d makes the decomposition
    exact: kernels beyond d come out identically zero.
    """
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    atoms = _functional_atoms(F)
    if atoms != alpha.atoms:
        raise DomainError("functional and measure disagree on the atom count")
    mass = alpha.total_mass
    if theta is None:
        theta_vals = {
            (n, k): limit_coefficient(n, k, mass)
            for n in range(1, max_order + 1)
            for k in range(1, n + 1)
        }
    else:
        if validate:
            validate_limit_values(theta, mass, max_order)
        theta_vals = dict(theta)

    def cond(counts: tuple[int, ...]) -> Scalar:
        if isinstance(F, SimplexPolynomial):
            return poly_posterior_mean(F, alpha, counts)
        labels: list[int] = []
        for atom, c in enumerate(counts, start=1):
            labels.extend([atom] * c)
        return cond_exp_functional(F, alpha, labels, rng).value

    # every occupation vector of size <= max_order is some sub-occupation,
    # so all conditional means are taken up front, by size (the order in
    # which a black box draws from ``rng``); the theta rows weight their
    # centred values in the one integer assembly, ``subset_sum_kernels``
    vectors = [mu for n in range(max_order + 1) for mu in occupation_vectors(n, atoms)]
    conds = [cond(mu) for mu in vectors]
    mean = conds[0]
    rows = {n: {k: theta_vals[(n, k)] for k in range(1, n + 1)} for n in range(1, max_order + 1)}
    kernels = subset_sum_kernels({mu: c - mean for mu, c in zip(vectors, conds)}, rows, atoms)
    return ChaosDecomposition(alpha, mean, tuple(kernels.values()))


def reconstruct(decomposition: ChaosDecomposition, point: Sequence[Scalar]) -> Scalar:
    """mean + sum of the multiple integrals at a fixed mass vector."""
    total = decomposition.mean
    for kernel in decomposition.kernels:
        total = total + multiple_integral(kernel, point)
    return total


def variance_from_decomposition(decomposition: ChaosDecomposition) -> Scalar:
    """Parseval sum  sum_n c(n,|alpha|)·E[h_n(X_1..X_n)^2]."""
    alpha = decomposition.alpha
    mass = alpha.total_mass
    total: Scalar = Fraction(0)
    for n, kernel in enumerate(decomposition.kernels, start=1):
        total = total + c_iso(n, mass) * statistic_product_mean(kernel, kernel, alpha)
    return total


@dataclass(frozen=True)
class CovarianceResult:
    exact: Scalar
    predicted: Scalar
    route: str


def covariance_integrals(
    h: SymmetricKernel,
    f: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    degeneracy_tol: float = 1e-12,
) -> CovarianceResult:
    """E[(integral of h dD^n)(integral of f dD^m)] two ways.

    ``exact`` comes from moment algebra on the product polynomial. The
    prediction is the isometry form delta_{nm}·c(n)·E[h·f] when both
    kernels are degenerate; otherwise both are routed through their
    finite-sample orthogonal components:
    E[h]E[f] + sum_s C(n,s)C(m,s)·c(s)·E[phi_h^(s)·phi_f^(s)].
    """
    if h.atoms != alpha.atoms or f.atoms != alpha.atoms:
        raise DomainError("kernels and measure disagree on the atom count")
    exact_val = poly_posterior_mean(
        h.to_polynomial().mul(f.to_polynomial()), alpha, (0,) * alpha.atoms
    )
    mass = alpha.total_mass
    h_degen = degenerate_check(h, alpha) <= degeneracy_tol
    f_degen = degenerate_check(f, alpha) <= degeneracy_tol
    if h_degen and f_degen:
        if h.order != f.order:
            predicted: Scalar = Fraction(0)
        else:
            predicted = c_iso(h.order, mass) * statistic_product_mean(h, f, alpha)
        return CovarianceResult(exact_val, predicted, "degenerate-isometry")
    dh = hoeffding_decompose(h, alpha)
    df = hoeffding_decompose(f, alpha)
    predicted = dh.mean * df.mean
    for s in range(1, min(h.order, f.order) + 1):
        predicted = predicted + (
            binom(h.order, s)
            * binom(f.order, s)
            * c_iso(s, mass)
            * statistic_product_mean(dh.component(s), df.component(s), alpha)
        )
    return CovarianceResult(exact_val, predicted, "orthogonal-components")


# ---------------------------------------------------------------------------
# the predictable (filtration) decomposition, for contrast


def martingale_decomposition(
    H: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[PredictableComponent]:
    """Telescoping components g_n(x_1..x_n) = E[H|x_1..x_n] - E[H|x_1..x_{n-1}].

    These are *not* symmetric in their last argument and the induced
    integrals are not mutually orthogonal — they are produced for contrast
    with the symmetric decomposition. The defining identity
    E[H|D] = E[H] + sum_n (integral of g_n against D^n) holds as a
    polynomial identity on the simplex.
    """
    if H.atoms != alpha.atoms:
        raise DomainError("statistic and measure disagree on the atom count")
    # by size, so the largest enumeration (the empty history) comes first
    ce = {
        counts: cond_exp_statistic_counts(H, alpha, counts, cap=cap)
        for n in range(H.order + 1)
        for counts in occupation_vectors(n, H.atoms)
    }
    components = []
    for n in range(1, H.order + 1):
        table: dict[tuple[tuple[int, ...], int], Scalar] = {}
        for hist in occupation_vectors(n - 1, H.atoms):
            base = ce[hist]
            for atom in range(1, H.atoms + 1):
                bumped = list(hist)
                bumped[atom - 1] += 1
                table[(hist, atom)] = ce[tuple(bumped)] - base
        components.append(PredictableComponent(n, H.atoms, table))
    return components
