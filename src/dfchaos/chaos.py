"""Orthogonal (chaotic) decomposition of square-integrable functionals of a
Dirichlet random measure on a finite support.

Every such functional F(D) splits as its mean plus a sum of multiple
integrals of degenerate symmetric kernels against tensor powers of the
measure itself; on a finite support the order-n integral of a kernel
h is the polynomial  sum_m h(m) · mult(m) · prod_j d_j^{m_j}  over
occupation vectors m, and the kernels are extracted by weighting posterior
conditional expectations with the limit projection coefficients:

    h_(F,n)(a_1..a_n) = sum_k theta^(n,k) · sum over k-subsets j of
                        E[F - E F | X_{j_1} = a_{j_1}, ...],

theta^(n,k), k >= 1, read from the one cached row ``numeric.limit_row``;
the split of E[F | X_1..X_N] shrinks these kernels (``hoeffding._shrunk``).

Distinct orders are orthogonal, covariances collapse through the isometry
constants, and the variance obeys the Parseval-type identity
Var F = sum_n c(n)·E[h_(F,n)(X_1..X_n)^2].

Polynomial functionals (sparse multi-exponent maps) follow an exact
rational path end to end; black-box functionals carry a declared Monte
Carlo budget, drawn in blocks, for their conditional expectations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add
from typing import TYPE_CHECKING, Callable, Sequence

from .coeffs import _kernel_weights, c_iso
from .errors import DomainError
from .hoeffding import HoeffdingDecomposition, _check_lattice, _conditional_layers, _from_components
from .hoeffding import _shrunk, degenerate_check, hoeffding_decompose
from .kernels import (
    PredictableComponent,
    SimplexPolynomial,
    SymmetricKernel,
    subset_sum_assembly,
)
from .measures import DiscreteBaseMeasure, _dirichlet_blocks, with_counts
from .numeric import (
    Record,
    Scalar,
    as_scalar,
    binom,
    exact_numerators,
    occupation_lattice,
    occupation_vectors,
    ratio,
    scalar_to_json,
    tuple_counts,
    variance_ratio,
)

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# functionals


class BlackBoxFunctional(Record):
    """An opaque functional of the mass vector with a Monte Carlo budget.

    ``fn`` maps a tuple of K masses to a number; ``mc_budget`` is the number
    of posterior draws each conditional expectation may spend.
    """

    fn: Callable[[tuple[float, ...]], float]
    atoms: int
    mc_budget: int = 10_000


class MCEstimate(Record):
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

    The coefficients over their common denominator are built once per
    polynomial (``SimplexPolynomial.scaled_terms``) and the moments are
    shifts on the prior's moment ladder, so the sum runs on ints and one
    Fraction is formed at the end.  A float coefficient is read as its
    exact image and the mean rounded once, to a float.
    """
    terms, lead, rounded = F.scaled_terms
    num, den = alpha.moment_ladder.posterior_sum(terms, counts)
    return ratio(num, den * lead, rounded)


def cond_exp_functional(
    F: Functional,
    alpha: DiscreteBaseMeasure,
    observations: Sequence[int] = (),
    rng: np.random.Generator | None = None,
):
    """E[F(D) | observed atom labels].

    Exact (rational for rational data) when F is polynomial; a Monte Carlo
    MCEstimate when F is a black box, in which case a generator is required.
    """
    counts = tuple_counts(observations, alpha.atoms)
    if isinstance(F, SimplexPolynomial):
        if F.nvars != alpha.atoms:
            raise DomainError("functional and measure disagree on the atom count")
        return poly_posterior_mean(F, alpha, counts)
    return _black_box_mean(F, alpha, counts, rng)


def _black_box_mean(
    F: BlackBoxFunctional, alpha: DiscreteBaseMeasure, counts: Sequence[int], rng
) -> MCEstimate:
    """The mean of ``F.fn``, given a tuple of floats, over ``mc_budget``
    posterior draws at the counts (``measures._dirichlet_blocks``)."""
    if rng is None:
        raise DomainError("black-box conditional expectations need a generator")
    import numpy as np

    blocks = _dirichlet_blocks(with_counts(alpha, counts), F.mc_budget, rng)
    values = np.array([F.fn(tuple(d)) for block in blocks for d in block.tolist()], dtype=float)
    stderr = float(values.std(ddof=1) / np.sqrt(F.mc_budget)) if F.mc_budget > 1 else float("inf")
    return MCEstimate(float(values.mean()), stderr, F.mc_budget)


def functional_mean(F: Functional, alpha: DiscreteBaseMeasure, rng=None):
    return cond_exp_functional(F, alpha, (), rng)


def _product_sum(
    first: tuple, second: tuple, alpha: DiscreteBaseMeasure, counts: Sequence[int] | None = None
) -> tuple[int, int, bool]:
    """(N, Q, rounded) with E[F(D) G(D) | counts] = N / Q, for F and G given
    by their integer terms over one denominator (``SimplexPolynomial.scaled_terms``,
    ``_integral_terms``); ``counts`` defaults to none observed (the prior).

    The numerators multiply on ints, and one ladder sum at the counts takes
    the moments of the product's terms; no product polynomial is built.
    When both factors are the same object (a square, E[F(D)^2]) the T
    terms form T(T+1)/2 unordered pairs, each off-diagonal one counted
    twice: the same integer sums as the T^2 ordered pairs.
    """
    (f_terms, f_lead, f_rounded), (g_terms, g_lead, g_rounded) = first, second
    product: dict[tuple[int, ...], int] = {}
    if first is second:
        f_terms = list(f_terms)
        for i, (e1, c1) in enumerate(f_terms):
            key = tuple(map(add, e1, e1))
            product[key] = product.get(key, 0) + c1 * c1
            double = 2 * c1
            for e2, c2 in f_terms[i + 1 :]:
                key = tuple(map(add, e1, e2))
                product[key] = product.get(key, 0) + double * c2
    else:
        for e1, c1 in f_terms:
            for e2, c2 in g_terms:
                key = tuple(map(add, e1, e2))
                product[key] = product.get(key, 0) + c1 * c2
    num, den = alpha.moment_ladder.posterior_sum(product.items(), counts or (0,) * alpha.atoms)
    return num, den * f_lead * g_lead, f_rounded or g_rounded


def variance_functional(F: SimplexPolynomial, alpha: DiscreteBaseMeasure) -> Scalar:
    """Var F(D), exactly, via first and second moments of the masses.

    Both moments are integer ladder sums and the variance is one Fraction
    (``variance_ratio``).  A float coefficient is read as its exact image
    and the variance rounded once, to a float.
    """
    if not isinstance(F, SimplexPolynomial):
        raise DomainError("exact variance needs a polynomial functional")
    terms, lead, rounded = F.scaled_terms
    second, second_den, _ = _product_sum(F.scaled_terms, F.scaled_terms, alpha)
    num, den = alpha.moment_ladder.posterior_sum(terms, (0,) * alpha.atoms)
    variance = variance_ratio((num, den * lead), (second, second_den))
    return ratio(variance.numerator, variance.denominator, rounded)


# ---------------------------------------------------------------------------
# multiple integrals


def multiple_integral(h: SymmetricKernel, point: Sequence[Scalar]) -> Scalar:
    """Integral of h against the n-fold product of a fixed mass vector:
    sum_m h(m)·mult(m)·prod_j point_j^{m_j}."""
    if len(point) != h.atoms:
        raise DomainError(f"expected {h.atoms} masses, got {len(point)}")
    return h.to_polynomial().evaluate(tuple(point))


def _urn_mean(alpha: DiscreteBaseMeasure, *kernels: SymmetricKernel) -> Scalar:
    """E[prod of the kernels at (X_1..X_n)] under the urn law, for kernels
    of one order n.

    P(a) = mult(a) E[D^a] = W(a) / S(n) for a vector a of the order-n
    lattice layer (``MomentLadder.urn_weights``, cached per order), so with
    each kernel's values over their common denominator (its cached
    ``numerators``) this is one integer dot product.  A float value is
    read as its exact image and the result is rounded once.
    """
    weights, total = alpha.moment_ladder.urn_weights(kernels[0].order)
    scale, rounded = 1, False
    for h in kernels:
        nums, den, h_rounded = h.numerators
        weights = [w * v for w, v in zip(weights, nums)]
        scale, rounded = scale * den, rounded or h_rounded
    return ratio(sum(weights), total * scale, rounded)


def expectation_of_integral(h: SymmetricKernel, alpha: DiscreteBaseMeasure) -> Scalar:
    """E[integral of h dD^n] = E[h(X_1..X_n)] under the urn law."""
    if h.atoms != alpha.atoms:
        raise DomainError("kernel and measure disagree on the atom count")
    return _urn_mean(alpha, h)


def statistic_product_mean(
    h: SymmetricKernel, f: SymmetricKernel, alpha: DiscreteBaseMeasure
) -> Scalar:
    """E[h(X_1..X_n)·f(X_1..X_n)] for same-order kernels, exactly."""
    if (h.order, h.atoms) != (f.order, f.atoms):
        raise DomainError("kernels must share order and atom count")
    if h.atoms != alpha.atoms:
        raise DomainError("kernels and measure disagree on the atom count")
    return _urn_mean(alpha, h, f)


# ---------------------------------------------------------------------------
# the decomposition


class ChaosDecomposition(Record):
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
        return {
            "mean": scalar_to_json(self.mean),
            "alpha": self.alpha.to_json(),
            "kernels": [k.to_json() for k in self.kernels],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ChaosDecomposition":
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
    rng: np.random.Generator | None = None,
) -> ChaosDecomposition:
    """Extract the decomposition kernels of F up to the given order.

    The weights are the closed-form limit coefficients theta(n, k) for
    |alpha|, read as cached integer rows (``coeffs._kernel_weights``): the
    projection conditions pin each row, so no other row is taken.

    For polynomial F of degree d, max_order >= d makes the decomposition
    exact: kernels beyond d come out identically zero.

    Every occupation vector mu with |mu| <= max_order is a sub-occupation,
    so every conditional mean E[F | mu] is needed.  For a polynomial F
    with coefficients c_e / L (``SimplexPolynomial.scaled_terms``) they
    come from one integer table, ``MomentLadder.posterior_table``:
    E[F | mu] = N(mu) / (D L) over one denominator for all mu, and the
    centred numerators N(mu) - N(0) feed the integer assembly
    ``subset_sum_assembly``, whose kernels keep their numerators: no
    Fraction is formed until a value is read.  A float coefficient
    is read as its exact image, and the mean and every kernel entry are
    rounded once, to floats.  A black box takes one conditional mean per
    vector, by size (the order in which it draws from ``rng``), and the
    centred means, over their common denominator, feed the same assembly.
    More than ``DEFAULT_ENUMERATION_CAP`` vectors, C(max_order + K, K),
    raise ResourceCapError before any mean is taken.
    """
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    atoms = _functional_atoms(F)
    if atoms != alpha.atoms:
        raise DomainError("functional and measure disagree on the atom count")
    _check_lattice(max_order, atoms)
    rows = _kernel_weights(alpha.total_mass, max_order)

    if isinstance(F, SimplexPolynomial):
        terms, lead, rounded = F.scaled_terms
        table, den = alpha.moment_ladder.posterior_table(terms, max_order)
        den *= lead
        centre = table[0][0]
        layers = [[x - centre for x in layer] for layer in table]
        mean: Scalar = ratio(centre, den, rounded)
    else:
        vectors = [occupation_vectors(n, atoms) for n in range(max_order + 1)]
        conds = [_black_box_mean(F, alpha, mu, rng).value for layer in vectors for mu in layer]
        mean = conds[0]
        nums, den, rounded = exact_numerators([c - mean for c in conds])
        column = iter(nums)
        layers = [list(islice(column, len(layer))) for layer in vectors]
    kernels = subset_sum_assembly(layers.__getitem__, den, rounded, rows, atoms)
    return ChaosDecomposition(alpha, mean, tuple(kernels.values()))


def _window_kernels(
    F: SimplexPolynomial, alpha: DiscreteBaseMeasure, N: int
) -> tuple[ChaosDecomposition, list[SymmetricKernel], bool]:
    """(chaos, shrunk, rounded): the chaos kernels h_s, up to d = max(deg F, 1),
    of F's exact image (``rounded``: a float coefficient was read), and the
    components of T = E[F | X_1..X_N], h_s·s!/(|alpha|+N)^(s) for s <= min(N, d),
    zero above (``ustat.best_symmetric_approx_oracle``): exact, rounded by the caller."""
    pairs, lead, rounded = F.scaled_terms
    if rounded:
        F = SimplexPolynomial(F.nvars, {e: Fraction(c, lead) for e, c in pairs})
    chaos = chaos_kernels(F, alpha, max(F.degree, 1))
    return chaos, _shrunk(chaos.kernels, N, alpha.total_mass), rounded


def _window_split(
    F: SimplexPolynomial, alpha: DiscreteBaseMeasure, N: int
) -> HoeffdingDecomposition:
    """The split of T(mu) = E[F(D) | mu] on N draws (``decompose --finite``): E F
    and the shrunk kernels.  It lists orders up to N, so the lattice cap comes first."""
    if F.nvars != alpha.atoms:
        raise DomainError("functional and measure disagree on the atom count")
    if N < 1:
        raise DomainError("the statistic must depend on at least one draw")
    _check_lattice(N, alpha.atoms)
    decomposition, shrunk, rounded = _window_kernels(F, alpha, N)
    return _from_components(alpha, N, decomposition.mean.as_integer_ratio(), shrunk, rounded)


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


class CovarianceResult(Record):
    exact: Scalar
    predicted: Scalar
    route: str


def _integral_terms(h: SymmetricKernel) -> tuple[list[tuple[tuple[int, ...], int]], int, bool]:
    """The integral of h against D^n, sum_a h(a) mult(a) D^a, as integer
    terms (a, mult(a) N(a)) over the denominator d of h's cached
    ``numerators`` N / d, with their ``rounded`` flag."""
    nums, den, rounded = h.numerators
    lattice = occupation_lattice(h.order, h.atoms)
    terms = [(a, m * x) for a, m, x in zip(lattice.vectors, lattice.multiplicities, nums) if x]
    return terms, den, rounded


def covariance_integrals(
    h: SymmetricKernel,
    f: SymmetricKernel,
    alpha: DiscreteBaseMeasure,
) -> CovarianceResult:
    """E[(integral of h dD^n)(integral of f dD^m)] two ways.

    ``exact`` comes from moment algebra on the product of the two
    integrals, on the kernels' integer numerators (a float value is read
    as its exact image and ``exact`` rounded once, to a float).  The
    prediction is the isometry form delta_{nm}·c(n)·E[h·f] when both
    kernels are degenerate (``degenerate_check`` at most 1e-12); otherwise
    both are routed through their finite-sample orthogonal components:
    E[h]E[f] + sum_s C(n,s)C(m,s)·c(s)·E[phi_h^(s)·phi_f^(s)].
    """
    if h.atoms != alpha.atoms or f.atoms != alpha.atoms:
        raise DomainError("kernels and measure disagree on the atom count")
    exact_val = ratio(*_product_sum(_integral_terms(h), _integral_terms(f), alpha))
    mass = alpha.total_mass
    h_degen = degenerate_check(h, alpha) <= 1e-12
    f_degen = degenerate_check(f, alpha) <= 1e-12
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
    H: SymmetricKernel, alpha: DiscreteBaseMeasure
) -> list[PredictableComponent]:
    """Telescoping components g_n(x_1..x_n) = E[H|x_1..x_n] - E[H|x_1..x_{n-1}].

    These are *not* symmetric in their last argument and the induced
    integrals are not mutually orthogonal — they are produced for contrast
    with the symmetric decomposition. The defining identity
    E[H|D] = E[H] + sum_n (integral of g_n against D^n) holds as a
    polynomial identity on the simplex.

    The conditional means are the finite split's backward lattice pass
    (``hoeffding._conditional_layers``), all over one denominator, so each
    entry is one ratio of an integer difference: exact for rational values,
    and for a float value rounded once.  More than
    ``DEFAULT_ENUMERATION_CAP`` lattice vectors, C(N + K, K), raise
    ResourceCapError before any layer is built.
    """
    if H.atoms != alpha.atoms:
        raise DomainError("statistic and measure disagree on the atom count")
    layers, den, rounded = _conditional_layers(H, alpha)
    components = []
    for n in range(1, H.order + 1):
        lower, upper = layers[n - 1], layers[n]
        lattice = occupation_lattice(n - 1, H.atoms)
        table: dict[tuple[tuple[int, ...], int], Scalar] = {}
        for hist, base, ranks in zip(lattice.vectors, lower, lattice.up):
            for atom, rank in enumerate(ranks, start=1):
                table[(hist, atom)] = ratio(upper[rank] - base, den, rounded)
        components.append(PredictableComponent(n, H.atoms, table))
    return components
