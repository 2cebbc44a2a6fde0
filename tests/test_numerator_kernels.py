"""Kernels that keep their integer numerators, and the float band sums.

Every exact route builds its kernels from integer numerators over one
denominator (``SymmetricKernel._from_numerators``) and a ``Fraction`` is
formed only when a value is read.  Each such kernel is held here to its
twin built by the public constructor from the same values: equal values
of the same types, equal ``numerators``, ``is_zero`` and algebra, and
byte-equal JSON.  The float Gram-Schmidt band sums are held bit for bit to
the plain sum e(g) e(g') / ||e||^2 over ``TransitionModel.band``, and the
square's unordered-pair product sum to the ordered-pair sum.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfchaos.bayes as bayes_module
import dfchaos.chaos as chaos_module
from dfchaos.bayes import ObservedSample, estimate_conditional_variance, mass_kernel
from dfchaos.chaos import _product_sum, chaos_kernels, variance_functional
from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.hoeffding import hoeffding_decompose
from dfchaos.jacobi import BetaParams, solve_phi_system
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import DiscreteBaseMeasure
from dfchaos.numeric import occupation_vectors
from dfchaos.ustat import statistic_from_kernels
from dfchaos.wright_fisher import TransitionModel, dirichlet_density, rho, transition_density

MASSES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
FLOATS = st.floats(-4, 4)
EXAMPLES = settings(max_examples=15, deadline=None, database=None)


@st.composite
def measures(draw, max_atoms=3):
    atoms = draw(st.integers(1, max_atoms))
    return DiscreteBaseMeasure(tuple(draw(st.lists(MASSES, min_size=atoms, max_size=atoms))))


@st.composite
def polynomials(draw, atoms, values=FRACTIONS, max_degree=3):
    exponents = st.integers(0, max_degree).flatmap(
        lambda degree: st.sampled_from(list(occupation_vectors(degree, atoms)))
    )
    terms = draw(st.lists(st.tuples(exponents, values), max_size=4))
    return SimplexPolynomial(atoms, dict(terms))


@st.composite
def kernels(draw, atoms, order, values=FRACTIONS):
    domain = occupation_vectors(order, atoms)
    column = draw(st.lists(values, min_size=len(domain), max_size=len(domain)))
    return SymmetricKernel(order, atoms, dict(zip(domain, column)))


def twin(h):
    """The same values through the public constructor."""
    return SymmetricKernel(h.order, h.atoms, dict(h.values))


def dumps(h):
    return json.dumps(h.to_json())


def typed(h):
    return [(a, type(v), v) for a, v in h.values.items()]


def assert_same_kernel(got, want):
    assert got == want
    assert typed(got) == typed(want)
    assert got.numerators == want.numerators
    assert got.is_zero() == want.is_zero()
    assert dumps(got) == dumps(want)


def assert_twins(h, other):
    """h against its public twin, alone and in scale, add and sub with a
    kernel ``other`` of its shape (and with that kernel's twin)."""
    t = twin(h)
    assert_same_kernel(h, t)
    for factor in (2, Fraction(-3, 5), 0.5, 0):
        assert_same_kernel(h.scale(factor), t.scale(factor))
    for partner in (other, twin(other), h):
        assert_same_kernel(h.add(partner), t.add(twin(partner)))
        assert_same_kernel(h.sub(partner), t.sub(twin(partner)))
    assert h.sub(h).is_zero()
    clone = SymmetricKernel.from_json(json.loads(dumps(h)))
    assert clone == h and dumps(clone) == dumps(h)


@EXAMPLES
@given(alpha=measures(), data=st.data())
def test_every_exact_route_builds_the_kernel_of_its_values(alpha, data):
    atoms = alpha.atoms
    values = data.draw(st.sampled_from([FRACTIONS, st.one_of(FRACTIONS, FLOATS)]))
    F = data.draw(polynomials(atoms, values))
    built = list(chaos_kernels(F, alpha, max(F.degree, 1)).kernels)
    statistic = data.draw(kernels(atoms, data.draw(st.integers(1, 3)), values))
    split = hoeffding_decompose(statistic, alpha)
    built += [*split.components, *split.projections]
    orders = data.draw(st.sets(st.integers(1, 3), min_size=1))
    parts = {n: data.draw(kernels(atoms, n, values)) for n in orders}
    built.append(statistic_from_kernels(parts, data.draw(st.integers(1, 4)), atoms))
    psi = data.draw(st.lists(values, min_size=1, max_size=4))
    subset = data.draw(st.sets(st.integers(1, atoms), min_size=1))
    built.append(mass_kernel(atoms, sorted(subset), psi))
    if atoms == 2:
        params = BetaParams(data.draw(MASSES), data.draw(MASSES))
        built.append(solve_phi_system(data.draw(st.integers(0, 4)), params))
    built.append(SymmetricKernel.from_json(statistic.to_json()))
    for h in built:
        assert_twins(h, data.draw(kernels(h.atoms, h.order, values)))


def test_a_zero_kernel_from_numerators_is_zero_and_serialises_as_zeros():
    alpha = DiscreteBaseMeasure((Fraction(1, 2), Fraction(3, 2)))
    F = SimplexPolynomial(2, {(1, 0): Fraction(2, 3)})
    zero = chaos_kernels(F, alpha, 3).kernel(2)
    assert zero.is_zero() and zero.numerators == ((0, 0, 0), 1, False)
    assert [entry["value"] for entry in zero.to_json()["values"]] == ["0", "0", "0"]
    assert_twins(zero, zero)


def test_kernels_of_another_shape_are_refused():
    alpha = DiscreteBaseMeasure((Fraction(1, 2), Fraction(3, 2), Fraction(1)))
    F = SimplexPolynomial(3, {(2, 1, 0): Fraction(2, 3)})
    two, three = chaos_kernels(F, alpha, 3).kernels[1:]
    pair = DiscreteBaseMeasure((Fraction(1), Fraction(1)))
    wide = chaos_kernels(SimplexPolynomial(2, {(2, 0): 1}), pair, 2).kernel(2)
    for other in (three, wide, twin(three), twin(wide)):
        with pytest.raises(DomainError, match="share order and atom count"):
            two.add(other)


def test_a_sparse_payload_on_a_large_layer_is_read_as_listed():
    # order 30 on ten atoms: a layer of C(39, 9) = 211,915,132 vectors, two
    # listed; reading it, the cap gate of the estimate and a window statistic
    # that the kernel does not reach enumerate none of them
    ends = ([30] + [0] * 9, [0] * 9 + [30])
    payload = {"order": 30, "K": 10, "values": [{"counts": c, "value": "1/2"} for c in ends]}
    h = SymmetricKernel.from_json(payload)
    assert h == SymmetricKernel(30, 10, {tuple(c): Fraction(1, 2) for c in ends})
    sample = ObservedSample(DiscreteBaseMeasure((Fraction(1),) * 10), (1,))
    with pytest.raises(ResourceCapError):
        estimate_conditional_variance(h, sample)
    assert statistic_from_kernels({30: h}, 2, 10).is_zero()


def test_a_payload_is_dense_by_its_own_size_only():
    # a dense to_json payload is kept as numerators, one short of its layer is
    # read as listed, and no layer size larger than the payload is formed:
    # C(2 * 10**9 - 1, 10**9) and C(10**30 + 999, 999) are never computed
    h = SymmetricKernel(3, 3, {a: Fraction(i + 1, 7) for i, a in enumerate(occupation_vectors(3, 3))})
    clone = SymmetricKernel.from_json(h.to_json())
    assert type(clone) is not SymmetricKernel and clone == h
    short = h.to_json()
    short["values"].pop()
    assert type(SymmetricKernel.from_json(short)) is SymmetricKernel
    start = time.perf_counter()
    with pytest.raises(DomainError, match="wrong length"):
        SymmetricKernel.from_json({"order": 10**9, "K": 10**9, "values": [{"counts": [1], "value": 1}]})
    corner = [10**30] + [0] * 999
    wide = SymmetricKernel.from_json({"order": 10**30, "K": 1000, "values": [{"counts": corner, "value": 1}]})
    assert wide.values == {tuple(corner): 1}
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# float band sums


def band_sum(model, n, g, gp):
    """The oracle: sum of e(g) e(g') / ||e||^2 over the Gram-Schmidt band n."""
    total = 0
    for poly, norm_sq in model.band(n):
        total = total + poly.evaluate(g) * poly.evaluate(gp) / norm_sq
    return total


MODELS = {
    2: TransitionModel((Fraction(1), Fraction(1, 2)), 6),
    3: TransitionModel((Fraction(1), Fraction(1, 2), Fraction(1, 2)), 4),
    4: TransitionModel((Fraction(1, 2),) * 4, 2),
}


@st.composite
def interior_points(draw, dim, exact=False):
    weights = draw(st.lists(st.integers(1, 20), min_size=dim + 1, max_size=dim + 1))
    total = sum(weights)
    if exact:
        return tuple(Fraction(w, total) for w in weights[:dim])
    return tuple(w / total for w in weights[:dim])


@settings(max_examples=12, deadline=None, database=None)
@given(atoms=st.sampled_from(sorted(MODELS)), mixed=st.booleans(), data=st.data())
def test_float_band_sums_equal_the_band_oracle_bit_for_bit(atoms, mixed, data):
    model = MODELS[atoms]
    g = data.draw(interior_points(model.dim))
    gp = data.draw(interior_points(model.dim, exact=mixed))
    t = data.draw(st.sampled_from([0.05, 0.3, 1.0]))
    density = transition_density(model, t, g, gp)
    total = model.theta.total_mass
    for (n, decay, q, term), want in zip(
        density.contributions, [band_sum(model, n, g, gp) for n in range(1, model.M + 1)],
        strict=True,
    ):
        assert q.hex() == float(want).hex()
        assert decay == rho(n, t, total) and term == decay * q
    top = model.M + 1
    diag = float(band_sum(model, top, g, g)) * float(band_sum(model, top, gp, gp))
    tail = dirichlet_density(model.theta, g) * rho(top, t, total) * math.sqrt(max(diag, 0.0))
    assert density.tail_bound.hex() == tail.hex()


# ---------------------------------------------------------------------------
# the square's product sum


def ordered_product_sum(first, second, alpha):
    """E[F G] as (N, Q, rounded) from all T_F T_G ordered pairs of terms."""
    (f_terms, f_lead, f_rounded), (g_terms, g_lead, g_rounded) = first, second
    product = {}
    for e1, c1 in f_terms:
        for e2, c2 in g_terms:
            key = tuple(a + b for a, b in zip(e1, e2))
            product[key] = product.get(key, 0) + c1 * c2
    num, den = alpha.moment_ladder.posterior_sum(product.items(), (0,) * alpha.atoms)
    return num, den * f_lead * g_lead, f_rounded or g_rounded


@EXAMPLES
@given(alpha=measures(), data=st.data())
def test_the_square_sums_unordered_pairs_to_the_ordered_sum(alpha, data):
    values = st.one_of(FRACTIONS, FLOATS)
    F = data.draw(polynomials(alpha.atoms, values, max_degree=4))
    terms = F.scaled_terms
    assert _product_sum(terms, terms, alpha) == ordered_product_sum(terms, terms, alpha)
    h = data.draw(kernels(alpha.atoms, data.draw(st.integers(1, 3)), values))
    labels = data.draw(st.lists(st.integers(1, alpha.atoms), max_size=3))
    sample = ObservedSample(alpha, tuple(labels))
    variance, estimate = variance_functional(F, alpha), estimate_conditional_variance(h, sample)
    with (
        patch.object(chaos_module, "_product_sum", ordered_product_sum),
        patch.object(bayes_module, "_product_sum", ordered_product_sum),
    ):
        for got, want in (
            (variance, variance_functional(F, alpha)),
            (estimate, estimate_conditional_variance(h, sample)),
        ):
            assert type(got) is type(want) and got == want
