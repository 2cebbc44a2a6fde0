"""Base measures, Dirichlet moments, posterior updates, sampling."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from dfchaos.errors import DomainError
from dfchaos.jacobi import BetaParams
from dfchaos.measures import (
    MC_BLOCK,
    DiscreteBaseMeasure,
    _dirichlet_blocks,
    dirichlet_moment,
    measure,
    sample_dirichlet,
    with_counts,
    with_observations,
)


def test_measure_constructor_and_accessors():
    alpha = measure(1, "1/2", 3)
    assert alpha.atoms == 3
    assert alpha.total_mass == Fraction(9, 2)
    assert alpha.weight(2) == Fraction(1, 2)
    assert alpha.mass_of((1, 3)) == 4
    assert alpha.mass_of((1, 1, 3)) == 4  # duplicates collapse


def test_measure_rejects_bad_weights():
    with pytest.raises(DomainError):
        measure(1, 0)
    with pytest.raises(DomainError):
        measure(-1, 2)
    with pytest.raises(DomainError):
        DiscreteBaseMeasure(())
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DomainError):
            measure(1.0, bad)


def test_every_weight_is_a_fraction():
    # a float weight is read once as its exact image Fraction(x)
    floats = measure(0.3, 1, "1/2", Fraction(2, 3))
    assert floats.weights == (Fraction(0.3), Fraction(1), Fraction(1, 2), Fraction(2, 3))
    measures = [
        floats,
        DiscreteBaseMeasure.from_json({"weights": [0.3, 1.5, "1/2", 2]}),
        with_observations(floats, (1, 3, 1)),
        with_counts(floats, (2, 0, 1, 0)),
        BetaParams(0.3, 1.5).as_measure(),
    ]
    for alpha in measures:
        assert all(type(w) is Fraction for w in alpha.weights)
        assert type(alpha.total_mass) is Fraction
    # a float weight serialises as its exact "p/q" image and round trips
    assert floats.to_json()["weights"][0] == "5404319552844595/18014398509481984"
    assert DiscreteBaseMeasure.from_json(floats.to_json()) == floats


@pytest.mark.parametrize("payload", [{"weights": 5}, {}, {"weights": ["x"]}, None, [1, 2]])
def test_a_malformed_measure_payload_is_a_domain_error(payload):
    with pytest.raises(DomainError, match="malformed measure JSON: "):
        DiscreteBaseMeasure.from_json(payload)


def test_measure_is_an_immutable_value():
    alpha = DiscreteBaseMeasure((1, Fraction(1, 2)))
    assert alpha == DiscreteBaseMeasure(weights=(Fraction(1), 0.5)) == measure(1, "1/2")
    assert alpha != measure(1, 2)
    assert (alpha == (Fraction(1), Fraction(1, 2))) is False
    assert hash(alpha) == hash(((Fraction(1), Fraction(1, 2)),))
    assert repr(alpha) == "DiscreteBaseMeasure(weights=(Fraction(1, 1), Fraction(1, 2)))"
    # the cached moment ladder is state outside the value
    assert alpha.moment_ladder.moment((1, 0)) == Fraction(2, 3)
    assert alpha == measure(1, "1/2") and hash(alpha) == hash(measure(1, "1/2"))
    with pytest.raises(AttributeError):
        alpha.weights = (Fraction(2),)
    with pytest.raises(AttributeError):
        alpha.label = "prior"
    with pytest.raises(AttributeError):
        del alpha.weights


def test_weight_label_range():
    alpha = measure(1, 1)
    with pytest.raises(DomainError):
        alpha.weight(0)
    with pytest.raises(DomainError):
        alpha.weight(3)


def test_json_round_trip():
    alpha = measure("3/2", "1/2")
    assert DiscreteBaseMeasure.from_json(alpha.to_json()) == alpha


def test_dirichlet_moment_closed_forms():
    # E[d1^2] under Dirichlet(1,1): rising(1,2)/rising(2,2) = 2/6
    assert dirichlet_moment(measure(1, 1), (2, 0)) == Fraction(1, 3)
    # E[d1 d2] under Dirichlet(2,1): 2*1/(3*4)
    assert dirichlet_moment(measure(2, 1), (1, 1)) == Fraction(1, 6)
    assert dirichlet_moment(measure(1, 1, 1), (0, 0, 0)) == 1


def test_dirichlet_moment_stays_exact_after_a_float_twin():
    dirichlet_moment(measure(0.25, 0.75), (2, 1))
    moment = dirichlet_moment(measure(Fraction(1, 4), Fraction(3, 4)), (2, 1))
    assert type(moment) is Fraction


def test_posterior_updates():
    alpha = measure(1, 1)
    assert with_observations(alpha, (1, 2, 1)).weights == (Fraction(3), Fraction(2))
    assert with_counts(alpha, (2, 1)).weights == (Fraction(3), Fraction(2))
    with pytest.raises(DomainError):
        with_observations(alpha, (3,))


def test_sample_dirichlet_moments():
    alpha = measure(2, 1)
    rng = np.random.default_rng(1234)
    draws = np.array([sample_dirichlet(alpha, rng) for _ in range(20_000)])
    assert np.allclose(draws.sum(axis=1), 1.0)
    # E[d1] = 2/3, Var[d1] = p(1-p)/(mass+1) = (2/9)/4
    p, var = 2 / 3, (2 / 9) / 4
    stderr = np.sqrt(var / draws.shape[0])
    assert abs(draws[:, 0].mean() - p) < 4 * stderr


@pytest.mark.parametrize("shape", [(1e-3, 1e-3), (1e-6, 1e-6, 1e-6)])
def test_tiny_dirichlet_shapes_give_finite_rows_on_the_simplex(shape):
    # the sampler keeps no redraw loop: numpy's own small-shape route must
    # already give finite rows summing to 1
    alpha = DiscreteBaseMeasure(shape)
    rng = np.random.default_rng(99)
    blocks = list(_dirichlet_blocks(alpha, 2 * MC_BLOCK + 5, rng))
    assert [len(b) for b in blocks] == [MC_BLOCK, MC_BLOCK, 5]
    single = np.array([sample_dirichlet(alpha, rng) for _ in range(500)])
    for draws in blocks + [single]:
        assert draws.shape[1] == len(shape)
        assert np.isfinite(draws).all() and (draws >= 0).all()
        assert np.abs(draws.sum(axis=1) - 1.0).max() <= 1e-12


def test_dirichlet_blocks_draw_lazily_one_call_per_block():
    alpha = measure(2, 1, "1/2")
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    blocks = _dirichlet_blocks(alpha, MC_BLOCK + 1, rng)
    assert rng.random() == reference.random()  # nothing drawn before a block is asked for
    first = next(blocks)
    assert np.array_equal(first, reference.dirichlet(alpha.as_floats(), size=MC_BLOCK))
    assert rng.random() == reference.random()
    assert np.array_equal(next(blocks), reference.dirichlet(alpha.as_floats(), size=1))
    assert next(blocks, None) is None
    with pytest.raises(DomainError):
        next(_dirichlet_blocks(alpha, 0, rng))
