"""Windowed U-statistics, the projection oracle, and the scaled candidate."""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dfchaos import ustat
from dfchaos.chaos import (
    chaos_kernels,
    functional_mean,
    multiple_integral,
    statistic_product_mean,
    variance_functional,
)
from dfchaos.coeffs import c_iso
from dfchaos.errors import DomainError, ResourceCapError
from dfchaos.hoeffding import degenerate_basis
from dfchaos.kernels import SimplexPolynomial, SymmetricKernel
from dfchaos.measures import measure
from dfchaos.numeric import binom, occupation_vectors
from dfchaos.ustat import (
    MC_BLOCK,
    UStatistic,
    _evaluate_floats,
    _occupation_rank,
    approximation_report,
    best_symmetric_approx_oracle,
    candidate_error_formula,
    eval_ustat,
    eval_ustat_counts,
    mc_loss,
    scaled_kernel_candidate,
    statistic_from_kernels,
    ustat_mse,
)
from dfchaos.validation import direct_loss

UNIFORM = measure(1, 1)
SQUARED_MASS = SimplexPolynomial.monomial(2, (2, 0))


def test_eval_ustat_counts_hand_value():
    h = SymmetricKernel(
        2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
    )
    # window (2,1): subsets {11}:ways 1 -> h(2,0); {12}:ways 2 -> h(1,1)
    assert eval_ustat_counts(h, 3, (2, 1)) == Fraction(1 * 1 + 2 * (-2), 3)
    with pytest.raises(DomainError):
        eval_ustat_counts(h, 3, (1, 1))


def test_eval_ustat_counts_refuses_a_window_shorter_than_the_kernel():
    # C(window, 2) = 0 was a ZeroDivisionError
    h2 = degenerate_basis(UNIFORM, 2)[0]
    for window, counts in ((1, (1, 0)), (0, (0, 0))):
        with pytest.raises(DomainError, match="shorter than kernel order"):
            eval_ustat_counts(h2, window, counts)


def test_eval_ustat_counts_refuses_negative_counts():
    # (-1, 3) fills a window of 2 but is no occupation; it read as 0
    h2 = degenerate_basis(UNIFORM, 2)[0]
    with pytest.raises(DomainError, match="non-negative"):
        eval_ustat_counts(h2, 2, (-1, 3))


def test_eval_ustat_counts_keeps_an_all_zero_exact_sum_exact():
    # every sub-occupation of (1, 2) has value 0; an int 0 / C(3, 2) was the float 0.0
    kernel = SymmetricKernel(2, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 0})
    value = eval_ustat_counts(kernel, 3, (1, 2))
    assert value == 0 and isinstance(value, Fraction)


def test_eval_ustat_uses_window_prefix():
    h = SymmetricKernel(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    u = UStatistic(h, 2)
    assert eval_ustat(u, (1, 2, 1, 1)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        eval_ustat(u, (1,))


def test_statistic_from_kernels_is_subset_sum():
    h1 = SymmetricKernel(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    S = statistic_from_kernels({1: h1}, 2, 2)
    assert S.value((2, 0)) == 2
    assert S.value((1, 1)) == 0
    assert S.value((0, 2)) == -2


def test_frozen_losses_window_one_and_two():
    for window, oracle_loss, candidate_loss in (
        (1, Fraction(11, 180), Fraction(31, 180)),
        (2, Fraction(7, 150), Fraction(2, 15)),
    ):
        oracle = best_symmetric_approx_oracle(SQUARED_MASS, UNIFORM, window)
        assert oracle.loss == oracle_loss
        assert direct_loss(oracle.kernels(), SQUARED_MASS, UNIFORM, window) == oracle_loss
        candidate = scaled_kernel_candidate(SQUARED_MASS, UNIFORM, window)
        assert (
            direct_loss(candidate.kernels, SQUARED_MASS, UNIFORM, window)
            == candidate_loss
        )


def test_oracle_at_eight_atoms_and_window_forty_builds_no_lattice():
    # the split would hold C(48, 8) ~ 3.8e8 lattice vectors; the closed form
    # shrinks F's kernels by s!/(|alpha|+N)^(s), and its loss is Var F less
    # Var T = sum_s c_s^2 E[U_N(h_s)^2], E[U_N^2] = E[I_s^2] + ustat_mse
    atoms, window = 8, 40
    alpha = measure(*([1, "1/2"] * 4))
    F = SimplexPolynomial(
        atoms,
        {
            (1, 1) + (0,) * 6: Fraction(2),
            (0,) * 7 + (3,): Fraction(-1, 3),
            (0, 0, 1) + (0,) * 5: Fraction(1, 5),
        },
    )
    started = time.perf_counter()
    oracle = best_symmetric_approx_oracle(F, alpha, window)
    assert time.perf_counter() - started < 1.0
    mass = alpha.total_mass
    kernels = chaos_kernels(F, alpha, 3).kernels
    assert len(oracle.components) == len(kernels) == 3
    variance_t = Fraction(0)
    for s, (h, component) in enumerate(zip(kernels, oracle.components), start=1):
        rising = math.prod(mass + window + j for j in range(s))
        assert component == h.scale(math.factorial(s) / rising)
        c = math.perm(window, s) / rising
        energy = c_iso(s, mass) * statistic_product_mean(h, h, alpha)
        variance_t += c * c * (energy + ustat_mse(h, alpha, window))
    assert oracle.loss == variance_functional(F, alpha) - variance_t
    assert 0 < oracle.loss < variance_functional(F, alpha)


def test_candidate_error_formula_frozen_values():
    decomposition = chaos_kernels(SQUARED_MASS, UNIFORM, 2)
    from dfchaos.chaos import statistic_product_mean

    seconds = {
        n: statistic_product_mean(
            decomposition.kernel(n), decomposition.kernel(n), UNIFORM
        )
        for n in (1, 2)
    }
    assert candidate_error_formula(seconds, 2, 1, "reduced") == Fraction(-29, 180)
    assert candidate_error_formula(seconds, 2, 1, "full") == Fraction(4, 45)
    assert candidate_error_formula(seconds, 2, 2, "reduced") == Fraction(-2, 15)
    assert candidate_error_formula(seconds, 2, 2, "full") == Fraction(17, 360)


def test_mc_loss_confirms_enumeration():
    rng = np.random.default_rng(424242)
    oracle = best_symmetric_approx_oracle(SQUARED_MASS, UNIFORM, 2)
    estimate = mc_loss(oracle.kernels(), SQUARED_MASS, UNIFORM, 2, 20_000, rng)
    assert estimate.value == pytest.approx(float(oracle.loss), abs=4 * estimate.stderr)


def test_mc_loss_matches_the_per_draw_reference():
    # the per-replication loop the batched layer replaced, fed the same
    # block-wise stream; reps spills one partial block past MC_BLOCK
    alpha = measure("1/2", 1, "3/2")
    F = SimplexPolynomial(
        3, {(2, 0, 0): Fraction(1), (1, 1, 1): Fraction(-3, 2), (0, 0, 1): Fraction(1, 3)}
    )
    window = 3
    kernels = scaled_kernel_candidate(F, alpha, window).kernels
    reps = MC_BLOCK + 3
    estimate = mc_loss(kernels, F, alpha, window, reps, np.random.default_rng(5))

    rng = np.random.default_rng(5)
    statistic = statistic_from_kernels(kernels, window, alpha.atoms)
    mean = float(functional_mean(F, alpha))
    draws = []
    for start in range(0, reps, MC_BLOCK):
        d = rng.dirichlet(alpha.as_floats(), size=min(MC_BLOCK, reps - start))
        for point, counts in zip(d, rng.multinomial(window, d)):
            f_val = float(F.evaluate(tuple(point)))
            s_val = float(statistic.value(tuple(int(c) for c in counts)))
            draws.append((f_val - mean - s_val) ** 2)
    assert len(draws) == estimate.draws == reps
    assert estimate.value == pytest.approx(np.mean(draws), rel=1e-12)
    assert estimate.stderr == pytest.approx(np.std(draws, ddof=1) / np.sqrt(reps), rel=1e-12)


@pytest.mark.parametrize("reps", [2, MC_BLOCK + 1])
def test_mc_loss_keeps_every_draw_of_a_partial_block(reps):
    oracle = best_symmetric_approx_oracle(SQUARED_MASS, UNIFORM, 2)
    estimate = mc_loss(oracle.kernels(), SQUARED_MASS, UNIFORM, 2, reps, np.random.default_rng(3))
    assert estimate.draws == reps
    assert np.isfinite(estimate.value) and np.isfinite(estimate.stderr)


@pytest.mark.parametrize("reps", [1, 0, -5])
def test_mc_loss_rejects_fewer_than_two_reps(reps):
    oracle = best_symmetric_approx_oracle(SQUARED_MASS, UNIFORM, 2)
    with pytest.raises(DomainError):
        mc_loss(oracle.kernels(), SQUARED_MASS, UNIFORM, 2, reps, np.random.default_rng(3))


def test_occupation_rank_follows_the_enumeration_order():
    shapes = [(atoms, window) for atoms in range(1, 6) for window in range(6)] + [(8, 8)]
    for atoms, window in shapes:
        vectors = np.array(list(occupation_vectors(window, atoms))).reshape(-1, atoms)
        assert _occupation_rank(vectors, window).tolist() == list(range(len(vectors)))


def test_mc_loss_eight_atoms_window_eight_stays_small():
    # 6435 occupation vectors, within direct_loss's cap; a dense table over
    # (window + 1)^K count vectors would hold 9^8 = 43M floats (344 MB)
    atoms = 8
    alpha = measure(*([1] * atoms))
    F = SimplexPolynomial.monomial(atoms, (1, 1) + (0,) * (atoms - 2))
    kernels = {1: SymmetricKernel.from_function(1, atoms, lambda c: Fraction(c[0]) - Fraction(1, 8))}
    started = time.perf_counter()
    estimate = mc_loss(kernels, F, alpha, 8, 64, np.random.default_rng(11))
    assert time.perf_counter() - started < 1.0
    assert estimate.draws == 64
    # memory does not depend on the kernel values, and tracing the exact
    # statistic's Fraction arithmetic would take seconds: measure with none
    tracemalloc.start()
    try:
        mc_loss({}, F, alpha, 8, 64, np.random.default_rng(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_report_exact_fields_match_recorded_digests():
    # SHA-256 of the report JSON without its Monte Carlo fields (canonical
    # form: sorted keys, no spaces) on the criterion-10 inputs, recorded from
    # the per-replication implementation: the batched layer changes only the
    # Monte Carlo fields
    recorded = {
        1: "fdbde1476bd86f84146dc9f6becfdcbd7be864b8b168c008fd3c0a7a6e2dfdd2",
        2: "62dfb787670a5b01d9bc20754bdf93d2979ef2d703cbbf912486dad4c07341ce",
    }
    for window, digest in recorded.items():
        rng = np.random.default_rng(1000 + window)
        payload = approximation_report(SQUARED_MASS, UNIFORM, window, rng=rng).to_json()
        for side in ("oracle", "candidate"):
            assert payload[side].pop("loss_mc")["draws"] == 20_000
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_for_a_constant_functional():
    constant = SimplexPolynomial.constant(2, Fraction(3, 7))
    report = approximation_report(constant, UNIFORM, 2, reps=100, rng=np.random.default_rng(1))
    assert report.candidate.kernels == {}
    assert report.oracle_loss_enumerated == report.candidate_loss_enumerated == 0
    assert report.candidate_loss_mc.value == 0.0


def test_report_without_monte_carlo_builds_no_window_statistic(monkeypatch):
    # both exact losses are closed forms in F's chaos energies: with rng None
    # the report enumerates no window and builds no order-N statistic
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route built a window statistic")

    monkeypatch.setattr(ustat, "statistic_from_kernels", refuse)
    for window, losses in (
        (1, (Fraction(11, 180), Fraction(31, 180))),
        (2, (Fraction(7, 150), Fraction(2, 15))),
    ):
        report = approximation_report(SQUARED_MASS, UNIFORM, window)
        assert (report.oracle_loss_enumerated, report.candidate_loss_enumerated) == losses
        assert report.oracle_loss_mc.draws == report.candidate_loss_mc.draws == 0


def test_report_optimality_and_discrepancy_records():
    rng = np.random.default_rng(7)
    report = approximation_report(SQUARED_MASS, UNIFORM, 2, reps=4000, rng=rng)
    assert report.oracle_loss_enumerated <= report.candidate_loss_enumerated
    assert report.oracle_loss_enumerated == Fraction(7, 150)
    # neither closed form reproduces the enumerated candidate loss; both
    # mismatches must be recorded rather than silently dropped
    assert len(report.discrepancies) == 2
    payload = report.to_json()
    assert payload["discrepancies"]
    assert payload["oracle"]["loss_enumerated"] == "7/150"


def test_mse_curve_halves_with_window_doubling():
    h = degenerate_basis(UNIFORM, 2)[0]
    ratio = ustat_mse(h, UNIFORM, 100) / ustat_mse(h, UNIFORM, 200)
    assert ratio == Fraction(40198, 19899)
    assert 1.4 <= ratio <= 3.0


def test_mse_is_the_enumerated_loss_of_the_scaled_kernel():
    # U_N = the subset sum of h / C(N, n), and a degenerate h integrates to mean 0
    alpha = measure("1/2", 1, "3/2")
    for n in (1, 2, 3):
        for h in degenerate_basis(alpha, n):
            for window in (n, n + 1, 7):
                scaled = {n: h.scale(Fraction(1, binom(window, n)))}
                assert ustat_mse(h, alpha, window) == direct_loss(
                    scaled, h.to_polynomial(), alpha, window
                )


def test_mse_of_a_float_kernel_is_its_exact_image_rounded_once():
    alpha = measure("1/2", 1, "3/2")
    h = degenerate_basis(alpha, 2)[1]
    floats = SymmetricKernel(2, 3, {mu: float(v) for mu, v in h.items()})
    image = SymmetricKernel(2, 3, {mu: Fraction(float(v)) for mu, v in h.items()})
    value = ustat_mse(floats, alpha, 5)
    assert type(value) is float
    assert value == float(ustat_mse(image, alpha, 5))


def test_mse_refuses_a_short_window_and_a_foreign_measure():
    h = degenerate_basis(UNIFORM, 2)[0]
    with pytest.raises(DomainError, match="shorter than kernel order"):
        ustat_mse(h, UNIFORM, 1)
    with pytest.raises(DomainError, match="atom count"):
        ustat_mse(h, measure(1, 1, 1), 4)


def test_mse_cap_refuses_before_any_term(monkeypatch):
    # order 5 on 12 atoms: the r = 0 term alone pairs C(16, 11)^2 = 19,079,424 triples
    def not_reached(*args, **kwargs):
        raise AssertionError("a term was built past the cap gate")

    monkeypatch.setattr(ustat, "_product_sum", not_reached)
    h = SymmetricKernel(5, 12, {(5,) + (0,) * 11: 1})
    with pytest.raises(ResourceCapError):
        ustat_mse(h, measure(*[1] * 12), 5)


def test_ustat_converges_to_multiple_integral():
    # along one growing sample, U_N(h) approaches the integral of h against
    # the limiting measure of that same trajectory
    rng = np.random.default_rng(5)
    h = degenerate_basis(UNIFORM, 2)[0]
    d = rng.dirichlet([1.0, 1.0])
    limit = float(
        multiple_integral(
            h, (Fraction(d[0]).limit_denominator(10**9), Fraction(d[1]).limit_denominator(10**9))
        )
    )
    counts = rng.multinomial(3000, d)
    value = float(eval_ustat_counts(h, 3000, tuple(int(c) for c in counts)))
    assert value == pytest.approx(limit, abs=0.15)
