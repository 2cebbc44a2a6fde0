"""Erratum report and the named verification suite."""

from __future__ import annotations

from fractions import Fraction

from dfchaos.measures import DiscreteBaseMeasure
from dfchaos.validation import (
    _check_exponential,
    mass_kernel_identities,
    run_verification,
    theta_erratum_report,
)


def test_erratum_report_is_definitive():
    report = theta_erratum_report(total_masses=(Fraction(1, 2), 2))
    assert len(report.entries) == 2
    for entry in report.entries:
        by_slot = {(c.order, c.slot): c for c in entry.comparisons}
        # recursion limit and oracle agree everywhere
        assert all(c.recursion_vs_oracle <= 1e-5 for c in entry.comparisons)
        # first-order value is shared by all three sources
        assert by_slot[(1, 1)].published_vs_oracle <= 1e-12
        # second-row tabulated values are far from both independent routes
        assert by_slot[(2, 1)].published_vs_oracle > 0.1
        assert by_slot[(2, 2)].published_vs_oracle > 0.1
        # the reconstruction arbiter settles which row is usable
        assert entry.reconstruction_residual_oracle <= 1e-12
        assert entry.reconstruction_residual_published > 1e-2
        assert "inconsistent" in entry.verdict
    payload = report.to_json()
    assert len(payload["entries"]) == 2


def test_quick_verification_all_green():
    result = run_verification(quick=True)
    failing = [c.name for c in result.checks if not c.passed]
    assert result.all_passed, f"failing checks: {failing}"
    assert len(result.checks) == 12
    names = {c.name for c in result.checks}
    assert "integral-isometry" in names
    assert "urn-law-suite" in names


def test_quick_verification_on_six_atoms_is_green():
    # the transition-density check builds the exact Gram-Schmidt oracle to
    # degree 3 in five free coordinates
    result = run_verification(DiscreteBaseMeasure((1,) * 6), quick=True)
    assert result.all_passed, [c.name for c in result.checks if not c.passed]
    names = {c.name for c in result.checks}
    assert "integral-isometry" in names
    assert "urn-law-suite" in names


def test_exponential_check_on_eight_float_atoms():
    # the full check once enumerated K^n label tuples (8^8 > the cap) and
    # demanded exact zeros of float weights; it now sums over occupation
    # vectors of the exact rational image, with at most 2000 per order
    alpha = DiscreteBaseMeasure(tuple(0.3 + 0.1 * i for i in range(8)))
    passed, detail = _check_exponential(alpha, quick=False)
    assert passed, detail
    assert "n <= 6" in detail


def test_mass_kernel_identities_are_exact_on_float_weights():
    alpha = DiscreteBaseMeasure((0.25, 1.5, 0.7))
    assert mass_kernel_identities(alpha, (1, 3), 5, (0.5, 0.25, 0.25)) == (0, 0, 0)
