"""Orthogonal decompositions of Dirichlet-process functionals on finite support.

The package decomposes square-integrable functionals of a Dirichlet
random measure over atoms {1..K} into a mean plus mutually orthogonal
multiple integrals of degenerate symmetric kernels, with exact rational
arithmetic wherever the inputs are rational.  Highlights:

- ``measures`` / ``polya``: base measures, Dirichlet moments, and the
  exchangeable urn view of sampling (joint laws, predictive rules,
  conditional expectations by exact enumeration).
- ``coeffs``: the finite-sample projection coefficient tables and their
  limits, and the isometry/overlap constants, all in closed form.
- ``chaos``: kernel extraction, multiple integrals, reconstruction,
  covariance identities, Parseval accounting.
- ``hoeffding``: the finite-sample orthogonal split of a symmetric
  statistic and degeneracy checks.
- ``jacobi``: the two-atom specialization where order-n kernels collapse
  to classical orthonormal polynomials of a Beta weight.
- ``wright_fisher``: stationary-orthogonal expansions of a diffusion
  transition density with truncation-tail bounds.
- ``bayes``: conditional-variance estimation from observed labels and
  the exponential worked example.
- ``ustat``: windowed U-statistics and their exact L² rate, the projection
  oracle, the scaled-kernel candidate, and their loss comparison.
- ``validation``: the oracles that check those closed forms (the
  extrapolated limits ``theta_limit``, the two-point projection oracle,
  the overlap enumeration), the coefficient erratum report and a named
  invariant suite; ``cli``: the ``dfchaos`` command.

The package namespace is lazy (PEP 562): ``import dfchaos`` loads no
submodule, and each public name in ``__all__`` imports its defining module
on first access and is then cached here.  A command-line process therefore
loads only what its subcommand runs; numpy is imported only by the Monte
Carlo paths (``ustat``, the ``verify`` window check, black-box functionals).
"""

import importlib

__version__ = "0.1.0"

# Public name table, grouped by defining module, in ``__all__`` order.
_EXPORTS = {
    "errors": (
        "DEFAULT_ENUMERATION_CAP",
        "DFChaosError",
        "DomainError",
        "NumericError",
        "ConvergenceError",
        "ResourceCapError",
        "SingularSystemError",
    ),
    "measures": (
        "DiscreteBaseMeasure",
        "measure",
        "with_observations",
        "with_counts",
        "dirichlet_moment",
        "sample_dirichlet",
    ),
    "kernels": (
        "SymmetricKernel",
        "SimplexPolynomial",
        "PredictableComponent",
    ),
    "polya": (
        "PolyaSample",
        "polya_joint_prob",
        "occupation_prob",
        "predictive",
        "sample_polya",
        "empirical_measure",
        "cond_exp_statistic",
        "cond_exp_statistic_counts",
        "expectation_statistic",
    ),
    "coeffs": (
        "CoefficientTable",
        "theta_table",
        "system_residuals",
        "limit_coefficient",
        "limit_coefficients",
        "c_iso",
        "c_overlap",
    ),
    "hoeffding": (
        "HoeffdingDecomposition",
        "hoeffding_decompose",
        "degenerate_check",
        "degenerate_basis",
    ),
    "chaos": (
        "BlackBoxFunctional",
        "MCEstimate",
        "ChaosDecomposition",
        "chaos_kernels",
        "multiple_integral",
        "reconstruct",
        "variance_from_decomposition",
        "variance_functional",
        "functional_mean",
        "cond_exp_functional",
        "CovarianceResult",
        "covariance_integrals",
        "martingale_decomposition",
    ),
    "jacobi": (
        "MAX_JACOBI_ORDER",
        "BetaParams",
        "PolynomialCoeffs",
        "jacobi_modified",
        "jacobi_inner",
        "jacobi_norm_identity",
        "beta_bernstein",
        "solve_phi_system",
        "kernel_to_univariate",
    ),
    "wright_fisher": (
        "TransitionModel",
        "TransitionDensity",
        "dirichlet_density",
        "gram_schmidt_P",
        "rho",
        "kernel_Q",
        "q_polynomial",
        "transition_density",
    ),
    "bayes": (
        "ObservedSample",
        "estimate_conditional_variance",
        "ExponentialDecomposition",
        "decompose_exponential",
        "mass_kernel",
    ),
    "ustat": (
        "UStatistic",
        "eval_ustat",
        "statistic_from_kernels",
        "direct_loss",
        "mc_loss",
        "ustat_mse",
        "OracleApproximation",
        "best_symmetric_approx_oracle",
        "ScaledKernelCandidate",
        "scaled_kernel_candidate",
        "ApproximationReport",
        "approximation_report",
    ),
    "validation": (
        "ThetaLimit",
        "theta_limit",
        "ThetaErratumReport",
        "theta_erratum_report",
        "CheckResult",
        "VerificationResult",
        "run_verification",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes without an explicit import, as before.
_SUBMODULES = frozenset(_EXPORTS) | {"numeric"}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
