"""Numerical laboratory for Bayesian estimation in the indirect Gaussian
sequence space model.

Observations follow ``Y_j = lambda_j * theta_j + sqrt(eps) * xi_j`` with a
known multiplier sequence ``lambda`` and noise level ``eps``.  The package
provides the conjugate per-coordinate posterior calculus, sieve (truncated
Gaussian) priors with their fixed-dimension, oracle and minimax Bayes
estimators, a hierarchical prior on the truncation dimension yielding a
fully data-driven shrinkage estimator, and a seeded Monte Carlo harness
that audits the finite-sample concentration bounds and risk rates behind
those estimators.
"""

from .hierarchy import (
    AdaptiveEstimate,
    DimensionDistribution,
    ImproperPriorError,
    adaptive_estimate,
    dimension_posterior,
    dimension_prior,
    sample_hierarchical_posterior,
)
from .montecarlo import (
    MCEstimate,
    RateReport,
    RateTheory,
    SieveDeviationAudit,
    TailBoundAudit,
    TailBoundConfig,
    audit_tail_bounds,
    mc_bracket_mass,
    mc_concentration,
    mc_mise,
    mc_mise_profile,
    mc_sieve_deviation,
    random_tail_suite,
    rate_regression,
    theoretical_exponent,
)
from .posterior import (
    PosteriorSummary,
    PriorSpec,
    coordinate_posterior,
    log_variance_ratio,
    posterior_variances,
    sample_sieve_posterior,
    sieve_posterior_mean,
)
from .rng import stream
from .selection import (
    AssumptionReport,
    InfeasibleError,
    RiskDecomposition,
    SelectionResult,
    bias_profile,
    bracket_dimensions,
    check_assumptions,
    composite_constants,
    max_dimension,
    minimax_dimension,
    oracle_dimension,
    risk_decomposition,
    shift_sq_norm,
)
from .sequences import (
    Observation,
    OperatorSequence,
    ParameterSequence,
    WeightedClass,
    load_values_csv,
    make_operator,
    make_parameters,
    make_weights,
    simulate_observation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sequences and model
    "OperatorSequence",
    "ParameterSequence",
    "WeightedClass",
    "Observation",
    "make_operator",
    "make_parameters",
    "make_weights",
    "simulate_observation",
    "load_values_csv",
    "stream",
    # conjugate posterior
    "PriorSpec",
    "PosteriorSummary",
    "coordinate_posterior",
    "posterior_variances",
    "sieve_posterior_mean",
    "sample_sieve_posterior",
    "log_variance_ratio",
    # dimension selection
    "RiskDecomposition",
    "SelectionResult",
    "AssumptionReport",
    "InfeasibleError",
    "bias_profile",
    "risk_decomposition",
    "oracle_dimension",
    "minimax_dimension",
    "max_dimension",
    "bracket_dimensions",
    "check_assumptions",
    "composite_constants",
    "shift_sq_norm",
    # hierarchical layer
    "DimensionDistribution",
    "AdaptiveEstimate",
    "ImproperPriorError",
    "dimension_prior",
    "dimension_posterior",
    "adaptive_estimate",
    "sample_hierarchical_posterior",
    # Monte Carlo harness
    "TailBoundConfig",
    "TailBoundAudit",
    "MCEstimate",
    "SieveDeviationAudit",
    "RateTheory",
    "RateReport",
    "audit_tail_bounds",
    "random_tail_suite",
    "mc_mise",
    "mc_mise_profile",
    "mc_concentration",
    "mc_sieve_deviation",
    "mc_bracket_mass",
    "rate_regression",
    "theoretical_exponent",
]
