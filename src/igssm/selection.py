"""Dimension choice: risk decomposition, oracle and minimax truncation
levels, regularity diagnostics, and the sandwich brackets used by the
hierarchical posterior analysis.

For a sieve fit of dimension ``m`` the driving quantities are the squared
bias ``b_m = sum_{j>m} (theta_j - mu_j)^2`` and the variance proxy
``eps * sum_{j<=m} lambda_j^{-2}``; the rate of dimension ``m`` is their
maximum, and the oracle/minimax dimensions are smallest minimisers of that
rate (with the class weights ``w_m`` replacing the bias in the minimax
case).  All scans run over the stored range ``1..N`` and biases carry the
analytic tail of the signal family beyond ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .posterior import PriorSpec, posterior_variances
from .sequences import OperatorSequence, ParameterSequence, WeightedClass, _check_eps, _readonly

__all__ = [
    "RiskDecomposition",
    "SelectionResult",
    "AssumptionReport",
    "InfeasibleError",
    "risk_decomposition",
    "bias_profile",
    "oracle_dimension",
    "minimax_dimension",
    "max_dimension",
    "bracket_dimensions",
    "check_assumptions",
    "composite_constants",
    "shift_sq_norm",
]

# relative slack for boundary comparisons done in log space; keeps exact
# mathematical equalities (e.g. eps * m^{2a} == 1 on decimal grids) from
# flipping on the last floating-point bit
_LOG_TOL = 1e-9


class InfeasibleError(RuntimeError):
    """The requested construction needs a dimension beyond the search range."""


def _floor_inv(eps: float) -> int:
    return int(math.floor(1.0 / eps + _LOG_TOL))


# ---------------------------------------------------------------------------
# risk decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskDecomposition:
    """Deterministic risk ingredients of the sieve fit of dimension ``m``."""

    m: int
    bias: float            # sum_{j>m} (theta_j - mu_j)^2, analytic tail included
    variance_proxy: float  # eps * sum_{j<=m} lambda_j^{-2}
    post_var_sum: float    # sum_{j<=m} post_var_j
    post_var_max: float    # max_{j<=m} post_var_j
    shift: float           # sum_{j<=m} (post_var_j / v_j)^2 (mu_j - theta_j)^2
    rate: float            # max(bias, variance_proxy)


def bias_profile(theta: ParameterSequence, prior: PriorSpec) -> np.ndarray:
    """``b_m`` for ``m = 1..N``: squared bias of keeping ``m`` coordinates.

    Computed by reverse accumulation (no cancelling subtractions); the
    analytic tail of the signal family beyond ``N`` is added throughout,
    with the prior mean taken as zero past the stored range.  The result is
    read-only and computed once per (theta, prior): ``theta`` keeps the
    profile of the last prior it was asked about, and both are immutable.
    """
    if theta.n != prior.n:
        raise ValueError("signal and prior lengths must match")
    memo = theta.__dict__.get("_bias_memo")
    if memo is not None and memo[0] is prior:
        return memo[1]
    diffs = (theta.values - prior.means) ** 2
    suffix = np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]])
    profile = suffix[1:] + theta.sq_tail()
    profile.setflags(write=False)
    theta.__dict__["_bias_memo"] = (prior, profile)  # where cached_property keeps its values
    return profile


def risk_decomposition(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    m: int,
) -> RiskDecomposition:
    """All deterministic risk terms of the ``m``-dimensional sieve fit."""
    n = theta.n
    if not (prior.n == op.n == n):
        raise ValueError("signal, prior and operator lengths must match")
    if not 1 <= m <= n:
        raise ValueError(f"dimension m={m} outside 1..{n}")
    diffs_sq = (theta.values - prior.means) ** 2
    bias = float(np.sum(diffs_sq[m:])) + theta.sq_tail()
    variance_proxy = eps * op._amp_prefix_sum[m - 1]
    if not np.isfinite(variance_proxy):
        raise OverflowError(f"variance proxy overflows at m={m}")
    post_var = posterior_variances(prior.head(m), op.head(m), eps)
    shrink = np.zeros(m)
    proper = ~prior.improper[:m]
    if np.any(proper):
        v = prior.variances[:m][proper]
        lam_sq = op.values[:m][proper] ** 2
        shrink[proper] = eps / (v * lam_sq + eps)  # post_var / prior var, stably
    shift = float(np.sum(shrink**2 * diffs_sq[:m]))
    return RiskDecomposition(
        m=int(m),
        bias=bias,
        variance_proxy=float(variance_proxy),
        post_var_sum=float(np.sum(post_var)),
        post_var_max=float(np.max(post_var)),
        shift=shift,
        rate=float(max(bias, variance_proxy)),
    )


# ---------------------------------------------------------------------------
# dimension selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    """A selected truncation dimension and the rate value it attains."""

    dimension: int
    rate: float
    kind: str  # "oracle" | "minimax"
    eps: float


def _variance_proxy_profile(op: OperatorSequence, eps: float) -> np.ndarray:
    # entries past the representable range are +inf, which argmin ignores
    return eps * op._amp_prefix_sum


def _select(profile: np.ndarray, vprox: np.ndarray, kind: str, eps: float) -> SelectionResult:
    """Smallest minimiser of ``max(profile_m, vprox_m)``."""
    rates = np.maximum(profile, vprox)
    idx = int(np.argmin(rates))  # argmin takes the first minimiser
    return SelectionResult(idx + 1, float(rates[idx]), kind, float(eps))


def oracle_dimension(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
) -> SelectionResult:
    """Smallest minimiser of ``max(b_m, eps sum_{j<=m} lambda_j^{-2})``."""
    if not (theta.n == prior.n == op.n):
        raise ValueError("signal, prior and operator lengths must match")
    _check_eps(eps)
    return _select(bias_profile(theta, prior), _variance_proxy_profile(op, eps), "oracle", eps)


def minimax_dimension(
    weighted_class: WeightedClass,
    op: OperatorSequence,
    eps: float,
) -> SelectionResult:
    """Smallest minimiser of ``max(w_m, eps sum_{j<=m} lambda_j^{-2})``."""
    if weighted_class.n != op.n:
        raise ValueError("class and operator lengths must match")
    _check_eps(eps)
    return _select(weighted_class.weights, _variance_proxy_profile(op, eps), "minimax", eps)


def max_dimension(op: OperatorSequence, eps: float) -> int:
    """Largest ``m <= min(N, floor(1/eps))`` with ``eps * max_{j<=m}
    lambda_j^{-2} <= lambda_1^{-2}``; the search range of the hierarchical
    prior.  Never empty since ``eps <= 1``."""
    _check_eps(eps)
    cap = min(op.n, _floor_inv(eps))
    log_cummax = op._log_amp_cummax
    bound = -op.log_sq[0] - math.log(eps)
    bound += _LOG_TOL * max(1.0, abs(bound))
    m = int(np.searchsorted(log_cummax[:cap], bound, side="right"))
    return max(m, 1)


def bracket_dimensions(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    report: "AssumptionReport",
    sel: SelectionResult,
    weighted_class: WeightedClass | None = None,
    c_lambda: float | None = None,
) -> tuple[int, int]:
    """Sandwich ``(m_lo, m_hi)`` around the selected dimension ``sel`` at
    its noise level ``eps = sel.eps``.

    Oracle selection:

        m_lo = min{m <= m*       : b_m <= 8 L C (1 + 1/d) rate*}
        m_hi = max{m* <= m <= M  : m <= 5 L rate* / (eps max-amp(m*))}

    A minimax selection takes the class pair ``(m, rate)`` and scales both
    thresholds by ``max(1, radius)`` of ``weighted_class``.  ``c_lambda``
    defaults to the reported constant; pass the value actually used in the
    dimension prior when it was overridden, so the bracket and the
    posterior share one constant.  Raises :class:`InfeasibleError` when the
    selected dimension exceeds the search range ``M``.
    """
    inflate = 1.0
    if sel.kind == "minimax":
        if weighted_class is None:
            raise ValueError("minimax brackets need the weighted class")
        inflate = max(1.0, weighted_class.radius)
    eps, m_sel, rate = sel.eps, sel.dimension, sel.rate
    m_max = max_dimension(op, eps)
    if m_sel > m_max:
        raise InfeasibleError(
            f"selected dimension {m_sel} exceeds the search range {m_max} at eps={eps}"
        )
    d = report.d
    if c_lambda is None:
        c_lambda = report.c_lambda
    lo_threshold = 8.0 * report.l_lambda * c_lambda * (1.0 + 1.0 / d) * inflate * rate
    bias = bias_profile(theta, prior)[:m_sel]
    lo_candidates = np.nonzero(bias <= lo_threshold * (1.0 + _LOG_TOL))[0]
    if lo_candidates.size == 0:  # cannot happen under Assumption 3: b_{m_sel} <= 8...rate
        raise InfeasibleError("lower bracket set is empty; assumption constants are inconsistent")
    m_lo = int(lo_candidates[0]) + 1
    hi_threshold = 5.0 * report.l_lambda * inflate * rate / (eps * op.max_amplification(m_sel))
    m_hi = min(m_max, int(math.floor(hi_threshold + _LOG_TOL)))
    m_hi = max(m_hi, m_sel)
    return m_lo, m_hi


# ---------------------------------------------------------------------------
# regularity diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Computed regularity constants over a finite noise grid.

    ``d`` is the largest value making the prior-variance floor hold on the
    grid (``inf`` for fully improper priors); ``c_lambda``/``l_lambda`` are
    the smallest admissible operator constants over the stored range;
    ``kappa_oracle``/``kappa_minimax`` are grid infima in [0, 1];
    ``kappa_oracle`` is zero exactly when the signal matches the prior mean
    beyond some oracle dimension on the grid, while ``kappa_minimax`` is
    always positive.
    ``submultiplicative`` records whether the max-amplification is
    submultiplicative for every factor pair inside the range, with a witness
    pair when it is not.
    """

    d: float
    c_lambda: float
    l_lambda: float
    submultiplicative: bool
    submult_witness: tuple[int, int] | None
    kappa_oracle: float | None
    kappa_minimax: float | None
    eps_grid: np.ndarray
    max_dims: np.ndarray
    oracle_dims: np.ndarray
    oracle_rates: np.ndarray
    minimax_dims: np.ndarray | None
    minimax_rates: np.ndarray | None
    feasible: np.ndarray
    checked_range: int


def _log_cumsum_amp(op: OperatorSequence) -> np.ndarray:
    """``log sum_{j<=m} lambda_j^{-2}`` for every m, overflow-free."""
    return np.logaddexp.accumulate(op.log_amplification)


def _submultiplicative(op: OperatorSequence) -> tuple[bool, tuple[int, int] | None]:
    """Check ``max-amp(k*l) <= max-amp(k) * max-amp(l)`` for all ``k*l <= N``.

    Runs in log space so rapidly growing amplification cannot overflow, and
    only scans ``k <= l`` (the condition is symmetric).
    """
    log_cummax = op._log_amp_cummax
    n = op.n
    # k = 1 reduces to max-amp(1) >= 1, which fails whenever lambda_1 > 1
    if log_cummax[0] < -_LOG_TOL:
        return False, (1, 1)
    k_top = int(math.isqrt(n))
    for k in range(2, k_top + 1):
        top = n // k  # l runs over k..top
        lhs = log_cummax[k * k - 1 : k * top : k]
        rhs = log_cummax[k - 1] + log_cummax[k - 1 : top]
        bad = lhs > rhs + _LOG_TOL * np.maximum(1.0, np.abs(rhs))
        if np.any(bad):
            return False, (k, k + int(np.argmax(bad)))
    return True, None


def check_assumptions(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps_grid: np.ndarray,
    weighted_class: WeightedClass | None = None,
) -> AssumptionReport:
    """Evaluate every regularity constant on a finite noise grid.

    The infima defining ``d`` and the two kappas run over the supplied grid
    only; the operator constants scan the full stored range.
    """
    eps_grid = np.sort(np.asarray(eps_grid, dtype=np.float64))[::-1]
    if eps_grid.size == 0:
        raise ValueError("need at least one grid point")
    for eps in eps_grid:
        _check_eps(float(eps))
    n = op.n
    if not (theta.n == prior.n == n):
        raise ValueError("signal, prior and operator lengths must match")
    if weighted_class is not None and weighted_class.n != n:
        raise ValueError("class and operator lengths must match")

    log_amp = op.log_amplification
    # smallest C with  max_{j>k} lambda_j^2 <= C min_{j<=k} lambda_j^2
    log_sq = op.log_sq
    suffix_max = np.maximum.accumulate(log_sq[::-1])[::-1]
    prefix_min = np.minimum.accumulate(log_sq)
    c_lambda = 1.0
    if n > 1:
        c_lambda = max(1.0, float(np.exp(np.max(suffix_max[1:] - prefix_min[:-1]))))
    # smallest L with  max-amp(m) <= L * mean-amp(m)
    log_mean = _log_cumsum_amp(op) - np.log(np.arange(1, n + 1))
    l_lambda = max(1.0, float(np.exp(np.max(op._log_amp_cummax - log_mean))))
    submult, witness = _submultiplicative(op)

    bias = bias_profile(theta, prior)
    d = np.inf
    max_dims, oracle_dims, oracle_rates, feasible = [], [], [], []
    minimax_dims: list[int] = []
    minimax_rates: list[float] = []
    kappa_oracle = np.inf
    kappa_minimax = np.inf
    proper = ~prior.improper
    for eps in (float(e) for e in eps_grid):
        m_max = max_dimension(op, eps)
        max_dims.append(m_max)
        if np.any(proper[:m_max]):
            j = np.nonzero(proper[:m_max])[0]
            floor = np.maximum(
                np.exp(0.5 * (math.log(eps) + log_amp[j])),
                np.exp(math.log(eps) + log_amp[j]),
            )
            d = min(d, float(np.min(prior.variances[j] / floor)))
        vprox = _variance_proxy_profile(op, eps)
        sel = _select(bias, vprox, "oracle", eps)
        oracle_dims.append(sel.dimension)
        oracle_rates.append(sel.rate)
        feasible.append(sel.dimension <= m_max)
        kappa_oracle = min(
            kappa_oracle,
            min(bias[sel.dimension - 1], vprox[sel.dimension - 1]) / sel.rate,
        )
        if weighted_class is not None:
            mm = _select(weighted_class.weights, vprox, "minimax", eps)
            minimax_dims.append(mm.dimension)
            minimax_rates.append(mm.rate)
            kappa_minimax = min(
                kappa_minimax,
                min(weighted_class.weights[mm.dimension - 1], vprox[mm.dimension - 1]) / mm.rate,
            )

    has_class = weighted_class is not None
    return AssumptionReport(
        d=float(d),
        c_lambda=c_lambda,
        l_lambda=l_lambda,
        submultiplicative=submult,
        submult_witness=witness,
        kappa_oracle=float(min(kappa_oracle, 1.0)),
        kappa_minimax=float(min(kappa_minimax, 1.0)) if has_class else None,
        eps_grid=_readonly(eps_grid),
        max_dims=np.asarray(max_dims, dtype=np.int64),
        oracle_dims=np.asarray(oracle_dims, dtype=np.int64),
        oracle_rates=np.asarray(oracle_rates, dtype=np.float64),
        minimax_dims=np.asarray(minimax_dims, dtype=np.int64) if has_class else None,
        minimax_rates=np.asarray(minimax_rates, dtype=np.float64) if has_class else None,
        feasible=np.asarray(feasible, dtype=bool),
        checked_range=n,
    )


def shift_sq_norm(theta: ParameterSequence, prior: PriorSpec) -> float:
    """``sum_j (theta_j - mu_j)^2`` including the analytic tail beyond N."""
    if theta.n != prior.n:
        raise ValueError("signal and prior lengths must match")
    return float(np.sum((theta.values - prior.means) ** 2)) + theta.sq_tail()


def composite_constants(
    report: AssumptionReport,
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    weighted_class: WeightedClass | None = None,
    c_lambda: float | None = None,
) -> dict[str, float]:
    """Concentration/risk constants assembled from the reported quantities.

    All are derived fields, never free parameters:

    * ``oracle_sieve``        10 (1 + 1/d  v  |theta - mu|^2/d^2) L1,
      with L1 the grid supremum of eps m* max-amp(m*) / rate*;
    * ``minimax_sieve``       10 (1 + 1/d  v  r/d^2)(1 v r) L2 / kappa_mm,
      with L2 the analogous supremum along the minimax dimension;
    * ``oracle_hierarchical`` 10 (1 + 1/d  v  |theta - mu|^2/d^2) L^2
      (8C(1 + 1/d)  v  D1 max-amp(D1)),  D1 = ceil(5L / kappa_or)
      (threshold dimensions clamp to the sequence length, which is also
      their limit when the balance constant vanishes);
    * ``minimax_hierarchical``16 (1 + 1/d  v  r/d^2) L^2
      (8C(1 + 1/d)  v  D2 max-amp(D2)) (1 v r),  D2 = ceil(5L / kappa_mm);
    * ``oracle_adaptive_mise``    2L D1 max-amp(D1) + 16LC(1 + 1/d)
      + 2 |theta - mu|^2 / d^2;
    * ``minimax_adaptive_mise``   2L D3 max-amp(D3) + 16LC(1 + 1/d)(1 v r)
      + 2 r / d^2,  D3 = ceil(5L (1 v r) / kappa_mm).

    ``c_lambda`` defaults to the reported constant; pass the dimension-prior
    override when one is in force so every constant is assembled from the
    same C.
    """
    d = report.d
    inv_d = 0.0 if math.isinf(d) else 1.0 / d
    shift = shift_sq_norm(theta, prior)
    shift_term = 0.0 if math.isinf(d) else shift / d**2
    big_l = report.l_lambda
    big_c = report.c_lambda if c_lambda is None else c_lambda
    eps = report.eps_grid

    sup_oracle = float(
        np.max(
            [
                e * m * op.max_amplification(int(m)) / rate
                for e, m, rate in zip(eps, report.oracle_dims, report.oracle_rates)
            ]
        )
    )
    out: dict[str, float] = {}
    out["oracle_sieve"] = 10.0 * max(1.0 + inv_d, shift_term) * sup_oracle

    # zero oracle bias (theta == mu past the cut) sends the threshold to its clamp
    kappa_or = report.kappa_oracle
    d1 = op.n if kappa_or == 0.0 else _clamped_ceil(5.0 * big_l / kappa_or, op.n)
    out["oracle_hierarchical"] = (
        10.0
        * max(1.0 + inv_d, shift_term)
        * big_l**2
        * max(8.0 * big_c * (1.0 + inv_d), d1 * op.max_amplification(d1))
    )
    out["oracle_adaptive_mise"] = (
        2.0 * big_l * d1 * op.max_amplification(d1)
        + 16.0 * big_l * big_c * (1.0 + inv_d)
        + 2.0 * shift_term
    )

    if weighted_class is not None:
        r = weighted_class.radius
        r_term = 0.0 if math.isinf(d) else r / d**2
        r_or_one = max(1.0, r)
        kappa_mm = report.kappa_minimax
        sup_mm = float(
            np.max(
                [
                    e * m * op.max_amplification(int(m)) / rate
                    for e, m, rate in zip(eps, report.minimax_dims, report.minimax_rates)
                ]
            )
        )
        out["minimax_sieve"] = 10.0 * max(1.0 + inv_d, r_term) * r_or_one * sup_mm / kappa_mm
        d2 = _clamped_ceil(5.0 * big_l / kappa_mm, op.n)
        out["minimax_hierarchical"] = (
            16.0
            * max(1.0 + inv_d, r_term)
            * big_l**2
            * max(8.0 * big_c * (1.0 + inv_d), d2 * op.max_amplification(d2))
            * r_or_one
        )
        d3 = _clamped_ceil(5.0 * big_l * r_or_one / kappa_mm, op.n)
        out["minimax_adaptive_mise"] = (
            2.0 * big_l * d3 * op.max_amplification(d3)
            + 16.0 * big_l * big_c * (1.0 + inv_d) * r_or_one
            + 2.0 * r_term
        )
    return out


def _clamped_ceil(x: float, n: int) -> int:
    # clamp before rounding: a vanishing balance constant can make x infinite
    return max(1, int(math.ceil(min(x, n) - _LOG_TOL)))
