"""Monte Carlo harness: tail-bound audits, estimator risk, posterior
concentration, and rate regression.

Every routine draws through the package's counter-based streams with one
stream per replication, so results are reproducible and independent of
evaluation order.  The risk, concentration and bracket tasks share one
replication kernel.  It cuts the problem at the dimension the task needs,
simulates only that head, and computes everything that does not depend on
the data once per task: the signal ``lambda_j theta_j``, the posterior
variances and the affine map from data to posterior means.  A replication
then draws its noise, forms its posterior means and applies the task's
statistic, all in work arrays allocated once per block of replications.
The replications of one task are split into contiguous blocks, one per
worker thread (``IGSSM_THREADS``), and their statistics are put back in
replication order, so every result is the same for any thread count.

Tasks on the dimension posterior compute its log-weights over the whole
search range, where the data enter through the cumulative contrast, but
exponentiate only up to the posterior's mass end (see
:mod:`igssm.hierarchy`), a few hundred of up to 1e6 dimensions.  The
adaptive risk shrinks and scores only that head: past it the estimate is
the prior mean, whose squared error ``(mu_j - theta_j)^2`` is computed once
per task.  Both sums, of the masses and of the squared errors, run over
the whole cut, so every result is bit for bit the full-range one.

Squared distances between a draw and the truth are always split into the
simulated range plus the deterministic remainder (stored coordinates
beyond the fit plus the analytic family tail), so a truncated simulation
never silently drops bias mass.
Posterior draws are never padded here: sieve draws span exactly the cut,
hierarchical draws are scored on their first ``max(dims)`` columns, and
the prior-mean coordinates past those enter as one deterministic sum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ConfigError
from .hierarchy import (
    _check_log_weights,
    _dimension_penalty,
    _draw_hierarchical,
    _log_weights,
    _normalise,
    _outside_mass,
    _shrink,
)
from .posterior import (
    PriorSpec,
    _check_means,
    _check_variances,
    _mean_map,
    _MeanMap,
    _posterior_mean,
    _sieve_block,
    posterior_variances,
)
from .rng import AUDIT_DRAW, SUITE_GEN, stream
from .selection import (
    AssumptionReport,
    InfeasibleError,
    bias_profile,
    bracket_dimensions,
    max_dimension,
    minimax_dimension,
    oracle_dimension,
    risk_decomposition,
)
from .sequences import (
    OperatorSequence,
    ParameterSequence,
    WeightedClass,
    _observe,
    _readonly,
)

__all__ = [
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

_MIN_AUDIT_REPS = 10_000
_BATCH_ELEMENTS = 1 << 23  # cap on draws * dimension per simulation batch


def _max_workers() -> int:
    env = os.environ.get("IGSSM_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"IGSSM_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _parallel_map(fn, tasks):
    """Map preserving task order; serial when one worker suffices.  The
    only place the package starts threads."""
    workers = min(_max_workers(), max(len(tasks), 1))
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# quadratic-form tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundConfig:
    """A Gaussian quadratic form ``S = sum_j (shift_j + scale_j Z_j)^2``
    together with deviation scale ``c`` and envelopes.

    The envelopes must dominate the exact sums: ``var_bound >= sum scale^2``,
    ``max_bound >= max scale^2`` and ``shift_bound >= sum shift^2``; the
    audited deviation inequalities are stated in terms of the envelopes.
    """

    shifts: np.ndarray
    scales: np.ndarray
    c: float
    var_bound: float
    max_bound: float
    shift_bound: float

    def __post_init__(self) -> None:
        shifts = _readonly(self.shifts)
        scales = _readonly(self.scales)
        if shifts.ndim != 1 or shifts.shape != scales.shape or shifts.size == 0:
            raise ValueError("shifts and scales must be matching non-empty 1-d arrays")
        if not (np.all(np.isfinite(shifts)) and np.all(np.isfinite(scales))):
            raise ValueError("shifts and scales must be finite")
        if np.any(scales < 0.0):
            raise ValueError("scales must be non-negative")
        if not np.any(scales > 0.0):
            raise ValueError("at least one scale must be positive")
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("deviation scale c must be finite and >= 0")
        slack = 1.0 + 1e-12
        if self.var_bound * slack < float(np.sum(scales**2)):
            raise ValueError("var_bound must dominate sum of squared scales")
        if self.max_bound * slack < float(np.max(scales**2)):
            raise ValueError("max_bound must dominate the largest squared scale")
        if self.shift_bound * slack < float(np.sum(shifts**2)):
            raise ValueError("shift_bound must dominate sum of squared shifts")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def from_sequences(
        cls,
        shifts: np.ndarray,
        scales: np.ndarray,
        c: float,
        var_slack: float = 1.0,
        max_slack: float = 1.0,
        shift_slack: float = 1.0,
    ) -> "TailBoundConfig":
        """Config with envelopes equal to the exact sums times the slacks."""
        shifts = np.asarray(shifts, dtype=np.float64)
        scales = np.asarray(scales, dtype=np.float64)
        return cls(
            shifts,
            scales,
            float(c),
            float(np.sum(scales**2)) * var_slack,
            float(np.max(scales**2)) * max_slack,
            float(np.sum(shifts**2)) * shift_slack,
        )

    @property
    def m(self) -> int:
        return self.shifts.size

    @property
    def mean(self) -> float:
        """Exact expectation of the quadratic form."""
        return float(np.sum(self.shifts**2) + np.sum(self.scales**2))

    @property
    def spread(self) -> float:
        """``c * (var_bound + 2 * shift_bound)``, the deviation unit."""
        return self.c * (self.var_bound + 2.0 * self.shift_bound)

    @property
    def prob_bound(self) -> float:
        """``exp(-c min(c,1) (var_bound + 2 shift_bound) / (4 max_bound))``,
        bounding both the lower- and the upper-deviation probability."""
        expo = self.c * min(self.c, 1.0) * (self.var_bound + 2.0 * self.shift_bound)
        return math.exp(-expo / (4.0 * self.max_bound))

    @property
    def overshoot_bound(self) -> float | None:
        """``6 max_bound exp(-c (var_bound + 2 shift_bound) / (4 max_bound))``
        for the expected overshoot; audited only for ``c >= 1`` (the
        derivation needs the full deviation scale)."""
        if self.c < 1.0:
            return None
        expo = self.c * (self.var_bound + 2.0 * self.shift_bound)
        return 6.0 * self.max_bound * math.exp(-expo / (4.0 * self.max_bound))


@dataclass(frozen=True)
class TailBoundAudit:
    """Empirical deviation frequencies of one config against its bounds."""

    config: TailBoundConfig
    reps: int
    seed: int
    lower_emp: float
    lower_se: float
    upper_emp: float
    upper_se: float
    prob_bound: float
    overshoot_emp: float
    overshoot_se: float
    overshoot_bound: float | None
    passed: bool


def audit_tail_bounds(config: TailBoundConfig, reps: int, seed: int, rep: int = 0) -> TailBoundAudit:
    """Estimate the three deviation quantities of ``config`` by simulation
    and compare each against its analytic bound (within three standard
    errors).

    Audited events, with ``dev = S - E[S]`` and ``spread`` the deviation
    unit: ``dev <= -spread`` and ``dev >= 1.5 * spread`` against the shared
    probability bound, and the mean of ``(dev - 1.5 * spread)_+`` against
    the overshoot bound (skipped below ``c = 1``).
    """
    if reps < _MIN_AUDIT_REPS:
        raise ValueError(f"audit needs at least {_MIN_AUDIT_REPS} draws, got {reps}")
    rng = stream(seed, AUDIT_DRAW, rep)
    m = config.m
    spread = config.spread
    mean = config.mean
    n_lower = 0
    n_upper = 0
    over_sum = 0.0
    over_sumsq = 0.0
    done = 0
    batch = max(1, _BATCH_ELEMENTS // m)
    while done < reps:
        k = min(batch, reps - done)
        z = rng.standard_normal((k, m))
        s = np.sum((config.shifts + config.scales * z) ** 2, axis=1)
        dev = s - mean
        n_lower += int(np.sum(dev <= -spread))
        n_upper += int(np.sum(dev >= 1.5 * spread))
        over = np.maximum(dev - 1.5 * spread, 0.0)
        over_sum += float(np.sum(over))
        over_sumsq += float(np.sum(over**2))
        done += k
    lower_emp = n_lower / reps
    upper_emp = n_upper / reps
    lower_se = math.sqrt(lower_emp * (1.0 - lower_emp) / reps)
    upper_se = math.sqrt(upper_emp * (1.0 - upper_emp) / reps)
    over_emp = over_sum / reps
    over_var = max(over_sumsq / reps - over_emp**2, 0.0)
    over_se = math.sqrt(over_var / reps)
    bound = config.prob_bound
    over_bound = config.overshoot_bound
    passed = lower_emp <= bound + 3.0 * lower_se and upper_emp <= bound + 3.0 * upper_se
    if over_bound is not None:
        passed = passed and over_emp <= over_bound + 3.0 * over_se
    return TailBoundAudit(
        config=config,
        reps=int(reps),
        seed=int(seed),
        lower_emp=lower_emp,
        lower_se=lower_se,
        upper_emp=upper_emp,
        upper_se=upper_se,
        prob_bound=bound,
        overshoot_emp=over_emp,
        overshoot_se=over_se,
        overshoot_bound=over_bound,
        passed=bool(passed),
    )


def random_tail_suite(n_configs: int, seed: int, include_reference: bool = True) -> list:
    """A randomized audit suite.

    Dimensions, shifts, scales, deviation scales and envelope slacks vary
    per config; the first entry (when ``include_reference`` is set) is the
    reference case of ten unit scales, zero shifts and ``c = 1``, whose
    probability bound is ``exp(-10/4)``.
    """
    if n_configs < 1:
        raise ValueError("need at least one config")
    suite = []
    if include_reference:
        suite.append(TailBoundConfig.from_sequences(np.zeros(10), np.ones(10), 1.0))
    for i in range(len(suite), n_configs):
        rng = stream(seed, SUITE_GEN, i)
        m = int(rng.integers(1, 31))
        scales = rng.uniform(0.2, 2.0, m)
        shifts = rng.normal(0.0, 1.0, m) if rng.random() < 0.6 else np.zeros(m)
        c = float(np.exp(rng.uniform(math.log(0.25), math.log(3.0))))
        slacks = np.where(rng.random(3) < 0.3, 1.0 + rng.random(3), 1.0)
        suite.append(TailBoundConfig.from_sequences(shifts, scales, c, *slacks))
    return suite


# ---------------------------------------------------------------------------
# estimator risk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    se: float
    reps: int
    seed: int


MISE_KINDS = ("fixed", "oracle", "minimax", "adaptive")


def _mc_summary(values: np.ndarray, seed: int) -> MCEstimate:
    reps = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MCEstimate(float(np.mean(values)), se, int(reps), int(seed))


class _Task(NamedTuple):
    """A Monte Carlo task's problem cut at its first ``cut`` coordinates, with
    everything that does not depend on the data: the squared bias carried
    past the cut, the signal ``lambda_j theta_j``, the noise scale
    ``sqrt(eps)``, the posterior variances and the map to posterior means."""

    theta: np.ndarray
    means: np.ndarray
    remainder: float
    signal: np.ndarray
    noise_scale: float
    post_var: np.ndarray
    mean_map: _MeanMap


def _task(theta, prior, op, eps, cut) -> _Task:
    remainder = float(np.sum((theta.values[cut:] - prior.means[cut:]) ** 2)) + theta.sq_tail()
    th, pr, o = theta.head(cut), prior.head(cut), op.head(cut)
    post_var = posterior_variances(pr, o, eps)
    _check_variances(post_var)
    return _Task(
        th.values, pr.means, remainder, o.values * th.values, math.sqrt(eps),
        post_var, _mean_map(pr, o, eps),
    )


def _block(task: _Task, seed: int, statistic, start: int, stop: int):
    """Yield ``statistic(r, post_mean, work)`` for ``r = start .. stop - 1``,
    where ``post_mean`` holds the posterior means of the observation
    drawn from replication ``r``'s own stream.  ``post_mean`` and ``work``
    are arrays of the cut length, allocated once for the block; the
    statistic may overwrite both."""
    if stop <= start:
        raise ValueError("need at least one replication")
    post_mean = np.empty(task.theta.size)
    work = np.empty(task.theta.size)
    for r in range(start, stop):
        _observe(task.signal, task.noise_scale, seed, r, post_mean)
        _posterior_mean(task.mean_map, post_mean, post_mean)
        _check_means(post_mean)
        yield statistic(r, post_mean, work)


def _replications(task: _Task, reps: int, seed: int, statistic) -> list:
    """The statistics of replications ``0 .. reps - 1`` in replication
    order, computed in one contiguous block of replications per worker."""
    blocks = max(1, min(_max_workers(), reps))
    bounds = [reps * k // blocks for k in range(blocks + 1)]
    parts = _parallel_map(
        lambda k: list(_block(task, seed, statistic, bounds[k], bounds[k + 1])), range(blocks)
    )
    return [value for part in parts for value in part]


def _dimension_probs(task: _Task, post_mean, penalty, out) -> int:
    """One replication's dimension-posterior masses, written into ``out``;
    returns their mass end."""
    _log_weights(post_mean, task.means, task.post_var, penalty, out)
    _check_log_weights(out)
    return _normalise(out, out)


def _draw_distances(task: _Task, block: np.ndarray) -> np.ndarray:
    """Squared distance from each posterior draw to the truth, given the
    draws' first columns as the sampler drew them (``m`` for the sieve,
    ``max(dims)`` for the hierarchical kind).  The prior-mean coordinates
    from there up to the cut add one deterministic sum, so no ``(draws x
    cut)`` array is built."""
    width = block.shape[1]
    truth = task.theta
    past = float(np.sum((task.means[width:] - truth[width:]) ** 2))
    return np.sum((block - truth[:width]) ** 2, axis=1) + (past + task.remainder)


def mc_mise(
    kind: str,
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    reps: int,
    seed: int,
    m: int | None = None,
    weighted_class: WeightedClass | None = None,
    c_lambda: float | None = None,
) -> MCEstimate:
    """Monte Carlo integrated squared error of an estimator family member.

    Kinds: "fixed" (sieve estimate of dimension ``m``), "oracle" and
    "minimax" (sieve estimate at the respective selected dimension) and
    "adaptive" (hierarchical posterior mean, which needs the operator
    constant ``c_lambda``).  Only the coordinates the estimator touches are
    simulated; everything beyond contributes its exact squared bias.
    """
    if kind not in MISE_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if kind == "fixed":
        if m is None:
            raise ValueError("fixed kind needs the dimension m")
        cut = int(m)
    elif kind == "oracle":
        cut = oracle_dimension(theta, prior, op, eps).dimension
    elif kind == "minimax":
        if weighted_class is None:
            raise ValueError("minimax kind needs the weighted class")
        cut = minimax_dimension(weighted_class, op, eps).dimension
    else:  # adaptive
        if c_lambda is None:
            raise ValueError("adaptive kind needs the operator constant c_lambda")
        cut = max_dimension(op, eps)
        m_star = oracle_dimension(theta, prior, op, eps).dimension
        if m_star > cut:
            raise InfeasibleError(
                f"oracle dimension {m_star} exceeds the search range {cut} at eps={eps}"
            )

    task = _task(theta, prior, op, eps, cut)
    if kind == "adaptive":
        penalty = _dimension_penalty(c_lambda, cut)
        prior_sq_err = np.square(task.means - task.theta)

    def loss(r, post_mean, work):
        end = cut
        if kind == "adaptive":
            end = _dimension_probs(task, post_mean, penalty, work)
            _shrink(work, end, post_mean, task.means, work, post_mean)
            post_mean[end:] = prior_sq_err[end:]  # the prior mean's error past the mass end
        head = post_mean[:end]
        np.subtract(head, task.theta[:end], out=head)
        np.square(head, out=head)
        return float(np.sum(post_mean)) + task.remainder

    return _mc_summary(np.array(_replications(task, reps, seed, loss)), seed)


def mc_mise_profile(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    reps: int,
    seed: int,
    m_top: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo squared error of every fixed-dimension fit ``m = 1..m_top``
    (default: the full search range), sharing the observations across
    dimensions.  Returns ``(mise, se)`` arrays of length ``m_top``."""
    if m_top is None:
        m_top = max_dimension(op, eps)
    bias = bias_profile(theta, prior)[:m_top]

    task = _task(theta, prior, op, eps, m_top)

    def errors(r, post_mean, work):
        np.subtract(post_mean, task.theta, out=work)
        return np.cumsum(np.square(work, out=work)) + bias

    # one block in replication order, so the running sums stay O(m_top)
    acc = np.zeros(m_top)
    acc_sq = np.zeros(m_top)
    for errs in _block(task, seed, errors, 0, reps):
        acc += errs
        acc_sq += errs**2
    mise = acc / reps
    var = np.maximum(acc_sq / reps - mise**2, 0.0)
    se = np.sqrt(var / max(reps - 1, 1))
    return mise, se


# ---------------------------------------------------------------------------
# posterior concentration
# ---------------------------------------------------------------------------


def mc_concentration(
    kind: str,
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    band_constant: float,
    rate: float,
    reps: int,
    draws: int,
    seed: int,
    m: int | None = None,
    c_lambda: float | None = None,
    two_sided: bool = True,
) -> MCEstimate:
    """Nested Monte Carlo estimate of the expected posterior mass of the
    band ``[rate / K, rate * K]`` around the truth, ``K = band_constant``:
    outer replications simulate observations, inner draws sample the
    posterior ("fixed" sieve of dimension ``m`` or "hierarchical").

    ``two_sided=False`` drops the lower edge and estimates the mass of
    ``{|draw - truth|^2 <= rate * K}`` alone — the form the theory takes
    when the data-driven posterior may concentrate strictly faster than
    the reference rate, so no uniform lower edge exists."""
    if kind not in ("fixed", "hierarchical"):
        raise ValueError(f"unknown posterior kind {kind!r}")
    if band_constant < 1.0:
        raise ValueError("band constant must be >= 1")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    if kind == "fixed":
        if m is None:
            raise ValueError("fixed kind needs the dimension m")
        cut = int(m)
    else:
        if c_lambda is None:
            raise ValueError("hierarchical kind needs the operator constant c_lambda")
        cut = max_dimension(op, eps)
    lo = rate / band_constant if two_sided else 0.0
    hi = rate * band_constant
    penalty = _dimension_penalty(c_lambda, cut) if kind == "hierarchical" else None
    task = _task(theta, prior, op, eps, cut)
    post_sd = np.sqrt(task.post_var)

    def band_mass(r, post_mean, work):
        if kind == "fixed":
            block = _sieve_block(post_mean, post_sd, draws, seed, r)
        else:
            _dimension_probs(task, post_mean, penalty, work)
            _, block = _draw_hierarchical(work, post_mean, post_sd, task.means, draws, seed, r)
        sq = _draw_distances(task, block)
        return float(np.mean((sq >= lo) & (sq <= hi)))

    return _mc_summary(np.array(_replications(task, reps, seed, band_mass)), seed)


@dataclass(frozen=True)
class SieveDeviationAudit:
    """Expected posterior deviation probabilities of a fixed sieve fit
    against their analytic bounds."""

    m: int
    c: float
    upper: MCEstimate
    lower: MCEstimate
    upper_threshold: float
    lower_threshold: float
    upper_bound: float  # 2 exp(-m / 36)
    lower_bound: float  # 2 exp(-c^2 m / 2)
    passed: bool


def mc_sieve_deviation(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    m: int,
    c: float,
    reps: int,
    draws: int,
    seed: int,
) -> SieveDeviationAudit:
    """Audit the two posterior deviation inequalities of the sieve fit.

    With the deterministic risk terms of dimension ``m`` (bias ``b``,
    posterior-variance sum ``s``, max ``t`` and shift ``rho``), the audited
    events are

        |draw - truth|^2  >  b + 3 s + 1.5 m t + 4 rho      (upper)
        |draw - truth|^2  <  b + s - 4 c (m t + rho)        (lower)

    with bounds ``2 exp(-m/36)`` and ``2 exp(-c^2 m / 2)``; the lower
    inequality requires ``0 < c < 1/5``.
    """
    if not 0.0 < c < 0.2:
        raise ValueError("deviation scale c must lie in (0, 1/5)")
    risk = risk_decomposition(theta, prior, op, eps, m)
    hi = risk.bias + 3.0 * risk.post_var_sum + 1.5 * m * risk.post_var_max + 4.0 * risk.shift
    lo = risk.bias + risk.post_var_sum - 4.0 * c * (m * risk.post_var_max + risk.shift)

    task = _task(theta, prior, op, eps, m)
    post_sd = np.sqrt(task.post_var)

    def deviations(r, post_mean, work):
        sq = _draw_distances(task, _sieve_block(post_mean, post_sd, draws, seed, r))
        return float(np.mean(sq > hi)), float(np.mean(sq < lo))

    fracs = zip(*_replications(task, reps, seed, deviations))
    upper, lower = (_mc_summary(np.array(f), seed) for f in fracs)
    upper_bound = 2.0 * math.exp(-m / 36.0)
    lower_bound = 2.0 * math.exp(-(c**2) * m / 2.0)
    passed = (
        upper.value <= upper_bound + 3.0 * upper.se
        and lower.value <= lower_bound + 3.0 * lower.se
    )
    return SieveDeviationAudit(
        m=int(m),
        c=float(c),
        upper=upper,
        lower=lower,
        upper_threshold=hi,
        lower_threshold=lo,
        upper_bound=upper_bound,
        lower_bound=lower_bound,
        passed=bool(passed),
    )


def mc_bracket_mass(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    reps: int,
    seed: int,
    report: AssumptionReport,
    c_lambda: float,
    mode: str = "oracle",
    weighted_class: WeightedClass | None = None,
) -> MCEstimate:
    """Expected dimension-posterior mass outside the sandwich brackets.

    The inner probability is exact (a partial sum of the dimension
    posterior); only the observations are simulated.
    """
    m_lo, m_hi = bracket_dimensions(
        theta, prior, op, eps, report, mode=mode,
        weighted_class=weighted_class, c_lambda=c_lambda,
    )

    cut = max_dimension(op, eps)
    penalty = _dimension_penalty(c_lambda, cut)
    task = _task(theta, prior, op, eps, cut)

    def outside_mass(r, post_mean, work):
        _dimension_probs(task, post_mean, penalty, work)
        return _outside_mass(work, m_lo, m_hi)

    return _mc_summary(np.array(_replications(task, reps, seed, outside_mass)), seed)


# ---------------------------------------------------------------------------
# rate regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateTheory:
    """The predicted decay of the rate in the noise level.

    ``kind`` is "polynomial" (clean power law), "log-polynomial" (power law
    times a slowly growing log factor; the fitted slope sits below the
    exponent by at most ``log_power / |log max-eps|``) or "logarithmic"
    (no polynomial decay at all; slope comparisons are suppressed).
    """

    kind: str
    exponent: float | None
    log_power: float = 0.0
    note: str = ""


def theoretical_exponent(
    op_family: str,
    op_decay: float | None,
    class_family: str,
    class_exponent: float | None,
) -> RateTheory:
    """Predicted minimax-rate exponent for a (class, operator) family pair."""
    poly_op = op_family in ("polynomial", "constant")
    a = 0.0 if op_family == "constant" else float(op_decay or 0.0)
    if poly_op and class_family == "polynomial":
        p = float(class_exponent)  # type: ignore[arg-type]
        return RateTheory("polynomial", 2.0 * p / (2.0 * a + 2.0 * p + 1.0))
    if poly_op and class_family == "exponential":
        p = float(class_exponent)  # type: ignore[arg-type]
        power = (2.0 * a + 1.0) / (2.0 * p)
        return RateTheory(
            "log-polynomial",
            1.0,
            log_power=power,
            note="rate carries a |log eps|^{} factor; the fitted slope drifts "
            "below 1 by up to log_power / |log eps|".format(power),
        )
    if op_family == "exponential" and class_family == "polynomial":
        p = float(class_exponent)  # type: ignore[arg-type]
        a = float(op_decay)  # type: ignore[arg-type]
        return RateTheory(
            "logarithmic",
            None,
            note=f"rate decays like |log eps|^(-{p / a}); no polynomial slope to compare",
        )
    return RateTheory("unsupported", None, note="no reference exponent for this family pair")


@dataclass(frozen=True)
class RateReport:
    """Log-log regression of Monte Carlo risk against the noise level."""

    eps: np.ndarray
    mise: np.ndarray
    se: np.ndarray | None
    slope: float
    intercept: float
    residuals: np.ndarray
    theory: RateTheory
    constants: dict | None = None

    def slope_matches(self, tol: float) -> bool | None:
        """Whether the fitted slope is compatible with the theory.

        Polynomial: within ``tol``.  Log-polynomial: within ``tol`` plus the
        log-drift allowance.  Logarithmic/unsupported: None (no comparison).
        """
        if self.theory.exponent is None:
            return None
        allowance = 0.0
        if self.theory.kind == "log-polynomial":
            allowance = self.theory.log_power / abs(math.log(float(np.max(self.eps))))
        return bool(abs(self.slope - self.theory.exponent) <= tol + allowance)


def rate_regression(
    eps: np.ndarray,
    mise: np.ndarray,
    se: np.ndarray | None = None,
    theory: RateTheory | None = None,
    constants: dict | None = None,
) -> RateReport:
    """Fit ``log mise ~ slope * log eps + intercept`` by least squares."""
    eps = np.asarray(eps, dtype=np.float64)
    mise = np.asarray(mise, dtype=np.float64)
    if eps.shape != mise.shape or eps.ndim != 1 or eps.size < 2:
        raise ValueError("need matching 1-d grids with at least two points")
    if np.any(eps <= 0.0) or np.any(mise <= 0.0):
        raise ValueError("noise levels and risks must be positive")
    log_eps = np.log(eps)
    log_mise = np.log(mise)
    slope, intercept = np.polyfit(log_eps, log_mise, 1)
    residuals = log_mise - (slope * log_eps + intercept)
    return RateReport(
        eps=_readonly(eps),
        mise=_readonly(mise),
        se=None if se is None else _readonly(np.asarray(se, dtype=np.float64)),
        slope=float(slope),
        intercept=float(intercept),
        residuals=_readonly(residuals),
        theory=theory if theory is not None else RateTheory("unsupported", None),
        constants=constants,
    )
