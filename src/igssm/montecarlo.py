"""Monte Carlo harness: tail-bound audits, estimator risk, posterior
concentration, and rate regression.

Every routine draws through the package's counter-based streams with one
stream per replication, so results are reproducible and independent of
evaluation order.  The risk, concentration and bracket tasks share one
replication kernel.  No task selects a dimension: a sieve task takes the
dimension ``m`` its caller chose, a task on the dimension posterior takes
the operator constant ``c_lambda`` and runs over the search range.  Which
of the two a task is gets decided once, when it is built, together with
everything that does not depend on the data: the signal ``lambda_j
theta_j``, the posterior variances, the affine map from data to posterior
means and, on the dimension posterior, the terms of its log-weights.  The
kernel cuts the problem at the task's dimension and simulates only that
head.

Replications run as the rows of a chunk, ``max(1, _ROW_ELEMENTS // cut)``
of them, in work arrays allocated once per block of replications.  Each
row draws its noise from its own replication's stream (``rng.streams``
resets one generator to each in turn); the noise scale, the signal, the
posterior-mean map and the posterior step are then applied to the whole
chunk.  The posterior step checks a sieve's posterior means, or turns
them into the dimension posterior's masses (``hierarchy._masses``).  The
statistic receives the posterior means, the masses and the end of what it
scores (the cut, or the rows' largest mass end), and computes one value
per row in one set of numpy calls.
Every row is bit for bit what it would be alone (see
:mod:`igssm.hierarchy` for the dimension posterior's rows), so results do
not depend on how replications are chunked.  A cut of ``_ROW_ELEMENTS``
or more runs one row per chunk.  The chunks of one task are split into
contiguous blocks, at most one per worker thread (``IGSSM_THREADS``) and
one per chunk, so a task whose replications fit in one chunk runs on one
thread; statistics are put back in replication order, so every result is
the same for any thread count.

Tasks on the dimension posterior compute its log-weights over the whole
search range, where the data enter through the cumulative contrast, but
exponentiate only up to the posterior's mass end (see
:mod:`igssm.hierarchy`), a few hundred of up to 1e6 dimensions.  The
adaptive risk shrinks and scores only that head: past it the estimate is
the prior mean, whose squared error ``(mu_j - theta_j)^2`` is computed once
per task.  Both sums, of the masses and of the squared errors, run over
the whole cut, so every result is bit for bit the full-range one.

A replication skips what cannot change its result.  Each task decides
once, from its inputs, to skip the divide when every posterior-mean scale
is one and the subtraction when every prior mean is zero, and to divide
by a scalar when the posterior variance is constant.  Every contrast term
is >= 0, infinite or NaN and the penalty is finite, so the dimension tasks
check the posterior means only when the log-weights' maximum is not
finite; sieve tasks check them on every chunk.  The contrast
goes into a work array of its own and the cumsum writes from there into
the log-weights one row at a time, because numpy keeps the interpreter
lock through an in-place cumsum and through a cumsum or a ``reduceat``
along the rows of a 2-D array of up to 500 rows, so another thread
cannot even start its next step; a 1-D out-of-place cumsum releases it.
The chunk maxima likewise go row by row.

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
from .hierarchy import _draw_hierarchical, _masses, _outside_mass, _shrink, _terms, _Terms
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
from .rng import AUDIT_DRAW, HIERARCHY_DRAW, OBSERVATION, SIEVE_DRAW, SUITE_GEN, stream, streams
from .selection import bias_profile, max_dimension, risk_decomposition
from .sequences import OperatorSequence, ParameterSequence, _observe, _readonly

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
# Most worker threads IGSSM_THREADS may ask for; one task starts up to
# min(IGSSM_THREADS, its chunks of replications) of them.  Larger values are
# a config error.
MAX_THREADS = 64
_BATCH_ELEMENTS = 1 << 23  # cap on draws * dimension per simulation batch
# Elements per work array of a chunk of replications: a chunk holds
# max(1, _ROW_ELEMENTS // cut) replications as rows, so its three work
# arrays (512 KiB each) stay in L2 together.
_ROW_ELEMENTS = 1 << 16


def _max_workers() -> int:
    env = os.environ.get("IGSSM_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    if not env.strip().isdecimal() or not 1 <= int(env) <= MAX_THREADS:
        raise ConfigError(f"IGSSM_THREADS must be a positive integer up to {MAX_THREADS}, got {env!r}")
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
        z = rng.standard_normal((k, m))  # the batch's one (k x m) array
        np.multiply(config.scales, z, out=z)
        np.add(config.shifts, z, out=z)
        dev = np.sum(np.square(z, out=z), axis=1)
        dev -= mean
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


def random_tail_suite(n_configs: int, seed: int) -> list:
    """A randomized audit suite.

    Dimensions, shifts, scales, deviation scales and envelope slacks vary
    per config; the first entry is the reference case of ten unit scales,
    zero shifts and ``c = 1``, whose probability bound is ``exp(-10/4)``.
    """
    if n_configs < 1:
        raise ValueError("need at least one config")
    suite = [TailBoundConfig.from_sequences(np.zeros(10), np.ones(10), 1.0)]
    for i in range(1, n_configs):
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


def _mc_summary(values: np.ndarray, seed: int) -> MCEstimate:
    reps = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MCEstimate(float(np.mean(values)), se, int(reps), int(seed))


class _Task(NamedTuple):
    """A Monte Carlo task's problem cut at its first ``cut`` coordinates, with
    everything that does not depend on the data: the squared bias carried
    past the cut, the signal ``lambda_j theta_j``, the noise scale
    ``sqrt(eps)``, the posterior variances, the map to posterior means and,
    on the dimension posterior, its log-weight terms (None on a sieve)."""

    theta: np.ndarray
    means: np.ndarray
    remainder: float
    signal: np.ndarray
    noise_scale: float
    post_var: np.ndarray
    mean_map: _MeanMap
    terms: _Terms | None


def _task(theta, prior, op, eps, m=None, c_lambda=None) -> _Task:
    """The task of the sieve of dimension ``m``, cut at ``m``, or, given the
    operator constant ``c_lambda`` instead, of the dimension posterior, cut
    at the search range."""
    if (m is None) == (c_lambda is None):
        raise ValueError("give either the sieve dimension m or the operator constant c_lambda")
    cut = max_dimension(op, eps) if m is None else int(m)
    remainder = float(np.sum((theta.values[cut:] - prior.means[cut:]) ** 2)) + theta.sq_tail()
    th, pr, o = theta.head(cut), prior.head(cut), op.head(cut)
    post_var = posterior_variances(pr, o, eps)
    _check_variances(post_var)
    mean_map = _mean_map(pr, o, eps)
    terms = _terms(pr.means, post_var, c_lambda) if m is None else None
    return _Task(
        th.values, pr.means, remainder, o.values * th.values, math.sqrt(eps), post_var, mean_map, terms
    )


def _rows(task: _Task) -> int:
    """Replications per chunk of ``task``."""
    return max(1, _ROW_ELEMENTS // task.theta.size)


def _block(task: _Task, seed: int, statistic, start: int, stop: int):
    """Split replications ``start .. stop - 1`` into chunks of ``_rows(task)``
    (the last may be shorter) and yield ``statistic(r0, post_mean, work,
    end)`` for each, in order: one value per replication ``r0, r0 + 1,
    ...``.  Row ``i`` of ``post_mean`` holds the finite posterior means of
    the observation drawn from replication ``r0 + i``'s own stream.  On a
    sieve task ``end`` is the cut; on the dimension posterior it is the
    rows' largest mass end, and row ``i`` of ``work[0]`` holds the masses.
    ``post_mean`` (rows of the cut length) and ``work`` (two such blocks of
    rows) are allocated once for the block; the statistic may overwrite
    both."""
    if stop <= start:
        raise ValueError("need at least one replication")
    cut = task.theta.size
    rows = min(_rows(task), stop - start)
    post_mean = np.empty((rows, cut))
    work = np.empty((2, rows, cut))
    for r0 in range(start, stop, rows):
        k = min(rows, stop - r0)
        chunk, chunk_work = post_mean[:k], work[:, :k]
        _observe(task.signal, task.noise_scale, streams(seed, OBSERVATION, r0, r0 + k), chunk)
        _posterior_mean(task.mean_map, chunk, chunk)
        if task.terms is None:
            _check_means(chunk)
            end = cut
        else:
            end = _masses(task.terms, chunk, chunk_work[1], chunk_work[0], chunk_work[0])
        yield statistic(r0, chunk, chunk_work, end)


def _replications(task: _Task, reps: int, seed: int, statistic) -> list:
    """The statistics of replications ``0 .. reps - 1`` in replication
    order, computed in one contiguous block of replications per worker; a
    task whose replications fit in fewer chunks than there are workers
    takes one block per chunk."""
    blocks = max(1, min(_max_workers(), -(-reps // _rows(task))))
    bounds = [reps * k // blocks for k in range(blocks + 1)]

    def block(k):
        chunks = _block(task, seed, statistic, bounds[k], bounds[k + 1])
        return [value for chunk in chunks for value in chunk]

    return [value for part in _parallel_map(block, range(blocks)) for value in part]


def _draw_distances(task: _Task, post_sd, draws: int, seed: int, r0: int, post_mean, probs):
    """For each row ``i`` of ``post_mean``, the squared distances to the
    truth of ``draws`` draws from replication ``r0 + i``'s own stream: from
    the sieve posterior, or on the dimension posterior from the hierarchical
    one with masses ``probs[i]``; ``post_sd = sqrt(task.post_var)``.  Only
    the columns the sampler drew are built (``m``, or ``max(dims)``); the
    prior-mean coordinates past them up to the cut add one sum."""
    sieve = task.terms is None
    truth = task.theta
    domain = SIEVE_DRAW if sieve else HIERARCHY_DRAW
    for i, rng in enumerate(streams(seed, domain, r0, r0 + len(post_mean))):
        if sieve:
            block = _sieve_block(post_mean[i], post_sd, draws, rng)
        else:
            _, block = _draw_hierarchical(probs[i], post_mean[i], post_sd, task.means, draws, rng)
        width = block.shape[1]
        past = float(np.sum((task.means[width:] - truth[width:]) ** 2))
        yield np.sum((block - truth[:width]) ** 2, axis=1) + (past + task.remainder)


def mc_mise(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    reps: int,
    seed: int,
    m: int | None = None,
    c_lambda: float | None = None,
) -> MCEstimate:
    """Monte Carlo integrated squared error of the sieve estimate of
    dimension ``m``, or, given the operator constant ``c_lambda`` instead,
    of the hierarchical posterior mean over the search range.  Only the
    coordinates the estimator touches are simulated; everything beyond
    contributes its exact squared bias.
    """
    task = _task(theta, prior, op, eps, m, c_lambda)
    prior_sq_err = np.square(task.means - task.theta)

    def loss(r0, post_mean, work, end):
        if task.terms is not None:
            _shrink(work[0], end, post_mean, task.means, work[0], post_mean)
        post_mean[:, end:] = prior_sq_err[end:]  # the prior mean's error past the mass end
        head = post_mean[:, :end]
        np.subtract(head, task.theta[:end], out=head)
        np.square(head, out=head)
        return np.sum(post_mean, axis=1) + task.remainder

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

    def errors(r0, post_mean, work, end):
        sq_err, cum = work
        np.subtract(post_mean, task.theta, out=sq_err)
        np.cumsum(np.square(sq_err, out=sq_err), axis=1, out=cum)
        return np.add(cum, bias, out=cum)

    # one block, its rows added in replication order, so the running sums
    # stay O(m_top)
    acc = np.zeros(m_top)
    acc_sq = np.zeros(m_top)
    for chunk in _block(task, seed, errors, 0, reps):
        for errs in chunk:
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
    posterior: the sieve of dimension ``m``, or, given the operator constant
    ``c_lambda`` instead, the hierarchical posterior.

    ``two_sided=False`` drops the lower edge and estimates the mass of
    ``{|draw - truth|^2 <= rate * K}`` alone — the form the theory takes
    when the data-driven posterior may concentrate strictly faster than
    the reference rate, so no uniform lower edge exists."""
    if band_constant < 1.0:
        raise ValueError("band constant must be >= 1")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    lo = rate / band_constant if two_sided else 0.0
    hi = rate * band_constant
    task = _task(theta, prior, op, eps, m, c_lambda)
    post_sd = np.sqrt(task.post_var)

    def band_mass(r0, post_mean, work, end):
        distances = _draw_distances(task, post_sd, draws, seed, r0, post_mean, work[0])
        return [float(np.mean((sq >= lo) & (sq <= hi))) for sq in distances]

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

    def deviations(r0, post_mean, work, end):
        distances = _draw_distances(task, post_sd, draws, seed, r0, post_mean, work[0])
        return [(float(np.mean(sq > hi)), float(np.mean(sq < lo))) for sq in distances]

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
    bracket: tuple[int, int],
    c_lambda: float,
) -> MCEstimate:
    """Expected dimension-posterior mass outside ``bracket = (m_lo, m_hi)``,
    typically the sandwich of :func:`igssm.selection.bracket_dimensions`
    computed with the same ``c_lambda`` as the dimension prior.

    The inner probability is exact (a partial sum of the dimension
    posterior); only the observations are simulated.  A bracket outside
    ``1..M`` raises ``ValueError``.
    """
    m_lo, m_hi = bracket
    task = _task(theta, prior, op, eps, c_lambda=c_lambda)

    def outside_mass(r0, post_mean, work, end):
        return _outside_mass(work[0], m_lo, m_hi)

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
    )
