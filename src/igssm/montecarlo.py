"""Monte Carlo harness: tail-bound audits, estimator risk, posterior
concentration, and rate regression.

Every routine draws through the package's counter-based streams with one
stream per replication, so results are reproducible and independent of
evaluation order.  Every statistic of a posterior is a column of one pass
on it (``_pass``), a ``(kind, region)`` tuple: every band and deviation
event an interval, every bracket, and the loss of the estimate (on a
sieve, at any dimensions up to its cut).  A pass gives one estimate per
column, in the order given, on replications it observes, weighs and
samples once.  ``mc_mise``, ``mc_concentration`` and ``mc_bracket_mass``
are its one-column calls, ``mc_sieve_deviation`` its two-column one and
``mc_mise_profile`` its loss columns.  No task selects a dimension: a
sieve task takes the dimension ``m`` its caller chose, a task on the
dimension posterior takes the operator constant ``c_lambda`` and runs over
the search range.  Which of the two a task is gets decided once, when it
is built, together with everything that does not depend on the data: the
signal ``lambda_j theta_j``, the posterior variances, the affine map from
data to posterior means and, on the dimension posterior, the terms of its
log-weights.  The kernel cuts the problem at the task's dimension and
simulates only that head.

A task holds only what its replications read whole.  Past its cut it
keeps one number, the squared bias carried there.  Up to the cut it holds
views of theta and the prior means, and the arrays that differ per
coordinate, cut long: the signal, unless every ``lambda_j`` is one (then
it is theta itself, as ``1.0 * x`` is ``x``); the posterior variances,
unless they are constant (then one scalar, in the sampling tasks too,
read from the operator and the prior without building the array where
every coordinate has the same inputs, as under the flat prior on the
direct model); and the parts of the posterior-mean map that are not the
identity.  The dimension posterior's penalty ``1.5 C m`` is formed for
the slice a pass reads, and the prior mean's squared error past the mass
end is summed piecewise (``sequences._sq_err_sum``), never built whole.
On the direct model under the flat prior a task so builds no array of its
cut's length; the work arrays of its blocks (see below) are all it
allocates at that length.

Replications run as the rows of a chunk, ``max(1, _ROW_ELEMENTS // cut)``
of them (fewer on a pass that samples the posterior, see
``_Task.drawing``), in two arrays allocated once per block of
replications: the posterior means and one work array, which holds the
log-weights and then the masses.  Each row draws its noise from its own
replication's stream (``rng.streams`` resets one generator to each in
turn); the noise scale, the signal, the posterior-mean map and the
posterior step are then applied to the whole chunk.  The posterior step
checks a sieve's posterior means, or turns them into the dimension
posterior's masses (``hierarchy._masses``).  A block yields each chunk's
posterior means, its masses and the end of what it scores (the cut, or
the rows' largest mass end); the statistic runs once per block over its
chunks and computes its ``k`` values per row of a chunk in one set of
numpy calls: a float64 ``(rows, k)`` array.
Every row is bit for bit what it would be alone (see
:mod:`igssm.hierarchy` for the dimension posterior's rows), so results do
not depend on how replications are chunked.  A cut of ``_ROW_ELEMENTS``
or more runs one row per chunk.  The chunks of one task are split into
contiguous blocks, at most one per worker thread (``IGSSM_THREADS``) and
one per chunk, so a task whose replications fit in one chunk runs on one
thread.  The chunks are concatenated once, in replication order, into a
``(reps, k)`` array, so every result is the same for any thread count.
Each column is summarised as a contiguous copy: numpy sums a 1-d array
pairwise but reduces axis 0 of a 2-D array row by row, which rounds
differently.

Tasks on the dimension posterior compute its log-weights only on a head
of whole chunks that holds the posterior's mass, and exponentiate only up
to its mass end (see :mod:`igssm.hierarchy`), a few hundred of up to 1e6
dimensions; past the head, one read of the posterior means gives the
chunk sums of squares that bound the rest.  The adaptive risk shrinks and
scores only up to the mass end: past it the estimate is the prior mean,
whose squared error is ``(mu_j - theta_j)^2``.  Both sums, of the masses
and of the squared errors, are numpy's pairwise sums over the whole cut,
rebuilt from the sums of their subtrees (``hierarchy._pairwise_sum``): a
subtree past the mass end adds 0.0 to the masses, and to the loss its sum
of the prior mean's squared errors, summed piecewise once per task and
memoised.  So every result is bit for bit the full-range one without a
pass over the tail.  This rests on how numpy sums a contiguous row, which
``tests/test_hierarchy.py::test_pairwise_sum_equals_numpy_sum`` and
``test_sq_err_sum_equals_numpy_sum`` pin.  The bracket and interval
columns read whole rows of masses, so a pass that has them first sets the
masses past the mass end to zero; the loss columns come last, as they
overwrite the posterior means and the masses.

A replication skips what cannot change its result.  Each task decides
once, from its inputs, to skip the divide when every posterior-mean scale
is one and the subtraction when every prior mean is zero, and to divide
by a scalar when the posterior variance is constant.  Every contrast term
is >= 0, infinite or NaN and the penalty is finite, so the dimension tasks
check the posterior means only when the log-weights' maximum is not
finite (a chunk sum of squares that is not finite puts the whole search
range in the head first); sieve tasks check them on every chunk.

In the kernel, Python loops run only over streams: each step of a chunk,
from the noise scale to the masses, is one numpy call on all its rows, and
a loop over rows is a loop over the generators they draw from.  So it is
for the posterior draws: a row draws its dimensions and then one block of
standard normals from its own stream, and the draws, the prior means past
their dimensions, the squared distances, their sums and each interval's
count run on all the rows the draw budget gathers (below).  A block opens
one range of observation streams, whose keys ``rng.streams`` derives as
arrays, and on a pass that samples the posterior one range of draw
streams; each chunk takes its rows' generators from them.

Each draw is scored on exactly its replication's width: sieve draws span
the cut, hierarchical draws their row's first ``max(dims)`` columns, and
the prior-mean coordinates past those, with the bias past the cut, enter
as one deterministic sum, memoised per width, so a truncated simulation
drops no bias mass.  The hierarchical sampler forms the CDF of the masses
only up to the mass end.  A chunk's draws are sampled and scored in pieces
of at most ``_ROW_ELEMENTS`` draw coordinates, or of one draw where a
draw is wider (``_draw_distances``), and each interval counts its draws
piece by piece, so no draw array passes that budget and a pass holds one
piece's distances at a time, in buffers its block's chunks reuse.  The
rows of a piece are laid out coordinate-major, the draws innermost and
each row on its own columns with zeros past them, so every step runs
along the draws, not along a few columns; each draw's distance is still
numpy's sum over its own row's columns alone (``sequences._leaf_sums``
rebuilds that order for up to ``_PAIRWISE_LEAF`` columns; a wider row is
scored alone, as drawn).  An interval's mass is its count over the draws,
which is ``np.mean`` of the booleans bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import ConfigError
from .hierarchy import (
    _CHUNK,
    _check_bracket,
    _dimensions,
    _draw_dimensions,
    _fill_past_dimensions,
    _masses,
    _outside_mass,
    _pairwise_sum,
    _scalar_if_constant,
    _shrink,
    _terms,
    _Terms,
)
from .posterior import (
    PriorSpec,
    _check_means,
    _check_variances,
    _constant,
    _constant_variance,
    _mean_map,
    _MeanMap,
    _posterior_mean,
    _sieve_block,
    posterior_variances,
)
from .rng import AUDIT_DRAW, HIERARCHY_DRAW, OBSERVATION, SIEVE_DRAW, SUITE_GEN, stream, streams
from .selection import _bias_past, max_dimension, risk_decomposition
from .sequences import (
    _PAIRWISE_LEAF,
    OperatorSequence,
    ParameterSequence,
    _leaf_sums,
    _observe,
    _readonly,
    _sq_err_sum,
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
# Most worker threads IGSSM_THREADS may ask for; one task starts up to
# min(IGSSM_THREADS, its chunks of replications) of them.  Larger values are
# a config error.
MAX_THREADS = 64
# Elements per array of a chunk of replications: a chunk holds
# max(1, _ROW_ELEMENTS // cut) replications as rows, so its two arrays
# (512 KiB each) stay in L2 together.  The tail audit draws in row batches
# of the same budget.
_ROW_ELEMENTS = 1 << 16


def _max_workers() -> int:
    env = os.environ.get("IGSSM_THREADS")
    if not env:  # the cores this process may run on, where the platform tells
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(8, cores or 1)
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

    The ``(reps, m)`` normals come from the one stream in row-major order,
    in batches of ``max(1, _ROW_ELEMENTS // m)`` rows through one buffer;
    each draw leaves its ``dev`` in one vector of length ``reps``, from
    which the counts and the overshoot's pairwise sums are taken once.
    """
    if reps < _MIN_AUDIT_REPS:
        raise ValueError(f"audit needs at least {_MIN_AUDIT_REPS} draws, got {reps}")
    rng = stream(seed, AUDIT_DRAW, rep)
    m = config.m
    spread = config.spread
    rows = max(1, _ROW_ELEMENTS // m)
    buffer = np.empty((min(rows, reps), m))  # every row batch of draws, in turn
    dev = np.empty(reps)  # S - E[S] of every draw
    for r0 in range(0, reps, rows):
        z = buffer[: min(rows, reps - r0)]
        rng.standard_normal(out=z)
        np.multiply(config.scales, z, out=z)
        np.add(config.shifts, z, out=z)
        np.sum(np.square(z, out=z), axis=1, out=dev[r0 : r0 + len(z)])
    del buffer, z  # before the statistics' temporaries
    dev -= config.mean
    n_lower = int(np.count_nonzero(dev <= -spread))
    n_upper = int(np.count_nonzero(dev >= 1.5 * spread))
    dev -= 1.5 * spread
    over = np.maximum(dev, 0.0, out=dev)  # the overshoot (dev - 1.5 spread)_+
    over_sum = float(np.sum(over))
    over_sumsq = float(np.sum(np.square(over)))
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


def _mc_summary(values: np.ndarray, seed: int) -> list[MCEstimate]:
    """One estimate per column of the ``(reps, k)`` values, each from a
    contiguous copy of its column (see the module docstring)."""
    n = len(values)
    return [
        MCEstimate(float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else 0.0, n, int(seed))
        for v in values.T.copy()
    ]


class _Task(NamedTuple):
    """A Monte Carlo task's problem cut at its first ``cut`` coordinates, with
    everything that does not depend on the data: the squared bias carried
    past the cut, the signal ``lambda_j theta_j``, the noise scale
    ``sqrt(eps)``, the posterior variances (a scalar when constant), the
    map to posterior means, on the dimension posterior its log-weight
    terms (None on a sieve), and the elements a replication takes in its
    chunk's largest array (see ``_rows``)."""

    theta: np.ndarray
    means: np.ndarray
    remainder: float
    signal: np.ndarray
    noise_scale: float
    post_var: np.ndarray | float
    mean_map: _MeanMap
    terms: _Terms | None
    row_size: int

    def drawing(self, draws: int) -> "_Task":
        """This task for a statistic that scores ``draws`` posterior draws
        per replication.  On a sieve every draw spans the cut, so a
        replication takes ``draws`` times the cut in its chunk; on the
        dimension posterior a draw's width is not known in advance but is at
        least one, and ``_draw_distances`` splits the draws to its budget."""
        cut = self.theta.size
        return self._replace(row_size=cut * draws if self.terms is None else max(cut, draws))


def _task(theta, prior, op, eps, m=None, c_lambda=None) -> _Task:
    """The task of the sieve of dimension ``m``, cut at ``m``, or, given the
    operator constant ``c_lambda`` instead, of the dimension posterior, cut
    at the search range."""
    if (m is None) == (c_lambda is None):
        raise ValueError("give either the sieve dimension m or the operator constant c_lambda")
    cut = max_dimension(op, eps) if m is None else int(m)
    remainder = _bias_past(theta, prior, cut)
    th, pr, o = theta.head(cut), prior.head(cut), op.head(cut)
    post_var = _constant_variance(pr, o, eps)
    if post_var is None:
        post_var = _scalar_if_constant(posterior_variances(pr, o, eps))
    _check_variances(post_var)
    mean_map = _mean_map(pr, o, eps)
    terms = _terms(pr.means, post_var, c_lambda) if m is None else None
    # 1.0 * x is x: with every lambda_j = 1 the signal is theta itself
    signal = th.values if _constant(o.values) and o.values[0] == 1.0 else o.values * th.values
    return _Task(th.values, pr.means, remainder, signal, math.sqrt(eps), post_var, mean_map, terms, cut)


def _rows(task: _Task) -> int:
    """Replications per chunk of ``task``, whose arrays so hold at most
    ``_ROW_ELEMENTS`` each, or one replication."""
    return max(1, _ROW_ELEMENTS // task.row_size)


def _block(task: _Task, seed: int, start: int, stop: int):
    """Split replications ``start .. stop - 1`` into chunks of ``_rows(task)``
    (the last may be shorter) and yield ``(post_mean, work, end)`` for
    each, in order.  Row ``i`` of ``post_mean`` holds the finite posterior
    means of the observation drawn from the own stream of the chunk's
    ``i``-th replication.  On a sieve task ``end`` is the cut; on the
    dimension posterior it is the rows' largest mass end, and row ``i`` of
    ``work`` holds the masses before it (past it, whatever the posterior
    step left there).
    ``post_mean`` and ``work``, rows of the cut length, are the block's two
    arrays, allocated once; the statistic ``_replications`` runs on them may
    overwrite both before it takes the next chunk.  The block opens one
    range of observation streams and each chunk takes its rows' from it."""
    if stop <= start:
        raise ValueError("need at least one replication")
    cut = task.theta.size
    rows = min(_rows(task), stop - start)
    post_mean, work = np.empty((rows, cut)), np.empty((rows, cut))
    observations = streams(seed, OBSERVATION, start, stop)
    for r0 in range(start, stop, rows):
        k = min(rows, stop - r0)
        chunk, chunk_work = post_mean[:k], work[:k]
        _observe(task.signal, task.noise_scale, itertools.islice(observations, k), chunk)
        _posterior_mean(task.mean_map, chunk, chunk)
        if task.terms is None:
            _check_means(chunk)
            end = cut
        else:
            end = _masses(task.terms, chunk, chunk_work, chunk_work, _CHUNK)
        yield chunk, chunk_work, end


def _replications(task: _Task, reps: int, seed: int, statistic) -> np.ndarray:
    """The ``(reps, k)`` statistics of replications ``0 .. reps - 1``, in one
    contiguous block of replications per worker; a task whose replications
    fit in fewer chunks than there are workers takes one block per chunk.
    ``statistic(start, stop, chunks)`` runs once per block, on the chunks
    ``_block`` yields for it, and yields one float64 ``(rows, k)`` array per
    chunk, row ``i`` the ``k`` values of the chunk's ``i``-th replication.
    The arrays are concatenated once, in replication order."""
    blocks = max(1, min(_max_workers(), -(-reps // _rows(task))))
    spans = [(reps * k // blocks, reps * (k + 1) // blocks) for k in range(blocks)]
    parts = _parallel_map(lambda span: list(statistic(*span, _block(task, seed, *span))), spans)
    return np.concatenate([chunk for part in parts for chunk in part])


def _draw_distances(task: _Task, post_sd, draws: int, rngs, post_mean, probs, end: int, past: dict, buffers: dict):
    """Yield ``(rows, sq)`` until every draw of every row of ``post_mean``
    is scored: ``rows`` a slice or index array of its rows, ``sq[k]`` the
    squared distances to the truth of draws of row ``i = rows[k]``, drawn
    from the generator row ``i`` takes from ``rngs`` (its replication's
    stream, taken from its block's one range of draw streams); on the
    dimension posterior with masses ``probs[i]``, zero past ``end``.
    ``post_sd`` is ``sqrt(task.post_var)``, an array or a scalar.

    A row only draws, in the public samplers' order: its dimensions
    (``_draw_dimensions``), then one block of normals of its width.  The
    rows gathered within ``_ROW_ELEMENTS`` are then scored together
    (``score``), coordinate-major where they are at most
    ``_PAIRWISE_LEAF`` wide (``gather``); a wider row is scored alone, as
    drawn, and a row whose draws pass the budget in pieces (see the module
    docstring).  The prior-mean coordinates past a row's width add one
    sum, with the remainder, memoised per width in ``past``.  The large
    arrays live in the block's ``buffers`` (see ``_buffer``)."""
    n_rows, cut = post_mean.shape
    sieve = task.terms is None
    truth = task.theta
    post_sd = np.broadcast_to(post_sd, truth.shape)  # a view, whatever its form
    widths = np.full(n_rows, cut)
    if not sieve:  # each row's cumsum bit for bit
        cdf = np.cumsum(probs[:, :end], axis=1, out=_buffer(buffers, "cdf", (n_rows, end)))
        found = _buffer(buffers, "found", (n_rows, draws), np.intp)
    budget = _ROW_ELEMENTS
    normals = _buffer(buffers, "normals", (max(min(budget, n_rows * draws * cut), cut),))

    def score(rows, lanes, d0, d1):
        """``(rows, sq)``: the squared distances of draws ``d0 .. d1 - 1``
        of ``rows``, whose normals ``lanes`` holds, as drawn or as
        ``gather`` laid them out."""
        own, width = widths[rows], lanes.shape[1]
        _sieve_block(post_mean[rows, :width], post_sd, lanes)
        np.subtract(lanes, truth[:width, None], out=lanes)
        np.square(lanes, out=lanes)
        if not sieve:  # past a draw's dimension, the prior mean's squared error; zero past its row
            prior_sq = np.where(np.arange(width) < own[:, None], np.square(task.means[:width] - truth[:width]), 0.0)
            _fill_past_dimensions(lanes, _dimensions(found[rows, d0:d1], end, cut), prior_sq)
        sq = _leaf_sums(lanes, own) if width <= _PAIRWISE_LEAF else np.sum(lanes.transpose(0, 2, 1), axis=2)
        for w in own.tolist():
            if w not in past:
                past[w] = _sq_err_sum(task.means, truth, w, truth.size - w) + task.remainder
        sq += np.array([past[w] for w in own.tolist()])[:, None]
        return rows, sq

    def gather(i0, i1, width):
        """``(rows, lanes)``: rows ``i0 .. i1 - 1``, every draw,
        coordinate-major, in order of width, each on its own columns with
        zeros past them."""
        own = widths[i0:i1]
        lanes = _buffer(buffers, "lanes", (i1 - i0, width, draws))
        if own.min() == width:
            lanes[...] = normals[: lanes.size].reshape(i1 - i0, draws, width).transpose(0, 2, 1)
            return slice(i0, i1), lanes
        order = np.argsort(own, kind="stable")
        starts = (np.cumsum(own) - own) * draws
        for row, k in zip(lanes, order.tolist()):
            w = int(own[k])
            row[:w] = normals[starts[k] : starts[k] + draws * w].reshape(draws, w).T
            row[w:] = 0.0
        return i0 + order, lanes

    first = used = top = 0  # the gathered rows, their normals and their widest width
    for i, rng in zip(range(n_rows), rngs):  # the rows' generators, none past them
        if not sieve:
            widths[i] = _draw_dimensions(cdf[i], cut, rng, found[i])
        width = int(widths[i])
        alone = width > _PAIRWISE_LEAF or draws * width > budget
        if i > first and (alone or (i - first + 1) * draws * max(top, width) > budget):
            yield score(*gather(first, i, top), 0, draws)
            first, used, top = i, 0, 0
        if not alone:
            rng.standard_normal(out=normals[used : used + draws * width])
            used, top = used + draws * width, max(top, width)
            continue
        step = max(1, budget // width)
        for d0 in range(0, draws, step):
            d1 = min(draws, d0 + step)
            drawn = normals[: (d1 - d0) * width].reshape(1, d1 - d0, width)
            rng.standard_normal(out=drawn)
            yield score(slice(i, i + 1), drawn.transpose(0, 2, 1), d0, d1)
        first = i + 1
    if first < n_rows:
        yield score(*gather(first, n_rows, top), 0, draws)


def _buffer(buffers: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An array of ``shape`` over the buffer ``name`` in ``buffers``, grown
    when it is too small.  The chunks of a block reuse its buffers: the
    allocator hands arrays of hundreds of KiB back to the system when they
    are freed, so fresh ones per chunk are mapped and faulted in anew each
    time."""
    size = math.prod(shape)
    if name not in buffers or buffers[name].size < size:
        buffers[name] = np.empty(size, dtype)
    return buffers[name][:size].reshape(shape)


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
    of the hierarchical posterior mean over the search range: the loss
    column of the one pass on that posterior (``_pass``).  Only the
    coordinates the estimator touches are simulated; everything beyond
    contributes its exact squared bias.
    """
    return _pass(theta, prior, op, eps, reps, seed, [("loss", None)], m=m, c_lambda=c_lambda)[0]


def mc_mise_profile(
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    reps: int,
    seed: int,
    dims: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo integrated squared error of the sieve estimate at each
    of ``dims``: the loss columns of the one pass on the sieve of dimension
    ``max(dims)`` (``_pass``).  A sieve's observations are a prefix of a
    longer one's, drawn from the same stream, so each column is bit for bit
    ``mc_mise`` at its dimension, standard error included.  A loss at ``m``
    sums ``m`` squared errors a replication, so name the dimensions to
    score, not a long search range.  Returns ``(mise, se)`` arrays."""
    estimates = _pass(theta, prior, op, eps, reps, seed, [("loss", d) for d in dims], m=max(dims))
    return np.array([e.value for e in estimates]), np.array([e.se for e in estimates])


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
    return _pass(theta, prior, op, eps, reps, seed, [_band(band_constant, rate, two_sided)], draws, m, c_lambda)[0]


def _band(band_constant: float, rate: float, two_sided: bool) -> tuple:
    """The band of :func:`mc_concentration` as the interval column of
    ``_pass``: the closed interval ``(lo, hi)`` of squared distances."""
    if not band_constant >= 1.0:
        raise ValueError("band constant must be >= 1")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError("rate must be finite and positive")
    return ("interval", (rate / band_constant if two_sided else 0.0, rate * band_constant))


def _pass(theta, prior, op, eps, reps, seed, columns, draws=0, m=None, c_lambda=None) -> list[MCEstimate]:
    """The one pass on the task of ``m`` or ``c_lambda`` (see ``_task``):
    one estimate per column of ``columns``, in the order given.  An
    ``("interval", (lo, hi))`` column is the expected share of posterior
    draws whose squared distance to the truth lies in the closed interval
    (see ``_band`` and ``_strict_events``); a ``("bracket", (m_lo, m_hi))``
    column, on the dimension posterior only, the expected mass outside
    (:func:`mc_bracket_mass`); a ``("loss", d)`` column (``d`` None: the
    cut; only the cut on the dimension posterior) the estimate's integrated
    squared error (:func:`mc_mise`): its first ``d`` squared errors plus
    the prior mean's past ``d`` (``selection._bias_past``).  Each column
    fills its own slot of a chunk's ``out``, the loss columns last, as they
    overwrite the posterior means and the masses.  A replication is
    observed, weighed and sampled once for every column, its ``draws``
    distances counted in every interval before the next one draws; a pass
    without intervals samples nothing.  Every column is checked before any
    replication runs."""
    slots = {"interval": [], "bracket": [], "loss": []}  # per kind, its columns' (slot of out, region)
    for slot, (kind, region) in enumerate(columns):
        if kind not in slots:
            raise ValueError(f"unknown column kind {kind!r}")
        slots[kind].append((slot, region))
    intervals, brackets, loss = slots.values()
    if intervals and draws < 1:
        raise ValueError("need at least one draw")
    task = _task(theta, prior, op, eps, m, c_lambda)
    task = task.drawing(draws) if intervals else task
    cut = task.theta.size
    if brackets and task.terms is None:
        raise ValueError("a bracket column reads the dimension posterior: give c_lambda, not the sieve dimension m")
    for _, (m_lo, m_hi) in brackets:
        _check_bracket(m_lo, m_hi, cut)
    dims = [cut if d is None else int(d) for _, d in loss]
    if not all((1 if task.terms is None else cut) <= d <= cut for d in dims):  # the adaptive estimate spans the cut
        raise ValueError(f"loss dimensions {dims} outside 1..{cut}, or short of the cut on the dimension posterior")
    rests = [task.remainder if d == cut else _bias_past(theta, prior, d) for d in dims]
    post_sd = np.sqrt(task.post_var)
    domain = SIEVE_DRAW if task.terms is None else HIERARCHY_DRAW
    past = {}  # the distances' deterministic sum per width, shared by all chunks
    tail_sums = {}  # the prior mean's squared errors summed per subtree, shared by all chunks

    def statistic(start, stop, chunks):
        rngs = streams(seed, domain, start, stop) if intervals else None  # the block's one draw range
        buffers = {}  # the block's draw buffers, reused by its chunks
        for post_mean, probs, end in chunks:
            if intervals or brackets:
                probs[:, end:] = 0.0  # the masses past the mass end
            out = np.empty((len(post_mean), len(columns)))
            if intervals:
                counts = np.zeros((len(post_mean), len(intervals)), dtype=np.intp)
                for rows, sq in _draw_distances(task, post_sd, draws, rngs, post_mean, probs, end, past, buffers):
                    for k, (_, (lo, hi)) in enumerate(intervals):
                        counts[rows, k] += np.count_nonzero((sq >= lo) & (sq <= hi), axis=1)
                out[:, [slot for slot, _ in intervals]] = counts / draws  # np.mean of the booleans, bit for bit
            for slot, (m_lo, m_hi) in brackets:
                out[:, slot] = _outside_mass(probs, m_lo, m_hi)
            if loss:
                if task.terms is not None:
                    _shrink(probs, end, post_mean, task.means, probs, post_mean)
                head = post_mean[:, :end]
                np.subtract(head, task.theta[:end], out=head)
                np.square(head, out=head)
                # the first d squared errors; on the dimension posterior, past the mass end, the prior mean's
                for (k, _), d, rest in zip(loss, dims, rests):
                    out[:, k] = _pairwise_sum(post_mean[:, :d], min(end, d), (task.means, task.theta), tail_sums) + rest
            yield out

    return _mc_summary(_replications(task, reps, seed, statistic), seed)


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
    inequality requires ``0 < c < 1/5``.  Both are columns of one pass
    (``_pass``, ``_strict_events``).
    """
    if not 0.0 < c < 0.2:
        raise ValueError("deviation scale c must lie in (0, 1/5)")
    risk = risk_decomposition(theta, prior, op, eps, m)
    hi = risk.bias + 3.0 * risk.post_var_sum + 1.5 * m * risk.post_var_max + 4.0 * risk.shift
    lo = risk.bias + risk.post_var_sum - 4.0 * c * (m * risk.post_var_max + risk.shift)
    upper, lower = _pass(theta, prior, op, eps, reps, seed, _strict_events(hi, lo), draws=draws, m=m)
    upper_bound = 2.0 * math.exp(-m / 36.0)
    lower_bound = 2.0 * math.exp(-(c**2) * m / 2.0)
    passed = upper.value <= upper_bound + 3.0 * upper.se and lower.value <= lower_bound + 3.0 * lower.se
    return SieveDeviationAudit(
        m=int(m), c=float(c), upper=upper, lower=lower, upper_threshold=hi, lower_threshold=lo,
        upper_bound=upper_bound, lower_bound=lower_bound, passed=bool(passed),
    )


def _strict_events(hi: float, lo: float) -> list:
    """The events ``sq > hi`` and ``sq < lo`` as interval columns: from the
    next double above ``hi``, up to the next below ``lo``; past an infinity
    there is none, and the bound NaN, which no comparison passes."""
    above = math.nextafter(hi, math.inf) if hi != math.inf else math.nan
    below = math.nextafter(lo, -math.inf) if lo != -math.inf else math.nan
    return [("interval", (above, math.inf)), ("interval", (-math.inf, below))]


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
    return _pass(theta, prior, op, eps, reps, seed, [("bracket", bracket)], c_lambda=c_lambda)[0]


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
