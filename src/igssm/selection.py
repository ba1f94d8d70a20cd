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

The bias profile, the variance-proxy prefix sums and the class weights are
each read as a :class:`_Profile`: its value at the last index of every
``sequences._BLOCK``-long block, taken in one scan, and one block at a
time, folded or evaluated on demand bit for bit as the whole array would
hold it.  A selection or a bracket searches those ends and then reads the
one block that holds its answer, so no full-length array is built and
nothing is kept on the sequences.  Set-up builds the profiles once
(:func:`_profiles`) and makes every selection on them; each public
function called alone builds those it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .posterior import PriorSpec, posterior_variances
from .sequences import (
    OperatorSequence,
    ParameterSequence,
    WeightedClass,
    _blocks,
    _check_eps,
    _freeze,
    _readonly,
    _sq_err,
    _sq_err_sum,
)

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


# ---------------------------------------------------------------------------
# profiles: the sequences the selections read, a block at a time
# ---------------------------------------------------------------------------


class _Profile:
    """A monotone sequence ``p_i``, ``i = 0..n-1``, read through the blocks
    ``blocks`` of ``sequences._blocks(n)``: ``ends[k]`` is its value at the
    last index of block ``k`` and ``block(k)`` its values on that block, each
    bit for bit what the whole array would hold."""

    def __init__(self, blocks: list, ends: np.ndarray, block):
        self.blocks, self.ends, self.block = blocks, ends, block

    @property
    def n(self) -> int:
        return self.blocks[-1][1]

    def first(self, at_ends: np.ndarray, in_block) -> int:
        """The first index where a condition, false and then true along
        the sequence, holds (``n`` if none), from ``at_ends``, its values at
        the block ends, and ``in_block(k)``, its values on block ``k``, read
        for the first block that ends true."""
        k = int(np.argmax(at_ends))
        if not at_ends[k]:
            return self.n
        return self.blocks[k][0] + int(np.argmax(in_block(k)))

    def locate(self, i: int) -> tuple[int, int]:
        """``(k, offset)``: the block holding index ``i`` and ``i``'s place in it."""
        k = i // self.blocks[0][1]
        return k, i - self.blocks[k][0]

    def at(self, i: int) -> np.float64:
        """``p_i``, reading its block."""
        k, offset = self.locate(i)
        return self.block(k)[offset]

    def head(self, stop: int) -> np.ndarray:
        """``p_i`` for ``i < stop``, reading the blocks up to ``stop``."""
        out = np.empty(stop)
        for k, (lo, hi) in enumerate(self.blocks):
            if lo >= stop:
                break
            out[lo : min(hi, stop)] = self.block(k)[: stop - lo]
        return out


def _bias(theta: ParameterSequence, prior: PriorSpec) -> _Profile:
    """The bias profile ``b_m``, ``m = i + 1``: the suffix sums from ``m``
    on plus the analytic tail of the signal family beyond ``N``, with the
    prior mean taken as zero past the stored range.

    One reverse scan keeps the suffix sum at each block's upper edge; a
    block is folded in reverse from it (no cancelling subtractions), which
    is the whole-array cumsum bit for bit.  Raises ``OverflowError`` when
    the whole sum is past the double range."""
    if theta.n != prior.n:
        raise ValueError("signal and prior lengths must match")
    tail = theta.sq_tail()
    blocks = _blocks(theta.n)

    def fold(k, upper):  # the suffix sums from lo..hi of block k, from the sum ``upper`` at hi
        lo, hi = blocks[k]
        run = np.empty(hi - lo + 1)
        run[-1] = upper
        np.subtract(theta.values[lo:hi], prior.means[lo:hi], out=run[:-1])
        np.square(run[:-1], out=run[:-1])
        reverse = run[::-1]
        np.add.accumulate(reverse, out=reverse)
        return run

    uppers = np.empty(len(blocks))
    total = 0.0
    # an overflow reaches the whole sum, refused below; b_m itself may pass
    # the double range once the tail is added, as the whole-array sums do
    with np.errstate(over="ignore"):
        for k in reversed(range(len(blocks))):
            uppers[k] = total
            total = fold(k, total)[0]
        ends = uppers + tail
    if not np.isfinite(total):
        raise OverflowError("the squared distance of the truth from the prior mean is past the double range")

    def block(k):
        with np.errstate(over="ignore"):
            return fold(k, uppers[k])[1:] + tail

    return _Profile(blocks, ends, block)


def _prefix(op: OperatorSequence, stop: int | None = None) -> _Profile:
    """The variance-proxy prefix sums ``sum_{j<=m} lambda_j^{-2}``, ``m =
    i + 1``, for ``i`` below ``stop`` (default ``N``), +inf past the double
    range: one forward scan keeps the sum at each block end, and a block is
    folded from the end of the block before, which is ``np.cumsum`` of the
    whole array bit for bit."""
    blocks = _blocks(op.n if stop is None else stop)

    def fold(k, before):  # the sums on block k, from the sum ``before`` below it
        lo, hi = blocks[k]
        run = np.empty(hi - lo + 1)
        run[0] = before
        np.negative(op.log_sq[lo:hi], out=run[1:])
        with np.errstate(over="ignore"):
            np.exp(run[1:], out=run[1:])
        return np.add.accumulate(run, out=run)[1:]

    ends = np.empty(len(blocks))
    before = 0.0
    for k in range(len(blocks)):
        before = ends[k] = fold(k, before)[-1]
    return _Profile(blocks, ends, lambda k: fold(k, ends[k - 1] if k else 0.0))


def _weights(weighted_class: WeightedClass) -> _Profile:
    """The class weights ``w_m``, ``m = i + 1``, evaluated at the block ends
    and on a block as the class holds or computes them."""
    blocks = _blocks(weighted_class.n)
    ends = weighted_class._at(np.array([hi - 1 for _, hi in blocks]))
    return _Profile(blocks, ends, lambda k: weighted_class._block(*blocks[k]))


class _Profiles(NamedTuple):
    """What every selection of a run reads, built once by :func:`_profiles`."""

    bias: _Profile
    prefix: _Profile
    weights: _Profile | None

    @property
    def kinds(self) -> tuple:
        """The selections these profiles make: the oracle and, with the
        class weights, the minimax."""
        return ("oracle",) if self.weights is None else ("oracle", "minimax")

    def select(self, kind: str, eps: float) -> tuple:
        """The oracle or minimax selection at ``eps``; see :func:`_select`."""
        return _select(self.weights if kind == "minimax" else self.bias, self.prefix, kind, eps)


def _profiles(theta: ParameterSequence, prior: PriorSpec, op: OperatorSequence,
              weighted_class: WeightedClass | None = None) -> _Profiles:
    """The bias profile, the variance-proxy prefix sums and, with a class,
    its weights: one scan each."""
    weights = None if weighted_class is None else _weights(weighted_class)
    return _Profiles(_bias(theta, prior), _prefix(op), weights)


def bias_profile(theta: ParameterSequence, prior: PriorSpec) -> np.ndarray:
    """``b_m`` for ``m = 1..N``: squared bias of keeping ``m`` coordinates,
    the analytic tail of the signal family beyond ``N`` added throughout.

    Read-only and built on each call, one block at a time from the edges of
    :func:`_bias`.  Raises ``OverflowError`` when the whole sum is past the
    double range.
    """
    return _freeze(_bias(theta, prior).head(theta.n))


def _bias_past(theta: ParameterSequence, prior: PriorSpec, m: int) -> float:
    """The prior mean's squared error past coordinate ``m``, the analytic
    tail of the signal family beyond N included: the squared bias of the
    ``m``-dimensional sieve."""
    return _sq_err_sum(theta.values, prior.means, m, theta.n - m) + theta.sq_tail()


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
    bias = _bias_past(theta, prior, m)
    variance_proxy = eps * _prefix(op, m).ends[-1]
    if not np.isfinite(variance_proxy):
        raise OverflowError(f"variance proxy overflows at m={m}")
    post_var = posterior_variances(prior.head(m), op.head(m), eps)
    shrink = np.zeros(m)
    proper = ~prior.improper[:m]
    if np.any(proper):
        v = prior.variances[:m][proper]
        lam_sq = op.values[:m][proper] ** 2
        shrink[proper] = eps / (v * lam_sq + eps)  # post_var / prior var, stably
    shift = float(np.sum(shrink**2 * _sq_err(theta.values, prior.means, 0, m)))
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


def _select(profile: _Profile, prefix: _Profile, kind: str, eps: float) -> tuple:
    """``(selection, min(profile_m, vprox_m))`` at the smallest minimiser
    ``m`` of ``max(profile_m, vprox_m)``, with the variance proxy ``vprox_m
    = eps * prefix_m`` (+inf past the representable range).  ``profile``
    does not increase and ``vprox`` does not decrease, so the rate is the
    profile up to the first ``m`` where the proxy reaches it and the proxy
    from there on: its first minimiser is that ``m`` or the start of the
    profile's plateau just before it, the index ``argmin`` of the whole
    rate gives.  Each is found on the block ends first, then in the one
    block that holds it, which is folded once for the query."""
    folded = {}  # block index: the profile and the variance proxy on it

    def on(k):
        if k not in folded:
            folded[k] = (profile.block(k), eps * prefix.block(k))
        return folded[k]

    def at(i):
        k, offset = profile.locate(i)
        values, vprox = on(k)
        return values[offset], vprox[offset]

    n = profile.n
    cross = profile.first(eps * prefix.ends >= profile.ends, lambda k: on(k)[1] >= on(k)[0])
    idx = cross
    if cross == n or (cross > 0 and at(cross - 1)[0] <= at(cross)[1]):
        level = at(cross - 1)[0]
        idx = profile.first(profile.ends <= level, lambda k: on(k)[0] <= level)
    value, vprox = at(idx)
    return SelectionResult(idx + 1, float(max(value, vprox)), kind, float(eps)), min(value, vprox)


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
    return _select(_bias(theta, prior), _prefix(op), "oracle", eps)[0]


def minimax_dimension(
    weighted_class: WeightedClass,
    op: OperatorSequence,
    eps: float,
) -> SelectionResult:
    """Smallest minimiser of ``max(w_m, eps sum_{j<=m} lambda_j^{-2})``."""
    if weighted_class.n != op.n:
        raise ValueError("class and operator lengths must match")
    _check_eps(eps)
    return _select(_weights(weighted_class), _prefix(op), "minimax", eps)[0]


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
    return _bracket(_bias(theta, prior), theta, prior, op, report, sel, weighted_class, c_lambda)


def _bracket(bias, theta, prior, op, report, sel, weighted_class=None, c_lambda=None) -> tuple[int, int]:
    """:func:`bracket_dimensions` on the bias profile ``bias`` of ``theta``
    and ``prior``: ``m_lo`` is its first crossing below the threshold."""
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
    below = lo_threshold * (1.0 + _LOG_TOL)
    m_lo = bias.first(bias.ends <= below, lambda k: bias.block(k) <= below) + 1
    if m_lo > m_sel:
        # b_{m_sel} <= rate bounds the oracle's; the minimax's is bounded by
        # radius w_{m_sel} <= radius rate while theta lies in the class
        outside = sel.kind == "minimax" and not weighted_class.contains(theta, prior.means)
        raise InfeasibleError(
            f"lower bracket set is empty at eps={eps}: the squared bias {float(bias.at(m_sel - 1))!r} at the "
            f"{sel.kind} dimension {m_sel} exceeds the threshold {lo_threshold!r}; "
            + ("the truth lies outside the class" if outside else "assumption constants are inconsistent")
        )
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


def _submultiplicative(op: OperatorSequence) -> tuple[bool, tuple[int, int] | None]:
    """Check ``max-amp(k*l) <= max-amp(k) * max-amp(l)`` for all ``k*l <= N``.

    Runs in log space so rapidly growing amplification cannot overflow, and
    only scans ``k <= l`` (the condition is symmetric).  Each ``k`` walks
    its ``l`` range in blocks, in order, so the first failing block holds
    the smallest failing ``l``.

    A pair fails only if ``lhs`` exceeds ``rhs`` by its tolerance, at least
    ``_LOG_TOL * max(1, |rhs|)``.  Past the ``k = 1`` check no entry of
    ``log_cummax`` is below ``-_LOG_TOL``, so the sums cancel nothing and
    round by a few parts in 1e16, far less than half that tolerance:
    every failing pair also has ``lhs > log_cummax[l - 1] + (log_cummax[k
    - 1] + _LOG_TOL / 2)``.  A block with no pair past that cheaper bound is
    passed over; only the others are compared in full.
    """
    log_cummax = op._log_amp_cummax
    n = op.n
    # k = 1 reduces to max-amp(1) >= 1, which fails whenever lambda_1 > 1
    if log_cummax[0] < -_LOG_TOL:
        return False, (1, 1)
    for k in range(2, int(math.isqrt(n)) + 1):
        at_k = log_cummax[k - 1]
        for lo, hi in _blocks(n // k, k - 1):  # l - 1 runs over k - 1 .. n // k - 1
            lhs = log_cummax[k * (lo + 1) - 1 : k * hi : k]
            at_l = log_cummax[lo:hi]
            if not np.greater(lhs, at_l + (at_k + 0.5 * _LOG_TOL)).any():
                continue
            rhs = at_l + at_k
            bad = lhs > rhs + np.maximum(np.abs(rhs), 1.0) * _LOG_TOL
            if bad.any():
                return False, (k, lo + 1 + int(bad.argmax()))
    return True, None


def _operator_constant(op: OperatorSequence) -> float:
    """``C_lambda``: the smallest ``C >= 1`` with ``max_{j>k} lambda_j^2 <=
    C min_{j<=k} lambda_j^2`` for every ``k``.

    The largest log-ratio over all ``k`` is the largest ``log lambda_j^2 -
    min_{i<j} log lambda_i^2`` over ``j``: each is a difference of the same
    two entries, and rounding is monotone, so the two maxima are equal bit
    for bit.  One forward pass finds it a block at a time, carrying the
    prefix minimum across block edges."""
    n = op.n
    if n == 1:
        return 1.0
    log_sq = op.log_sq
    gap = -np.inf
    min_before = np.inf  # the minimum below the current block
    for lo, hi in _blocks(n - 1):  # the minimum runs over i < j, so j - 1 runs over 0..n-2
        prefix_min = np.minimum.accumulate(log_sq[lo:hi])
        np.minimum(prefix_min, min_before, out=prefix_min)
        gap = max(gap, float(np.max(log_sq[lo + 1 : hi + 1] - prefix_min)))
        min_before = float(prefix_min[-1])
    return max(1.0, float(np.exp(gap)))


def _mean_constant(op: OperatorSequence) -> float:
    """``L_lambda``: the smallest ``L >= 1`` with ``max-amp(m) <= L *
    mean-amp(m)`` for every ``m``, from the overflow-free ``log sum_{j<=m}
    lambda_j^{-2}``.  That log-sum is one left fold of ``np.logaddexp``,
    run a block at a time: each block's fold starts from the last sum of
    the block before, so it is the whole-array fold bit for bit."""
    log_cummax = op._log_amp_cummax
    blocks = _blocks(op.n)
    gap = -np.inf
    fold = np.empty(blocks[0][1] + 1)
    fold[0] = -np.inf  # logaddexp(-inf, x) is x (a -0.0 comes out as 0.0)
    for lo, hi in blocks:
        run = fold[: hi - lo + 1]
        np.negative(op.log_sq[lo:hi], out=run[1:])
        np.logaddexp.accumulate(run, out=run)
        log_mean = run[1:] - np.log(np.arange(lo + 1, hi + 1))
        gap = max(gap, float(np.max(log_cummax[lo:hi] - log_mean)))
        fold[0] = run[-1]
    return max(1.0, float(np.exp(gap)))


def _variance_floor(prior: PriorSpec, op: OperatorSequence, eps: float, m_max: int) -> float:
    """The largest ``d`` with ``v_j >= d max(sqrt(eps amp_j), eps amp_j)``
    for the proper coordinates ``j <= m_max`` (``inf`` when there are
    none), read a block at a time."""
    d = np.inf
    for lo, hi in _blocks(m_max):
        proper = ~prior.improper[lo:hi]
        if not proper.any():
            continue
        log_amp = -op.log_sq[lo:hi][proper]
        floor = np.maximum(
            np.exp(0.5 * (math.log(eps) + log_amp)),
            np.exp(math.log(eps) + log_amp),
        )
        d = min(d, float(np.min(prior.variances[lo:hi][proper] / floor)))
    return d


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
    return _assumptions(theta, prior, op, eps_grid, weighted_class)


def _assumptions(theta, prior, op, eps_grid, weighted_class=None, profiles=None) -> AssumptionReport:
    """:func:`check_assumptions` making its selections on ``profiles``,
    those of the same sequences (built here, once the inputs are checked,
    when None)."""
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
    if profiles is None:
        profiles = _profiles(theta, prior, op, weighted_class)

    c_lambda = _operator_constant(op)
    l_lambda = _mean_constant(op)
    submult, witness = _submultiplicative(op)

    # at each noise level, the oracle selection on the bias profile and,
    # with a class, the minimax selection on the class weights
    found: dict = {kind: [] for kind in profiles.kinds}  # (dimension, rate, balance) per noise level
    d = np.inf
    max_dims, feasible = [], []
    for eps in (float(e) for e in eps_grid):
        m_max = max_dimension(op, eps)
        max_dims.append(m_max)
        d = min(d, _variance_floor(prior, op, eps, m_max))
        for kind in profiles.kinds:
            sel, low = profiles.select(kind, eps)
            found[kind].append((sel.dimension, sel.rate, low / sel.rate))
        feasible.append(found["oracle"][-1][0] <= m_max)

    columns = {}  # per kind: its dimensions, its rates and its balance constant kappa
    for kind, rows in found.items():
        dims, rates, balances = zip(*rows)
        columns[kind] = (np.asarray(dims, dtype=np.int64), np.asarray(rates, dtype=np.float64),
                         float(min(np.inf, *balances, 1.0)))
    oracle_dims, oracle_rates, kappa_oracle = columns["oracle"]
    minimax_dims, minimax_rates, kappa_minimax = columns.get("minimax", (None, None, None))
    return AssumptionReport(
        d=float(d),
        c_lambda=c_lambda,
        l_lambda=l_lambda,
        submultiplicative=submult,
        submult_witness=witness,
        kappa_oracle=kappa_oracle,
        kappa_minimax=kappa_minimax,
        eps_grid=_readonly(eps_grid),
        max_dims=np.asarray(max_dims, dtype=np.int64),
        oracle_dims=oracle_dims,
        oracle_rates=oracle_rates,
        minimax_dims=minimax_dims,
        minimax_rates=minimax_rates,
        feasible=np.asarray(feasible, dtype=bool),
        checked_range=n,
    )


def shift_sq_norm(theta: ParameterSequence, prior: PriorSpec) -> float:
    """``sum_j (theta_j - mu_j)^2`` including the analytic tail beyond N."""
    if theta.n != prior.n:
        raise ValueError("signal and prior lengths must match")
    return _bias_past(theta, prior, 0)


def composite_constants(
    report: AssumptionReport,
    theta: ParameterSequence,
    prior: PriorSpec,
    op: OperatorSequence,
    weighted_class: WeightedClass | None = None,
    c_lambda: float | None = None,
) -> dict[str, float]:
    """Concentration/risk constants assembled from the reported quantities.

    All are derived fields, never free parameters.  Each selection present
    (the oracle always, the minimax with ``weighted_class``) is one row of

        ======== ================ ============ ================ ======= ====
        kind     norm N           factor F     balance kappa    divisor lead
        ======== ================ ============ ================ ======= ====
        oracle   |theta - mu|^2   1            kappa_oracle     1       10
        minimax  radius r         max(1, r)    kappa_minimax    kappa   16
        ======== ================ ============ ================ ======= ====

    and gives three constants, with ``M = max(1 + 1/d, N/d^2)``:

    * ``<kind>_sieve``          10 M F S / divisor, with S the grid supremum
      of eps m max-amp(m) / rate along the kind's dimensions;
    * ``<kind>_hierarchical``   lead M L^2 (8C(1 + 1/d)  v  D max-amp(D)) F,
      D = ceil(5L / kappa);
    * ``<kind>_adaptive_mise``  2L D' max-amp(D') + 16LC(1 + 1/d) F + 2N/d^2,
      D' = ceil(5L F / kappa).

    Threshold dimensions clamp to the sequence length, which is also their
    value when the balance constant vanishes.  A factor or divisor of 1 is
    exact, so the oracle constants are the formulas without them bit for
    bit.  ``N/d^2`` is ``N/d/d`` once ``d^2`` is past the double range, and
    0.0 at ``d = inf``.

    ``c_lambda`` defaults to the reported constant; pass the dimension-prior
    override when one is in force so every constant is assembled from the
    same C.
    """
    d = report.d
    if min(d, 1.0) ** 2 == 0.0:
        raise OverflowError(f"1/d^2 is past the double range at the margin constant d={d}")
    inv_d = 1.0 / d
    big_l = report.l_lambda
    big_c = report.c_lambda if c_lambda is None else c_lambda
    rows = [("oracle", shift_sq_norm(theta, prior), 1.0, report.kappa_oracle, 1.0, 10.0,
             report.oracle_dims, report.oracle_rates)]
    if weighted_class is not None:
        r, kappa = weighted_class.radius, report.kappa_minimax
        rows.append(("minimax", r, max(1.0, r), kappa, kappa, 16.0, report.minimax_dims, report.minimax_rates))

    out: dict[str, float] = {}
    for kind, norm, factor, kappa, divisor, lead, dims, rates in rows:
        norm_term = _over_d_sq(norm, d)
        margin = max(1.0 + inv_d, norm_term)
        sup = float(np.max([e * m * op.max_amplification(int(m)) / rate
                            for e, m, rate in zip(report.eps_grid, dims, rates)]))
        out[f"{kind}_sieve"] = 10.0 * margin * factor * sup / divisor
        dim = _threshold_dimension(5.0 * big_l, kappa, op.n)
        out[f"{kind}_hierarchical"] = (
            lead * margin * big_l**2 * max(8.0 * big_c * (1.0 + inv_d), dim * op.max_amplification(dim)) * factor
        )
        dim = _threshold_dimension(5.0 * big_l * factor, kappa, op.n)
        out[f"{kind}_adaptive_mise"] = (
            2.0 * big_l * dim * op.max_amplification(dim)
            + 16.0 * big_l * big_c * (1.0 + inv_d) * factor
            + 2.0 * norm_term
        )
    return out


def _over_d_sq(x: float, d: float) -> float:
    """``x / d**2``, or ``x / d / d`` where ``d**2`` is past the double range."""
    try:
        return x / d**2
    except OverflowError:
        return x / d / d


def _threshold_dimension(x: float, kappa: float, n: int) -> int:
    """``ceil(x / kappa)`` clamped to ``1..n``; ``n`` when ``kappa`` vanishes."""
    if kappa == 0.0:
        return n
    # clamp before rounding: a tiny balance constant can make x / kappa infinite
    return max(1, int(math.ceil(min(x / kappa, n) - _LOG_TOL)))
