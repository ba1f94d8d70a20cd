"""Hierarchical prior on the truncation dimension and the resulting
fully data-driven estimator.

On top of the sieve priors of dimension ``m = 1..M`` (``M`` the search
range from :func:`igssm.selection.max_dimension`), the dimension itself
receives the prior

    p(m)  propto  exp(-3 C m / 2) * prod_{j<=m} (v_j / post_var_j)^{1/2},

whose posterior given the data has log-weights

    l_m = (1/2) sum_{j<=m} (post_mean_j - mu_j)^2 / post_var_j  -  (3/2) C m.

``C`` is the operator constant from the regularity diagnostics (an upper
bound for ``max_{j>k} lambda_j^2 / min_{j<=k} lambda_j^2``).  Everything is
normalised through a single max-shifted log-sum-exp, so the weights are
invariant under constant shifts of the log scale.

One pipeline turns posterior means into the dimension posterior's masses:
``_terms`` fixes the data-independent terms of the log-weights, and
``_masses`` computes the log-weights, checks them and normalises them.
The public functions and the Monte Carlo kernel both call it.

The posterior concentrates near the oracle dimension, so on long search
ranges ``exp(l_m - max l)`` underflows to exactly 0.0 for all but a short
head of dimensions (about 500 of 1e6 on the direct model at eps=1e-6).
Normalisation finds the *mass end*: one past the last ``m`` with
``l_m - max l > -800``, a margin below the ~-745.1 where ``exp`` reaches
0.0, so subnormal masses stay inside.  It is found from the maxima of
fixed-length chunks of the log-weights, which also give ``max l``, and a
search of the one chunk that holds it.  Only the head before it is
exponentiated and shrunk; past it the masses are exact zeros, ``omega_j =
0`` and the estimate is the prior mean, exactly what the full-range
formulas give.

The Monte Carlo kernel goes further and computes the log-weights
themselves only on an exact head ``[0, E)``, starting at one chunk.  One
read of the rest of each row gives its chunk sums of squares, from which
``_tail_bound`` bounds every later chunk's log-weights from above; a chunk
whose bound lies more than the margin below ``max l`` holds no mass and
gets no log-weights, and a chunk that may hold mass extends the head to its
end.
The public functions start with the head at the whole search range, so
their log-weights are full-length.  The mass sum keeps the full-range
reduction order without reading the zero tail: ``_pairwise_sum`` rebuilds
numpy's pairwise summation tree (leaves of up to 128 elements, each node
split at half its length rounded down to a multiple of 8) from the sums
of its subtrees, a subtree in the zero tail adding 0.0, so every bit of
the result is unchanged.  This rests on how numpy sums a contiguous row;
``tests/test_hierarchy.py::test_pairwise_sum_equals_numpy_sum`` fails if
that ever changes.
These cores work on the rows of 2-D arrays, one replication a row: the
Monte Carlo kernel hands them a chunk of replications, the public functions
a single row, and each row comes out as it would alone.  Each step is one
numpy call on all rows; the cumsum and the chunk maxima along axis 1 give
each row its 1-D result bit for bit, which
``tests/test_hierarchy.py::test_row_reductions_equal_one_row_at_a_time``
pins.  On several rows, ``_normalise`` returns the largest of their mass
ends, the one end every caller needs.

Under the fully improper prior the contrast reduces to
``sum_{j<=m} Y_j^2 / eps`` and the posterior-mean estimator becomes the
shrunk projection ``omega_j * Y_j / lambda_j``; the dimension *prior*
itself, however, has no improper limit and is reported as undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .posterior import PosteriorSummary, PriorSpec, _check_means, _sieve_block, log_variance_ratio
from .rng import HIERARCHY_DRAW, stream
from .selection import max_dimension
from .sequences import _PAIRWISE_LEAF, OperatorSequence, _half, _readonly, _sq_err, _sq_err_sum

__all__ = [
    "DimensionDistribution",
    "AdaptiveEstimate",
    "ImproperPriorError",
    "dimension_prior",
    "dimension_posterior",
    "adaptive_estimate",
    "sample_hierarchical_posterior",
]


class ImproperPriorError(ValueError):
    """The dimension prior is undefined under improper coordinate priors."""


@dataclass(frozen=True)
class DimensionDistribution:
    """Distribution of the truncation dimension on ``1..M``.

    ``log_weights`` are the unnormalised log-masses as handed in;
    ``probs`` the normalised masses.  Normalisation subtracts the maximum
    before exponentiating, so any constant shift of ``log_weights`` leaves
    ``probs`` unchanged.
    """

    log_weights: np.ndarray
    probs: np.ndarray
    kind: str  # "prior" | "posterior"

    def __post_init__(self) -> None:
        lw = _readonly(self.log_weights)
        p = _readonly(self.probs)
        if lw.shape != p.shape:
            raise ValueError(_SHAPES)
        _check_log_weights(lw)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_log_weights(cls, log_weights: np.ndarray, kind: str) -> "DimensionDistribution":
        lw = np.asarray(log_weights, dtype=np.float64)[None]
        _check_log_weights(lw[0])
        probs = np.zeros_like(lw)
        _normalise(lw, _chunk_maxima(lw), probs)
        return cls(lw[0], probs[0], kind)

    @property
    def support_size(self) -> int:
        return self.probs.size

    def tail_mass(self, m_lo: int, m_hi: int) -> float:
        """Posterior mass outside the bracket ``[m_lo, m_hi]`` (1-indexed)."""
        return float(_outside_mass(self.probs[None], m_lo, m_hi)[0])


_SHAPES = "log weights and probabilities must be matching 1-d arrays"


def _check_log_weights(lw: np.ndarray) -> None:
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError(_SHAPES)
    if not np.all(np.isfinite(lw)):
        raise ValueError("log weights must be finite")


# ``np.exp`` is exactly 0.0 below about -745.1; log-weights this far below
# the maximum carry no mass.
_MASS_MARGIN = 800.0
# Length of the chunks whose maxima locate the mass end, and the step by
# which the kernel's exact head of the log-weights grows.
_CHUNK = 4096
# Relative slack of ``_tail_bound``: far more than the rounding error of
# sums of up to 1e7 terms (config.MAX_SEQUENCE_LENGTH).
_SLACK = 1.0 + 1e-6


def _chunk_maxima(lw: np.ndarray) -> np.ndarray:
    """The maximum of each ``_CHUNK``-long chunk of each row of ``lw`` (the
    last one may be shorter); a NaN in a chunk makes its maximum NaN."""
    return np.maximum.reduceat(lw, np.arange(0, lw.shape[1], _CHUNK), axis=1)


def _pairwise_sum(rows: np.ndarray, end: int, tail: tuple | None = None, memo: dict | None = None):
    """Each row's ``np.sum`` over its whole length when its entries from
    ``end`` on are ``(a_j - b_j)^2`` for ``tail = (a, b)`` (zeros when
    None), reading only ``rows[:, :end]``.  numpy sums a contiguous row of
    ``n`` elements as a tree: a node of up to ``_PAIRWISE_LEAF`` elements is
    a leaf, summed in one loop, and a longer one adds its two halves, split
    at ``_half(n)``.  The tree is rebuilt here from its subtrees: one wholly
    before ``end`` is summed by ``np.sum`` (the same tree), one wholly past
    it is 0.0 or the memoised ``_sq_err_sum`` over it, and the leaf that
    ``end`` cuts is summed after the tail's values are written into
    ``rows`` past ``end``, the only entries there this writes.  ``memo``,
    keyed by the subtree, may be shared by every call on one ``tail``, from
    several threads: a race computes a sum twice, to the same value."""
    return _subtree_sum(rows, end, tail, {} if memo is None else memo, 0, rows.shape[1])


def _subtree_sum(rows: np.ndarray, end: int, tail: tuple | None, memo: dict, lo: int, n: int):
    """The ``_pairwise_sum`` subtree of ``rows[:, lo : lo + n]``.  A module
    function, not a closure that calls itself: such a closure is a
    reference cycle, which would keep ``rows`` alive until the next
    garbage collection."""
    if lo + n <= end:
        return np.sum(rows[:, lo : lo + n], axis=1)
    if lo >= end:
        if tail is None:
            return 0.0
        if (lo, n) not in memo:
            memo[lo, n] = _sq_err_sum(*tail, lo, n)
        return memo[lo, n]
    if n <= _PAIRWISE_LEAF:
        rows[:, end : lo + n] = 0.0 if tail is None else _sq_err(*tail, end, lo + n)
        return np.sum(rows[:, lo : lo + n], axis=1)
    half = _half(n)
    return _subtree_sum(rows, end, tail, memo, lo, half) + _subtree_sum(rows, end, tail, memo, lo + half, n - half)


def _normalise(lw: np.ndarray, maxima: np.ndarray, out: np.ndarray) -> int:
    """Row by row, ``exp(lw - max(lw))`` scaled to sum one, written into
    ``out`` (which may be ``lw`` itself), given ``maxima =
    _chunk_maxima(lw)``.  Returns the rows' largest mass end: one past the
    last index where any row has ``lw - max(lw) > -_MASS_MARGIN``.  Rounded
    subtraction is monotone, so a chunk holds such an index exactly when
    its maximum passes the same test; only the last such chunk is searched.

    ``lw`` may be a head of the log-weights, as long as ``out`` is: every
    log-weight past it lies more than the margin below ``max(lw)``.  Only
    the head of ``out`` before the mass end is written, and each row is
    scaled by its sum over the whole of ``out``'s row with zeros from the
    mass end on, in numpy's reduction order (``_pairwise_sum``).  Between a
    row's own mass end and the largest one, ``exp`` is exactly 0.0, the
    value the zero tail holds, so every row is bit for bit what it is
    normalised alone.  ``lw`` must be finite."""
    top = np.max(maxima, axis=1)[:, None]
    alive = np.any(maxima - top > -_MASS_MARGIN, axis=0)
    start = (alive.size - 1 - np.argmax(alive[::-1])) * _CHUNK
    keep = np.any(lw[:, start : start + _CHUNK] - top > -_MASS_MARGIN, axis=0)
    end = start + keep.size - int(np.argmax(keep[::-1]))
    head = out[:, :end]
    np.subtract(lw[:, :end], top, out=head)
    np.exp(head, out=head)
    head /= _pairwise_sum(out, end)[:, None]
    return end


def _check_bracket(m_lo: int, m_hi: int, m_top: int) -> None:
    if not 1 <= m_lo <= m_hi <= m_top:
        raise ValueError(f"bracket [{m_lo}, {m_hi}] outside 1..{m_top}")


def _outside_mass(probs: np.ndarray, m_lo: int, m_hi: int) -> np.ndarray:
    """Each row's mass outside the bracket ``[m_lo, m_hi]`` (1-indexed)."""
    _check_bracket(m_lo, m_hi, probs.shape[1])
    return np.sum(probs[:, : m_lo - 1], axis=1) + np.sum(probs[:, m_hi:], axis=1)


def _dimension_penalty(c_lambda: float, lo: int, hi: int, step: int = 1) -> np.ndarray:
    """``(3/2) C m`` for ``m = lo + 1, lo + 1 + step, ...`` below ``hi + 1``:
    the data-independent part of the dimension log-weights, formed for the
    slice that needs it, each entry as it is in the whole range."""
    return 1.5 * c_lambda * np.arange(lo + 1, hi + 1, step, dtype=np.float64)


def _scalar_if_constant(post_var: np.ndarray | float) -> np.ndarray | float:
    """``post_var``, or its one value as a float when every entry is equal,
    which a task then keeps in place of the array (``x / v`` and ``v * x``
    are the same for a scalar ``v``).  A scalar is returned as it is."""
    if np.ndim(post_var) == 0:
        return float(post_var)
    return float(post_var[0]) if np.all(post_var == post_var[0]) else post_var


class _Terms(NamedTuple):
    """The data-independent terms of the dimension-posterior log-weights on
    ``1..m_top``: the prior means, None when all are zero (``x - 0.0`` is
    ``x``); the posterior variance, a scalar when it is constant; the
    operator constant ``C`` of the penalty, which never decreases; and the
    largest ``1 / post_var`` of each ``_CHUNK``."""

    means: np.ndarray | None
    post_var: np.ndarray | float
    c_lambda: float
    inv_var: np.ndarray


def _terms(means: np.ndarray, post_var: np.ndarray | float, c_lambda: float) -> _Terms:
    """The log-weight terms of the search range ``1..means.size``, for
    posterior variances as an array or one scalar."""
    _check_c(c_lambda)
    post_var = _scalar_if_constant(post_var)
    return _Terms(
        means if np.any(means) else None,
        post_var,
        float(c_lambda),
        _inverse_variances(np.broadcast_to(post_var, means.shape)),
    )


def _inverse_variances(post_var: np.ndarray) -> np.ndarray:
    """The largest ``1 / post_var`` of each ``_CHUNK``, or infinity where it
    passes ``2^1000`` and ``_tail_bound`` does not hold."""
    with np.errstate(over="ignore"):
        inv = 1.0 / np.minimum.reduceat(post_var, np.arange(0, post_var.size, _CHUNK))
    inv[inv > 2.0**1000] = np.inf
    return inv


def _masses(terms: _Terms, post_mean: np.ndarray, lw: np.ndarray, out: np.ndarray, head: int) -> int:
    """The dimension-posterior masses of each row of ``post_mean`` written
    into ``out`` (which may be ``lw``) up to the rows' largest mass end,
    which is returned (see ``_normalise``); all arrays are ``(rows, M)``.

    The log-weights go into ``lw`` on an exact head ``[0, E)``, with ``E``
    first ``head`` (a multiple of ``_CHUNK``, or ``M`` for the full range)
    and past it only where ``_tail_bound`` cannot rule out mass: the head
    then grows to the end of the last chunk that may hold some, once,
    because the bound from the shorter head holds as well.  The chunk sums
    of squares past ``E`` use ``lw`` there as their work space.  Any non-finite chunk sum of squares makes
    the head the full range.  So every log-weight that is not finite lies
    in the head, and the first row whose maximum log-weight is not finite
    is the one the full range gives.  That row has its posterior means
    checked, then its log-weights, so an infinite observation is reported
    as such, and the first failing row raises what it raises alone."""
    m_top = post_mean.shape[1]
    end = min(head, m_top)
    if end < m_top:
        squares = _chunk_squares(terms, post_mean, lw, end)
        if not np.all(np.isfinite(squares)):
            end = m_top
    sums = _log_weights(post_mean[:, :end], terms, lw[:, :end])
    maxima = _chunk_maxima(lw[:, :end])
    if end < m_top:
        top = np.max(maxima, axis=1)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN bounds are live
            dead = _tail_bound(terms, squares, sums, end) - top <= -(_MASS_MARGIN + 1.0)
        live = np.flatnonzero(~np.all(dead, axis=0))
        if live.size:
            end = min(m_top, end + (int(live[-1]) + 1) * _CHUNK)
            _log_weights(post_mean[:, :end], terms, lw[:, :end])
            maxima = _chunk_maxima(lw[:, :end])
    if not np.isfinite(np.max(maxima)):
        first = np.flatnonzero(~np.isfinite(np.max(maxima, axis=1)))[0]
        _check_means(post_mean[first])
        _check_log_weights(lw[first, :end])
    return _normalise(lw[:, :end], maxima, out)


def _chunk_squares(terms: _Terms, post_mean: np.ndarray, lw: np.ndarray, start: int) -> np.ndarray:
    """``(rows, chunks)``: the sum of ``(post_mean - means)^2`` over each
    ``_CHUNK`` of each row from ``start`` (a multiple of ``_CHUNK``) on, the
    last chunk possibly shorter; the differences go into ``lw`` from
    ``start`` on, where the log-weights are not yet written."""
    tail = post_mean[:, start:]
    if terms.means is not None:
        tail = np.subtract(tail, terms.means[start:], out=lw[:, start:])
    rows, n = tail.shape
    full = n - n % _CHUNK
    blocks = tail[:, :full].reshape(rows, -1, _CHUNK)
    squares = np.einsum("rkc,rkc->rk", blocks, blocks)
    if full < n:
        rest = tail[:, full:]
        squares = np.column_stack([squares, np.einsum("rc,rc->r", rest, rest)])
    return squares


def _tail_bound(terms: _Terms, squares: np.ndarray, sums: np.ndarray, start: int) -> np.ndarray:
    """``(rows, chunks)``: an upper bound of every log-weight the full range
    gives in each chunk from ``start`` on, given the chunk sums of squares
    ``squares`` from ``_chunk_squares`` and the rows' exact contrast sums
    ``sums`` up to ``start``:

        B_k = 0.5 ((S + sum_{i<=k} q_i inv_i (1 + d)) (1 + d) + 1) - pen_k

    with ``q_i`` the sum of squares and ``inv_i`` the largest ``1 /
    post_var`` of chunk ``i``, ``pen_k`` the penalty at chunk ``k``'s
    first dimension and ``d = 1e-6`` (``_SLACK``).

    Why it holds, with ``u = 2^-53`` and every term ``>= 0``: the full
    range sets ``c_j = fl(fl(x_j^2) / v_j)``, ``x = post_mean - means``, and
    ``s_j = fl(s_{j-1} + c_j)``.  Up to underflow, ``c_j <= x_j^2 inv_i (1 +
    4u)`` in chunk ``i``, since ``inv_i >= fl(1 / v_j) >= (1 - u) / v_j``,
    and ``q_i``, a float sum of ``<= _CHUNK`` rounded squares in any order,
    is at least ``(1 - 4097u) sum x_j^2``; so chunk ``i`` adds at most
    ``q_i inv_i (1 + 5000u)`` to the contrast.  The cumsum's ``<= 1e7``
    roundings raise ``s_j`` by a factor of at most ``1 + 1.2e-9`` over ``S``
    plus these additions, and the bound's own ``<= 2500`` roundings lower it
    by a factor of at least ``1 - 6e-13``; ``(1 + d)^2`` covers all three.
    Underflow costs at most ``2^-1074 inv_i`` a term, and ``inv_i`` is
    infinite past ``2^1000``, so the ``+ 1`` covers it.  Hence ``s_j <=
    X``, the bracketed sum, and as rounding to nearest is monotone and the
    penalty never decreases, ``lw_j = fl(fl(0.5 s_j) - pen_j) <= B_k`` and
    ``fl(lw_j - top) <= fl(B_k - top)``.  A chunk with ``B_k - top <=
    -(_MASS_MARGIN + 1)`` therefore holds neither mass nor a mass end nor
    the maximum.  A NaN bound never passes that test."""
    first = start // _CHUNK
    acc = np.cumsum(squares * (terms.inv_var[first:] * _SLACK), axis=1)
    acc += sums[:, None]
    penalty = _dimension_penalty(terms.c_lambda, start, start + squares.shape[1] * _CHUNK, _CHUNK)
    return 0.5 * (acc * _SLACK + 1.0) - penalty


def _log_weights(post_mean: np.ndarray, terms: _Terms, out: np.ndarray) -> np.ndarray:
    """Dimension-posterior log-weights of each row of ``post_mean``, ``0.5 *
    cumsum((post_mean - means)^2 / post_var) - penalty`` for the head of
    the ``terms`` as long as the rows, written into ``out``; both arrays
    are ``(rows, head)``.  Returns each row's contrast sum over the head.
    The contrast is written into ``out`` and summed there in place, row by
    row in one call: a cumsum adds in order, so each row is its 1-D
    cumsum bit for bit."""
    n = post_mean.shape[1]
    if terms.means is None:
        np.square(post_mean, out=out)
    else:
        np.subtract(post_mean, terms.means[:n], out=out)
        np.square(out, out=out)
    post_var = terms.post_var if isinstance(terms.post_var, float) else terms.post_var[:n]
    np.divide(out, post_var, out=out)
    np.cumsum(out, axis=1, out=out)
    sums = out[:, -1].copy()
    np.multiply(out, 0.5, out=out)
    np.subtract(out, _dimension_penalty(terms.c_lambda, 0, n), out=out)
    return sums


def _shrink(
    probs: np.ndarray,
    mass_end: int,
    post_mean: np.ndarray,
    means: np.ndarray,
    omega: np.ndarray,
    out: np.ndarray,
) -> None:
    """The adaptive estimate of each row on ``1..mass_end``, for masses
    ``probs`` that are zero from ``mass_end`` on (the rows' largest mass
    end): the shrinkage weights ``omega_j = P(dimension >= j)`` go into
    ``omega[:, :mass_end]`` (which may be ``probs``), ``means + omega *
    (post_mean - means)`` into ``out[:, :mass_end]`` (which may be
    ``post_mean``).  Past ``mass_end``, ``omega_j = 0`` and the estimate is
    ``means``; neither is written.  The zero tail adds exactly 0.0 to the
    reverse cumulative sum, so the head is bit for bit the full-range one;
    between a row's own mass end and ``mass_end``, ``omega_j`` is 0.0 and
    the estimate ``means_j`` up to the sign of a zero."""
    omega, out = omega[:, :mass_end], out[:, :mass_end]
    np.cumsum(probs[:, :mass_end][:, ::-1], axis=1, out=omega[:, ::-1])
    np.clip(omega, 0.0, 1.0, out=omega)
    np.subtract(post_mean[:, :mass_end], means[:mass_end], out=out)
    np.multiply(omega, out, out=out)
    np.add(out, means[:mass_end], out=out)


def dimension_prior(
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    c_lambda: float,
) -> DimensionDistribution:
    """Prior masses of the truncation dimension on ``1..M``.

    The variance-ratio product is accumulated as a running sum of
    ``log1p(v_j lambda_j^2 / eps)``; improper coordinates inside the search
    range make the prior undefined.
    """
    m_top = max_dimension(op, eps)
    if np.any(prior.improper[:m_top]):
        raise ImproperPriorError(
            "dimension prior is undefined when the search range contains an "
            "improper coordinate; only the dimension posterior exists"
        )
    _check_c(c_lambda)
    penalty = _dimension_penalty(c_lambda, 0, m_top)
    log_ratio = log_variance_ratio(prior.head(m_top), op.head(m_top), eps)
    lw = 0.5 * np.cumsum(log_ratio) - penalty
    return DimensionDistribution.from_log_weights(lw, "prior")


def dimension_posterior(
    summary: PosteriorSummary,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    c_lambda: float,
) -> DimensionDistribution:
    """Posterior masses of the truncation dimension on ``1..M``.

    The data enter through the cumulative contrast
    ``sum_{j<=m} (post_mean_j - mu_j)^2 / post_var_j`` (which equals
    ``sum_{j<=m} Y_j^2 / eps`` under the fully improper prior).
    """
    return _dimension_posterior(summary, prior, op, eps, c_lambda)[0]


def _dimension_posterior(
    summary: PosteriorSummary,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    c_lambda: float,
) -> tuple[DimensionDistribution, int]:
    """``dimension_posterior`` and its mass end (see ``_normalise``)."""
    if summary.n != prior.n or prior.n != op.n:
        raise ValueError("summary, prior and operator lengths must match")
    m_top = max_dimension(op, eps)
    terms = _terms(prior.means[:m_top], summary.post_var[:m_top], c_lambda)
    lw, probs = np.empty((1, m_top)), np.zeros((1, m_top))
    mass_end = _masses(terms, summary.post_mean[None, :m_top], lw, probs, m_top)
    return DimensionDistribution(lw[0], probs[0], "posterior"), mass_end


@dataclass(frozen=True)
class AdaptiveEstimate:
    """The posterior-mean estimator under the hierarchical prior.

    ``values`` is the full estimate (prior mean beyond the search range);
    ``omega[j-1] = P(dimension >= j | data)`` are the non-increasing
    shrinkage weights on ``1..M`` with ``omega_1 = 1``.
    """

    values: np.ndarray
    omega: np.ndarray
    dimension_posterior: DimensionDistribution

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "omega", _readonly(self.omega))


def adaptive_estimate(
    summary: PosteriorSummary,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    c_lambda: float,
) -> AdaptiveEstimate:
    """Posterior-mean estimate under the hierarchical prior.

    Coordinatewise it interpolates between the prior mean and the
    coordinate posterior mean,

        est_j = (1 - omega_j) mu_j + omega_j post_mean_j,   j <= M,

    and equals the mixture ``sum_m p(m | data) * sieve-estimate(m)``
    exactly; beyond the search range, and past the dimensions the
    posterior gives any mass, the estimate is the prior mean.
    """
    dist, mass_end = _dimension_posterior(summary, prior, op, eps, c_lambda)
    omega = np.zeros(dist.support_size)
    values = prior.means.copy()
    _shrink(dist.probs[None], mass_end, summary.post_mean[None], prior.means, omega[None], values[None])
    return AdaptiveEstimate(values, omega, dist)


def sample_hierarchical_posterior(
    summary: PosteriorSummary,
    prior: PriorSpec,
    op: OperatorSequence,
    eps: float,
    c_lambda: float,
    n_draws: int,
    seed: int,
    rep: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw from the joint posterior: first the dimension by inverse-CDF
    lookup, then the sieve posterior of that dimension.

    Returns ``(draws, dims)`` with ``draws`` of shape ``(n_draws, n)`` and
    ``dims`` the 1-indexed dimensions drawn.  The draw order is fixed —
    all dimensions first, then one Gaussian block — so runs are
    reproducible under a fixed seed.  Only the first ``max(dims)`` columns
    are random; this function pads the rest with the prior means, which
    the Monte Carlo harness skips by scoring the unpadded block.
    """
    dist = dimension_posterior(summary, prior, op, eps, c_lambda)
    dims, block = _draw_hierarchical(
        dist.probs, dist.probs.size, summary.post_mean, np.sqrt(summary.post_var), prior.means, n_draws,
        stream(seed, HIERARCHY_DRAW, rep),
    )
    draws = np.tile(prior.means, (n_draws, 1))
    draws[:, : block.shape[1]] = block
    return draws, dims


def _draw_hierarchical(
    probs: np.ndarray,
    head: int,
    post_mean: np.ndarray,
    post_sd: np.ndarray,
    means: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dims, block)``: dimensions drawn from the dimension posterior
    ``probs``, zero past its first ``head`` entries, and the first
    ``max(dims)`` columns of the draws, prior means past each draw's
    dimension, all from the hierarchical-draw stream ``rng``: one row of what
    the Monte Carlo kernel draws a chunk at a time, through the same steps
    (``_draw_dimensions``, ``posterior._sieve_block``,
    ``_fill_past_dimensions``)."""
    if n_draws < 1:
        raise ValueError("need at least one draw")
    found = np.empty((1, n_draws), dtype=np.intp)
    width = _draw_dimensions(np.cumsum(probs[:head]), probs.size, rng, found[0])
    dims = _dimensions(found, head, probs.size)
    block = rng.standard_normal((1, n_draws, width))
    lanes = _sieve_block(post_mean[None], post_sd, block.transpose(0, 2, 1))
    _fill_past_dimensions(lanes, dims, means)
    return dims[0], block[0]


def _draw_dimensions(cdf: np.ndarray, m_top: int, rng: np.random.Generator, found: np.ndarray) -> int:
    """A row's first step of hierarchical draws: ``found.size`` uniforms
    from ``rng``, their ``searchsorted`` indices on the CDF ``cdf`` of the
    head of the masses written into ``found``, and the width of the row's
    draws, ``max(dims)``, returned.  Only the head's CDF is formed:
    ``cumsum`` adds in order, so it is the full CDF's prefix bit for bit,
    and a ``u`` at or above its last value lands past the head, at the last
    dimension ``m_top``, as on the full CDF."""
    found[:] = cdf.searchsorted(rng.random(found.size), side="right")
    top = int(found.max())
    return m_top if top == cdf.size else top + 1


def _dimensions(found: np.ndarray, head: int, m_top: int) -> np.ndarray:
    """The 1-indexed dimensions of ``searchsorted`` indices ``found`` on a
    CDF of ``head`` entries (see ``_draw_dimensions``)."""
    return np.where(found == head, m_top, found + 1)


def _fill_past_dimensions(lanes: np.ndarray, dims: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Set every coordinate ``j`` of the draws ``lanes`` past its draw's
    dimension to ``fill[j]`` (or, for a ``(rows, width)`` fill, row ``i``'s
    ``fill[i, j]``), in place: ``lanes`` is coordinate-major, ``(rows,
    width, draws)`` (see ``posterior._sieve_block``), and ``dims`` is
    ``(rows, draws)``.  The sampler fills the prior means; the Monte Carlo
    kernel, after squaring, their squared errors."""
    width = lanes.shape[1]
    np.copyto(lanes, fill[..., :width, None], where=np.arange(width)[:, None] >= dims[:, None, :])
    return lanes


def _check_c(c_lambda: float) -> None:
    if not np.isfinite(c_lambda) or c_lambda < 1.0:
        raise ValueError("operator constant must be finite and >= 1")
