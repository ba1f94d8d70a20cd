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
The mass sum still runs over the whole zero-tailed array, so its pairwise
reduction order, and with it every bit of the result, is unchanged.
These cores work on the rows of 2-D arrays, one replication a row: the
Monte Carlo kernel hands them a chunk of replications, the public functions
a single row, and each row comes out as it would alone.  On several rows,
``_normalise`` returns the largest of their mass ends, the one end every
caller needs.

Under the fully improper prior the contrast reduces to
``sum_{j<=m} Y_j^2 / eps`` and the posterior-mean estimator becomes the
shrunk projection ``omega_j * Y_j / lambda_j``; the dimension *prior*
itself, however, has no improper limit and is reported as undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .posterior import PosteriorSummary, PriorSpec, _check_means, log_variance_ratio
from .rng import HIERARCHY_DRAW, stream
from .selection import max_dimension
from .sequences import OperatorSequence, _readonly

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
        if lw.ndim != 1 or lw.size == 0 or lw.shape != p.shape:
            raise ValueError("log weights and probabilities must be matching 1-d arrays")
        _check_log_weights(lw)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_log_weights(cls, log_weights: np.ndarray, kind: str) -> "DimensionDistribution":
        lw = np.asarray(log_weights, dtype=np.float64)[None]
        _check_log_weights(lw)
        probs = np.empty_like(lw)
        _normalise(lw, _chunk_maxima(lw), probs)
        return cls(lw[0], probs[0], kind)

    @property
    def support_size(self) -> int:
        return self.probs.size

    def tail_mass(self, m_lo: int, m_hi: int) -> float:
        """Posterior mass outside the bracket ``[m_lo, m_hi]`` (1-indexed)."""
        return float(_outside_mass(self.probs[None], m_lo, m_hi)[0])


def _check_log_weights(lw: np.ndarray) -> None:
    if not np.all(np.isfinite(lw)):
        raise ValueError("log weights must be finite")


# ``np.exp`` is exactly 0.0 below about -745.1; log-weights this far below
# the maximum carry no mass.
_MASS_MARGIN = 800.0
# Length of the chunks whose maxima locate the mass end.
_CHUNK = 4096


def _chunk_maxima(lw: np.ndarray) -> np.ndarray:
    """The maximum of each ``_CHUNK``-long chunk of each row of ``lw`` (the
    last one may be shorter); a NaN in a chunk makes its maximum NaN.  One
    row at a time, like the cumsum in ``_log_weights`` (see
    :mod:`igssm.montecarlo` for why)."""
    starts = np.arange(0, lw.shape[1], _CHUNK)
    return np.array([np.maximum.reduceat(row, starts) for row in lw])


def _normalise(lw: np.ndarray, maxima: np.ndarray, out: np.ndarray) -> int:
    """Row by row, ``exp(lw - max(lw))`` scaled to sum one, written into
    ``out`` (which may be ``lw`` itself), given ``maxima =
    _chunk_maxima(lw)``.  Returns the rows' largest mass end: one past the
    last index where any row has ``lw - max(lw) > -_MASS_MARGIN``.  Rounded
    subtraction is monotone, so a chunk holds such an index exactly when
    its maximum passes the same test; only the last such chunk is searched.

    Only the head before that end is shifted, exponentiated and scaled; the
    rest of ``out`` is set to 0.0, and each whole row is summed, so the sum
    keeps the full-range reduction order.  Between a row's own mass end and
    the largest one, ``exp`` is exactly 0.0, the value the zero tail holds,
    and a row's sum along axis 1 is the pairwise sum of that row alone, so
    every row is bit for bit what it is normalised alone.  ``lw`` must be
    finite."""
    top = np.max(maxima, axis=1)[:, None]
    alive = np.any(maxima - top > -_MASS_MARGIN, axis=0)
    start = (alive.size - 1 - np.argmax(alive[::-1])) * _CHUNK
    keep = np.any(lw[:, start : start + _CHUNK] - top > -_MASS_MARGIN, axis=0)
    end = start + keep.size - int(np.argmax(keep[::-1]))
    head = out[:, :end]
    np.subtract(lw[:, :end], top, out=head)
    np.exp(head, out=head)
    out[:, end:] = 0.0
    head /= np.sum(out, axis=1)[:, None]
    return end


def _outside_mass(probs: np.ndarray, m_lo: int, m_hi: int) -> np.ndarray:
    """Each row's mass outside the bracket ``[m_lo, m_hi]`` (1-indexed)."""
    if not 1 <= m_lo <= m_hi <= probs.shape[1]:
        raise ValueError(f"bracket [{m_lo}, {m_hi}] outside 1..{probs.shape[1]}")
    return np.sum(probs[:, : m_lo - 1], axis=1) + np.sum(probs[:, m_hi:], axis=1)


def _dimension_penalty(c_lambda: float, m_top: int) -> np.ndarray:
    """``(3/2) C m`` for ``m = 1..m_top``: the data-independent part of the
    dimension log-weights."""
    _check_c(c_lambda)
    return 1.5 * c_lambda * np.arange(1, m_top + 1, dtype=np.float64)


class _Terms(NamedTuple):
    """The data-independent terms of the dimension-posterior log-weights:
    the prior means, None when all are zero (``x - 0.0`` is ``x``); the
    posterior variance, a scalar when it is constant; the penalty."""

    means: np.ndarray | None
    post_var: np.ndarray | float
    penalty: np.ndarray


def _terms(means: np.ndarray, post_var: np.ndarray, c_lambda: float) -> _Terms:
    """The log-weight terms of the search range ``1..means.size``."""
    return _Terms(
        means if np.any(means) else None,
        float(post_var[0]) if np.all(post_var == post_var[0]) else post_var,
        _dimension_penalty(c_lambda, means.size),
    )


def _masses(
    terms: _Terms, post_mean: np.ndarray, scratch: np.ndarray, lw: np.ndarray, out: np.ndarray
) -> int:
    """The dimension-posterior masses of each row of ``post_mean`` written
    into ``out`` (which may be ``lw``), its log-weights into ``lw`` and the
    contrast into ``scratch``, all ``(rows, M)``; returns the rows' largest
    mass end (see ``_normalise``).  The first row whose maximum log-weight
    is not finite has its posterior means checked, then its log-weights, so
    an infinite observation is reported as such, and the first failing row
    raises what it raises alone."""
    _log_weights(post_mean, terms, scratch, lw)
    maxima = _chunk_maxima(lw)
    if not np.isfinite(np.max(maxima)):
        first = np.flatnonzero(~np.isfinite(np.max(maxima, axis=1)))[0]
        _check_means(post_mean[first])
        _check_log_weights(lw[first])
    return _normalise(lw, maxima, out)


def _log_weights(
    post_mean: np.ndarray, terms: _Terms, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Dimension-posterior log-weights of each row of ``post_mean``, ``0.5 *
    cumsum((post_mean - means)^2 / post_var) - penalty`` for the ``terms``,
    written into ``out``; all three arrays are ``(rows, M)``.  The contrast
    goes into ``scratch``, and the cumsum writes from there into ``out``
    (see :mod:`igssm.montecarlo` for why), one row at a time."""
    if terms.means is None:
        np.square(post_mean, out=scratch)
    else:
        np.subtract(post_mean, terms.means, out=scratch)
        np.square(scratch, out=scratch)
    np.divide(scratch, terms.post_var, out=scratch)
    for src, dst in zip(scratch, out):
        np.cumsum(src, out=dst)
    np.multiply(out, 0.5, out=out)
    return np.subtract(out, terms.penalty, out=out)


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
    penalty = _dimension_penalty(c_lambda, m_top)
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
    lw, probs = np.empty((2, 1, m_top))
    mass_end = _masses(terms, summary.post_mean[None, :m_top], np.empty((1, m_top)), lw, probs)
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
        dist.probs, summary.post_mean, np.sqrt(summary.post_var), prior.means, n_draws,
        stream(seed, HIERARCHY_DRAW, rep),
    )
    draws = np.tile(prior.means, (n_draws, 1))
    draws[:, : block.shape[1]] = block
    return draws, dims


def _draw_hierarchical(
    probs: np.ndarray,
    post_mean: np.ndarray,
    post_sd: np.ndarray,
    means: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dims, block)``: dimensions drawn from the dimension posterior
    ``probs`` and the first ``max(dims)`` columns of the draws, prior means
    past each draw's dimension, all from the hierarchical-draw stream
    ``rng``."""
    if n_draws < 1:
        raise ValueError("need at least one draw")
    m_top = probs.size
    cdf = np.cumsum(probs)
    u = rng.random(n_draws)
    dims = np.minimum(np.searchsorted(cdf, u, side="right"), m_top - 1) + 1
    width = int(dims.max())
    z = rng.standard_normal((n_draws, width))
    gauss = post_mean[:width] + post_sd[:width] * z
    keep = np.arange(1, width + 1) <= dims[:, None]
    return dims, np.where(keep, gauss, means[:width])


def _check_c(c_lambda: float) -> None:
    if not np.isfinite(c_lambda) or c_lambda < 1.0:
        raise ValueError("operator constant must be finite and >= 1")
