"""Conjugate Gaussian posteriors for the sequence model.

With prior ``theta_j ~ N(mu_j, v_j)`` (independent coordinates) and data
``Y_j ~ N(lambda_j theta_j, eps)``, the posterior is again Gaussian with

    post_var_j  = (lambda_j^2 / eps + 1 / v_j)^{-1}
    post_mean_j = post_var_j * (mu_j / v_j + lambda_j Y_j / eps).

A coordinate may be marked improper (flat prior, ``v_j = inf`` with
``mu_j = 0``); its posterior is the projection limit ``N(Y_j / lambda_j,
eps * lambda_j^{-2})``.  The improper marker is a boolean flag, never a
large float: every formula here branches on it explicitly.

A sieve prior keeps the Gaussian coordinates up to a dimension ``m`` and
pins coordinate ``j > m`` at its prior mean; its posterior therefore mixes
Gaussian coordinates (``j <= m``) with point masses (``j > m``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .rng import SIEVE_DRAW, stream
from .sequences import Observation, OperatorSequence, _check_eps, _readonly

__all__ = [
    "PriorSpec",
    "PosteriorSummary",
    "coordinate_posterior",
    "posterior_variances",
    "sieve_posterior_mean",
    "sample_sieve_posterior",
    "log_variance_ratio",
]


@dataclass(frozen=True)
class PriorSpec:
    """Coordinatewise Gaussian prior, with optional improper coordinates.

    ``variances`` stores ``inf`` at improper positions for display purposes
    only; the ``improper`` mask is the single source of truth.
    """

    means: np.ndarray
    variances: np.ndarray
    improper: np.ndarray

    def __post_init__(self) -> None:
        means = _readonly(self.means)
        variances = _readonly(self.variances)
        mask = np.array(self.improper, dtype=bool, copy=True)
        mask.setflags(write=False)
        if not (means.shape == variances.shape == mask.shape) or means.ndim != 1:
            raise ValueError("means, variances and improper mask must be 1-d and matching")
        if means.size == 0:
            raise ValueError("prior must have at least one coordinate")
        if not np.all(np.isfinite(means)):
            raise ValueError("prior means must be finite")
        proper = ~mask
        if not np.all(variances[proper] > 0.0) or not np.all(np.isfinite(variances[proper])):
            raise ValueError("proper prior variances must be positive and finite")
        if np.any(means[mask] != 0.0):
            raise ValueError("improper coordinates force a zero prior mean")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "improper", mask)

    @classmethod
    def gaussian(cls, means: np.ndarray, variances: np.ndarray) -> "PriorSpec":
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if variances.ndim == 0:
            variances = np.full(means.shape, float(variances))
        return cls(means, variances, np.zeros(means.shape, dtype=bool))

    @classmethod
    def flat(cls, n: int) -> "PriorSpec":
        """Fully improper prior on ``n`` coordinates."""
        return cls(np.zeros(n), np.full(n, np.inf), np.ones(n, dtype=bool))

    @classmethod
    def mixed(cls, means: np.ndarray, variances: np.ndarray, improper: np.ndarray) -> "PriorSpec":
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64).copy()
        mask = np.asarray(improper, dtype=bool)
        variances[mask] = np.inf
        return cls(means, variances, mask)

    @property
    def n(self) -> int:
        return self.means.size

    @property
    def any_improper(self) -> bool:
        return bool(np.any(self.improper))

    def head(self, k: int) -> "PriorSpec":
        """First ``k`` coordinates; the prior itself when ``k`` is its
        length."""
        if not 1 <= k <= self.n:
            raise ValueError(f"head length {k} outside 1..{self.n}")
        if k == self.n:
            return self
        return PriorSpec(self.means[:k], self.variances[:k], self.improper[:k])


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior means and variances of all coordinates."""

    post_mean: np.ndarray
    post_var: np.ndarray

    def __post_init__(self) -> None:
        mean = _readonly(self.post_mean)
        var = _readonly(self.post_var)
        if mean.shape != var.shape or mean.ndim != 1 or mean.size == 0:
            raise ValueError("posterior mean/variance must be matching 1-d arrays")
        _check_variances(var)
        _check_means(mean)
        object.__setattr__(self, "post_mean", mean)
        object.__setattr__(self, "post_var", var)

    @property
    def n(self) -> int:
        return self.post_mean.size


def _check_variances(var: np.ndarray) -> None:
    if not (np.all(np.isfinite(var)) and np.all(var > 0.0)):
        raise ValueError("posterior variances must be positive and finite")


def _check_means(mean: np.ndarray) -> None:
    if not np.all(np.isfinite(mean)):
        raise ValueError("posterior means must be finite")


def _improper_amplification(op: OperatorSequence, mask: np.ndarray) -> np.ndarray:
    """``lambda_j^{-2}`` at the masked positions, with a checked overflow."""
    with np.errstate(over="ignore"):
        amp = np.exp(op.log_amplification[mask])
    if not np.all(np.isfinite(amp)):
        raise OverflowError("noise amplification overflows on an improper coordinate")
    return amp


def posterior_variances(prior: PriorSpec, op: OperatorSequence, eps: float) -> np.ndarray:
    """Posterior variances; they depend on the design but not on the data.

    Proper coordinates use the overflow-safe form
    ``eps * v_j / (v_j lambda_j^2 + eps)``; improper ones the projection
    limit ``eps * lambda_j^{-2}``.
    """
    if prior.n != op.n:
        raise ValueError(f"prior length {prior.n} != operator length {op.n}")
    _check_eps(eps)
    out = np.empty(prior.n)
    mask = prior.improper
    proper = ~mask
    if np.any(proper):
        v = prior.variances[proper]
        lam_sq = op.values[proper] ** 2
        out[proper] = eps * v / (v * lam_sq + eps)
    if np.any(mask):
        out[mask] = eps * _improper_amplification(op, mask)
    return out


class _MeanMap(NamedTuple):
    """The data-independent part of the posterior mean:
    ``post_mean = (gain * y + offset) / scale`` coordinatewise.

    Proper coordinates carry ``gain = v lambda``, ``offset = eps mu`` and
    ``scale = v lambda^2 + eps``; improper ones ``gain = 1``, ``offset =
    -0.0`` and ``scale = lambda``, which give ``y / lambda`` bit for bit.
    ``gain`` and ``offset`` are None when every coordinate is improper, and
    ``scale`` is None when every scale is one (``x / 1.0`` is ``x``).
    """

    gain: Optional[np.ndarray]
    offset: Optional[np.ndarray]
    scale: Optional[np.ndarray]


def _mean_map(prior: PriorSpec, op: OperatorSequence, eps: float) -> _MeanMap:
    mask = prior.improper
    if np.all(mask):
        gain = offset = None
        scale = op.values
    else:
        proper = ~mask
        gain = np.ones(prior.n)
        offset = np.full(prior.n, -0.0)
        scale = op.values.copy()
        v = prior.variances[proper]
        lam = op.values[proper]
        gain[proper] = v * lam
        offset[proper] = eps * prior.means[proper]
        scale[proper] = v * lam**2 + eps
    return _MeanMap(gain, offset, None if np.all(scale == 1.0) else scale)


def _posterior_mean(mean_map: _MeanMap, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Posterior means of the observation ``y``, written into ``out`` (which
    may be ``y`` itself)."""
    gain, offset, scale = mean_map
    if gain is not None:
        np.multiply(gain, y, out=out)
        y = np.add(out, offset, out=out)
    if scale is not None:
        return np.divide(y, scale, out=out)
    if y is not out:
        out[:] = y
    return out


def coordinate_posterior(prior: PriorSpec, op: OperatorSequence, obs: Observation) -> PosteriorSummary:
    """Exact coordinatewise posterior for the full (non-sieve) Gaussian prior."""
    if not (prior.n == op.n == obs.n):
        raise ValueError("prior, operator and observation lengths must match")
    post_var = posterior_variances(prior, op, obs.eps)
    post_mean = _posterior_mean(_mean_map(prior, op, obs.eps), obs.values, np.empty(prior.n))
    return PosteriorSummary(post_mean, post_var)


def sieve_posterior_mean(m: int, summary: PosteriorSummary, prior: PriorSpec) -> np.ndarray:
    """Bayes estimate under the sieve prior of dimension ``m``: the posterior
    mean up to ``m`` and the prior mean beyond."""
    _check_sieve_dim(m, summary, prior)
    out = prior.means.copy()
    out[:m] = summary.post_mean[:m]
    return out


def sample_sieve_posterior(
    m: int,
    summary: PosteriorSummary,
    prior: PriorSpec,
    n_draws: int,
    seed: int,
    rep: int = 0,
) -> np.ndarray:
    """Draw ``n_draws`` posterior samples under the sieve prior of dimension
    ``m``: Gaussian in coordinates ``j <= m``, prior mean exactly beyond.

    Returns an array of shape ``(n_draws, n)``; the columns past ``m`` are
    padding.  The Monte Carlo harness draws the Gaussian columns alone,
    so its draws carry no padding.
    """
    _check_sieve_dim(m, summary, prior)
    block = _sieve_block(
        summary.post_mean[:m], np.sqrt(summary.post_var[:m]), n_draws, stream(seed, SIEVE_DRAW, rep)
    )
    draws = np.tile(prior.means, (n_draws, 1))
    draws[:, :m] = block
    return draws


def _sieve_block(
    post_mean: np.ndarray, post_sd: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """The Gaussian columns of ``n_draws`` sieve draws, ``post_mean + post_sd
    * z`` of shape ``(n_draws, post_mean.size)``, ``z`` from the sieve-draw
    stream ``rng``."""
    if n_draws < 1:
        raise ValueError("need at least one draw")
    z = rng.standard_normal((n_draws, post_mean.size))
    return post_mean + post_sd * z


def log_variance_ratio(prior: PriorSpec, op: OperatorSequence, eps: float) -> np.ndarray:
    """``log(v_j / post_var_j) = log(1 + v_j lambda_j^2 / eps)`` per coordinate.

    The ratio of prior to posterior variance is the ingredient of the
    dimension prior's normalisation; the log1p form stays accurate when the
    data barely update the prior.  Undefined on improper coordinates.
    """
    if prior.any_improper:
        raise ValueError("variance ratio is undefined on improper coordinates")
    if prior.n != op.n:
        raise ValueError("prior and operator lengths must match")
    _check_eps(eps)
    return np.log1p(prior.variances * op.values**2 / eps)


def _check_sieve_dim(m: int, summary: PosteriorSummary, prior: PriorSpec) -> None:
    if summary.n != prior.n:
        raise ValueError("summary and prior lengths must match")
    if not 1 <= m <= summary.n:
        raise ValueError(f"sieve dimension m={m} outside 1..{summary.n}")
