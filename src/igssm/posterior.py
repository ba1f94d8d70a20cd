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
from typing import Optional

import numpy as np

from .rng import SIEVE_DRAW, stream
from .sequences import Observation, OperatorSequence, _readonly

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
    def fully_improper(self) -> bool:
        return bool(np.all(self.improper))

    @property
    def any_improper(self) -> bool:
        return bool(np.any(self.improper))

    def head(self, k: int) -> "PriorSpec":
        if not 1 <= k <= self.n:
            raise ValueError(f"head length {k} outside 1..{self.n}")
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
        if not (np.all(np.isfinite(var)) and np.all(var > 0.0)):
            raise ValueError("posterior variances must be positive and finite")
        if not np.all(np.isfinite(mean)):
            raise ValueError("posterior means must be finite")
        object.__setattr__(self, "post_mean", mean)
        object.__setattr__(self, "post_var", var)

    @property
    def n(self) -> int:
        return self.post_mean.size


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
    if not 0.0 < eps < 1.0:
        raise ValueError("noise level eps must lie in (0, 1)")
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


def coordinate_posterior(prior: PriorSpec, op: OperatorSequence, obs: Observation) -> PosteriorSummary:
    """Exact coordinatewise posterior for the full (non-sieve) Gaussian prior."""
    if not (prior.n == op.n == obs.n):
        raise ValueError("prior, operator and observation lengths must match")
    eps = obs.eps
    post_var = posterior_variances(prior, op, eps)
    out = np.empty(prior.n)
    mask = prior.improper
    proper = ~mask
    if np.any(proper):
        v = prior.variances[proper]
        lam = op.values[proper]
        denom = v * lam**2 + eps
        out[proper] = (eps * prior.means[proper] + v * lam * obs.values[proper]) / denom
    if np.any(mask):
        out[mask] = obs.values[mask] / op.values[mask]
    return PosteriorSummary(out, post_var)


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
    padding.  The Monte Carlo harness cuts the problem at ``m`` before
    sampling, so its draws carry no padding.
    """
    _check_sieve_dim(m, summary, prior)
    if n_draws < 1:
        raise ValueError("need at least one draw")
    rng = stream(seed, SIEVE_DRAW, rep)
    z = rng.standard_normal((n_draws, m))
    draws = np.tile(prior.means, (n_draws, 1))
    draws[:, :m] = summary.post_mean[:m] + np.sqrt(summary.post_var[:m]) * z
    return draws


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
    if not 0.0 < eps < 1.0:
        raise ValueError("noise level eps must lie in (0, 1)")
    return np.log1p(prior.variances * op.values**2 / eps)


def _check_sieve_dim(m: int, summary: PosteriorSummary, prior: PriorSpec) -> None:
    if summary.n != prior.n:
        raise ValueError("summary and prior lengths must match")
    if not 1 <= m <= summary.n:
        raise ValueError(f"sieve dimension m={m} outside 1..{summary.n}")
