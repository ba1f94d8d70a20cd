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
from .sequences import Observation, OperatorSequence, _blocks, _check_eps, _freeze, _readonly

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
        mask = _readonly(self.improper, bool)
        if not (means.shape == variances.shape == mask.shape) or means.ndim != 1:
            raise ValueError("means, variances and improper mask must be 1-d and matching")
        if means.size == 0:
            raise ValueError("prior must have at least one coordinate")
        if not np.all(np.isfinite(means)):
            raise ValueError("prior means must be finite")
        for lo, hi in _blocks(means.size):
            v, proper = variances[lo:hi], ~mask[lo:hi]
            if not (np.all(v > 0.0, where=proper) and np.all(np.isfinite(v), where=proper)):
                raise ValueError("proper prior variances must be positive and finite")
        if np.any(means, where=mask):
            raise ValueError("improper coordinates force a zero prior mean")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "improper", mask)

    @classmethod
    def gaussian(cls, means: np.ndarray, variances: np.ndarray) -> "PriorSpec":
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if variances.ndim == 0:
            variances = _freeze(np.full(means.shape, float(variances)))
        return cls(means, variances, _freeze(np.zeros(means.shape, dtype=bool)))

    @classmethod
    def flat(cls, n: int) -> "PriorSpec":
        """Fully improper prior on ``n`` coordinates."""
        return cls(_freeze(np.zeros(n)), _freeze(np.full(n, np.inf)), _freeze(np.ones(n, dtype=bool)))

    @classmethod
    def mixed(cls, means: np.ndarray, variances: np.ndarray, improper: np.ndarray) -> "PriorSpec":
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64).copy()
        mask = np.asarray(improper, dtype=bool)
        variances[mask] = np.inf
        return cls(means, _freeze(variances), mask)

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
    amp = op.log_sq[mask]  # a copy, negated and exponentiated in place
    np.negative(amp, out=amp)
    with np.errstate(over="ignore"):
        np.exp(amp, out=amp)
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
        amp = _improper_amplification(op, mask)
        out[mask] = np.multiply(amp, eps, out=amp)
    return out


def _constant_variance(prior: PriorSpec, op: OperatorSequence, eps: float) -> float | None:
    """The posterior variance when every coordinate has the same inputs to
    its formula, else None: every coordinate improper under a constant
    ``log(lambda_j^2)``, or every coordinate proper with one prior variance
    under a constant ``lambda_j``.  Read from reductions, so no array of
    the prior's length is built; it is ``posterior_variances`` of the first
    coordinate, so equal bit for bit to every entry of the whole array."""
    if prior.n != op.n:
        raise ValueError(f"prior length {prior.n} != operator length {op.n}")
    if np.all(prior.improper):
        same = op.log_sq.min() == op.log_sq.max()
    else:
        same = not np.any(prior.improper) and _constant(prior.variances) and _constant(op.values)
    return float(posterior_variances(prior.head(1), op.head(1), eps)[0]) if same else None


def _constant(a: np.ndarray) -> bool:
    """Whether every entry of the NaN-free ``a`` is the same, without a
    temporary of its length."""
    return bool(a.min() == a.max())


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
    return _MeanMap(gain, offset, None if _constant(scale) and scale[0] == 1.0 else scale)


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
    if n_draws < 1:
        raise ValueError("need at least one draw")
    z = stream(seed, SIEVE_DRAW, rep).standard_normal((1, n_draws, m))
    _sieve_block(summary.post_mean[None], np.sqrt(summary.post_var[:m]), z.transpose(0, 2, 1))
    draws = np.tile(prior.means, (n_draws, 1))
    draws[:, :m] = z[0]
    return draws


def _sieve_block(post_mean: np.ndarray, post_sd: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Gaussian columns of sieve draws, ``post_mean + post_sd * z``,
    written over the standard normals ``z`` and returned.  ``z`` is
    coordinate-major, ``(rows, width, draws)``: ``z[i, j, d]`` is coordinate
    ``j`` of draw ``d`` of row ``i``, whose draws centre on
    ``post_mean[i]``; ``post_mean`` and ``post_sd`` have at least
    ``width`` columns.  Both operations commute, so each entry is the one a
    single row's ``post_mean + post_sd * z`` gives."""
    width = z.shape[1]
    np.multiply(z, post_sd[:width, None], out=z)
    return np.add(z, post_mean[:, :width, None], out=z)


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
