"""Sequence-space model primitives.

The observation model is ``Y_j = lambda_j * theta_j + sqrt(eps) * xi_j`` for
``j = 1..N`` with known multipliers ``lambda_j > 0``, unknown signal
coefficients ``theta_j``, noise level ``0 < eps < 1`` and independent
standard Gaussian noise ``xi_j``.  This module holds the deterministic
ingredients (multiplier sequence, signal sequence, smoothness class) and the
simulator.

Everything is 1-indexed in the formulas; array position ``j-1`` stores
coordinate ``j``.  Methods taking a dimension ``m`` mean "the first m
coordinates".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import OBSERVATION, stream

__all__ = [
    "OperatorSequence",
    "ParameterSequence",
    "WeightedClass",
    "Observation",
    "make_operator",
    "make_parameters",
    "make_weights",
    "simulate_observation",
    "load_values_csv",
]

# log of the largest representable double; exponentiating anything above
# this is treated as a checked overflow, never silently returned as inf.
_LOG_MAX = math.log(np.finfo(np.float64).max)

OPERATOR_FAMILIES = ("polynomial", "exponential", "constant", "explicit")
PARAMETER_FAMILIES = ("polynomial", "exponential", "explicit")
WEIGHT_FAMILIES = ("polynomial", "exponential", "explicit")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError("noise level eps must lie in (0, 1)")


# ---------------------------------------------------------------------------
# operator (multiplier) sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSequence:
    """Known model multipliers ``lambda_j``.

    Parameters
    ----------
    values : ndarray
        The multipliers ``lambda_j > 0``.
    log_sq : ndarray
        ``log(lambda_j^2)``, kept exactly so the noise-amplification factors
        ``lambda_j^{-2}`` survive in log space where the linear values would
        overflow (rapidly decaying multipliers).
    family : str
        One of "polynomial", "exponential", "constant", "explicit".
    decay : float or None
        Family decay parameter; None for explicit sequences.
    """

    values: np.ndarray
    log_sq: np.ndarray
    family: str = "explicit"
    decay: float | None = None

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        log_sq = _readonly(self.log_sq)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("operator needs a non-empty 1-d value array")
        if values.shape != log_sq.shape:
            raise ValueError("values and log_sq must have matching length")
        if not np.all(np.isfinite(log_sq)):
            raise ValueError("log multiplier sequence must be finite")
        if not np.all(values > 0.0):
            raise OverflowError(
                "multiplier underflowed to zero; shorten the sequence or use "
                "a slower-decaying family"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_sq", log_sq)

    @property
    def n(self) -> int:
        return self.values.size

    # -- noise amplification factors  lambda_j^{-2} -------------------------

    @property
    def log_amplification(self) -> np.ndarray:
        """``log(lambda_j^{-2})`` for every coordinate; never overflows."""
        return -self.log_sq

    @cached_property
    def _log_amp_cummax(self) -> np.ndarray:
        return _readonly(np.maximum.accumulate(-self.log_sq))

    @cached_property
    def _amp_prefix_sum(self) -> np.ndarray:
        # linear-space prefix sums; entries past the representable range are
        # +inf and every accessor below turns that into a checked error
        with np.errstate(over="ignore"):
            amp = np.exp(-self.log_sq)
        return _readonly(np.cumsum(amp))

    @property
    def amplification(self) -> np.ndarray:
        """``lambda_j^{-2}`` in linear space (checked for overflow)."""
        if self._log_amp_cummax[-1] > _LOG_MAX:
            raise OverflowError(
                "noise amplification factor exceeds the double range; "
                "use log_amplification instead"
            )
        return np.exp(-self.log_sq)

    def max_amplification(self, m: int) -> float:
        """``max_{j<=m} lambda_j^{-2}`` (checked for overflow)."""
        self._check_dim(m)
        log_val = self._log_amp_cummax[m - 1]
        if log_val > _LOG_MAX:
            raise OverflowError(f"max amplification over 1..{m} overflows")
        return float(math.exp(log_val))

    def head(self, k: int) -> "OperatorSequence":
        """First ``k`` coordinates as a sequence (family tag kept); the
        sequence itself when ``k`` is its length."""
        self._check_dim(k)
        if k == self.n:
            return self
        return OperatorSequence(self.values[:k], self.log_sq[:k], self.family, self.decay)

    def _check_dim(self, m: int) -> None:
        if not 1 <= m <= self.n:
            raise ValueError(f"dimension m={m} outside 1..{self.n}")


def make_operator(
    family: str,
    n: int,
    decay: float | None = None,
    values: np.ndarray | None = None,
) -> OperatorSequence:
    """Build a multiplier sequence of length ``n``.

    Families: "polynomial" ``lambda_j^2 = j^{-2a}``, "exponential"
    ``lambda_j^2 = exp(-j^{2a} + 1)`` (both with ``a = decay``), "constant"
    ``lambda_j = 1``, and "explicit" from ``values``.  The exponential family
    is generated in log space; if the multipliers themselves fall below the
    smallest positive double the construction fails rather than returning
    zeros.
    """
    if family not in OPERATOR_FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    j = np.arange(1, n + 1, dtype=np.float64)
    if family == "explicit":
        if values is None:
            raise ValueError("explicit operator needs values")
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != n:
            raise ValueError(f"explicit values must be 1-d of length {n}")
        if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
            raise ValueError("explicit multipliers must be finite and positive")
        return OperatorSequence(vals, np.log(vals**2), family, None)
    if family == "constant":
        return OperatorSequence(np.ones(n), np.zeros(n), family, None)
    if decay is None or decay < 0:
        raise ValueError(f"{family} operator needs decay parameter a >= 0")
    if family == "polynomial":
        log_sq = -2.0 * decay * np.log(j)
        vals = j ** (-decay)
    else:  # exponential
        if decay == 0:
            raise ValueError("exponential operator needs decay a > 0")
        log_sq = 1.0 - j ** (2.0 * decay)
        if not np.all(np.isfinite(log_sq)):
            raise OverflowError("exponential operator exponent overflows")
        vals = np.exp(0.5 * log_sq)
    return OperatorSequence(vals, log_sq, family, float(decay))


# ---------------------------------------------------------------------------
# signal (parameter) sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSequence:
    """Square-summable signal coefficients with an analytic-tail family tag.

    The family tag is what makes bias computations honest at finite
    truncation: the squared-norm mass sitting beyond the stored range is
    bounded in closed form instead of being silently dropped.
    """

    values: np.ndarray
    family: str = "explicit"
    exponent: float | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("parameter sequence needs a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter values must be finite")
        if self.family not in PARAMETER_FAMILIES:
            raise ValueError(f"unknown parameter family {self.family!r}")
        if self.family == "polynomial" and not (self.exponent or 0) > 0.5:
            raise ValueError("polynomial signal needs exponent > 1/2 to be square-summable")
        if self.family == "exponential" and not (self.exponent or 0) > 0:
            raise ValueError("exponential signal needs exponent > 0")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    def sq_tail(self) -> float:
        """Upper bound for ``sum_{j>N} theta_j^2`` beyond the stored range.

        Polynomial family ``theta_j = s j^{-q}``: the integral bound
        ``s^2 N^{1-2q} / (2q - 1)``.  Exponential family
        ``theta_j^2 = s^2 exp(1 - j^{2q})``: the integrand is decreasing, so
        the discrete tail is bounded by the (numerically evaluated) integral
        from N.  Explicit sequences carry no tail.
        """
        n = self.n
        if self.family == "explicit":
            return 0.0
        q = float(self.exponent)  # type: ignore[arg-type]
        s2 = float(self.scale) ** 2
        if self.family == "polynomial":
            return s2 * n ** (1.0 - 2.0 * q) / (2.0 * q - 1.0)
        from scipy.integrate import quad  # imported here: no other path needs scipy

        val, _err = quad(lambda x: math.exp(1.0 - x ** (2.0 * q)), n, np.inf)
        return s2 * float(val)

    def head(self, k: int) -> "ParameterSequence":
        """First ``k`` coordinates; the sequence itself when ``k`` is its
        length."""
        if not 1 <= k <= self.n:
            raise ValueError(f"head length {k} outside 1..{self.n}")
        if k == self.n:
            return self
        return ParameterSequence(self.values[:k], self.family, self.exponent, self.scale)


def make_parameters(
    family: str,
    n: int,
    exponent: float | None = None,
    scale: float = 1.0,
    values: np.ndarray | None = None,
) -> ParameterSequence:
    """Build a signal sequence: "polynomial" ``theta_j = scale * j^{-q}``,
    "exponential" ``theta_j^2 = scale^2 * exp(1 - j^{2q})`` (``q = exponent``)
    or "explicit" from ``values``."""
    if family not in PARAMETER_FAMILIES:
        raise ValueError(f"unknown parameter family {family!r}")
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    if family == "explicit":
        if values is None:
            raise ValueError("explicit parameter sequence needs values")
        vals = np.asarray(values, dtype=np.float64)
        if vals.size != n:
            raise ValueError(f"explicit values must have length {n}")
        return ParameterSequence(vals, family)
    if exponent is None:
        raise ValueError(f"{family} parameter sequence needs an exponent")
    j = np.arange(1, n + 1, dtype=np.float64)
    if family == "polynomial":
        vals = scale * j ** (-float(exponent))
    else:
        vals = scale * np.exp(0.5 * (1.0 - j ** (2.0 * float(exponent))))
    return ParameterSequence(vals, family, float(exponent), float(scale))


# ---------------------------------------------------------------------------
# smoothness class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedClass:
    """Weighted ball ``{theta : sum_j (theta_j - mu_j)^2 / w_j <= radius}``.

    Weights are positive, non-increasing, start at ``w_1 = 1`` and decrease
    towards zero; the descent speed encodes the smoothness the class
    imposes.
    """

    weights: np.ndarray
    radius: float
    family: str = "explicit"
    exponent: float | None = None

    def __post_init__(self) -> None:
        w = _readonly(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weight sequence must be a non-empty 1-d array")
        if not (np.all(np.isfinite(w)) and np.all(w > 0.0)):
            raise ValueError("weights must be finite and positive")
        if w[0] != 1.0:
            raise ValueError("weights must start at w_1 = 1")
        if np.any(np.diff(w) > 0.0):
            raise ValueError("weights must be non-increasing")
        # radius 0 is the degenerate ball {mu}; negative radii are nonsense
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be finite and >= 0")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    def contains(self, theta: ParameterSequence, means: np.ndarray | None = None) -> bool:
        """Membership test on the stored range (coordinates past the shorter
        of the two sequences are not examined)."""
        k = min(self.n, theta.n)
        diff = theta.values[:k] if means is None else theta.values[:k] - np.asarray(means)[:k]
        return bool(np.sum(diff**2 / self.weights[:k]) <= self.radius)


def make_weights(family: str, n: int, exponent: float | None = None,
                 radius: float = 1.0, values: np.ndarray | None = None) -> WeightedClass:
    """Build a weighted class: "polynomial" ``w_j = j^{-2p}``, "exponential"
    ``w_j = exp(-j^{2p} + 1)`` (``p = exponent``) or "explicit"."""
    if family not in WEIGHT_FAMILIES:
        raise ValueError(f"unknown weight family {family!r}")
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    if family == "explicit":
        if values is None:
            raise ValueError("explicit weights need values")
        return WeightedClass(np.asarray(values, dtype=np.float64), radius, family)
    if exponent is None or exponent <= 0:
        raise ValueError(f"{family} weights need exponent p > 0")
    j = np.arange(1, n + 1, dtype=np.float64)
    if family == "polynomial":
        w = j ** (-2.0 * float(exponent))
    else:
        w = np.exp(1.0 - j ** (2.0 * float(exponent)))
        if w[-1] == 0.0:
            raise OverflowError("exponential weights underflow to zero; shorten the range")
    return WeightedClass(w, radius, family, float(exponent))


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """One realisation of the noisy sequence ``Y_j``."""

    values: np.ndarray
    eps: float
    seed: int | None = None
    rep: int = 0

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("observation needs a non-empty 1-d array")
        _check_eps(self.eps)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def simulate_observation(
    theta: ParameterSequence,
    op: OperatorSequence,
    eps: float,
    seed: int,
    rep: int = 0,
) -> Observation:
    """Draw ``Y_j = lambda_j theta_j + sqrt(eps) xi_j`` for ``j = 1..N``.

    Replication ``rep`` uses its own counter-based stream, so a batch of
    simulations is reproducible draw-by-draw regardless of evaluation order.
    """
    if theta.n != op.n:
        raise ValueError(f"signal length {theta.n} != operator length {op.n}")
    _check_eps(eps)
    rng = stream(seed, OBSERVATION, rep)
    y = _observe(op.values * theta.values, math.sqrt(eps), [rng], np.empty((1, op.n)))[0]
    return Observation(y, float(eps), int(seed), int(rep))


def _observe(signal: np.ndarray, noise_scale: float, rngs, out: np.ndarray) -> np.ndarray:
    """``signal + noise_scale * xi`` written into each row of the 2-D
    ``out``, row ``i``'s ``xi`` drawn from the ``i``-th generator of
    ``rngs``, an observation stream."""
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    np.multiply(out, noise_scale, out=out)
    return np.add(out, signal, out=out)


def load_values_csv(path: str) -> np.ndarray:
    """Load a single-column CSV (header row ``value``, one real per line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["value"]:
            raise ValueError(f"{path}: expected single-column header 'value', got {header}")
        try:
            vals = [float(row[0]) for row in reader if row]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed value row: {exc}") from exc
    if not vals:
        raise ValueError(f"{path}: no values")
    return np.asarray(vals, dtype=np.float64)
