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
from dataclasses import dataclass, field
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
# the spacing of doubles at 1.0: where the incomplete gamma's series and
# continued fraction stop
_EPS = math.ulp(1.0)
# Elements per block of a scan over the whole sequence (512 KiB of float64,
# so a block and its temporaries stay in L2).  Each such scan is one loop
# over these blocks that carries its running value across block edges, so
# no full-length temporary is built beside the arrays set-up keeps.
_BLOCK = 1 << 16
# numpy's pairwise summation sums blocks of up to this many elements in
# one loop (its PW_BLOCKSIZE).
_PAIRWISE_LEAF = 128
# Longest run of squared errors ``_sq_err_sum`` builds at once (256 KiB).
_PIECE = 1 << 15

OPERATOR_FAMILIES = ("polynomial", "exponential", "constant", "explicit")
PARAMETER_FAMILIES = ("polynomial", "exponential", "explicit")
WEIGHT_FAMILIES = ("polynomial", "exponential", "explicit")


def _readonly(a, dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``: ``a`` itself when nothing can
    write to its memory (it and every array it views are read-only), which
    is how the factories below hand over what they built; a copy of what a
    caller may still write to."""
    if isinstance(a, np.ndarray) and a.dtype == dtype:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            if base.base is None:
                return a
            base = base.base
    return _freeze(np.array(a, dtype=dtype, copy=True))


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark an array built here read-only, so :func:`_readonly` takes it
    without a copy."""
    a.setflags(write=False)
    return a


def _half(n: int) -> int:
    """Where numpy's pairwise summation splits a node of ``n >
    _PAIRWISE_LEAF`` elements: ``n // 2`` rounded down to a multiple of 8."""
    return n // 2 - n // 2 % 8


def _leaf_sums(a: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``(rows, n)``: entry ``[i, d]`` is ``np.sum`` of the first
    ``widths[i]`` entries of ``a[i, :, d]`` bit for bit, for a ``(rows, W,
    n)`` array with ``W <= _PAIRWISE_LEAF``, its rows in order of width and
    zero past it, so that a column of all rows is one numpy call.  numpy
    sums up to ``_PAIRWISE_LEAF`` elements in one loop: eight running sums
    over the whole groups of eight, started from the first group, combined
    as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest
    added in order (below eight elements, all of them, from zero).  Rows
    with as many whole groups share that order, and adding a zero changes
    no sum of non-negative terms.  The running sums are kept in ``a``.
    ``tests/test_sequences.py::test_leaf_sums_equal_numpy_sum`` pins this."""
    rows, width, n = a.shape
    total = np.empty((rows, n))
    whole = (widths - widths % 8).tolist()
    lo = 0
    while lo < rows:
        hi = lo + whole[lo:].count(whole[lo])  # the rows with as many whole groups
        part, out = a[lo:hi], total[lo:hi]
        if whole[lo]:
            acc = part[:, :8]
            for g in range(8, whole[lo], 8):
                np.add(acc, part[:, g : g + 8], out=acc)
            np.add(acc[:, 0::2], acc[:, 1::2], out=acc[:, 0::2])
            np.add(acc[:, 0::4], acc[:, 2::4], out=acc[:, 0::4])
            np.add(acc[:, 0], acc[:, 4], out=out)
        else:
            out[...] = 0.0
        for c in range(whole[lo], int(widths[hi - 1])):
            np.add(out, part[:, c], out=out)
        lo = hi
    return total


def _sq_err(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``(a_j - b_j)^2`` for ``j`` in ``[lo, hi)``, as a new array."""
    d = np.subtract(a[lo:hi], b[lo:hi])
    return np.square(d, out=d)


def _sq_err_sum(a: np.ndarray, b: np.ndarray, lo: int, n: int) -> float:
    """``np.sum((a - b)[lo : lo + n] ** 2)`` bit for bit, never building
    more than ``_PIECE`` of the squares at once.  numpy sums the ``n``
    squares as a tree (see ``hierarchy._pairwise_sum``), and each subtree
    of up to ``_PIECE`` elements is what ``np.sum`` gives on those elements
    alone, so the tree is rebuilt from such pieces."""
    if n <= _PIECE:
        return float(np.sum(_sq_err(a, b, lo, lo + n)))
    half = _half(n)
    return _sq_err_sum(a, b, lo, half) + _sq_err_sum(a, b, lo + half, n - half)


def _blocks(stop: int, start: int = 0) -> list:
    """``(lo, hi)`` of the consecutive ``_BLOCK``-long blocks covering
    ``[start, stop)``, in order; the last may be shorter."""
    return [(lo, min(lo + _BLOCK, stop)) for lo in range(start, stop, _BLOCK)]


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
        """``log(lambda_j^{-2})`` for every coordinate; never overflows.
        Built on each access, so no second full-length copy of ``log_sq``
        outlives its caller."""
        return _freeze(-self.log_sq)

    @cached_property
    def _log_amp_cummax(self) -> np.ndarray:
        cummax = np.negative(self.log_sq)
        return _freeze(np.maximum.accumulate(cummax, out=cummax))

    @property
    def amplification(self) -> np.ndarray:
        """``lambda_j^{-2}`` in linear space (checked for overflow)."""
        if self._log_amp_cummax[-1] > _LOG_MAX:
            raise OverflowError(
                "noise amplification factor exceeds the double range; "
                "use log_amplification instead"
            )
        amp = np.negative(self.log_sq)
        return np.exp(amp, out=amp)

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
    if family == "explicit":
        if values is None:
            raise ValueError("explicit operator needs values")
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != n:
            raise ValueError(f"explicit values must be 1-d of length {n}")
        if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
            raise ValueError("explicit multipliers must be finite and positive")
        with np.errstate(over="ignore", divide="ignore"):  # an infinite log is refused as not finite
            log_sq = np.log(vals**2)
        return OperatorSequence(vals, _freeze(log_sq), family, None)
    if family == "constant":
        return OperatorSequence(_freeze(np.ones(n)), _freeze(np.zeros(n)), family, None)
    if decay is None or decay < 0:
        raise ValueError(f"{family} operator needs decay parameter a >= 0")
    if family == "exponential" and decay == 0:
        raise ValueError("exponential operator needs decay a > 0")
    j = np.arange(1, n + 1, dtype=np.float64)  # each family writes its values over it
    if family == "polynomial":
        log_sq = np.log(j)
        log_sq *= -2.0 * decay
        j **= -decay
        vals = j
    else:  # exponential
        with np.errstate(over="ignore"):  # an overflow is found by the check below
            j **= 2.0 * decay
        log_sq = np.subtract(1.0, j, out=j)
        if not np.all(np.isfinite(log_sq)):
            raise OverflowError("exponential operator exponent overflows")
        vals = np.multiply(log_sq, 0.5)
        np.exp(vals, out=vals)
    return OperatorSequence(_freeze(vals), _freeze(log_sq), family, float(decay))


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
        the discrete tail is bounded by the integral from N, in closed form
        ``s^2 (e / p) Gamma(1/p, N^p)`` with ``p = 2q``.  Where ``s^2`` is
        subnormal, and so inexact, both are formed without it.  Explicit
        sequences carry no tail.  Raises ``OverflowError`` when ``scale^2``
        or the tail is past the double range.
        """
        n = self.n
        if self.family == "explicit":
            return 0.0
        q = float(self.exponent)  # type: ignore[arg-type]
        if not abs(self.scale) <= math.sqrt(np.finfo(np.float64).max):
            raise OverflowError(f"the squared scale {self.scale}^2 is past the double range")
        p = 2.0 * q
        if self.family == "polynomial":
            scale = float(self.scale)
            tail = scale**2
            if tail < np.finfo(np.float64).tiny:  # a subnormal square, and inexact: keep the scale apart
                tail = scale * (scale * (n ** (1.0 - p) / (p - 1.0)))
            else:
                tail = tail * n ** (1.0 - p) / (p - 1.0)
        # where N^p >= e^7 the integral is below e^-1000, 0.0 in float; the
        # test also keeps N^p from overflowing
        elif self.scale == 0.0 or p * math.log(n) >= 7.0:
            return 0.0
        else:  # log s^2 from log |s|: s^2 itself may be subnormal, and inexact
            log_s2 = 2.0 * math.log(abs(self.scale))
            log_tail = log_s2 + 1.0 - math.log(p) + _log_upper_gamma(1.0 / p, float(n) ** p)
            tail = math.exp(log_tail) if log_tail <= _LOG_MAX else math.inf
        if math.isinf(tail):
            raise OverflowError(f"the squared tail of the signal past N={n} is past the double range")
        return tail

    def head(self, k: int) -> "ParameterSequence":
        """First ``k`` coordinates; the sequence itself when ``k`` is its
        length."""
        if not 1 <= k <= self.n:
            raise ValueError(f"head length {k} outside 1..{self.n}")
        if k == self.n:
            return self
        return ParameterSequence(self.values[:k], self.family, self.exponent, self.scale)


def _log_upper_gamma(a: float, x: float) -> float:
    """``log Gamma(a, x)``, the upper incomplete gamma function, for ``a >
    0`` and ``x > 0``.  Below ``x = a + 1`` it is ``Gamma(a)`` less the
    lower function, summed as its power series; from there on the
    continued fraction of ``Gamma(a, x) e^x x^{-a}``, evaluated by the
    modified Lentz method, converges fast (Numerical Recipes, section 6.2).
    Both run to full double precision."""
    log_xa = a * math.log(x) - x
    if x < a + 1.0:
        # gamma(a, x) = x^a e^-x sum_k x^k / (a (a + 1) ... (a + k))
        term = total = 1.0 / a
        k = a
        while term > total * _EPS:
            k += 1.0
            term *= x / k
            total += term
        log_gamma = math.lgamma(a)
        return log_gamma + math.log1p(-math.exp(log_xa + math.log(total) - log_gamma))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    frac = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        frac *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return log_xa + math.log(frac)


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
    vals = np.arange(1, n + 1, dtype=np.float64)  # the j grid, overwritten with the values
    if family == "polynomial":
        vals **= -float(exponent)
    else:
        with np.errstate(over="ignore"):  # j^{2q} = inf gives exp(-inf) = 0, the right value
            vals **= 2.0 * float(exponent)
        np.subtract(1.0, vals, out=vals)
        vals *= 0.5
        np.exp(vals, out=vals)
    vals *= scale
    return ParameterSequence(_freeze(vals), family, float(exponent), float(scale))


# ---------------------------------------------------------------------------
# smoothness class
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class WeightedClass:
    """Weighted ball ``{theta : sum_j (theta_j - mu_j)^2 / w_j <= radius}``.

    Weights are positive, non-increasing, start at ``w_1 = 1`` and decrease
    towards zero; the descent speed encodes the smoothness the class
    imposes.  A class made from its weights holds them.  A polynomial or
    exponential class from :func:`make_weights` holds its length and its
    formula only: ``_block`` and ``_at`` evaluate the formula on the
    coordinates they read, and ``weights`` builds the whole array on each
    access, so the class keeps no full-length array.
    """

    n: int
    radius: float
    family: str = "explicit"
    exponent: float | None = None
    _values: np.ndarray | None = field(default=None, repr=False)  # the weights a class was made from

    def __init__(self, weights, radius: float, family: str = "explicit", exponent: float | None = None) -> None:
        w = _readonly(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weight sequence must be a non-empty 1-d array")
        self._set(w.size, radius, family, exponent, w)

    @classmethod
    def _formula(cls, family: str, n: int, exponent: float, radius: float) -> "WeightedClass":
        """The polynomial or exponential class of length ``n``, holding no
        weights."""
        wclass = object.__new__(cls)
        wclass._set(n, radius, family, exponent, None)
        return wclass

    def _set(self, n, radius, family, exponent, values) -> None:
        """Set the fields and check the weights, one block at a time."""
        for name, value in zip(("n", "radius", "family", "exponent", "_values"),
                               (n, radius, family, exponent, values)):
            object.__setattr__(self, name, value)
        if values is None and family == "exponential" and self._block(n - 1, n)[0] == 0.0:
            raise OverflowError("exponential weights underflow to zero; shorten the range")
        valid, falling, last = True, True, np.inf
        for lo, hi in _blocks(n):
            w = self._block(lo, hi)
            valid = valid and bool(np.all(np.isfinite(w)) and np.all(w > 0.0))
            falling = falling and not (w[0] > last or np.any(w[1:] > w[:-1]))
            last = w[-1]
        if not valid:
            raise ValueError("weights must be finite and positive")
        if self._block(0, 1)[0] != 1.0:
            raise ValueError("weights must start at w_1 = 1")
        if not falling:
            raise ValueError("weights must be non-increasing")
        # radius 0 is the degenerate ball {mu}; negative radii are nonsense
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be finite and >= 0")

    @property
    def weights(self) -> np.ndarray:
        """``w_j`` for every coordinate, read-only; a formula class builds
        them on each access."""
        if self._values is not None:
            return self._values
        return _freeze(self._block(0, self.n))

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """``w_j`` for ``j`` in ``lo + 1 .. hi``."""
        return self._at(np.arange(lo, hi))

    def _at(self, idx: np.ndarray) -> np.ndarray:
        """``w_j`` at the array positions ``idx`` (``j = idx + 1``)."""
        if self._values is not None:
            return self._values[idx]
        return _decaying(self.family, 2.0 * self.exponent, idx + 1.0)

    def contains(self, theta: ParameterSequence, means: np.ndarray | None = None) -> bool:
        """Membership test on the stored range (coordinates past the shorter
        of the two sequences are not examined)."""
        k = min(self.n, theta.n)
        diff = theta.values[:k] if means is None else theta.values[:k] - np.asarray(means)[:k]
        return bool(np.sum(diff**2 / self._block(0, k)) <= self.radius)


def _decaying(family: str, power: float, j: np.ndarray) -> np.ndarray:
    """``j^-power`` ("polynomial") or ``exp(1 - j^power)`` ("exponential")
    at ``j``, a float array written over: the class weights at ``2p``, the
    prior's variance family at its exponent."""
    if family == "polynomial":
        j **= -power
    else:
        with np.errstate(over="ignore"):  # j^power = inf gives a zero, which the callers refuse
            j **= power
        np.subtract(1.0, j, out=j)
        np.exp(j, out=j)
    return j


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
    return WeightedClass._formula(family, n, float(exponent), radius)


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


def _read_column(path, header: tuple, column: int) -> np.ndarray:
    """Column ``column`` of a CSV file, as floats: its first row must be
    ``header`` and each later one, blank lines aside, as many cells wide."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if (found := next(reader, None)) != list(header):
                raise ValueError(f"expected header {','.join(header)}, got {found}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells where the header has {len(header)}")
                values.append(float(row[column]))
        except (csv.Error, ValueError) as err:
            raise ValueError(f"{path}, line {reader.line_num or 1}: {err}") from err
    if not values:
        raise ValueError(f"{path}: no rows below the header")
    return np.asarray(values, dtype=np.float64)


def load_values_csv(path: str) -> np.ndarray:
    """Load a single-column CSV (header row ``value``, one real per line)."""
    return _read_column(path, ("value",), 0)
