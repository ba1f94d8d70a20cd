"""Output checks computed apart from the program.

Every artifact a workload writes is checked against a computation made here
with numpy and scipy alone, never against a stored copy of earlier output:

* ``rates.csv``: oracle and minimax dimensions and rates, recomputed from
  the closed-form bias ``s^2 zeta(2q, m+1)`` (Hurwitz zeta, with the stored
  range capped by the integral tail bound the program documents) and the
  variance proxy ``eps sum_{j<=m} lambda_j^-2``.
* ``mise.csv`` sieve rows: the exact mean ``eps sum lambda_j^-2 + b_m`` and
  the exact variance ``2 eps^2 sum lambda_j^-4 / reps`` give a z-score.
* ``mise.csv`` adaptive rows: the adaptive estimator re-implemented here,
  drawing from the documented stream address ``SeedSequence(seed,
  spawn_key=(1, r))`` with Philox, wherever the search range is cheap.
* log-log slopes of every fitted estimator against ``2p / (2a + 2p + 1)``.
* ``concentration.csv``: every band and bracket mass recomputed from the
  documented stream addresses; sieve rows on the direct model also against
  the closed form ``P(rate/K <= 2 eps chi2_m + b_m <= rate K)``.
* ``audit.csv``: the suite regenerated from its stream address, the bound
  recomputed from the row's own fields, the frequencies against that bound
  and against an exact law (chi-square for the reference config, the normal
  law for one-dimensional configs) or a second estimate from an independent
  generator (PCG64).

Each check is one operation: it passes or fails, and the list of checks
depends only on the config, so a missing or malformed artifact fails every
check that reads it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special, stats

# Stream domain tags of the program's documented stream addresses.
OBSERVATION, SIEVE_DRAW, HIERARCHY_DRAW, SUITE_GEN = 1, 2, 3, 5

Z_LIMIT = 4.0            # |z| limit where the law of the statistic is exact
POOLED_Z_LIMIT = 5.0     # two-sample limit against the independent second estimate
SLOPE_TOL = 0.08         # slope tolerance, as the program's rate check
REL_TOL = 1e-9           # recomputed values from the same stream addresses
EXACT_REPS_COORDS = 20_000_000  # recompute adaptive rows up to reps x M coordinates
SECOND_ESTIMATE_DRAWS = 20_000
FITTED_KINDS = ("oracle", "minimax", "adaptive")


class CheckFailed(AssertionError):
    """An artifact disagrees with the independent computation."""


@dataclass(frozen=True)
class Result:
    name: str
    ok: bool
    detail: str


def philox(seed: int, *path: int) -> np.random.Generator:
    """The generator at the program's documented stream address."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def _close(actual: float, expected: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(actual - expected) <= rel * abs(expected) + abs_tol


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the sequence model of a config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """The model of a config: ``lambda_j = j^-a``, ``theta_j = s j^-q``,
    improper prior, polynomial class ``w_j = j^-2p``."""

    a: float
    q: float
    s: float
    p: float | None
    n: int
    seed: int
    reps: int
    draws: int
    c_lambda: float

    @classmethod
    def from_config(cls, raw: dict) -> "Problem":
        model, truth = raw["model"], raw["truth"]
        if model["family"] == "constant":
            a = 0.0
        elif model["family"] == "polynomial":
            a = float(model["decay"])
        else:
            raise ValueError(f"no independent check for model family {model['family']!r}")
        if truth["family"] != "polynomial" or raw["prior"]["kind"] != "improper":
            raise ValueError("independent checks cover polynomial truths under the improper prior")
        block = raw.get("class")
        if block is not None and block["family"] != "polynomial":
            raise ValueError("independent checks cover polynomial classes")
        eps_all = list(raw["eps_grid"]) + list(raw.get("concentration", {}).get("eps_grid", []))
        n = int(model["n"]) if "n" in model else int(math.ceil(1.0 / min(eps_all) - 1e-9))
        mc = raw.get("mc", {})
        return cls(
            a=a,
            q=float(truth["exponent"]),
            s=float(truth.get("scale", 1.0)),
            p=float(block["exponent"]) if block else None,
            n=n,
            seed=int(raw["seed"]),
            reps=int(mc.get("reps", 200)),
            draws=int(mc.get("draws", 500)),
            c_lambda=float(raw["c_lambda"]),
        )

    def lam(self, m: int) -> np.ndarray:
        return np.arange(1, m + 1, dtype=np.float64) ** (-self.a)

    def amp(self, m: int) -> np.ndarray:
        """``lambda_j^-2`` for ``j = 1..m``."""
        return np.arange(1, m + 1, dtype=np.float64) ** (2.0 * self.a)

    def theta(self, m: int) -> np.ndarray:
        return self.s * np.arange(1, m + 1, dtype=np.float64) ** (-self.q)

    def bias(self, m):
        """``sum_{j>m} theta_j^2``: the stored range ``m < j <= n`` in closed
        form plus the integral bound ``s^2 n^(1-2q) / (2q-1)`` past ``n``."""
        m = np.asarray(m, dtype=np.float64)
        s2, x = self.s**2, 2.0 * self.q
        stored = s2 * (special.zeta(x, m + 1.0) - special.zeta(x, self.n + 1.0))
        return stored + s2 * self.n ** (1.0 - x) / (x - 1.0)

    def _select(self, eps: float, floor) -> tuple[int, float]:
        proxy = eps * np.cumsum(self.amp(self.n))
        # past the first m whose proxy exceeds the rate at m = 1 nothing can win
        top = min(self.n, int(np.searchsorted(proxy, max(floor(np.array([1]))[0], proxy[0]), "right")) + 1)
        m = np.arange(1, top + 1)
        rates = np.maximum(floor(m), proxy[:top])
        i = int(np.argmin(rates))
        return i + 1, float(rates[i])

    def oracle(self, eps: float) -> tuple[int, float]:
        return self._select(eps, self.bias)

    def minimax(self, eps: float) -> tuple[int, float]:
        if self.p is None:
            raise ValueError("minimax selection needs a class")
        return self._select(eps, lambda m: np.asarray(m, dtype=np.float64) ** (-2.0 * self.p))

    def max_dim(self, eps: float) -> int:
        """Largest ``m <= min(n, 1/eps)`` with ``eps lambda_m^-2 <= 1``."""
        cap = min(self.n, int(math.floor(1.0 / eps + 1e-9)))
        bound = -math.log(eps)
        bound += 1e-9 * max(1.0, abs(bound))
        j = np.arange(1, cap + 1, dtype=np.float64)
        return max(int(np.sum(2.0 * self.a * np.log(j) <= bound)), 1)

    def theory_slope(self) -> float:
        return 2.0 * self.p / (2.0 * self.a + 2.0 * self.p + 1.0)

    # -- replications at the documented stream addresses ---------------------

    def posterior(self, eps: float, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of replication ``r`` on ``1..m``."""
        lam = self.lam(m)
        y = lam * self.theta(m) + math.sqrt(eps) * philox(self.seed, OBSERVATION, r).standard_normal(m)
        return y / lam, eps * self.amp(m)

    def dimension_probs(self, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
        dims = np.arange(1, mean.size + 1, dtype=np.float64)
        lw = 0.5 * np.cumsum(mean**2 / var) - 1.5 * self.c_lambda * dims
        probs = np.exp(lw - np.max(lw))
        return probs / probs.sum()


def _summary(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def adaptive_mise(prob: Problem, eps: float) -> tuple[float, float]:
    """Mean and standard error of the adaptive estimator's squared error."""
    m_top = prob.max_dim(eps)
    theta = prob.theta(m_top)
    remainder = float(prob.bias(m_top))
    vals = np.empty(prob.reps)
    for r in range(prob.reps):
        mean, var = prob.posterior(eps, m_top, r)
        probs = prob.dimension_probs(mean, var)
        omega = np.clip(np.cumsum(probs[::-1])[::-1], 0.0, 1.0)
        vals[r] = float(np.sum((omega * mean - theta) ** 2)) + remainder
    return _summary(vals)


def sieve_band_mass(prob: Problem, eps: float, m: int, lo: float, hi: float) -> tuple[float, float]:
    """Expected sieve-posterior mass of ``{lo <= |draw - theta|^2 <= hi}``."""
    theta = prob.theta(m)
    remainder = float(prob.bias(m))
    fracs = np.empty(prob.reps)
    for r in range(prob.reps):
        mean, var = prob.posterior(eps, m, r)
        z = philox(prob.seed, SIEVE_DRAW, r).standard_normal((prob.draws, m))
        sq = np.sum((mean + np.sqrt(var) * z - theta) ** 2, axis=1) + remainder
        fracs[r] = np.mean((sq >= lo) & (sq <= hi))
    return _summary(fracs)


def hierarchical_band_mass(prob: Problem, eps: float, lo: float, hi: float) -> tuple[float, float]:
    """Expected hierarchical-posterior mass of ``{lo <= |draw - theta|^2 <= hi}``.

    A draw of dimension ``d`` is Gaussian on ``1..d`` and zero (the prior
    mean) beyond, so only the first ``max(d)`` columns are drawn here."""
    m_top = prob.max_dim(eps)
    theta = prob.theta(m_top)
    remainder = float(prob.bias(m_top))
    fracs = np.empty(prob.reps)
    for r in range(prob.reps):
        mean, var = prob.posterior(eps, m_top, r)
        cdf = np.cumsum(prob.dimension_probs(mean, var))
        rng = philox(prob.seed, HIERARCHY_DRAW, r)
        dims = np.minimum(np.searchsorted(cdf, rng.random(prob.draws), side="right"), m_top - 1) + 1
        width = int(dims.max())
        z = rng.standard_normal((prob.draws, width))
        keep = np.arange(1, width + 1) <= dims[:, None]
        gauss = mean[:width] + np.sqrt(var[:width]) * z
        head = np.where(keep, (gauss - theta[:width]) ** 2, theta[:width] ** 2)
        sq = np.sum(head, axis=1) + float(np.sum(theta[width:] ** 2)) + remainder
        fracs[r] = np.mean((sq >= lo) & (sq <= hi))
    return _summary(fracs)


def bracket_outside_mass(prob: Problem, eps: float, m_lo: int, m_hi: int) -> tuple[float, float]:
    """Expected dimension-posterior mass outside ``[m_lo, m_hi]``."""
    m_top = prob.max_dim(eps)
    vals = np.empty(prob.reps)
    for r in range(prob.reps):
        probs = prob.dimension_probs(*prob.posterior(eps, m_top, r))
        vals[r] = float(np.sum(probs[: m_lo - 1]) + np.sum(probs[m_hi:]))
    return _summary(vals)


# ---------------------------------------------------------------------------
# row checks (each raises CheckFailed or returns a short detail)
# ---------------------------------------------------------------------------


def check_rates_row(prob: Problem, eps: float, row: dict) -> str:
    m_star, phi_star = prob.oracle(eps)
    _require(int(row["m_star"]) == m_star, f"m_star {row['m_star']} != {m_star}")
    _require(_close(float(row["phi_star"]), phi_star), f"phi_star {row['phi_star']} != {phi_star}")
    if prob.p is not None:
        m_circ, phi_circ = prob.minimax(eps)
        _require(int(row["m_circ"]) == m_circ, f"m_circ {row['m_circ']} != {m_circ}")
        _require(_close(float(row["phi_circ"]), phi_circ), f"phi_circ {row['phi_circ']} != {phi_circ}")
    return f"m*={m_star}"


def check_sieve_mise_row(prob: Problem, eps: float, kind: str, row: dict) -> str:
    m = (prob.minimax if kind == "minimax" else prob.oracle)(eps)[0]
    _require(int(row["m"]) == m, f"m {row['m']} != {m}")
    _require(int(row["reps"]) == prob.reps, f"reps {row['reps']} != {prob.reps}")
    amp = prob.amp(m)
    exact = eps * float(np.sum(amp)) + float(prob.bias(m))
    sd = eps * math.sqrt(2.0 * float(np.sum(amp**2)) / prob.reps)
    z = (float(row["mise"]) - exact) / sd
    _require(abs(z) <= Z_LIMIT, f"mise {row['mise']} vs exact {exact:.6g}: z={z:.2f}")
    return f"z={z:.2f}"


def check_adaptive_mise_row(prob: Problem, eps: float, row: dict) -> str:
    m_top = prob.max_dim(eps)
    _require(int(row["m"]) == m_top, f"m {row['m']} != search range {m_top}")
    _require(int(row["reps"]) == prob.reps, f"reps {row['reps']} != {prob.reps}")
    if prob.reps * m_top > EXACT_REPS_COORDS:
        return f"M={m_top}: recomputation skipped, covered by the slope fit"
    mise, se = adaptive_mise(prob, eps)
    _require(_close(float(row["mise"]), mise), f"mise {row['mise']} != recomputed {mise!r}")
    _require(_close(float(row["se"]), se, rel=1e-6), f"se {row['se']} != recomputed {se!r}")
    return f"rel diff {abs(float(row['mise']) - mise) / mise:.1e}"


def fit_slope(eps, mise) -> float:
    return float(np.polyfit(np.log(np.asarray(eps, dtype=float)), np.log(np.asarray(mise, dtype=float)), 1)[0])


def check_slope(prob: Problem, kind: str, rows: list, report: dict | None) -> str:
    slope = fit_slope([float(r["eps"]) for r in rows], [float(r["mise"]) for r in rows])
    theory = prob.theory_slope()
    _require(abs(slope - theory) <= SLOPE_TOL, f"slope {slope:.4f} outside {theory:.4f} +/- {SLOPE_TOL}")
    if report is not None:
        reported = float(report["rates_fit"][kind]["slope"])
        _require(_close(reported, slope, abs_tol=1e-12), f"report.json slope {reported} != fitted {slope}")
    return f"slope {slope:.4f} (theory {theory:.4f})"


def check_concentration_row(prob: Problem, eps: float, kind: str, row: dict) -> str:
    m_top = prob.max_dim(eps)
    minimax = kind.endswith("_minimax")
    m_sel, rate = prob.minimax(eps) if minimax else prob.oracle(eps)
    if kind.startswith("bracket"):
        m_lo, m_hi = int(row["m_lo"]), int(row["m_hi"])
        _require(int(row["m"]) == m_sel, f"m {row['m']} != {m_sel}")
        _require(1 <= m_lo <= m_sel <= m_hi <= m_top, f"bracket [{m_lo}, {m_hi}] does not hold {m_sel} in 1..{m_top}")
        mass, se = bracket_outside_mass(prob, eps, m_lo, m_hi)
        _require(_close(float(row["mass"]), mass, abs_tol=1e-15), f"mass {row['mass']} != recomputed {mass!r}")
        _require(_close(float(row["se"]), se, rel=1e-6, abs_tol=1e-15), f"se {row['se']} != recomputed {se!r}")
        return f"outside mass {mass:.3g}"
    _require(_close(float(row["rate"]), rate), f"rate {row['rate']} != {rate}")
    const = float(row["constant"])
    _require(const >= 1.0, f"band constant {const} < 1")
    two_sided = kind != "hierarchical_minimax"
    lo, hi = (rate / const if two_sided else 0.0), rate * const
    if kind.startswith("hierarchical"):
        _require(int(row["m"]) == m_top, f"m {row['m']} != search range {m_top}")
        mass, se = hierarchical_band_mass(prob, eps, lo, hi)
    else:
        _require(int(row["m"]) == m_sel, f"m {row['m']} != {m_sel}")
        mass, se = sieve_band_mass(prob, eps, m_sel, lo, hi)
    _require(_close(float(row["mass"]), mass, abs_tol=1e-12), f"mass {row['mass']} != recomputed {mass!r}")
    _require(_close(float(row["se"]), se, rel=1e-6, abs_tol=1e-15), f"se {row['se']} != recomputed {se!r}")
    return f"mass {mass:.6g}"


def sieve_band_law(prob: Problem, eps: float, m: int, lo: float, hi: float) -> float:
    """``P(lo <= 2 eps chi2_m + b_m <= hi)`` on the direct model: draw minus
    truth is ``sqrt(eps) (xi + z)`` on ``1..m`` with ``xi + z ~ N(0, 2)``."""
    b = float(prob.bias(m))
    cdf = lambda x: stats.chi2.cdf(max(x, 0.0), m)  # noqa: E731
    return float(cdf((hi - b) / (2.0 * eps)) - cdf((lo - b) / (2.0 * eps)))


def check_sieve_band_law(prob: Problem, eps: float, row: dict) -> str:
    m, rate = prob.oracle(eps)
    const = float(row["constant"])
    p = sieve_band_law(prob, eps, m, rate / const, rate * const)
    tol = Z_LIMIT * math.sqrt(p * (1.0 - p) / prob.reps)
    mass = float(row["mass"])
    _require(abs(mass - p) <= tol, f"mass {mass} vs closed form {p:.6g} +/- {tol:.2g}")
    return f"closed form {p:.6g}"


# -- tail-bound audit ----------------------------------------------------------


@dataclass(frozen=True)
class TailConfig:
    shifts: np.ndarray
    scales: np.ndarray
    c: float
    var_bound: float
    max_bound: float
    shift_bound: float

    @property
    def mean(self) -> float:
        return float(np.sum(self.shifts**2) + np.sum(self.scales**2))

    @property
    def spread(self) -> float:
        return self.c * (self.var_bound + 2.0 * self.shift_bound)


def suite_config(seed: int, i: int) -> TailConfig:
    """Config ``i`` of the randomized suite, from its stream address."""
    if i == 0:  # the reference config: ten unit scales, zero shifts, c = 1
        return TailConfig(np.zeros(10), np.ones(10), 1.0, 10.0, 1.0, 0.0)
    rng = philox(seed, SUITE_GEN, i)
    m = int(rng.integers(1, 31))
    scales = rng.uniform(0.2, 2.0, m)
    shifts = rng.normal(0.0, 1.0, m) if rng.random() < 0.6 else np.zeros(m)
    c = float(np.exp(rng.uniform(math.log(0.25), math.log(3.0))))
    slacks = np.where(rng.random(3) < 0.3, 1.0 + rng.random(3), 1.0)
    return TailConfig(
        shifts, scales, c,
        float(np.sum(scales**2)) * slacks[0],
        float(np.max(scales**2)) * slacks[1],
        float(np.sum(shifts**2)) * slacks[2],
    )


def prob_bound(c: float, var_bound: float, max_bound: float, shift_bound: float) -> float:
    return math.exp(-c * min(c, 1.0) * (var_bound + 2.0 * shift_bound) / (4.0 * max_bound))


def overshoot_bound(c: float, var_bound: float, max_bound: float, shift_bound: float) -> float | None:
    if c < 1.0:
        return None
    return 6.0 * max_bound * math.exp(-c * (var_bound + 2.0 * shift_bound) / (4.0 * max_bound))


def _second_estimate(cfg: TailConfig, seed: int, i: int) -> tuple[int, int, int]:
    """Lower and upper event counts from an independent generator."""
    rng = np.random.Generator(np.random.PCG64([seed, i, 0x5EC0]))
    z = rng.standard_normal((SECOND_ESTIMATE_DRAWS, cfg.shifts.size))
    dev = np.sum((cfg.shifts + cfg.scales * z) ** 2, axis=1) - cfg.mean
    return int(np.sum(dev <= -cfg.spread)), int(np.sum(dev >= 1.5 * cfg.spread)), SECOND_ESTIMATE_DRAWS


def _exact_law(cfg: TailConfig) -> tuple[float, float] | None:
    """Exact lower and upper event probabilities where a law is known."""
    lo, hi = cfg.mean - cfg.spread, cfg.mean + 1.5 * cfg.spread
    if np.all(cfg.shifts == 0.0) and np.all(cfg.scales == cfg.scales[0]):
        k, s2 = cfg.scales.size, cfg.scales[0] ** 2
        lower = float(stats.chi2.cdf(lo / s2, k)) if lo > 0 else 0.0
        return lower, float(stats.chi2.sf(hi / s2, k))
    if cfg.shifts.size == 1:  # S = (a + b Z)^2
        a, b = float(cfg.shifts[0]), float(cfg.scales[0])

        def below(x):
            if x < 0:
                return 0.0
            r = math.sqrt(x)
            return float(stats.norm.cdf((r - a) / b) - stats.norm.cdf((-r - a) / b))

        return below(lo), 1.0 - below(hi)
    return None


def check_audit_row(seed: int, reps: int, i: int, row: dict) -> str:
    _require(int(row["index"]) == i, f"row index {row['index']} != {i}")
    cfg = suite_config(seed, i)
    c, var_b, max_b, shift_b = (float(row[k]) for k in ("c", "var_bound", "max_bound", "shift_bound"))
    _require(int(row["m"]) == cfg.shifts.size, f"m {row['m']} != {cfg.shifts.size}")
    for name, got, want in (("c", c, cfg.c), ("var_bound", var_b, cfg.var_bound),
                            ("max_bound", max_b, cfg.max_bound), ("shift_bound", shift_b, cfg.shift_bound)):
        _require(_close(got, want, rel=1e-12), f"{name} {got} != regenerated {want}")
    bound = prob_bound(c, var_b, max_b, shift_b)
    _require(_close(float(row["prob_bound"]), bound, rel=1e-12), f"prob_bound {row['prob_bound']} != {bound}")
    over_bound = overshoot_bound(c, var_b, max_b, shift_b)
    if over_bound is None:
        _require(row["overshoot_bound"] == "", f"overshoot_bound {row['overshoot_bound']} set below c = 1")
    else:
        _require(_close(float(row["overshoot_bound"]), over_bound, rel=1e-12),
                 f"overshoot_bound {row['overshoot_bound']} != {over_bound}")
    freqs = {"lower": float(row["lower_emp"]), "upper": float(row["upper_emp"])}
    for side, emp in freqs.items():
        se = math.sqrt(emp * (1.0 - emp) / reps)
        _require(_close(float(row[f"{side}_se"]), se, rel=1e-9, abs_tol=1e-15), f"{side}_se != {se}")
        _require(emp <= bound + 3.0 * se, f"{side} frequency {emp} above bound {bound:.4g} + 3 se")
    over_emp, over_se = float(row["overshoot_emp"]), float(row["overshoot_se"])
    if over_bound is not None:
        _require(over_emp <= over_bound + 3.0 * over_se, f"overshoot {over_emp} above bound {over_bound:.4g} + 3 se")
    _require(row["passed"] == "true", f"passed is {row['passed']!r}")

    law = _exact_law(cfg)
    if law is not None:
        for (side, emp), p in zip(freqs.items(), law):
            tol = Z_LIMIT * math.sqrt(p * (1.0 - p) / reps)
            _require(abs(emp - p) <= tol, f"{side} frequency {emp} vs exact {p:.6g} +/- {tol:.2g}")
        if i == 0:  # chi2_10 overshoot past 25: E(S - 25)_+ = 10 sf_12(25) - 25 sf_10(25)
            exact = 10.0 * stats.chi2.sf(25.0, 12) - 25.0 * stats.chi2.sf(25.0, 10)
            _require(abs(over_emp - exact) <= Z_LIMIT * over_se, f"overshoot {over_emp} vs exact {exact:.6g}")
        return f"exact law {law[0]:.4g}/{law[1]:.4g}"
    counts = _second_estimate(cfg, seed, i)
    for (side, emp), k2 in zip(freqs.items(), counts[:2]):
        n1, n2 = reps, counts[2]
        pooled = (emp * n1 + k2) / (n1 + n2)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        diff = emp - k2 / n2
        _require(abs(diff) <= POOLED_Z_LIMIT * se, f"{side} frequency {emp} vs second estimate {k2 / n2:.4g}")
    return "second estimate agrees"


# ---------------------------------------------------------------------------
# artifacts of one workload process
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row(rows: list, eps: float, kind: str | None = None) -> dict:
    found = [r for r in rows if float(r["eps"]) == eps and (kind is None or r["kind"] == kind)]
    if len(found) != 1:
        raise CheckFailed(f"expected one row for eps={eps} kind={kind}, found {len(found)}")
    return found[0]


class _Artifacts:
    """Lazily read artifacts; a read error fails each check that needs it."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._cache: dict = {}

    def csv(self, name: str) -> list:
        if name not in self._cache:
            self._cache[name] = _read_csv(self.out_dir / name)
        return self._cache[name]

    def report(self) -> dict:
        if "report.json" not in self._cache:
            self._cache["report.json"] = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        return self._cache["report.json"]


def _sidecars(art: _Artifacts, names: list, seed: int) -> str:
    for name in names:
        art.csv(name)
        meta = json.loads((art.out_dir / (Path(name).stem + ".meta.json")).read_text(encoding="utf-8"))
        _require(meta["artifact"] == name and meta["seed"] == seed, f"{name} sidecar {meta}")
    _require(art.report()["seed"] == seed, "report.json seed")
    return f"{len(names)} artifacts"


def _attempt(results: list, name: str, fn, *args) -> None:
    try:
        detail = fn(*args)
        results.append(Result(name, True, detail))
    except Exception as err:  # every failure, parse errors included, fails this check only
        results.append(Result(name, False, f"{type(err).__name__}: {err}"))


def check_outputs(command: str, raw: dict, out_dir: Path) -> list:
    """Every check of the artifacts one workload process wrote."""
    art = _Artifacts(out_dir)
    results: list = []
    seed = int(raw["seed"])
    artifacts = []
    if command in ("sweep", "run"):
        prob = Problem.from_config(raw)
        eps_grid = sorted(set(float(e) for e in raw["eps_grid"]), reverse=True)
        artifacts.append("rates.csv")
        for eps in eps_grid:
            _attempt(results, f"rates eps={eps}", lambda e: check_rates_row(prob, e, _row(art.csv("rates.csv"), e)), eps)
        estimators = list(raw.get("estimators", ["oracle"]))
        if estimators:
            artifacts.append("mise.csv")
        for eps in eps_grid:
            for kind in estimators:
                if kind == "adaptive":
                    _attempt(results, f"mise {kind} eps={eps}", lambda e: check_adaptive_mise_row(
                        prob, e, _row(art.csv("mise.csv"), e, "adaptive")), eps)
                else:  # oracle and minimax rows; no workload runs fixed-dimension fits
                    _attempt(results, f"mise {kind} eps={eps}", lambda e, k: check_sieve_mise_row(
                        prob, e, k, _row(art.csv("mise.csv"), e, k)), eps, kind)
        for kind in FITTED_KINDS:
            if kind in estimators and len(eps_grid) >= 2:
                _attempt(results, f"slope {kind}", lambda k: check_slope(
                    prob, k, [r for r in art.csv("mise.csv") if r["kind"] == k], art.report()), kind)
        kinds = raw.get("concentration", {}).get("kinds", []) if command == "run" else []
        if kinds:
            artifacts.append("concentration.csv")
        conc_grid = sorted(set(float(e) for e in raw.get("concentration", {}).get("eps_grid", eps_grid)), reverse=True)
        for eps in conc_grid:
            for kind in kinds:
                _attempt(results, f"concentration {kind} eps={eps}", lambda e, k: check_concentration_row(
                    prob, e, k, _row(art.csv("concentration.csv"), e, k)), eps, kind)
                if kind == "sieve_oracle" and prob.a == 0.0:
                    _attempt(results, f"closed form {kind} eps={eps}", lambda e: check_sieve_band_law(
                        prob, e, _row(art.csv("concentration.csv"), e, "sieve_oracle")), eps)
    block = raw.get("audit")
    if command == "audit" or (command == "run" and block is not None):
        block = block or {"configs": 50, "reps": 100_000}
        artifacts.append("audit.csv")
        for i in range(int(block["configs"])):
            _attempt(results, f"audit config {i}", lambda k: check_audit_row(
                seed, int(block["reps"]), k, art.csv("audit.csv")[k]), i)
    _attempt(results, "sidecars", _sidecars, art, artifacts, seed)
    return results
