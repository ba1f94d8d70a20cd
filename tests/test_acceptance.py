"""The acceptance gate: ten numbered end-to-end checks.

Each test prints a single verdict line of the form

    [criterion NN] <name>: PASS/FAIL (<numbers>, <runtime>)

with capture suspended, so the checklist is visible in a plain ``pytest``
run, and then asserts the same condition.  Monte Carlo settings match the
bundled benchmark configs: 200 replications, 500 posterior draws,
seed 20260819.
"""

import importlib.resources
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from igssm import (
    PriorSpec,
    adaptive_estimate,
    audit_tail_bounds,
    bracket_dimensions,
    check_assumptions,
    composite_constants,
    coordinate_posterior,
    make_operator,
    make_parameters,
    max_dimension,
    mc_bracket_mass,
    mc_concentration,
    mc_mise,
    mc_mise_profile,
    mc_sieve_deviation,
    oracle_dimension,
    random_tail_suite,
    sieve_posterior_mean,
    simulate_observation,
)
from igssm.config import load_config
from igssm.experiment import run_experiment

SEED = 20260819
REPS = 200
DRAWS = 500
C_PENALTY = 1.5  # dimension-prior penalty constant pinned by the benchmark configs

# Probability differences below this are indistinguishable from zero at 200
# replications, so the monotone-trend checks treat them as ties.
TREND_SLACK = 1e-3


def _verdict(capsys, num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _load_bundled(name):
    resource = importlib.resources.files("igssm").joinpath("configs", name + ".json")
    with importlib.resources.as_file(resource) as path:
        return load_config(path)


@pytest.fixture(scope="module")
def benchmark_problem():
    """The polynomial benchmark (lambda_j = 1/j, theta_j = 0.4 j^-1.6,
    improper prior) at the resolution the concentration criteria need."""
    n = 10_000
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.flat(n)
    grid = (1e-2, 1e-3, 1e-4)
    report = check_assumptions(theta, prior, op, grid)
    return op, theta, prior, grid, report


def _trend(values, ses, direction):
    """Monotonicity up to Monte Carlo noise: each step may violate the trend
    by at most max(3 * (se_i + se_{i+1}), TREND_SLACK)."""
    for i in range(len(values) - 1):
        slack = max(3.0 * (ses[i] + ses[i + 1]), TREND_SLACK)
        step = values[i + 1] - values[i]
        if direction == "non-increasing" and step > slack:
            return False
        if direction == "non-decreasing" and step < -slack:
            return False
    return True


def test_criterion_01_mixture_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(10, 201))
        if rng.random() < 0.5:
            op = make_operator("polynomial", n, decay=float(rng.uniform(0.3, 1.2)))
        else:
            op = make_operator("constant", n)
        j = np.arange(1, n + 1, dtype=np.float64)
        theta = make_parameters("explicit", n, values=rng.normal(0.0, 1.0, n) / j)
        u = rng.random()
        if u < 0.4:
            prior = PriorSpec.flat(n)
        elif u < 0.7:
            prior = PriorSpec.gaussian(
                rng.normal(0.0, 1.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n)
            )
        else:
            mask = rng.random(n) < 0.3
            means = rng.normal(0.0, 1.0, n)
            variances = 10.0 ** rng.uniform(-2.0, 1.0, n)
            means[mask] = 0.0
            variances[mask] = np.inf
            prior = PriorSpec.mixed(means, variances, mask)
        eps = 10.0 ** float(rng.uniform(-3.0, -0.7))
        c = float(rng.uniform(1.0, 2.0))
        obs = simulate_observation(theta, op, eps, seed=i)
        summary = coordinate_posterior(prior, op, obs)
        est = adaptive_estimate(summary, prior, op, eps, c)
        mixture = np.zeros(n)
        for m, p in enumerate(est.dimension_posterior.probs, start=1):
            mixture += p * sieve_posterior_mean(m, summary, prior)
        worst = max(worst, float(np.linalg.norm(est.values - mixture)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    line = _verdict(capsys, 1, "mixture identity", ok, f"max norm gap {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_conjugacy_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        lam = 10.0 ** float(rng.uniform(-2.0, 0.0))
        eps = 10.0 ** float(rng.uniform(-4.0, -0.5))
        mu = float(rng.normal(0.0, 2.0))
        var = 10.0 ** float(rng.uniform(-2.0, 1.0))
        y = lam * mu + float(rng.normal(0.0, 1.0)) * math.sqrt(lam**2 * var + eps)

        # Quadrature referee: the log-density is a sum of two concave
        # quadratics, so its mode lies between their individual maximizers
        # mu and y/lam.  Scan that bracket, then Simpson over +-12 scales.
        scale = min(math.sqrt(var), math.sqrt(eps) / lam)
        lo = min(mu, y / lam) - 3 * scale
        hi = max(mu, y / lam) + 3 * scale
        coarse = np.linspace(lo, hi, 8001)
        log_d = -((y - lam * coarse) ** 2) / (2 * eps) - (coarse - mu) ** 2 / (2 * var)
        center = coarse[np.argmax(log_d)]
        t = np.linspace(center - 12 * scale, center + 12 * scale, 20001)
        log_d = -((y - lam * t) ** 2) / (2 * eps) - (t - mu) ** 2 / (2 * var)
        w = np.exp(log_d - log_d.max())
        z = simpson(w, x=t)
        ref_mean = simpson(w * t, x=t) / z
        ref_var = simpson(w * t * t, x=t) / z - ref_mean**2

        op = make_operator("explicit", 1, values=np.array([lam]))
        prior = PriorSpec.gaussian(np.array([mu]), np.array([var]))
        obs = simulate_observation(
            make_parameters("explicit", 1, values=np.array([0.0])), op, eps, seed=1
        )
        summary = coordinate_posterior(prior, op, type(obs)(np.array([y]), eps))
        worst = max(
            worst,
            abs(float(summary.post_mean[0]) - ref_mean),
            abs(float(summary.post_var[0]) - ref_var),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    line = _verdict(capsys, 2, "conjugacy oracle", ok, f"max moment gap {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_tail_bound_audit(capsys):
    t0 = time.perf_counter()
    suite = random_tail_suite(50, SEED)
    central = suite[0]
    ok = (
        len(suite) >= 50
        and central.m == 10
        and central.c == 1.0
        and central.prob_bound == pytest.approx(math.exp(-2.5), rel=1e-12)
    )
    worst = -math.inf
    for i, config in enumerate(suite):
        audit = audit_tail_bounds(config, 100_000, SEED, rep=i)
        lower_margin = audit.lower_emp - (audit.prob_bound + 3.0 * audit.lower_se)
        upper_margin = audit.upper_emp - (audit.prob_bound + 3.0 * audit.upper_se)
        worst = max(worst, lower_margin, upper_margin)
        ok = ok and lower_margin <= 0.0 and upper_margin <= 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    line = _verdict(
        capsys, 3, "tail-bound audit", ok,
        f"50 configs, worst margin {worst:+.2e}, central bound exp(-2.5), {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_04_sieve_deviation_bounds(capsys):
    t0 = time.perf_counter()
    n = 50
    op = make_operator("constant", n)
    theta = make_parameters("polynomial", n, exponent=1.0, scale=1.0)
    prior = PriorSpec.flat(n)
    ok = True
    worst_up = worst_lo = -math.inf
    for m in (5, 10, 20):
        for eps in (1e-2, 1e-3):
            audit = mc_sieve_deviation(theta, prior, op, eps, m, 0.1, REPS, DRAWS, SEED)
            up = audit.upper.value - (audit.upper_bound + 3.0 * audit.upper.se)
            lo = audit.lower.value - (audit.lower_bound + 3.0 * audit.lower.se)
            worst_up = max(worst_up, up)
            worst_lo = max(worst_lo, lo)
            ok = ok and up <= 0.0 and lo <= 0.0 and audit.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    line = _verdict(
        capsys, 4, "fixed-dimension deviation bounds", ok,
        f"6 (m, eps) pairs, worst margins {worst_up:+.2e}/{worst_lo:+.2e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_05_rate_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    bands = {"pp_p1_a1": 0.4, "pp_p1_a0": 2.0 / 3.0}
    slopes = {}
    ok = True
    for name, center in bands.items():
        cfg = _load_bundled(name)
        result = run_experiment(cfg, tmp_path / name, subset="sweep")
        for kind in ("minimax", "adaptive"):
            slope = result.report["rates_fit"][kind]["slope"]
            slopes[f"{name}/{kind}"] = slope
            ok = ok and abs(slope - center) <= 0.08
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    shown = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    line = _verdict(capsys, 5, "log-log rate reproduction", ok, f"{shown}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_06_oracle_sandwich(benchmark_problem, capsys):
    t0 = time.perf_counter()
    op, theta, prior, _, _ = benchmark_problem
    ok = True
    shown = []
    for eps in (1e-3, 1e-4):
        sel = oracle_dimension(theta, prior, op, eps)
        phi = sel.rate
        est = mc_mise(theta, prior, op, eps, REPS, SEED, m=sel.dimension)
        # improper prior: d = inf, so the sandwich factors are 2 and 1
        upper_ok = est.value <= 2.0 * phi + 3.0 * est.se
        profile, se = mc_mise_profile(theta, prior, op, eps, REPS, SEED, range(1, max_dimension(op, eps) + 1))
        idx = int(np.argmin(profile))
        lower_ok = profile[idx] >= phi - 3.0 * se[idx]
        ok = ok and upper_ok and lower_ok
        shown.append(f"eps={eps:g}: {est.value:.4g} in [{phi:.4g}, {2 * phi:.4g}]")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    line = _verdict(capsys, 6, "oracle risk sandwich", ok, f"{'; '.join(shown)}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_07_dimension_posterior_brackets(benchmark_problem, capsys):
    t0 = time.perf_counter()
    op, theta, prior, grid, report = benchmark_problem
    estimates = [
        mc_bracket_mass(
            theta, prior, op, eps, REPS, SEED,
            bracket_dimensions(
                theta, prior, op, report, oracle_dimension(theta, prior, op, eps), c_lambda=C_PENALTY
            ),
            C_PENALTY,
        )
        for eps in grid
    ]
    masses = [e.value for e in estimates]
    ses = [e.se for e in estimates]
    ok = _trend(masses, ses, "non-increasing") and masses[-1] <= 0.1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    shown = ", ".join(f"{m:.2e}" for m in masses)
    line = _verdict(
        capsys, 7, "dimension posterior outside brackets", ok,
        f"masses [{shown}], {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_08_posterior_band_trend(benchmark_problem, capsys):
    t0 = time.perf_counter()
    op, theta, prior, grid, report = benchmark_problem
    constants = composite_constants(report, theta, prior, op, c_lambda=C_PENALTY)
    masses = {"sieve": [], "hierarchical": []}
    ses = {"sieve": [], "hierarchical": []}
    for eps in grid:
        sel = oracle_dimension(theta, prior, op, eps)
        sieve = mc_concentration(
            theta, prior, op, eps, constants["oracle_sieve"], sel.rate,
            REPS, DRAWS, SEED, m=sel.dimension,
        )
        hier = mc_concentration(
            theta, prior, op, eps, constants["oracle_hierarchical"],
            sel.rate, REPS, DRAWS, SEED, c_lambda=C_PENALTY,
        )
        masses["sieve"].append(sieve.value)
        ses["sieve"].append(sieve.se)
        masses["hierarchical"].append(hier.value)
        ses["hierarchical"].append(hier.se)
    ok = True
    for kind in masses:
        ok = ok and _trend(masses[kind], ses[kind], "non-decreasing")
        ok = ok and masses[kind][-1] >= 0.9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    shown = "; ".join(
        f"{kind} [{', '.join(f'{m:.5f}' for m in masses[kind])}]" for kind in masses
    )
    line = _verdict(capsys, 8, "posterior band mass trend", ok, f"{shown}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_09_assumption_checker(capsys):
    t0 = time.perf_counter()
    n = 10**6
    op = make_operator("polynomial", n, decay=1.0)  # squared multipliers j^-2
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    report = check_assumptions(theta, PriorSpec.flat(n), op, (1e-2,))
    poly_ok = (
        report.c_lambda == pytest.approx(1.0, rel=1e-9)
        and report.submultiplicative
        and report.submult_witness is None
        and report.l_lambda <= 3.0
        and report.checked_range == n
    )

    op_exp = make_operator("exponential", 500, decay=0.5)  # squared multipliers e^(1-j)
    theta_exp = make_parameters("polynomial", 500, exponent=1.6, scale=0.4)
    report_exp = check_assumptions(theta_exp, PriorSpec.flat(500), op_exp, (1e-2,))
    exp_ok = not report_exp.submultiplicative and report_exp.submult_witness is not None
    if exp_ok:
        k, l = report_exp.submult_witness
        exp_ok = (
            k * l <= 500
            and op_exp.max_amplification(k * l)
            > op_exp.max_amplification(k) * op_exp.max_amplification(l)
        )
    elapsed = time.perf_counter() - t0
    ok = poly_ok and exp_ok and elapsed < 30.0
    witness = report_exp.submult_witness
    line = _verdict(
        capsys, 9, "assumption checker certification", ok,
        f"C={report.c_lambda:.1f}, L={report.l_lambda:.3f}, range {n:.0e}; "
        f"growth witness {witness}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = _load_bundled("pp_small")
    for sub in ("one", "two"):
        run_experiment(cfg, tmp_path / sub)
    first = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
    second = sorted(p.name for p in (tmp_path / "two").glob("*.csv"))
    ok = bool(first) and first == second
    for name in first:
        ok = ok and (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    elapsed = time.perf_counter() - t0
    line = _verdict(
        capsys, 10, "byte-identical re-runs", ok,
        f"{len(first)} CSV artifacts identical, {elapsed:.1f}s",
    )
    assert ok, line
