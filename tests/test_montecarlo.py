"""Monte Carlo harness: tail audits, risk estimates, rate regression."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from igssm import (
    InfeasibleError,
    PriorSpec,
    TailBoundConfig,
    audit_tail_bounds,
    make_operator,
    make_parameters,
    make_weights,
    mc_bracket_mass,
    mc_concentration,
    mc_mise,
    mc_sieve_deviation,
    minimax_dimension,
    oracle_dimension,
    random_tail_suite,
    rate_regression,
    theoretical_exponent,
)
from igssm import montecarlo
from igssm.hierarchy import (
    _MASS_MARGIN,
    _draw_hierarchical,
    adaptive_estimate,
    dimension_posterior,
    sample_hierarchical_posterior,
)
from igssm.montecarlo import _draw_distances, _task, mc_mise_profile
from igssm.posterior import coordinate_posterior, sample_sieve_posterior
from igssm.selection import bracket_dimensions, check_assumptions, max_dimension
from igssm.sequences import simulate_observation


# ---------------------------------------------------------------------------
# quadratic-form tail audits
# ---------------------------------------------------------------------------


def test_reference_config_constants():
    cfg = TailBoundConfig.from_sequences(np.zeros(10), np.ones(10), c=1.0)
    assert cfg.m == 10
    assert cfg.spread == pytest.approx(10.0)
    assert cfg.prob_bound == pytest.approx(math.exp(-2.5), rel=1e-12)
    assert cfg.overshoot_bound == pytest.approx(6.0 * math.exp(-2.5), rel=1e-12)


def test_overshoot_bound_only_for_large_c():
    cfg = TailBoundConfig.from_sequences(np.zeros(5), np.ones(5), c=0.5)
    assert cfg.overshoot_bound is None
    assert cfg.prob_bound == pytest.approx(math.exp(-0.5 * 0.5 * 5.0 / 4.0), rel=1e-12)


def test_config_envelope_validation():
    # var_bound below the actual sum of squared scales is rejected
    with pytest.raises(ValueError):
        TailBoundConfig(
            shifts=np.zeros(3), scales=np.ones(3), c=1.0,
            var_bound=2.0, max_bound=1.0, shift_bound=0.0,
        )
    with pytest.raises(ValueError):
        TailBoundConfig(
            shifts=np.ones(2), scales=np.ones(2), c=1.0,
            var_bound=2.0, max_bound=1.0, shift_bound=1.0,  # true shift mass is 2
        )
    with pytest.raises(ValueError):
        TailBoundConfig.from_sequences(np.zeros(2), np.zeros(2), c=1.0)  # no signal


def test_audit_matches_chi_square_truth():
    """For the reference config S ~ chi^2_10, so both empirical event rates
    have exact counterparts."""
    cfg = TailBoundConfig.from_sequences(np.zeros(10), np.ones(10), c=1.0)
    audit = audit_tail_bounds(cfg, 100_000, seed=314)
    # lower event: S <= 0, impossible for a continuous chi-square
    assert audit.lower_emp == 0.0
    truth = chi2.sf(25.0, df=10)
    se = math.sqrt(truth * (1 - truth) / 100_000)
    assert abs(audit.upper_emp - truth) < 4 * se
    assert audit.passed
    assert audit.overshoot_emp <= audit.overshoot_bound


def test_audit_enforces_minimum_replications():
    cfg = TailBoundConfig.from_sequences(np.zeros(4), np.ones(4), c=1.0)
    with pytest.raises(ValueError):
        audit_tail_bounds(cfg, 5000, seed=1)


def test_audit_is_deterministic():
    cfg = TailBoundConfig.from_sequences(np.ones(6), np.full(6, 0.7), c=2.0)
    a = audit_tail_bounds(cfg, 10_000, seed=5, rep=3)
    b = audit_tail_bounds(cfg, 10_000, seed=5, rep=3)
    assert (a.lower_emp, a.upper_emp, a.overshoot_emp) == (
        b.lower_emp,
        b.upper_emp,
        b.overshoot_emp,
    )


def test_random_suite_shape_and_reference():
    suite = random_tail_suite(50, seed=99)
    assert len(suite) == 50
    ref = suite[0]
    assert ref.m == 10 and ref.c == 1.0 and np.all(ref.shifts == 0.0)
    # every generated config satisfies its own envelope by construction
    for cfg in suite:
        assert cfg.var_bound >= float(np.sum(cfg.scales**2)) - 1e-9
        assert 1 <= cfg.m <= 30
    again = random_tail_suite(50, seed=99)
    assert all(np.array_equal(a.scales, b.scales) for a, b in zip(suite, again))


# ---------------------------------------------------------------------------
# risk estimation
# ---------------------------------------------------------------------------


def _poly_problem(n=10**4):
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    return theta, PriorSpec.flat(n), op


def test_fixed_mise_matches_analytic_value_improper():
    theta, prior, op = _poly_problem()
    eps, m = 0.01, 4
    est = mc_mise("fixed", theta, prior, op, eps, 2000, seed=42, m=m)
    amp = np.arange(1.0, m + 1) ** 2
    analytic = eps * amp.sum() + float(np.sum(theta.values[m:] ** 2)) + theta.sq_tail()
    assert abs(est.value - analytic) < 4 * est.se


def test_fixed_mise_matches_analytic_value_proper():
    n = 200
    op = make_operator("constant", n)
    theta = make_parameters("polynomial", n, exponent=1.0, scale=1.0)
    mu, v, eps, m = 0.2, 0.5, 0.04, 6
    prior = PriorSpec.gaussian(np.full(n, mu), np.full(n, v))
    est = mc_mise("fixed", theta, prior, op, eps, 4000, seed=11, m=m)
    th = theta.values[:m]
    coord = (eps**2 * (mu - th) ** 2 + v**2 * eps) / (v + eps) ** 2
    analytic = (
        float(coord.sum())
        + float(np.sum((theta.values[m:] - mu) ** 2))
        + theta.sq_tail()
    )
    assert abs(est.value - analytic) < 4 * est.se


def test_oracle_and_minimax_kinds_pin_their_dimension():
    theta, prior, op = _poly_problem()
    eps = 1e-3
    m_star = oracle_dimension(theta, prior, op, eps).dimension
    a = mc_mise("oracle", theta, prior, op, eps, 50, seed=3)
    b = mc_mise("fixed", theta, prior, op, eps, 50, seed=3, m=m_star)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    w = make_weights("polynomial", op.n, exponent=1.0, radius=1.0)
    m_circ = minimax_dimension(w, op, eps).dimension
    c = mc_mise("minimax", theta, prior, op, eps, 50, seed=3, weighted_class=w)
    d = mc_mise("fixed", theta, prior, op, eps, 50, seed=3, m=m_circ)
    assert c.value == pytest.approx(d.value, rel=1e-12)


def test_profile_agrees_with_fixed_calls():
    theta, prior, op = _poly_problem()
    eps = 0.01
    mise, se = mc_mise_profile(theta, prior, op, eps, 300, seed=6)
    for m in (1, 3, 10):
        single = mc_mise("fixed", theta, prior, op, eps, 300, seed=6, m=m)
        assert mise[m - 1] == pytest.approx(single.value, rel=1e-10)
        assert se[m - 1] == pytest.approx(single.se, rel=1e-8)


def test_adaptive_raises_when_oracle_leaves_search_range():
    op = make_operator("exponential", 50, decay=0.5)
    theta = make_parameters("polynomial", 50, exponent=0.6, scale=1.0)
    prior = PriorSpec.flat(50)
    with pytest.raises(InfeasibleError):
        mc_mise("adaptive", theta, prior, op, 0.5, 10, seed=1, c_lambda=1.0)


def test_mise_input_validation():
    theta, prior, op = _poly_problem(100)
    with pytest.raises(ValueError):
        mc_mise("fixed", theta, prior, op, 0.01, 10, seed=1)  # m missing
    with pytest.raises(ValueError):
        mc_mise("minimax", theta, prior, op, 0.01, 10, seed=1)  # class missing
    with pytest.raises(ValueError):
        mc_mise("adaptive", theta, prior, op, 0.01, 10, seed=1)  # C missing
    with pytest.raises(ValueError):
        mc_mise("median", theta, prior, op, 0.01, 10, seed=1, m=2)


# ---------------------------------------------------------------------------
# concentration and deviation harnesses
# ---------------------------------------------------------------------------


def test_concentration_band_sanity():
    theta, prior, op = _poly_problem()
    eps = 0.01
    sel = oracle_dimension(theta, prior, op, eps)
    wide = mc_concentration(
        "fixed", theta, prior, op, eps, 1e6, sel.rate, 40, 200, seed=7, m=sel.dimension
    )
    assert wide.value == 1.0
    narrow = mc_concentration(
        "fixed", theta, prior, op, eps, 1.0 + 1e-9, sel.rate, 40, 200, seed=7, m=sel.dimension
    )
    assert narrow.value < 1.0


def test_one_sided_band_differs_from_two_sided():
    """With K = 1 the two-sided band is the degenerate point {rate}; the
    upper-only band is [0, rate] and must carry at least as much mass."""
    theta, prior, op = _poly_problem()
    eps = 0.01
    sel = oracle_dimension(theta, prior, op, eps)
    two = mc_concentration(
        "hierarchical", theta, prior, op, eps, 1.5, sel.rate, 30, 100, seed=9,
        c_lambda=1.0, two_sided=True,
    )
    one = mc_concentration(
        "hierarchical", theta, prior, op, eps, 1.5, sel.rate, 30, 100, seed=9,
        c_lambda=1.0, two_sided=False,
    )
    assert one.value >= two.value


def test_sieve_deviation_requires_small_c():
    theta, prior, op = _poly_problem(100)
    with pytest.raises(ValueError):
        mc_sieve_deviation(theta, prior, op, 0.01, 5, 0.2, 100, 50, seed=1)
    with pytest.raises(ValueError):
        mc_sieve_deviation(theta, prior, op, 0.01, 5, 0.0, 100, 50, seed=1)


def test_bracket_mass_deterministic_and_bounded():
    theta, prior, op = _poly_problem()
    report = check_assumptions(theta, prior, op, (0.01,))
    a = mc_bracket_mass(theta, prior, op, 0.01, 50, 12, report, 1.0)
    b = mc_bracket_mass(theta, prior, op, 0.01, 50, 12, report, 1.0)
    assert a.value == b.value
    assert 0.0 <= a.value <= 1.0


# ---------------------------------------------------------------------------
# replication kernel against per-replication loops over the public functions
# ---------------------------------------------------------------------------


@st.composite
def small_problems(draw):
    """A random short problem: operator, truth with an analytic tail, a
    proper, flat or mixed prior, and a noise level."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = make_operator("polynomial", n, decay=draw(st.sampled_from([0.0, 0.5, 1.0])))
    theta = make_parameters(
        "polynomial", n,
        exponent=draw(st.floats(0.6, 2.0)), scale=draw(st.floats(0.1, 2.0)),
    )
    kind = draw(st.sampled_from(["proper", "flat", "mixed"]))
    means, variances = rng.normal(0.0, 0.3, n), rng.uniform(0.1, 2.0, n)
    if kind == "proper":
        prior = PriorSpec.gaussian(means, variances)
    elif kind == "flat":
        prior = PriorSpec.flat(n)
    else:  # improper coordinates carry a zero mean
        improper = rng.random(n) < 0.5
        prior = PriorSpec.mixed(np.where(improper, 0.0, means), variances, improper)
    eps = draw(st.floats(1e-3, 0.2))
    return theta, prior, op, eps


def _padded_distances(padded, theta, prior):
    """``|draw - truth|^2`` over the whole stored range plus the family tail,
    after padding the draws with the prior means to the full length."""
    full = np.hstack([padded, np.tile(prior.means[padded.shape[1]:], (padded.shape[0], 1))])
    return np.sum((full - theta.values) ** 2, axis=1) + theta.sq_tail()


def _head_loop(theta, prior, op, eps, reps, seed, cut):
    """The head problem, its remainder, and ``(r, summary)`` per replication,
    built from the public functions."""
    remainder = float(np.sum((theta.values[cut:] - prior.means[cut:]) ** 2)) + theta.sq_tail()
    th, pr, o = theta.head(cut), prior.head(cut), op.head(cut)
    summaries = [
        coordinate_posterior(pr, o, simulate_observation(th, o, eps, seed, rep=r))
        for r in range(reps)
    ]
    return th, pr, o, remainder, summaries


def _summary_of(vals):
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


@settings(max_examples=40, deadline=None)
@given(problem=small_problems(), hierarchical=st.booleans(), seed=st.integers(0, 1000))
def test_draw_distances_match_padded_public_samplers(problem, hierarchical, seed):
    theta, prior, op, eps = problem
    draws = 30
    cut = max_dimension(op, eps) if hierarchical else max(1, theta.n // 3)
    _, pr, o, _, (summary,) = _head_loop(theta, prior, op, eps, 1, seed, cut)
    if hierarchical:
        dist = dimension_posterior(summary, pr, o, eps, 1.0)
        _, block = _draw_hierarchical(
            dist.probs, summary.post_mean, np.sqrt(summary.post_var), pr.means, draws, seed, 0
        )
        padded, _ = sample_hierarchical_posterior(summary, pr, o, eps, 1.0, draws, seed, rep=0)
    else:  # the sieve sampler draws exactly the cut
        block = padded = sample_sieve_posterior(cut, summary, pr, draws, seed, rep=0)
    got = _draw_distances(_task(theta, prior, op, eps, cut), block)
    want = _padded_distances(padded, theta, prior)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    ordered = np.sort(want)
    lo = 0.5 * (ordered[draws // 4] + ordered[draws // 4 + 1])
    hi = 0.5 * (ordered[3 * draws // 4] + ordered[3 * draws // 4 + 1])
    assert np.array_equal((got >= lo) & (got <= hi), (want >= lo) & (want <= hi))


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 1000))
def test_mc_mise_equals_serial_loop(problem, seed):
    theta, prior, op, eps = problem
    reps = 6
    m_star = oracle_dimension(theta, prior, op, eps).dimension
    cut = max_dimension(op, eps)
    assume(m_star <= cut)
    for kind, dim in (("oracle", m_star), ("adaptive", cut)):
        th, pr, o, remainder, summaries = _head_loop(theta, prior, op, eps, reps, seed, dim)
        vals = np.empty(reps)
        for r, summary in enumerate(summaries):
            if kind == "adaptive":
                est = adaptive_estimate(summary, pr, o, eps, 1.0).values
            else:
                est = summary.post_mean
            vals[r] = float(np.sum((est - th.values) ** 2)) + remainder
        got = mc_mise(kind, theta, prior, op, eps, reps, seed, c_lambda=1.0)
        assert (got.value, got.se) == _summary_of(vals)


@settings(max_examples=25, deadline=None)
@given(
    problem=small_problems(),
    hierarchical=st.booleans(),
    band=st.floats(1.0, 4.0),
    seed=st.integers(0, 1000),
)
def test_mc_concentration_equals_serial_loop(problem, hierarchical, band, seed):
    theta, prior, op, eps = problem
    reps, draws = 5, 40
    sel = oracle_dimension(theta, prior, op, eps)
    cut = max_dimension(op, eps) if hierarchical else sel.dimension
    _, pr, o, _, summaries = _head_loop(theta, prior, op, eps, reps, seed, cut)
    fracs = np.empty(reps)
    for r, summary in enumerate(summaries):
        if hierarchical:
            padded, _ = sample_hierarchical_posterior(summary, pr, o, eps, 1.0, draws, seed, rep=r)
        else:
            padded = sample_sieve_posterior(cut, summary, pr, draws, seed, rep=r)
        sq = _padded_distances(padded, theta, prior)
        fracs[r] = float(np.mean((sq >= sel.rate / band) & (sq <= sel.rate * band)))
    got = mc_concentration(
        "hierarchical" if hierarchical else "fixed", theta, prior, op, eps, band,
        sel.rate, reps, draws, seed, m=sel.dimension, c_lambda=1.0,
    )
    assert (got.value, got.se) == _summary_of(fracs)


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 1000))
def test_mc_bracket_mass_equals_serial_loop(problem, seed):
    theta, prior, op, eps = problem
    reps = 6
    report = check_assumptions(theta, prior, op, (eps,))
    cut = max_dimension(op, eps)
    assume(oracle_dimension(theta, prior, op, eps).dimension <= cut)
    m_lo, m_hi = bracket_dimensions(theta, prior, op, eps, report, c_lambda=1.0)
    _, pr, o, _, summaries = _head_loop(theta, prior, op, eps, reps, seed, cut)
    vals = np.array(
        [dimension_posterior(s, pr, o, eps, 1.0).tail_mass(m_lo, m_hi) for s in summaries]
    )
    got = mc_bracket_mass(theta, prior, op, eps, reps, seed, report, 1.0)
    assert (got.value, got.se) == _summary_of(vals)


@st.composite
def long_direct_problems(draw):
    """A direct-model problem (``lambda_j = 1``) whose search range runs
    hundreds of dimensions past those the dimension posterior gives any
    mass: a centred proper, flat or mixed prior, a noise level and an
    operator constant."""
    n = draw(st.integers(2000, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = make_parameters(
        "polynomial", n,
        exponent=draw(st.floats(1.0, 2.0)), scale=draw(st.floats(0.1, 1.0)),
    )
    kind = draw(st.sampled_from(["proper", "flat", "mixed"]))
    variances = rng.uniform(0.1, 2.0, n)
    if kind == "proper":
        prior = PriorSpec.gaussian(np.zeros(n), variances)
    elif kind == "flat":
        prior = PriorSpec.flat(n)
    else:
        prior = PriorSpec.mixed(np.zeros(n), variances, rng.random(n) < 0.5)
    eps = draw(st.floats(1e-5, 1e-4))
    return theta, prior, make_operator("constant", n), eps, draw(st.sampled_from([1.0, 1.5]))


def _full_range_adaptive(summary, prior, m_top, c_lambda):
    """Log-weights, masses, shrinkage weights and adaptive estimate from the
    documented formulas, every step over the whole search range."""
    pm, mu = summary.post_mean[:m_top], prior.means[:m_top]
    contrast = (pm - mu) ** 2 / summary.post_var[:m_top]
    lw = 0.5 * np.cumsum(contrast) - 1.5 * c_lambda * np.arange(1, m_top + 1, dtype=np.float64)
    w = np.exp(lw - np.max(lw))
    probs = w / w.sum()
    omega = np.clip(np.cumsum(probs[::-1])[::-1], 0.0, 1.0)
    values = prior.means.copy()
    values[:m_top] = mu + omega * (pm - mu)
    return lw, probs, omega, values


@settings(max_examples=15, deadline=None)
@given(problem=long_direct_problems(), seed=st.integers(0, 1000))
def test_truncated_adaptive_equals_full_range_formulas(problem, seed):
    """On long search ranges the kernel and the public functions exponentiate
    and shrink only up to the mass end, and still match the full-range
    formulas exactly."""
    theta, prior, op, eps, c_lambda = problem
    reps = 4
    cut = max_dimension(op, eps)
    assume(oracle_dimension(theta, prior, op, eps).dimension <= cut)
    th, pr, o, remainder, summaries = _head_loop(theta, prior, op, eps, reps, seed, cut)
    vals = np.empty(reps)
    for r, summary in enumerate(summaries):
        lw, probs, omega, values = _full_range_adaptive(summary, pr, cut, c_lambda)
        assert lw[-1] - lw.max() <= -_MASS_MARGIN  # the mass end lies before the cut
        assert np.array_equal(dimension_posterior(summary, pr, o, eps, c_lambda).probs, probs)
        est = adaptive_estimate(summary, pr, o, eps, c_lambda)
        assert np.array_equal(est.omega, omega)
        assert np.array_equal(est.values, values)
        vals[r] = float(np.sum((values - th.values) ** 2)) + remainder

    ends = []
    shrink = montecarlo._shrink

    def spy(probs, mass_end, *rest):
        ends.append(mass_end)
        return shrink(probs, mass_end, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_shrink", spy)
        got = mc_mise("adaptive", theta, prior, op, eps, reps, seed, c_lambda=c_lambda)
    assert (got.value, got.se) == _summary_of(vals)
    assert len(ends) == reps and max(ends) < cut  # every replication was truncated


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "bad, message",
    [(np.inf, "posterior means must be finite"), (1e200, "log weights must be finite")],
)
def test_adaptive_kernel_rejects_non_finite_values(monkeypatch, bad, message):
    """An infinite observation fails the posterior-mean check; a finite one
    whose square overflows fails the log-weight check."""
    theta, prior, op = _poly_problem(100)
    observe = montecarlo._observe

    def corrupted(signal, noise_scale, seed, rep, out):
        observe(signal, noise_scale, seed, rep, out)
        out[3] = bad
        return out

    monkeypatch.setattr(montecarlo, "_observe", corrupted)
    with pytest.raises(ValueError, match=message):
        mc_mise("adaptive", theta, prior, op, 0.01, 3, seed=1, c_lambda=1.0)


def test_thread_count_does_not_change_mc_estimates(monkeypatch):
    """Seven replications split into uneven contiguous blocks across three
    workers give the serial ``(value, se)`` of every sharded task."""
    theta, prior, op = _poly_problem()
    eps, reps = 0.01, 7
    sel = oracle_dimension(theta, prior, op, eps)
    report = check_assumptions(theta, prior, op, (eps,))
    blocks = []
    parallel_map = montecarlo._parallel_map

    def spy(fn, tasks):
        blocks.append(len(tasks))
        return parallel_map(fn, tasks)

    monkeypatch.setattr(montecarlo, "_parallel_map", spy)

    def estimates():
        found = [
            mc_mise("adaptive", theta, prior, op, eps, reps, 5, c_lambda=1.0),
            mc_concentration(
                "fixed", theta, prior, op, eps, 2.0, sel.rate, reps, 30, 5, m=sel.dimension
            ),
            mc_concentration(
                "hierarchical", theta, prior, op, eps, 2.0, sel.rate, reps, 30, 5, c_lambda=1.0
            ),
            mc_bracket_mass(theta, prior, op, eps, reps, 5, report, 1.0),
        ]
        return [(e.value, e.se) for e in found]

    monkeypatch.setenv("IGSSM_THREADS", "1")
    serial = estimates()
    monkeypatch.setenv("IGSSM_THREADS", "3")
    assert estimates() == serial
    assert blocks == [1] * 4 + [3] * 4


# ---------------------------------------------------------------------------
# rate regression
# ---------------------------------------------------------------------------


def test_regression_recovers_exact_power_law():
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    mise = 3.7 * eps**0.62
    fit = rate_regression(eps, mise)
    assert fit.slope == pytest.approx(0.62, abs=1e-10)
    assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-9)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)


def test_regression_slope_matching_rules():
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    theory = theoretical_exponent("polynomial", 1.0, "polynomial", 1.0)
    assert theory.kind == "polynomial"
    assert theory.exponent == pytest.approx(0.4)
    fit = rate_regression(eps, 2.0 * eps**0.44, theory=theory)
    assert fit.slope_matches(0.08) is True
    assert fit.slope_matches(0.01) is False

    # a slowly varying log factor is allowed to drag the slope down a bit
    logpoly = theoretical_exponent("constant", None, "exponential", 1.0)
    assert logpoly.kind == "log-polynomial" and logpoly.exponent == 1.0
    allow = logpoly.log_power / abs(math.log(eps.max()))
    drooping = 0.5 * eps ** (1.0 - 0.9 * allow)
    fit2 = rate_regression(eps, drooping, theory=logpoly)
    assert fit2.slope_matches(0.01) is True

    # logarithmic-rate designs never get a slope verdict
    logonly = theoretical_exponent("exponential", 1.0, "polynomial", 1.0)
    assert logonly.kind == "logarithmic" and logonly.exponent is None
    fit3 = rate_regression(eps, 1.0 / np.abs(np.log(eps)), theory=logonly)
    assert fit3.slope_matches(0.08) is None


def test_exponent_table():
    t = theoretical_exponent("polynomial", 2.0, "polynomial", 1.5)
    assert t.exponent == pytest.approx(3.0 / 8.0)  # 2p / (2a + 2p + 1)
    t = theoretical_exponent("constant", None, "polynomial", 1.0)
    assert t.exponent == pytest.approx(2.0 / 3.0)
    t = theoretical_exponent("polynomial", 1.0, "exponential", 1.0)
    assert t.log_power == pytest.approx(1.5)  # (2a + 1) / (2p)
    t = theoretical_exponent("exponential", 0.5, "exponential", 1.0)
    assert t.kind == "unsupported"


def test_regression_needs_two_points():
    with pytest.raises(ValueError):
        rate_regression(np.array([0.01]), np.array([1.0]))
    with pytest.raises(ValueError):
        rate_regression(np.array([0.01, 0.001]), np.array([1.0, -1.0]))
