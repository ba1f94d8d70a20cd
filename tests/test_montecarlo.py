"""Monte Carlo harness: tail audits, risk estimates, rate regression."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from igssm import (
    Observation,
    PriorSpec,
    TailBoundConfig,
    audit_tail_bounds,
    make_operator,
    make_parameters,
    mc_bracket_mass,
    mc_concentration,
    mc_mise,
    mc_sieve_deviation,
    oracle_dimension,
    random_tail_suite,
    rate_regression,
    theoretical_exponent,
)
from igssm import hierarchy, montecarlo
from igssm.config import ConfigError
from igssm.hierarchy import (
    _MASS_MARGIN,
    adaptive_estimate,
    dimension_posterior,
    sample_hierarchical_posterior,
)
from igssm.montecarlo import _draw_distances, _task, mc_mise_profile
from igssm.posterior import coordinate_posterior, posterior_variances, sample_sieve_posterior
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


def test_audit_batch_is_the_only_batch_sized_array():
    """The audit transforms its (draws x m) normal batch in place: no
    second array of the batch's size is allocated while it runs."""
    cfg = TailBoundConfig.from_sequences(np.ones(20), np.full(20, 0.7), c=2.0)
    reps = 50_000  # one batch of 1e6 doubles, 8 MB
    batch_bytes = reps * cfg.m * 8
    tracemalloc.start()
    try:
        audit_tail_bounds(cfg, reps, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch_bytes < peak < 2 * batch_bytes


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
    est = mc_mise(theta, prior, op, eps, 2000, seed=42, m=m)
    amp = np.arange(1.0, m + 1) ** 2
    analytic = eps * amp.sum() + float(np.sum(theta.values[m:] ** 2)) + theta.sq_tail()
    assert abs(est.value - analytic) < 4 * est.se


def test_fixed_mise_matches_analytic_value_proper():
    n = 200
    op = make_operator("constant", n)
    theta = make_parameters("polynomial", n, exponent=1.0, scale=1.0)
    mu, v, eps, m = 0.2, 0.5, 0.04, 6
    prior = PriorSpec.gaussian(np.full(n, mu), np.full(n, v))
    est = mc_mise(theta, prior, op, eps, 4000, seed=11, m=m)
    th = theta.values[:m]
    coord = (eps**2 * (mu - th) ** 2 + v**2 * eps) / (v + eps) ** 2
    analytic = (
        float(coord.sum())
        + float(np.sum((theta.values[m:] - mu) ** 2))
        + theta.sq_tail()
    )
    assert abs(est.value - analytic) < 4 * est.se


def test_profile_agrees_with_fixed_calls():
    theta, prior, op = _poly_problem()
    eps = 0.01
    mise, se = mc_mise_profile(theta, prior, op, eps, 300, seed=6)
    for m in (1, 3, 10):
        single = mc_mise(theta, prior, op, eps, 300, seed=6, m=m)
        assert mise[m - 1] == pytest.approx(single.value, rel=1e-10)
        assert se[m - 1] == pytest.approx(single.se, rel=1e-8)


def test_mise_input_validation():
    """A Monte Carlo task takes the sieve dimension or the operator constant
    of the dimension posterior, exactly one of them."""
    theta, prior, op = _poly_problem(100)
    tasks = (
        lambda **given: mc_mise(theta, prior, op, 0.01, 10, 1, **given),
        lambda **given: mc_concentration(theta, prior, op, 0.01, 2.0, 0.1, 10, 5, 1, **given),
    )
    for task in tasks:
        for given in ({}, {"m": 2, "c_lambda": 1.0}):
            with pytest.raises(ValueError, match="either the sieve dimension m or"):
                task(**given)


# ---------------------------------------------------------------------------
# concentration and deviation harnesses
# ---------------------------------------------------------------------------


def test_concentration_band_sanity():
    theta, prior, op = _poly_problem()
    eps = 0.01
    sel = oracle_dimension(theta, prior, op, eps)
    wide = mc_concentration(theta, prior, op, eps, 1e6, sel.rate, 40, 200, seed=7, m=sel.dimension)
    assert wide.value == 1.0
    narrow = mc_concentration(
        theta, prior, op, eps, 1.0 + 1e-9, sel.rate, 40, 200, seed=7, m=sel.dimension
    )
    assert narrow.value < 1.0


def test_one_sided_band_differs_from_two_sided():
    """With K = 1 the two-sided band is the degenerate point {rate}; the
    upper-only band is [0, rate] and must carry at least as much mass."""
    theta, prior, op = _poly_problem()
    eps = 0.01
    sel = oracle_dimension(theta, prior, op, eps)
    two = mc_concentration(
        theta, prior, op, eps, 1.5, sel.rate, 30, 100, seed=9,
        c_lambda=1.0, two_sided=True,
    )
    one = mc_concentration(
        theta, prior, op, eps, 1.5, sel.rate, 30, 100, seed=9,
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
    sel = oracle_dimension(theta, prior, op, 0.01)
    bracket = bracket_dimensions(theta, prior, op, report, sel, c_lambda=1.0)
    a = mc_bracket_mass(theta, prior, op, 0.01, 50, 12, bracket, 1.0)
    b = mc_bracket_mass(theta, prior, op, 0.01, 50, 12, bracket, 1.0)
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


# Row budgets of the replication kernel: one replication per chunk (the
# replication-by-replication loop), the default, and chunks of ``reps - 2``
# replications, which leave a ragged last chunk.
_BUDGETS = ("one row", "default", "ragged")


def _row_budget(budget, cut, reps):
    """The ``montecarlo._ROW_ELEMENTS`` that gives ``budget`` on ``cut``."""
    if budget == "one row":
        return 1
    if budget == "ragged":
        return (reps - 2) * cut
    return montecarlo._ROW_ELEMENTS


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
        task = _task(theta, prior, op, eps, c_lambda=1.0)
        probs = dimension_posterior(summary, pr, o, eps, 1.0).probs[None]
        padded, _ = sample_hierarchical_posterior(summary, pr, o, eps, 1.0, draws, seed, rep=0)
    else:  # the sieve sampler draws exactly the cut
        task, probs = _task(theta, prior, op, eps, m=cut), None
        padded = sample_sieve_posterior(cut, summary, pr, draws, seed, rep=0)
    (got,) = _draw_distances(task, np.sqrt(task.post_var), draws, seed, 0, summary.post_mean[None], probs)
    want = _padded_distances(padded, theta, prior)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    ordered = np.sort(want)
    lo = 0.5 * (ordered[draws // 4] + ordered[draws // 4 + 1])
    hi = 0.5 * (ordered[3 * draws // 4] + ordered[3 * draws // 4 + 1])
    assert np.array_equal((got >= lo) & (got <= hi), (want >= lo) & (want <= hi))


def _identity_problem(flat: bool):
    """A problem on which the kernel skips every identity pass (flat prior,
    ``lambda_j = 1``) or none (a proper prior with non-zero means and
    varying variances, a decaying operator)."""
    n = 30
    theta = make_parameters("polynomial", n, exponent=1.2, scale=1.0)
    if flat:
        return theta, PriorSpec.flat(n), make_operator("constant", n), 0.05
    prior = PriorSpec.gaussian(np.full(n, 0.1), np.linspace(0.5, 2.0, n))
    return theta, prior, make_operator("polynomial", n, decay=0.5), 0.05


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 1000), budget=st.sampled_from(_BUDGETS))
@example(problem=_identity_problem(flat=True), seed=3, budget="default")
@example(problem=_identity_problem(flat=False), seed=3, budget="ragged")
def test_mc_mise_equals_serial_loop(problem, seed, budget):
    """Both sides of each identity decision (divide by an all-ones scale,
    subtract all-zero prior means, divide by a constant variance) give the
    serial loop's result, under every row budget; a spy checks which side
    each task took."""
    theta, prior, op, eps = problem
    reps = 6
    m_star = oracle_dimension(theta, prior, op, eps).dimension
    cut = max_dimension(op, eps)
    assume(m_star <= cut)
    taken = []
    mean_map, terms = montecarlo._mean_map, montecarlo._terms

    def map_spy(pr, o, e):
        found = mean_map(pr, o, e)
        taken.append(("unit scale", found.scale is None))
        return found

    def terms_spy(means, post_var, c_lambda):
        found = terms(means, post_var, c_lambda)
        taken.append(("zero means", found.means is None))
        taken.append(("constant variance", isinstance(found.post_var, float)))
        return found

    for kind, dim in (("oracle", m_star), ("adaptive", cut)):
        th, pr, o, remainder, summaries = _head_loop(theta, prior, op, eps, reps, seed, dim)
        vals = np.empty(reps)
        for r, summary in enumerate(summaries):
            if kind == "adaptive":
                est = adaptive_estimate(summary, pr, o, eps, 1.0).values
            else:
                est = summary.post_mean
            vals[r] = float(np.sum((est - th.values) ** 2)) + remainder
        taken.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_mean_map", map_spy)
            mp.setattr(montecarlo, "_terms", terms_spy)
            mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, dim, reps))
            given = {"c_lambda": 1.0} if kind == "adaptive" else {"m": dim}
            got = mc_mise(theta, prior, op, eps, reps, seed, **given)
        assert (got.value, got.se) == _summary_of(vals)
        scale = np.where(pr.improper, o.values, pr.variances * o.values**2 + eps)
        post_var = posterior_variances(pr, o, eps)
        want = [("unit scale", bool(np.all(scale == 1.0)))]
        if kind == "adaptive":
            want.append(("zero means", not np.any(pr.means)))
            want.append(("constant variance", bool(np.all(post_var == post_var[0]))))
        assert taken == want


@settings(max_examples=25, deadline=None)
@given(
    problem=small_problems(),
    hierarchical=st.booleans(),
    band=st.floats(1.0, 4.0),
    seed=st.integers(0, 1000),
    budget=st.sampled_from(_BUDGETS),
)
def test_mc_concentration_equals_serial_loop(problem, hierarchical, band, seed, budget):
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
    given = {"c_lambda": 1.0} if hierarchical else {"m": sel.dimension}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, cut, reps))
        got = mc_concentration(theta, prior, op, eps, band, sel.rate, reps, draws, seed, **given)
    assert (got.value, got.se) == _summary_of(fracs)


@settings(max_examples=25, deadline=None)
@given(
    problem=small_problems(), seed=st.integers(0, 1000), budget=st.sampled_from(_BUDGETS),
    data=st.data(),
)
def test_mc_bracket_mass_equals_serial_loop(problem, seed, budget, data):
    """Any bracket inside ``1..M``, the sandwich one or an arbitrary one,
    gives the serial loop's mass; one outside raises."""
    theta, prior, op, eps = problem
    reps = 6
    report = check_assumptions(theta, prior, op, (eps,))
    cut = max_dimension(op, eps)
    sel = oracle_dimension(theta, prior, op, eps)
    assume(sel.dimension <= cut)
    if data.draw(st.booleans(), label="sandwich"):
        m_lo, m_hi = bracket_dimensions(theta, prior, op, report, sel, c_lambda=1.0)
    else:
        m_lo = data.draw(st.integers(1, cut), label="m_lo")
        m_hi = data.draw(st.integers(m_lo, cut), label="m_hi")
    _, pr, o, _, summaries = _head_loop(theta, prior, op, eps, reps, seed, cut)
    vals = np.array(
        [dimension_posterior(s, pr, o, eps, 1.0).tail_mass(m_lo, m_hi) for s in summaries]
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, cut, reps))
        got = mc_bracket_mass(theta, prior, op, eps, reps, seed, (m_lo, m_hi), 1.0)
    assert (got.value, got.se) == _summary_of(vals)
    for outside in ((0, m_hi), (m_lo, cut + 1)):
        with pytest.raises(ValueError, match="outside 1.."):
            mc_bracket_mass(theta, prior, op, eps, 1, seed, outside, 1.0)


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
        ends.append((len(probs), mass_end))
        return shrink(probs, mass_end, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_shrink", spy)
        got = mc_mise(theta, prior, op, eps, reps, seed, c_lambda=c_lambda)
    assert (got.value, got.se) == _summary_of(vals)
    # every replication was truncated: each chunk's largest mass end is short of the cut
    assert sum(rows for rows, _ in ends) == reps and max(end for _, end in ends) < cut


def _every_task(problem, reps, seed, c_lambda, budget):
    """The result of every task of the replication kernel on ``problem``,
    each run under ``budget`` for its own cut, as comparable values."""
    theta, prior, op, eps = problem
    top = max_dimension(op, eps)
    sel = oracle_dimension(theta, prior, op, eps)
    m, draws = min(sel.dimension, top), 20

    def run(cut, task, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, cut, reps))
            return task(theta, prior, op, eps, *args, **kwargs)

    estimates = [
        run(m, mc_mise, reps, seed, m=m),
        run(top, mc_mise, reps, seed, c_lambda=c_lambda),
        run(m, mc_concentration, 2.0, sel.rate, reps, draws, seed, m=m),
        run(top, mc_concentration, 2.0, sel.rate, reps, draws, seed, c_lambda=c_lambda),
        run(top, mc_bracket_mass, reps, seed, (1, max(1, top // 2)), c_lambda),
    ]
    audit = run(m, mc_sieve_deviation, m, 0.1, reps, draws, seed)
    estimates += [audit.upper, audit.lower]
    mise, se = run(top, mc_mise_profile, reps, seed)
    return [(e.value, e.se) for e in estimates] + [mise.tolist(), se.tolist()]


@settings(max_examples=20, deadline=None)
@given(
    problem=st.one_of(small_problems(), long_direct_problems().map(lambda p: p[:4])),
    seed=st.integers(0, 1000),
    c_lambda=st.sampled_from([1.0, 1.5]),
)
def test_batched_equals_serial(problem, seed, c_lambda):
    """Every task gives the same result whether its replications run one per
    chunk, in default chunks or in chunks with a ragged last one, on one,
    two or three threads; a spy checks that chunks of several rows ran."""
    reps = 8
    serial = _every_task(problem, reps, seed, c_lambda, "one row")
    rows = []
    observe = montecarlo._observe

    def spy(signal, noise_scale, rngs, out):
        rows.append(len(out))
        return observe(signal, noise_scale, rngs, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_observe", spy)
        for threads in ("1", "2", "3"):
            mp.setenv("IGSSM_THREADS", threads)
            for budget in _BUDGETS:
                assert _every_task(problem, reps, seed, c_lambda, budget) == serial, (threads, budget)
    assert max(rows) > 1


def test_rows_of_a_chunk_keep_their_own_mass_ends():
    """One chunk holds replications whose dimension posteriors end at
    different dimensions.  The chunk exponentiates all of them up to the
    largest, and each still gives what it gives alone."""
    n = 3000
    theta = make_parameters("polynomial", n, exponent=1.5, scale=0.5)
    prior = PriorSpec.mixed(np.zeros(n), np.full(n, 0.5), np.arange(n) % 2 == 0)
    problem = (theta, prior, make_operator("constant", n), 5e-5)
    ends = []
    normalise = hierarchy._normalise

    def spy(lw, maxima, out):
        rows = [int(np.flatnonzero(row - np.max(row) > -_MASS_MARGIN)[-1]) + 1 for row in lw]
        found = normalise(lw, maxima, out)
        assert found == max(rows)
        ends.append(rows)
        return found

    serial = _every_task(problem, 8, 2, 1.0, "one row")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchy, "_normalise", spy)
        assert _every_task(problem, 8, 2, 1.0, "default") == serial
    assert all(len(chunk) == 8 for chunk in ends)
    assert all(max(chunk) < max_dimension(problem[2], problem[3]) for chunk in ends)
    assert all(len(set(chunk)) > 1 for chunk in ends)


def test_chunks_hold_the_row_budget(monkeypatch):
    """A chunk holds ``_ROW_ELEMENTS // cut`` replications, at least one and
    at most the block's; a task whose replications fit in one chunk runs
    as one block at any thread count."""
    theta, prior, op = _poly_problem(70_000)
    chunks = []
    observe = montecarlo._observe

    def spy(signal, noise_scale, rngs, out):
        chunks.append(out.shape)
        return observe(signal, noise_scale, rngs, out)

    monkeypatch.setattr(montecarlo, "_observe", spy)
    monkeypatch.setenv("IGSSM_THREADS", "1")
    cases = [
        (3000, 50, [21, 21, 8]),
        (3000, 5, [5]),
        (2**15, 5, [2, 2, 1]),
        (2**16 - 1, 2, [1, 1]),
        (2**16, 2, [1, 1]),
    ]
    for m, reps, rows in cases:
        chunks.clear()
        mc_mise(theta, prior, op, 0.01, reps, 3, m=m)
        assert chunks == [(k, m) for k in rows]
    monkeypatch.setenv("IGSSM_THREADS", "3")
    blocks = []
    parallel_map = montecarlo._parallel_map

    def block_spy(fn, tasks):
        blocks.append(len(tasks))
        return parallel_map(fn, tasks)

    monkeypatch.setattr(montecarlo, "_parallel_map", block_spy)
    for reps, want in ((21, 1), (22, 2), (100, 3)):
        mc_mise(theta, prior, op, 0.01, reps, 3, m=3000)
        assert blocks[-1] == want


def _serial_failure(theta, prior, op, eps, reps, corrupt, m):
    """The message the replication-by-replication loop over the public
    functions raises first on the corrupted observations, or None."""
    for r in range(reps):
        y = simulate_observation(theta, op, eps, seed=1, rep=r).values.copy()
        y[3] = corrupt.get(r, y[3])
        try:
            summary = coordinate_posterior(prior, op, Observation(y, eps, 1, r))
            if m is None:
                adaptive_estimate(summary, prior, op, eps, 1.0)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "corrupt, m, message",
    [
        pytest.param(
            {r: np.inf for r in range(5)}, None, "posterior means must be finite",
            id="inf-posterior means must be finite",
        ),
        pytest.param(
            {r: 1e200 for r in range(5)}, None, "log weights must be finite",
            id="1e+200-log weights must be finite",
        ),
        pytest.param({3: np.inf}, None, "posterior means must be finite", id="row 3 inf"),
        pytest.param({3: 1e200}, None, "log weights must be finite", id="row 3 1e+200"),
        pytest.param({1: 1e200, 3: np.inf}, None, "log weights must be finite", id="1e+200 before inf"),
        pytest.param({1: np.inf, 3: 1e200}, None, "posterior means must be finite", id="inf before 1e+200"),
        pytest.param({3: np.inf}, 7, "posterior means must be finite", id="sieve row 3 inf"),
    ],
)
def test_adaptive_kernel_rejects_non_finite_values(monkeypatch, corrupt, m, message):
    """An infinite observation fails the posterior-mean check; a finite one
    whose square overflows fails the log-weight check.  In a chunk of five
    replications, the first corrupted one raises what it raises in the
    replication-by-replication loop."""
    theta, prior, op = _poly_problem(100)
    eps, reps = 0.01, 5
    cut = m or max_dimension(op, eps)
    assert _serial_failure(theta.head(cut), prior.head(cut), op.head(cut), eps, reps, corrupt, m) == message
    observe = montecarlo._observe
    chunks = []

    def corrupted(signal, noise_scale, rngs, out):
        observe(signal, noise_scale, rngs, out)
        chunks.append(out.shape)
        for r, value in corrupt.items():
            out[r, 3] = value
        return out

    monkeypatch.setattr(montecarlo, "_observe", corrupted)
    given = {"m": m} if m else {"c_lambda": 1.0}
    with pytest.raises(ValueError, match=message):
        mc_mise(theta, prior, op, eps, reps, seed=1, **given)
    assert chunks == [(reps, cut)]


def test_thread_count_does_not_change_mc_estimates(monkeypatch):
    """Seven replications split into uneven contiguous blocks across three
    workers give the serial ``(value, se)`` of every sharded task.  On this
    short cut the seven fit in one chunk, so each task runs as one block
    whatever the thread count; with one row per chunk they take three."""
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
            mc_mise(theta, prior, op, eps, reps, 5, c_lambda=1.0),
            mc_concentration(theta, prior, op, eps, 2.0, sel.rate, reps, 30, 5, m=sel.dimension),
            mc_concentration(theta, prior, op, eps, 2.0, sel.rate, reps, 30, 5, c_lambda=1.0),
            mc_bracket_mass(
                theta, prior, op, eps, reps, 5,
                bracket_dimensions(theta, prior, op, report, sel, c_lambda=1.0), 1.0,
            ),
        ]
        return [(e.value, e.se) for e in found]

    monkeypatch.setenv("IGSSM_THREADS", "1")
    serial = estimates()
    monkeypatch.setenv("IGSSM_THREADS", "3")
    assert estimates() == serial
    monkeypatch.setattr(montecarlo, "_ROW_ELEMENTS", 1)
    assert estimates() == serial
    assert blocks == [1] * 4 + [1] * 4 + [3] * 4


def test_thread_count_is_bounded(monkeypatch):
    assert montecarlo.MAX_THREADS == 64
    monkeypatch.setenv("IGSSM_THREADS", "64")
    assert montecarlo._max_workers() == 64
    monkeypatch.setenv("IGSSM_THREADS", "65")
    with pytest.raises(ConfigError, match="up to 64, got '65'"):
        montecarlo._max_workers()


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
