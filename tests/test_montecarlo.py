"""Monte Carlo harness: tail audits, risk estimates, rate regression."""

import gc
import itertools
import math
import tracemalloc
from unittest import mock

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
from igssm import hierarchy, montecarlo, sequences
from igssm.config import ConfigError
from igssm.hierarchy import (
    _CHUNK,
    _MASS_MARGIN,
    adaptive_estimate,
    dimension_posterior,
    sample_hierarchical_posterior,
)
from igssm.montecarlo import _draw_distances, _task, mc_mise_profile
from igssm.posterior import coordinate_posterior, posterior_variances, sample_sieve_posterior
from igssm.selection import bracket_dimensions, check_assumptions, max_dimension
from igssm.sequences import _sq_err_sum, simulate_observation


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


def test_audit_peak_does_not_grow_with_the_draws():
    """The audit's draws pass through one buffer of ``_ROW_ELEMENTS``
    doubles: at 50,000 draws of dimension 20, whose normals alone are
    8 MB, it peaks below 2 MiB, the buffer and a few vectors of one value
    per draw."""
    cfg = TailBoundConfig.from_sequences(np.ones(20), np.full(20, 0.7), c=2.0)
    tracemalloc.start()
    try:
        audit_tail_bounds(cfg, 50_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _one_batch_audit(config, reps, seed, rep):
    """The audit with every draw in one ``(reps, m)`` batch: the formula it
    had before it drew in row batches, kept as its reference."""
    z = montecarlo.stream(seed, montecarlo.AUDIT_DRAW, rep).standard_normal((reps, config.m))
    dev = np.sum((config.shifts + config.scales * z) ** 2, axis=1) - config.mean
    spread = config.spread
    lower_emp = int(np.sum(dev <= -spread)) / reps
    upper_emp = int(np.sum(dev >= 1.5 * spread)) / reps
    over = np.maximum(dev - 1.5 * spread, 0.0)
    over_emp = float(np.sum(over)) / reps
    over_se = math.sqrt(max(float(np.sum(over**2)) / reps - over_emp**2, 0.0) / reps)
    lower_se = math.sqrt(lower_emp * (1.0 - lower_emp) / reps)
    upper_se = math.sqrt(upper_emp * (1.0 - upper_emp) / reps)
    bound, over_bound = config.prob_bound, config.overshoot_bound
    passed = lower_emp <= bound + 3.0 * lower_se and upper_emp <= bound + 3.0 * upper_se
    if over_bound is not None:
        passed = passed and over_emp <= over_bound + 3.0 * over_se
    return montecarlo.TailBoundAudit(
        config, reps, seed, lower_emp, lower_se, upper_emp, upper_se, bound, over_emp, over_se, over_bound, passed
    )


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 30),
    reps=st.integers(10_000, 30_000),
    shifted=st.booleans(),
    c=st.floats(0.25, 3.0),
    seed=st.integers(0, 1000),
    rep=st.integers(0, 100),
    budget=st.sampled_from([7, 64, montecarlo._ROW_ELEMENTS]),
)
@example(m=30, reps=10_001, shifted=True, c=1.0, seed=1, rep=0, budget=7)
@example(m=9, reps=29_999, shifted=False, c=2.0, seed=2, rep=5, budget=64)
def test_audit_in_row_batches_equals_the_one_batch_audit(m, reps, shifted, c, seed, rep, budget):
    """Every field of the audit, drawn in row batches of
    ``max(1, _ROW_ELEMENTS // m)`` rows, is the one-batch audit's, bit for
    bit: with and without shifts, on budgets that leave a shorter last
    batch and a row wider than the budget (one row a batch)."""
    rng = np.random.default_rng([seed, rep, m])
    scales = rng.uniform(0.2, 2.0, m)
    shifts = rng.normal(0.0, 1.0, m) if shifted else np.zeros(m)
    config = TailBoundConfig.from_sequences(shifts, scales, c)
    want = _one_batch_audit(config, reps, seed, rep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_ROW_ELEMENTS", budget)
        got = audit_tail_bounds(config, reps, seed, rep)
    assert got == want


def test_a_task_holds_no_cut_length_array_it_does_not_read_whole():
    """On the direct model under the flat prior (every ``lambda_j`` one, a
    constant posterior variance), a task on the dimension posterior holds
    no array of its cut's length but views of theta and the prior means:
    the signal is theta, the variance a scalar, the penalty formed per
    slice and the prior mean's squared error summed piecewise."""
    n = 2**18
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior, op, eps = PriorSpec.flat(n), make_operator("constant", n), 1.0 / n
    cut = max_dimension(op, eps)  # caches the amplification cummax, which set-up keeps
    assert cut == n
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        task = _task(theta, prior, op, eps, c_lambda=1.5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before < cut  # the chunk maxima of 1 / post_var, and small objects
    assert isinstance(task.post_var, float)
    assert task.terms.means is None and task.mean_map == (None, None, None)
    for a in (task.theta, task.means, task.signal):
        assert np.shares_memory(a, theta.values) or np.shares_memory(a, prior.means)


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
    eps, dims = 0.01, (1, 3, 10)
    mise, se = mc_mise_profile(theta, prior, op, eps, 300, 6, dims)
    for m, value, err in zip(dims, mise, se):
        single = mc_mise(theta, prior, op, eps, 300, seed=6, m=m)
        assert (value, err) == (single.value, single.se)


@pytest.mark.parametrize("block", [3, 64, sequences._BLOCK])
def test_profile_equals_mise_up_to_its_top(block):
    """Whatever the block of the set-up scans, ``mc_mise_profile`` at every
    dimension up to its top gives, bit for bit, ``mc_mise`` at each, on
    tops inside the first block, on a block edge, past several blocks and
    at the search range."""
    theta, prior, op = _poly_problem(2000)
    with mock.patch.object(sequences, "_BLOCK", block):
        for top in (1, 3, 64, 100, max_dimension(op, 0.01)):
            mise, se = mc_mise_profile(theta, prior, op, 0.01, 9, 4, range(1, top + 1))
            want = [mc_mise(theta, prior, op, 0.01, 9, 4, m=m) for m in range(1, top + 1)]
            assert (mise.tolist(), se.tolist()) == ([e.value for e in want], [e.se for e in want]), top


def test_profile_builds_no_array_of_the_sequence_length():
    """At N = 2^20 and dimensions up to 20, ``mc_mise_profile`` peaks below
    one N-long float64 array: the prior mean's squared error past each
    dimension is summed piecewise."""
    n = 1 << 20
    theta, prior, op = _poly_problem(n)
    mc_mise_profile(theta, prior, op, 0.01, 4, 1, range(1, 21))
    gc.collect()
    tracemalloc.start()
    try:
        mc_mise_profile(theta, prior, op, 0.01, 4, 1, range(1, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_mise_input_validation():
    """A Monte Carlo task takes the sieve dimension or the operator constant
    of the dimension posterior, exactly one of them, and scores its loss
    only at dimensions it holds."""
    theta, prior, op = _poly_problem(100)
    tasks = (
        lambda **given: mc_mise(theta, prior, op, 0.01, 10, 1, **given),
        lambda **given: mc_concentration(theta, prior, op, 0.01, 2.0, 0.1, 10, 5, 1, **given),
    )
    for task in tasks:
        for given in ({}, {"m": 2, "c_lambda": 1.0}):
            with pytest.raises(ValueError, match="either the sieve dimension m or"):
                task(**given)
    # a loss below dimension 1, or short of the cut on the dimension posterior
    with pytest.raises(ValueError, match=r"loss dimensions \[0, 3\] outside 1..3"):
        mc_mise_profile(theta, prior, op, 0.01, 10, 1, [0, 3])
    with pytest.raises(ValueError, match="short of the cut on the dimension posterior"):
        montecarlo._pass(theta, prior, op, 0.01, 10, 1, [("loss", 3)], c_lambda=1.0)
    # a bracket on a sieve, whose work array holds no masses, and a column of
    # no kind the pass has, whose slot nothing would fill: both before any
    # replication runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_replications", lambda *args: pytest.fail("a replication ran"))
        with pytest.raises(ValueError, match="a bracket column reads the dimension posterior"):
            montecarlo._pass(theta, prior, op, 0.01, 5, 1, [("bracket", (1, 2))], m=3)
        with pytest.raises(ValueError, match="unknown column kind 'histogram'"):
            montecarlo._pass(theta, prior, op, 0.01, 5, 1, [("loss", None), ("histogram", (1, 2))], m=3)


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


@pytest.mark.parametrize("threads", ["1", "3"])
def test_one_pass_gives_every_column_its_one_column_call(monkeypatch, threads):
    """A pass with several bands, brackets and the loss observes each
    replication once and gives every column, bit for bit, what
    ``mc_concentration``, ``mc_bracket_mass`` or ``mc_mise`` gives it alone,
    over chunks of several rows split across threads, in the order of its
    columns, with the loss given last and then first."""
    theta, prior, op = _poly_problem(2000)
    eps, reps, draws, seed = 0.01, 14, 60, 5
    rate = oracle_dimension(theta, prior, op, eps).rate
    bands = [(1.5, rate, True), (1.5, rate, False), (3.0, 0.5 * rate, True)]
    monkeypatch.setenv("IGSSM_THREADS", threads)
    monkeypatch.setattr(montecarlo, "_ROW_ELEMENTS", 2 * max_dimension(op, eps))
    observed = []
    observe = montecarlo._observe

    def spy(signal, noise_scale, rngs, out):
        observed.append(len(out))
        return observe(signal, noise_scale, rngs, out)

    for (given, brackets), order in itertools.product(
        (({"c_lambda": 1.0}, [(1, 2), (2, max_dimension(op, eps))]), ({"m": 3}, [])), (1, -1)
    ):
        observed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_observe", spy)
            columns = [montecarlo._band(*band) for band in bands]
            columns += [("bracket", b) for b in brackets] + [("loss", None)]
            got = montecarlo._pass(theta, prior, op, eps, reps, seed, columns[::order], draws, **given)
        assert sum(observed) == reps
        want = [
            mc_concentration(theta, prior, op, eps, k, r, reps, draws, seed, two_sided=two, **given)
            for k, r, two in bands
        ]
        want += [mc_bracket_mass(theta, prior, op, eps, reps, seed, b, given["c_lambda"]) for b in brackets]
        want.append(mc_mise(theta, prior, op, eps, reps, seed, **given))
        assert got == want[::order]
        assert any(0.0 < est.value < 1.0 for est in got[::order][: len(bands)])


def test_sieve_deviation_requires_small_c():
    theta, prior, op = _poly_problem(100)
    with pytest.raises(ValueError):
        mc_sieve_deviation(theta, prior, op, 0.01, 5, 0.2, 100, 50, seed=1)
    with pytest.raises(ValueError):
        mc_sieve_deviation(theta, prior, op, 0.01, 5, 0.0, 100, 50, seed=1)


def test_bad_kernel_arguments_raise_before_any_replication(monkeypatch):
    """No posterior draws, a band constant that is not at least 1 (NaN
    included), a rate that is not finite and positive, or a bracket outside
    ``1..M``, is refused before the kernel simulates a single replication."""
    theta, prior, op = _poly_problem(50)
    eps, reps = 0.01, 40
    cut = max_dimension(op, eps)
    rows = []
    observe = montecarlo._observe

    def spy(signal, noise_scale, rngs, out):
        rows.append(len(out))
        return observe(signal, noise_scale, rngs, out)

    monkeypatch.setattr(montecarlo, "_observe", spy)
    no_draws = (
        lambda: mc_concentration(theta, prior, op, eps, 2.0, 0.1, reps, 0, 1, m=5),
        lambda: mc_concentration(theta, prior, op, eps, 2.0, 0.1, reps, 0, 1, c_lambda=1.0),
        lambda: mc_sieve_deviation(theta, prior, op, eps, 5, 0.1, reps, 0, 1),
    )
    for call in no_draws:
        with pytest.raises(ValueError, match="need at least one draw"):
            call()
    nan, inf = float("nan"), float("inf")
    for given in ({"m": 5}, {"c_lambda": 1.0}):
        for band_constant in (nan, -inf, 0.5):
            with pytest.raises(ValueError, match="band constant must be >= 1"):
                mc_concentration(theta, prior, op, eps, band_constant, 0.1, reps, 10, 1, **given)
        for rate in (nan, inf, -inf, 0.0):
            with pytest.raises(ValueError, match="rate must be finite and positive"):
                mc_concentration(theta, prior, op, eps, 2.0, rate, reps, 10, 1, **given)
    for m_lo, m_hi in ((0, 5), (3, 2), (1, cut + 1)):
        with pytest.raises(ValueError, match=rf"bracket \[{m_lo}, {m_hi}\] outside 1\.\.{cut}$"):
            mc_bracket_mass(theta, prior, op, eps, reps, 1, (m_lo, m_hi), 1.0)
    assert rows == []
    mc_bracket_mass(theta, prior, op, eps, reps, 1, (1, cut), 1.0)
    assert rows == [reps]  # the spy sees the one chunk of a valid call


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
    rngs = montecarlo.streams(seed, montecarlo.HIERARCHY_DRAW if hierarchical else montecarlo.SIEVE_DRAW, 0, 1)
    scored = _draw_distances(task, np.sqrt(task.post_var), draws, rngs, summary.post_mean[None], probs, cut, {}, {})
    got = np.concatenate([sq[0] for _, sq in scored])  # one row, in pieces if its draws pass the budget
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


@settings(max_examples=25, deadline=None)
@given(
    problem=small_problems(),
    c=st.floats(0.01, 0.19),
    seed=st.integers(0, 1000),
    budget=st.sampled_from(_BUDGETS),
)
@example(problem=_identity_problem(flat=False), c=0.05, seed=4, budget="default")
def test_mc_sieve_deviation_equals_serial_loop(problem, c, seed, budget):
    """Both deviation estimates, summarised from one ``(reps, 2)`` array,
    equal the serial loop's, each column summed as numpy sums a 1-d array.
    With 12 replications that sum is not the running sum of the rows."""
    theta, prior, op, eps = problem
    reps, draws = 12, 40
    m = max(1, theta.n // 3)
    _, pr, _, _, summaries = _head_loop(theta, prior, op, eps, reps, seed, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, m, reps))
        got = mc_sieve_deviation(theta, prior, op, eps, m, c, reps, draws, seed)
    fracs = np.empty((2, reps))
    for r, summary in enumerate(summaries):
        sq = _padded_distances(sample_sieve_posterior(m, summary, pr, draws, seed, rep=r), theta, prior)
        fracs[:, r] = np.mean(sq > got.upper_threshold), np.mean(sq < got.lower_threshold)
    assert (got.upper.value, got.upper.se) == _summary_of(fracs[0])
    assert (got.lower.value, got.lower.se) == _summary_of(fracs[1])


# Doubles at the edges of the comparisons: both zeros, the smallest
# subnormals and normal, the largest finite, both infinities and NaN.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0, 1.7976931348623157e308, math.inf, -math.inf,
          math.nan]


@settings(max_examples=300, deadline=None)
@given(
    sq=st.lists(st.floats() | st.sampled_from(_EDGES), min_size=1, max_size=20),
    thresholds=st.tuples(st.floats() | st.sampled_from(_EDGES), st.floats() | st.sampled_from(_EDGES)),
    ties=st.tuples(st.integers(-1, 19), st.integers(-1, 19)),
)
@example(sq=_EDGES, thresholds=(0.0, -0.0), ties=(-1, -1))
@example(sq=_EDGES, thresholds=(-0.0, 0.0), ties=(-1, -1))
@example(sq=_EDGES, thresholds=(math.inf, -math.inf), ties=(-1, -1))
@example(sq=_EDGES, thresholds=(-math.inf, math.inf), ties=(-1, -1))
@example(sq=[1.0, 2.0, 3.0], thresholds=(0.0, 0.0), ties=(1, 1))
def test_strict_events_count_what_the_strict_comparisons_count(sq, thresholds, ties):
    """The closed intervals ``mc_sieve_deviation`` passes to the concentration
    pass count, for any float64 distances and thresholds, exactly the draws
    ``sq > hi`` and ``sq < lo`` count: signed zeros, negative values,
    subnormals, infinities and NaN included, and a threshold equal to one
    of the distances (``ties`` picks it, -1 none)."""
    sq = np.array(sq)
    hi, lo = (float(sq[t % sq.size]) if t >= 0 else x for x, t in zip(thresholds, ties))
    (_, (up_lo, up_hi)), (_, (low_lo, low_hi)) = montecarlo._strict_events(hi, lo)
    assert np.count_nonzero((sq >= up_lo) & (sq <= up_hi)) == np.count_nonzero(sq > hi)
    assert np.count_nonzero((sq >= low_lo) & (sq <= low_hi)) == np.count_nonzero(sq < lo)


def _long_direct_problem(n, exponent, scale, kind, centred, eps, c_lambda, seed):
    """A direct-model problem (``lambda_j = 1``) of length ``n`` with a
    polynomial truth, a proper, flat or mixed prior whose proper means are
    zero or of the order of the noise, a noise level and an operator
    constant."""
    rng = np.random.default_rng(seed)
    theta = make_parameters("polynomial", n, exponent=exponent, scale=scale)
    means = np.zeros(n) if centred else rng.normal(0.0, 0.5 * math.sqrt(eps), n)
    variances = rng.uniform(0.1, 2.0, n)
    if kind == "proper":
        prior = PriorSpec.gaussian(means, variances)
    elif kind == "flat":
        prior = PriorSpec.flat(n)
    else:
        improper = rng.random(n) < 0.5
        prior = PriorSpec.mixed(np.where(improper, 0.0, means), variances, improper)
    return theta, prior, make_operator("constant", n), eps, c_lambda


# The mass of this problem's dimension posterior ends at about 7,000 of
# 20,000 dimensions, past the kernel's first chunk of log-weights.
_MASS_PAST_THE_FIRST_CHUNK = _long_direct_problem(20_000, 0.55, 1.0, "mixed", False, 5e-5, 1.0, 7)


@st.composite
def long_direct_problems(draw):
    """A direct-model problem whose search range, 4,097 to 40,000
    dimensions (several chunks of log-weights, and on up to 15 rows a
    chunk of replications), runs thousands of dimensions past those the
    dimension posterior gives any mass."""
    n = draw(st.integers(_CHUNK + 1, 40_000))
    return _long_direct_problem(
        n,
        draw(st.floats(1.0, 2.0)),
        draw(st.floats(0.1, 1.0)),
        draw(st.sampled_from(["proper", "flat", "mixed"])),
        draw(st.booleans()),
        draw(st.floats(1.0 / 40_000, 1.0 / (_CHUNK + 1))),
        draw(st.sampled_from([1.0, 1.5])),
        draw(st.integers(0, 2**32 - 1)),
    )


def _reference_distances(task, post_sd, draws, seed, r0, post_mean, probs, end, past):
    """The squared distances of each row's draws, one row at a time: what
    ``_draw_distances`` yielded before it scored a chunk's draws at once,
    with the samplers of that time (``posterior._sieve_block``,
    ``hierarchy._draw_hierarchical``) written out.  Kept as the reference
    the chunk scoring must equal bit for bit."""
    sieve = task.terms is None
    truth = task.theta
    post_sd = np.broadcast_to(post_sd, truth.shape)
    domain = montecarlo.SIEVE_DRAW if sieve else montecarlo.HIERARCHY_DRAW
    for i, rng in enumerate(montecarlo.streams(seed, domain, r0, r0 + len(post_mean))):
        if sieve:
            block = post_mean[i] + post_sd * rng.standard_normal((draws, post_mean.shape[1]))
        else:
            found = np.searchsorted(np.cumsum(probs[i, :end]), rng.random(draws), side="right")
            dims = np.where(found == end, probs.shape[1], found + 1)
            width = int(dims.max())
            gauss = post_mean[i, :width] + post_sd[:width] * rng.standard_normal((draws, width))
            block = np.where(np.arange(1, width + 1) <= dims[:, None], gauss, task.means[:width])
        width = block.shape[1]
        if width not in past:
            past[width] = _sq_err_sum(task.means, truth, width, truth.size - width) + task.remainder
        yield np.sum((block - truth[:width]) ** 2, axis=1) + past[width]


def _reference_concentration(theta, prior, op, eps, reps, seed, bands, brackets, draws, **given):
    """The concentration pass with each row scored alone: its distances
    from ``_reference_distances`` and one ``np.mean`` per band."""
    edges = [(rate / k if two_sided else 0.0, rate * k) for k, rate, two_sided in bands]
    task = _task(theta, prior, op, eps, **given)
    post_sd = np.sqrt(task.post_var)
    past = {}

    def masses(start, stop, chunks):
        for r0, (post_mean, probs, end) in zip(range(start, stop, montecarlo._rows(task)), chunks):
            probs[:, end:] = 0.0
            out = np.empty((len(post_mean), len(edges) + len(brackets)))
            distances = _reference_distances(task, post_sd, draws, seed, r0, post_mean, probs, end, past)
            for row, sq in zip(out, distances if edges else ()):
                row[: len(edges)] = [np.mean((sq >= lo) & (sq <= hi)) for lo, hi in edges]
            for k, (m_lo, m_hi) in enumerate(brackets, len(edges)):
                out[:, k] = hierarchy._outside_mass(probs, m_lo, m_hi)
            yield out

    return montecarlo._mc_summary(montecarlo._replications(task, reps, seed, masses), seed)


# Problems whose draws are wider than numpy's pairwise leaf, so each row is
# scored alone: a sieve of 210 of 300 dimensions, and a dimension posterior
# whose mass runs to about 7,000 dimensions, where a row's draws pass the
# default budget and are scored in pieces.
_WIDE = _long_direct_problem(300, 1.2, 0.5, "proper", False, 1e-3, 1.0, 3)[:4]


@settings(max_examples=30, deadline=None)
@given(
    problem=small_problems(),
    hierarchical=st.booleans(),
    m_share=st.floats(0.0, 1.0),
    draws=st.integers(1, 60),
    bands=st.lists(st.tuples(st.floats(1.0, 4.0), st.floats(0.2, 5.0), st.booleans()), min_size=1, max_size=3),
    brackets=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=2),
    seed=st.integers(0, 1000),
    budget=st.sampled_from(_BUDGETS),
)
@example(problem=_WIDE, hierarchical=False, m_share=0.7, draws=60, bands=[(2.0, 1.0, True)], brackets=[],
         seed=1, budget="default")
@example(problem=_MASS_PAST_THE_FIRST_CHUNK[:4], hierarchical=True, m_share=0.0, draws=20,
         bands=[(1.5, 1.0, True), (3.0, 2.0, False)], brackets=[(0.0, 0.5)], seed=2, budget="default")
def test_chunk_scoring_equals_the_per_row_loop(problem, hierarchical, m_share, draws, bands, brackets, seed,
                                               budget):
    """The chunk scoring, which samples and scores the draws of a chunk's
    rows together, gives every draw the squared distance the per-row loop
    gives it, bit for bit, and the concentration pass every band and
    bracket the loop's mass: on both posteriors, rows of ragged widths
    (the dimension posterior's), 1 to 60 draws, several bands and brackets
    and every row budget, draws wider than numpy's pairwise leaf and rows
    scored in pieces included."""
    theta, prior, op, eps = problem
    reps = 7
    cut = max_dimension(op, eps)
    rate = oracle_dimension(theta, prior, op, eps).rate
    bands = [(k, share * rate, two_sided) for k, share, two_sided in bands]
    if hierarchical:
        given = {"c_lambda": 1.0}
        lows = [1 + int(lo * (cut - 1)) for lo, _ in brackets]
        brackets = [(m_lo, m_lo + int(hi * (cut - m_lo))) for m_lo, (_, hi) in zip(lows, brackets)]
    else:
        given, brackets = {"m": max(1, math.ceil(m_share * theta.n))}, []
    task = _task(theta, prior, op, eps, **given).drawing(draws)
    post_sd = np.sqrt(task.post_var)
    domain = montecarlo.HIERARCHY_DRAW if hierarchical else montecarlo.SIEVE_DRAW
    scored = []

    def compare(start, stop, chunks):
        rngs, buffers = montecarlo.streams(seed, domain, start, stop), {}
        for r0, (post_mean, probs, end) in zip(range(start, stop, montecarlo._rows(task)), chunks):
            probs[:, end:] = 0.0
            want = list(_reference_distances(task, post_sd, draws, seed, r0, post_mean, probs, end, {}))
            got = [[] for _ in want]
            for rows, sq in _draw_distances(task, post_sd, draws, rngs, post_mean, probs, end, {}, buffers):
                for i, row in zip(np.arange(len(want))[rows], sq):
                    got[i].append(row)
            scored.extend(np.array_equal(np.concatenate(g), w) for g, w in zip(got, want))
            yield np.zeros((len(post_mean), 1))

    want = _reference_concentration(theta, prior, op, eps, reps, seed, bands, brackets, draws, **given)
    columns = [montecarlo._band(*band) for band in bands] + [("bracket", b) for b in brackets]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_ROW_ELEMENTS", _row_budget(budget, task.theta.size, reps))
        montecarlo._replications(task, reps, seed, compare)
        got = montecarlo._pass(theta, prior, op, eps, reps, seed, columns, draws, **given)
    assert scored == [True] * reps
    assert got == want


@pytest.mark.parametrize(
    "problem, given",
    [
        ((*_poly_problem(4096), 0.01), {"m": 4096}),
        (_MASS_PAST_THE_FIRST_CHUNK[:4], {"c_lambda": 1.0}),
    ],
    ids=["sieve", "dimension posterior"],
)
def test_a_sampling_pass_holds_no_draw_array_past_the_budget(problem, given):
    """Where a row's draws pass ``_ROW_ELEMENTS`` twenty times over (a sieve
    of 4,096 dimensions, or a dimension posterior whose mass runs to about
    7,000, and 320 draws), every draw array of a concentration pass holds
    at most ``_ROW_ELEMENTS`` (a spy on the sampler's one step that every
    draw array goes through), and on one thread the pass peaks less than
    two such arrays above the same pass with one draw: the normals, and
    numpy's buffers and the masks of a piece.  The per-row loop built
    several arrays of all of a row's draws at once, 20 such arrays each."""
    theta, prior, op, eps = problem
    budget = montecarlo._ROW_ELEMENTS
    assert 320 * _task(theta, prior, op, eps, **given).theta.size >= 20 * budget
    rate = oracle_dimension(theta, prior, op, eps).rate
    sizes = []
    sieve_block = montecarlo._sieve_block

    def spy(post_mean, post_sd, z):
        sizes.append(z.size)
        return sieve_block(post_mean, post_sd, z)

    band = montecarlo._band(2.0, rate, True)

    def peak(draws):
        montecarlo._pass(theta, prior, op, eps, 1, 0, [band], draws, **given)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            montecarlo._pass(theta, prior, op, eps, 3, 1, [band], draws, **given)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IGSSM_THREADS", "1")
        mp.setattr(montecarlo, "_sieve_block", spy)
        assert peak(320) - peak(1) < 8 * 2 * budget
    assert sizes and max(sizes) <= budget


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
@example(problem=_MASS_PAST_THE_FIRST_CHUNK, seed=3)
def test_truncated_adaptive_equals_full_range_formulas(problem, seed):
    """On long search ranges the kernel and the public functions exponentiate
    and shrink only up to the mass end, the kernel computes the log-weights
    only on a head of whole chunks that holds it, and both still match the
    full-range formulas exactly.  Where the mass lies past the first chunk,
    the head grows."""
    theta, prior, op, eps, c_lambda = problem
    reps = 4
    cut = max_dimension(op, eps)
    assert _CHUNK < cut
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

    ends, heads = [], []
    shrink, log_weights = montecarlo._shrink, hierarchy._log_weights

    def spy(probs, mass_end, *rest):
        ends.append((len(probs), mass_end))
        return shrink(probs, mass_end, *rest)

    def head_spy(post_mean, *rest):
        heads.append(post_mean.shape[1])
        return log_weights(post_mean, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_shrink", spy)
        mp.setattr(hierarchy, "_log_weights", head_spy)
        got = mc_mise(theta, prior, op, eps, reps, seed, c_lambda=c_lambda)
    assert (got.value, got.se) == _summary_of(vals)
    # every replication was truncated: each chunk's largest mass end is short of the cut
    assert sum(rows for rows, _ in ends) == reps and max(end for _, end in ends) < cut
    # each chunk computed its log-weights on one chunk, then at most once more
    # on a longer head of whole chunks that holds its mass end
    assert heads.count(_CHUNK) == len(ends) and len(heads) <= 2 * len(ends)
    assert all(h % _CHUNK == 0 and _CHUNK <= h < cut for h in heads)
    assert max(heads) >= max(end for _, end in ends)
    if problem is _MASS_PAST_THE_FIRST_CHUNK:
        assert max(end for _, end in ends) > _CHUNK


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
    mise, se = run(top, mc_mise_profile, reps, seed, (1, m, top))
    return [(e.value, e.se) for e in estimates] + [mise.tolist(), se.tolist()]


@settings(max_examples=20, deadline=None)
@given(
    problem=st.one_of(small_problems(), long_direct_problems().map(lambda p: p[:4])),
    seed=st.integers(0, 1000),
    c_lambda=st.sampled_from([1.0, 1.5]),
)
@example(problem=_long_direct_problem(9000, 1.5, 0.5, "proper", False, 1.2e-4, 1.0, 5)[:4], seed=5, c_lambda=1.0)
@example(problem=_MASS_PAST_THE_FIRST_CHUNK[:4], seed=5, c_lambda=1.0)
def test_batched_equals_serial(problem, seed, c_lambda):
    """Every task gives the same result whether its replications run one per
    chunk, in default chunks or in chunks with a ragged last one, on one,
    two or three threads; a spy checks that chunks of several rows ran,
    another that every chunk a block yields holds its rows' float64 arrays
    of the cut, and a third that every chunk a statistic yields is a
    float64 ``(rows, k)`` array with one ``k`` per task.
    The examples pin this on search ranges of several chunks of
    log-weights, one with the mass past the first chunk."""
    reps = 8
    rows, widths = [], {}  # each task's statistic and the k of its chunks
    observe, block, replications = montecarlo._observe, montecarlo._block, montecarlo._replications

    def spy(signal, noise_scale, rngs, out):
        rows.append(len(out))
        return observe(signal, noise_scale, rngs, out)

    def block_spy(task, seed, start, stop):
        step = montecarlo._rows(task)
        for r0, chunk in itertools.zip_longest(range(start, stop, step), block(task, seed, start, stop)):
            post_mean, work, end = chunk
            shape = (min(step, stop - r0), task.theta.size)
            assert 1 <= end <= task.theta.size
            assert post_mean.shape == work.shape == shape and post_mean.dtype == work.dtype == np.float64
            yield chunk

    def replications_spy(task, reps, seed, statistic):
        step = montecarlo._rows(task)

        def checked(start, stop, chunks):
            for r0, out in itertools.zip_longest(range(start, stop, step), statistic(start, stop, chunks)):
                assert isinstance(out, np.ndarray) and out.dtype == np.float64
                assert out.shape == (min(step, stop - r0), widths.setdefault(statistic, out.shape[1]))
                yield out

        return replications(task, reps, seed, checked)

    # the one-column passes of mc_mise twice, mc_concentration twice and
    # mc_bracket_mass, mc_sieve_deviation's two-column one, then
    # mc_mise_profile's three loss columns
    want = [1] * 5 + [2, 3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_observe", spy)
        mp.setattr(montecarlo, "_block", block_spy)
        mp.setattr(montecarlo, "_replications", replications_spy)
        serial = _every_task(problem, reps, seed, c_lambda, "one row")
        for threads in ("1", "2", "3"):
            mp.setenv("IGSSM_THREADS", threads)
            for budget in _BUDGETS:
                widths.clear()
                assert _every_task(problem, reps, seed, c_lambda, budget) == serial, (threads, budget)
                assert list(widths.values()) == want
    assert max(rows) > 1


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 1000), data=st.data())
@example(problem=_identity_problem(flat=True), seed=3, data=None)
@example(problem=_identity_problem(flat=False), seed=3, data=None)
@example(problem=_long_direct_problem(9000, 1.5, 0.5, "flat", False, 1.2e-4, 1.0, 5)[:4], seed=5, data=None)
@pytest.mark.parametrize("threads", ["1", "3"])
def test_profile_equals_mise_at_each_dimension(threads, problem, seed, data):
    """``mc_mise_profile`` gives at each of its dimensions, 1 and the search
    range among them, ``mc_mise``'s value and standard error bit for bit,
    on direct and polynomial operators and flat, Gaussian and mixed priors,
    with a row budget that leaves a ragged last chunk at the top."""
    theta, prior, op, eps = problem
    reps, top = 7, max_dimension(op, eps)
    inner = [] if data is None else data.draw(st.lists(st.integers(1, top), max_size=3), label="dims")
    dims = [1, *inner, top // 2 + 1, top]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IGSSM_THREADS", threads)
        mp.setattr(montecarlo, "_ROW_ELEMENTS", 2 * top + 1)  # two rows a chunk at the top, one left over
        mise, se = mc_mise_profile(theta, prior, op, eps, reps, seed, dims)
        want = [mc_mise(theta, prior, op, eps, reps, seed, m=m) for m in dims]
    assert mise.tolist() == [e.value for e in want]
    assert se.tolist() == [e.se for e in want]


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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("call", ["mc_mise", "sieve band", "hierarchical band", "sieve deviation"])
def test_a_block_opens_one_observation_range(monkeypatch, call, threads):
    """A block of replications opens one range of observation streams and
    hands each chunk its rows' generators from it, also where every chunk
    is one row.  A pass that samples the posterior opens one range of draw
    streams per block too, over the same replications, and keeps its draw
    buffers in the block: no chunk allocates a buffer its block already
    holds at the size it asks, and every block's later chunks reuse one."""
    opened, held, calls = [], {}, []  # held: each block's buffers, kept alive so their ids stay theirs
    streams, buffer = montecarlo.streams, montecarlo._buffer

    def spy(seed, domain, start, stop):
        opened.append((domain, start, stop))
        return streams(seed, domain, start, stop)

    def buffer_spy(buffers, name, shape, dtype=np.float64):
        before = buffers.get(name)
        out = buffer(buffers, name, shape, dtype)
        fits = before is not None and before.size >= math.prod(shape)
        held.setdefault(id(buffers), buffers)
        calls.append((id(buffers), fits, buffers[name] is not before))
        return out

    monkeypatch.setattr(montecarlo, "streams", spy)
    monkeypatch.setattr(montecarlo, "_buffer", buffer_spy)
    monkeypatch.setenv("IGSSM_THREADS", threads)
    if call == "mc_mise":
        theta, prior, op = _poly_problem(70_000)
        m, reps, domain = montecarlo._ROW_ELEMENTS, 6, None
        assert montecarlo._rows(_task(theta, prior, op, 0.01, m)) == 1
        mc_mise(theta, prior, op, 0.01, reps, 3, m=m)
    else:  # chunks of two rows, so each block runs several
        theta, prior, op = _poly_problem(2000)
        eps, reps, draws, m = 0.01, 8, 10, 5
        given = {"c_lambda": 1.0} if call == "hierarchical band" else {"m": m}
        task = _task(theta, prior, op, eps, **given).drawing(draws)
        monkeypatch.setattr(montecarlo, "_ROW_ELEMENTS", 2 * task.row_size)
        if call == "sieve deviation":
            mc_sieve_deviation(theta, prior, op, eps, m, 0.1, reps, draws, 3)
        else:
            mc_concentration(theta, prior, op, eps, 2.0, 0.1, reps, draws, 3, **given)
        domain = montecarlo.HIERARCHY_DRAW if call == "hierarchical band" else montecarlo.SIEVE_DRAW
    blocks = int(threads)
    spans = [(reps * k // blocks, reps * (k + 1) // blocks) for k in range(blocks)]
    want = [(montecarlo.OBSERVATION, *span) for span in spans]
    want += [(domain, *span) for span in spans if domain is not None]
    assert sorted(opened) == sorted(want)
    assert len(held) == (0 if domain is None else blocks)
    assert not any(fits and allocated for _, fits, allocated in calls)
    assert all(any(fits for key, fits, _ in calls if key == block) for block in held)


@pytest.mark.parametrize("given", [{"m": 2**18}, {"c_lambda": 1.5}], ids=["sieve", "dimension posterior"])
def test_a_block_holds_two_cut_length_arrays(given):
    """On the direct model under the flat prior at a cut of 2^18 (one row a
    chunk), ``mc_mise`` on one thread peaks below 2.2 arrays of the cut's
    length: the block's posterior means and its one work array, and the
    eighth of the cut that ``sequences._sq_err_sum`` squares at a time.
    The task builds none, its variance read from the constant operator and
    the flat prior.  Both arrays are freed when it returns, with the garbage
    collector off."""
    n = 2**18
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior, op, eps = PriorSpec.flat(n), make_operator("constant", n), 1.0 / n
    assert max_dimension(op, eps) == n
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IGSSM_THREADS", "1")
        mc_mise(theta, prior, op, eps, 1, 0, **given)  # imports what the first call imports
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            mc_mise(theta, prior, op, eps, 3, 1, **given)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
    assert peak - before < 2.2 * 8 * n
    assert after - before < 8 * n // 4


# An index past the kernel's first chunk of log-weights.
_PAST = _CHUNK + 904


def _corruptions(corrupt):
    """``(row, index, value)`` of each corrupted observation: at index 3
    unless ``corrupt`` gives ``(index, value)``."""
    return [(r, *(v if isinstance(v, tuple) else (3, v))) for r, v in corrupt.items()]


def _serial_failure(theta, prior, op, eps, reps, corrupt, m):
    """The message the replication-by-replication loop over the public
    functions raises first on the corrupted observations, or None."""
    spots = _corruptions(corrupt)
    for r in range(reps):
        y = simulate_observation(theta, op, eps, seed=1, rep=r).values.copy()
        for row, at, value in spots:
            if row == r:
                y[at] = value
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
        # past the first chunk: the chunk sums of squares are not finite
        pytest.param({2: (_PAST, np.inf)}, None, "posterior means must be finite", id="row 2 inf past"),
        pytest.param({2: (_PAST, np.nan)}, None, "posterior means must be finite", id="row 2 nan past"),
        pytest.param({2: (_PAST, 1e200)}, None, "log weights must be finite", id="row 2 1e+200 past"),
        # finite sums of squares whose contrast overflows: an infinite bound
        pytest.param({2: (_PAST, 1e153)}, None, "log weights must be finite", id="row 2 1e+153 past"),
        # a row failing past the first chunk before one failing in it, and after
        pytest.param({1: (_PAST, 1e200), 3: np.inf}, None, "log weights must be finite", id="1e+200 past before inf"),
        pytest.param({1: (_PAST, 1e153), 3: np.nan}, None, "log weights must be finite", id="1e+153 past before nan"),
        pytest.param({1: (_PAST, np.nan), 3: 1e200}, None, "posterior means must be finite", id="nan past before 1e+200"),
        pytest.param({1: 1e200, 3: (_PAST, np.inf)}, None, "log weights must be finite", id="1e+200 before inf past"),
        pytest.param({0: np.nan, 4: (_PAST, 1e153)}, None, "posterior means must be finite", id="nan before 1e+153 past"),
    ],
)
def test_adaptive_kernel_rejects_non_finite_values(monkeypatch, corrupt, m, message):
    """An infinite or NaN observation fails the posterior-mean check; a
    finite one whose square, or its contrast, overflows fails the
    log-weight check.  In a chunk of five replications, the first corrupted
    one raises what it raises in the replication-by-replication loop, also
    where the corruption lies past the kernel's first chunk of log-weights,
    on a direct problem whose search range spans two chunks."""
    spots = _corruptions(corrupt)
    if max(at for _, at, _ in spots) < _CHUNK:
        (theta, prior, op), eps = _poly_problem(100), 0.01
    else:
        n, eps = 6000, 1e-4
        theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
        prior, op = PriorSpec.flat(n), make_operator("constant", n)
    reps = 5
    cut = m or max_dimension(op, eps)
    assert _serial_failure(theta.head(cut), prior.head(cut), op.head(cut), eps, reps, corrupt, m) == message
    observe = montecarlo._observe
    chunks = []

    def corrupted(signal, noise_scale, rngs, out):
        observe(signal, noise_scale, rngs, out)
        chunks.append(out.shape)
        for r, at, value in spots:
            out[r, at] = value
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


def test_default_thread_count_is_the_usable_cores_up_to_eight(monkeypatch):
    """Without ``IGSSM_THREADS`` the workers are the cores the process may
    run on, not the host's CPUs, at most 8; ``IGSSM_THREADS`` overrides."""
    monkeypatch.delenv("IGSSM_THREADS", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 32)
    for cores, workers in (({0}, 1), ({2, 5, 7}, 3), (set(range(16)), 8)):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid, cores=cores: cores, raising=False)
        assert montecarlo._max_workers() == workers
    monkeypatch.setenv("IGSSM_THREADS", "5")
    assert montecarlo._max_workers() == 5
    monkeypatch.delenv("IGSSM_THREADS")
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)  # a platform without it
    assert montecarlo._max_workers() == 8


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
