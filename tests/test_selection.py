"""Truncation-level selection, regularity diagnostics and brackets.

The selection scans are cross-checked against direct reimplementations on
small problems: quadratic-time, no shared helpers, so a regression in the
vectorised code cannot hide.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igssm import (
    InfeasibleError,
    OperatorSequence,
    ParameterSequence,
    PriorSpec,
    bias_profile,
    bracket_dimensions,
    check_assumptions,
    composite_constants,
    make_operator,
    make_parameters,
    make_weights,
    max_dimension,
    minimax_dimension,
    oracle_dimension,
    risk_decomposition,
    shift_sq_norm,
)
from igssm import sequences
from igssm.selection import (
    _LOG_TOL,
    _operator_constant,
    _Profile,
    _profiles,
    _select,
    _submultiplicative,
)


def brute_oracle(theta_vals, mu, amp, eps, tail):
    """Smallest argmin of max(b_m, eps sum_{j<=m} amp_j), written plainly."""
    n = len(theta_vals)
    best = None
    for m in range(1, n + 1):
        bias = sum((theta_vals[j] - mu[j]) ** 2 for j in range(m, n)) + tail
        var = eps * sum(amp[:m])
        rate = max(bias, var)
        if best is None or rate < best[1] - 1e-15:
            best = (m, rate)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_oracle_dimension_against_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    vals = rng.normal(size=n)
    lam = rng.uniform(0.2, 1.5, size=n)
    mu = rng.normal(scale=0.3, size=n)
    eps = float(rng.uniform(0.001, 0.5))
    theta = make_parameters("explicit", n, values=vals)
    op = make_operator("explicit", n, values=lam)
    prior = PriorSpec.gaussian(mu, np.ones(n))
    got = oracle_dimension(theta, prior, op, eps)
    want_m, want_rate = brute_oracle(vals, mu, (lam**-2.0).tolist(), eps, 0.0)
    assert got.dimension == want_m
    assert got.rate == pytest.approx(want_rate, rel=1e-12)


_LEVELS = st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0, 2.0, 3.0, np.inf])


def _array_profile(a):
    """The profile of the whole array ``a``, read through the blocks of
    ``sequences._blocks``."""
    blocks = sequences._blocks(a.size)
    return _Profile(blocks, a[[hi - 1 for _, hi in blocks]], lambda k: a[slice(*blocks[k])])


@settings(max_examples=300, deadline=None)
@given(
    profile=st.lists(_LEVELS, min_size=1, max_size=12),
    prefix=st.lists(_LEVELS, min_size=12, max_size=12),
    eps=st.sampled_from([0.5, 0.25, 1e-3, 1e-300]),
    block=st.sampled_from([1, 2, 3, 5, 64]),
)
@example(profile=[1.0, 1.0, 0.5, 0.5], prefix=[0.0, 1.0, 1.0, 2.0] + [3.0] * 8, eps=0.5, block=64)  # tie at the crossing
@example(profile=[np.inf] * 3, prefix=[np.inf] * 12, eps=0.5, block=64)  # every rate infinite
def test_select_is_the_first_argmin_of_the_rate(profile, prefix, eps, block):
    """The search on the block ends and then inside one block, on a
    non-increasing profile and a non-decreasing variance proxy with
    plateaus, ties and infinities, finds the minimiser and rate that
    ``argmin`` over the whole rate finds, wherever the block edges fall."""
    profile = np.sort(profile)[::-1]
    prefix = np.sort(prefix)[: profile.size]
    rates = np.maximum(profile, eps * prefix)
    with mock.patch.object(sequences, "_BLOCK", block):
        got, low = _select(_array_profile(profile), _array_profile(prefix), "oracle", eps)
    idx = int(np.argmin(rates))
    assert (got.dimension, got.rate) == (idx + 1, float(rates[idx]))
    assert low == min(profile[idx], eps * prefix[idx])


@pytest.mark.parametrize("seed", range(4))
def test_minimax_dimension_against_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 30))
    lam = rng.uniform(0.3, 1.2, size=n)
    w = np.concatenate([[1.0], np.sort(rng.uniform(0.001, 1.0, size=n - 1))[::-1]])
    w = np.minimum.accumulate(w)
    wc = make_weights("explicit", n, values=w, radius=2.0)
    op = make_operator("explicit", n, values=lam)
    eps = float(rng.uniform(0.001, 0.5))
    got = minimax_dimension(wc, op, eps)
    best = None
    for m in range(1, n + 1):
        rate = max(w[m - 1], eps * float(np.sum(lam[:m] ** -2.0)))
        if best is None or rate < best[1] - 1e-15:
            best = (m, rate)
    assert (got.dimension, got.rate) == (best[0], pytest.approx(best[1], rel=1e-12))


def test_search_range_boundaries():
    # direct problem: eps * 1 <= 1 always, so the cap floor(1/eps) binds
    op = make_operator("constant", 1000)
    assert max_dimension(op, 0.01) == 100
    assert max_dimension(op, 0.5) == 2
    # eps m^2 <= 1 for the unit-decay polynomial family
    op = make_operator("polynomial", 1000, decay=1.0)
    assert max_dimension(op, 0.01) == 10
    assert max_dimension(op, 1e-4) == 100
    # the stored length caps the range
    short = make_operator("constant", 3)
    assert max_dimension(short, 0.01) == 3
    # exact boundary eps * max-amp = amp_1 must stay inside
    assert max_dimension(make_operator("polynomial", 100, decay=0.5), 0.04) == 25


def test_risk_decomposition_terms_add_up():
    n = 12
    theta = make_parameters("polynomial", n, exponent=1.0, scale=2.0)
    op = make_operator("polynomial", n, decay=0.5)
    mu = np.full(n, 0.1)
    prior = PriorSpec.gaussian(mu, np.full(n, 0.7))
    eps, m = 0.04, 5
    dec = risk_decomposition(theta, prior, op, eps, m)
    assert dec.bias == pytest.approx(
        float(np.sum((theta.values[m:] - 0.1) ** 2)) + theta.sq_tail(), rel=1e-12
    )
    amp = op.values**-2.0
    assert dec.variance_proxy == pytest.approx(eps * float(np.sum(amp[:m])), rel=1e-12)
    post_var = eps * 0.7 / (0.7 * op.values[:m] ** 2 + eps)
    assert dec.post_var_sum == pytest.approx(float(np.sum(post_var)), rel=1e-12)
    assert dec.post_var_max == pytest.approx(float(np.max(post_var)), rel=1e-12)
    shrink = post_var / 0.7
    want_shift = float(np.sum(shrink**2 * (0.1 - theta.values[:m]) ** 2))
    assert dec.shift == pytest.approx(want_shift, rel=1e-12)
    assert dec.rate == max(dec.bias, dec.variance_proxy)


def test_bias_profile_reverse_accumulation():
    theta = make_parameters("explicit", 4, values=np.array([3.0, 2.0, 1.0, 0.5]))
    prior = PriorSpec.flat(4)
    prof = bias_profile(theta, prior)
    np.testing.assert_allclose(prof, [2**2 + 1 + 0.25, 1 + 0.25, 0.25, 0.0], rtol=1e-15)
    assert not prof.flags.writeable
    other = PriorSpec.gaussian(np.full(4, 0.5), np.ones(4))
    np.testing.assert_allclose(bias_profile(theta, other), [1.5**2 + 0.25, 0.25, 0.0, 0.0], rtol=1e-15)
    again = bias_profile(theta, prior)
    assert again is not prof and np.array_equal(again, prof)


def _gather_submultiplicative(op):
    """The factor-pair scan with fancy-index gathers, as it was before it
    took slices: the reference for verdict and witness."""
    log_cummax = op._log_amp_cummax
    n = op.n
    if log_cummax[0] < -_LOG_TOL:
        return False, (1, 1)
    for k in range(2, math.isqrt(n) + 1):
        l_vals = np.arange(k, n // k + 1)
        lhs = log_cummax[k * l_vals - 1]
        rhs = log_cummax[k - 1] + log_cummax[l_vals - 1]
        bad = lhs > rhs + _LOG_TOL * np.maximum(1.0, np.abs(rhs))
        if np.any(bad):
            return False, (k, int(l_vals[np.argmax(bad)]))
    return True, None


def test_submultiplicative_equals_gather_loop():
    """Random operators: polynomial decay, some with log-normal wiggles
    that break submultiplicativity at a random factor pair, some raised at
    one coordinate by a fraction or a multiple of the tolerance, some with
    ``lambda_1 > 1``, and some with log amplification of order 1e5 to 1e6,
    where rounding is largest."""
    verdicts = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        log_amp = 2.0 * rng.uniform(0.0, 2.0) * np.log(np.arange(1.0, n + 1))
        log_amp += rng.choice([0.0, 0.01, 0.3]) * rng.standard_normal(n)
        if rng.random() < 0.3:
            p = int(rng.integers(0, n))
            log_amp[p] += rng.choice([0.3, 0.6, 1.2, 2.0]) * _LOG_TOL * max(1.0, abs(log_amp[p]))
        if rng.random() < 0.1:
            log_amp[0] = -0.5
        if rng.random() < 0.1:
            log_amp *= 1e5
        op = OperatorSequence(np.ones(n), -log_amp)
        got = _submultiplicative(op)
        assert got == _gather_submultiplicative(op)
        verdicts.append(got[0])
    assert 30 < sum(verdicts) < 270  # both verdicts occur


def _whole_array_report(theta, prior, op, eps_grid):
    """``(d, c_lambda, l_lambda, bias profile)`` by the whole-array
    formulas, each full-length intermediate built at once."""
    n = op.n
    log_amp = -op.log_sq
    if n == 1:
        c_lambda = 1.0
    else:
        suffix_max = np.maximum.accumulate(op.log_sq[::-1])[::-1]
        prefix_min = np.minimum.accumulate(op.log_sq)
        c_lambda = max(1.0, float(np.exp(np.max(suffix_max[1:] - prefix_min[:-1]))))
    log_mean = np.logaddexp.accumulate(log_amp) - np.log(np.arange(1, n + 1))
    l_lambda = max(1.0, float(np.exp(np.max(np.maximum.accumulate(log_amp) - log_mean))))
    d = np.inf
    for eps in eps_grid:
        j = np.nonzero(~prior.improper[: max_dimension(op, eps)])[0]
        if j.size:
            floor = np.maximum(np.exp(0.5 * (math.log(eps) + log_amp[j])), np.exp(math.log(eps) + log_amp[j]))
            d = min(d, float(np.min(prior.variances[j] / floor)))
    diffs = (theta.values - prior.means) ** 2
    suffix = np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]])
    return d, c_lambda, l_lambda, suffix[1:] + theta.sq_tail()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    block=st.sampled_from([1, 7, 64]),
    seed=st.integers(0, 2**32 - 1),
    wiggle=st.sampled_from([0.0, 0.01, 0.3, 3.0]),
)
def test_blocked_scans_equal_whole_array_formulas(n, block, seed, wiggle):
    """Every blocked set-up scan, with ``_BLOCK`` patched down to a few
    elements so its edges fall all over the sequence, gives bit for bit
    what the whole-array formulas give: the operator constants, the
    submultiplicativity verdict and witness, the variance floor ``d``, the
    bias profile and the whole assumption report.  The amplification
    grows, falls (so the extremes the operator constant pairs lie blocks
    apart) or wiggles."""
    rng = np.random.default_rng(seed)
    log_amp = 2.0 * rng.uniform(-1.0, 2.0) * np.log(np.arange(1.0, n + 1))
    log_amp += wiggle * rng.standard_normal(n)
    op = OperatorSequence(np.exp(-0.5 * log_amp), -log_amp)
    theta = make_parameters("polynomial", n, exponent=rng.uniform(0.6, 2.0), scale=rng.uniform(0.1, 2.0))
    improper = rng.random(n) < 0.5
    prior = PriorSpec.mixed(np.where(improper, 0.0, rng.normal(scale=0.3, size=n)), rng.uniform(0.1, 3.0, n), improper)
    eps_grid = (0.3, 0.01, 1e-3)

    whole = check_assumptions(theta, prior, op, eps_grid)
    with mock.patch.object(sequences, "_BLOCK", block):
        blocked = check_assumptions(theta, prior, op, eps_grid)
        profile = bias_profile(theta, prior)
        constant = _operator_constant(op)
        verdict = _submultiplicative(op)

    d, c_lambda, l_lambda, want_profile = _whole_array_report(theta, prior, op, eps_grid)
    assert verdict == _gather_submultiplicative(op)
    assert constant == blocked.c_lambda == c_lambda
    assert blocked.l_lambda == l_lambda
    assert blocked.d == d
    assert np.array_equal(profile, want_profile)
    for field in ("d", "c_lambda", "l_lambda", "submultiplicative", "submult_witness", "kappa_oracle",
                  "kappa_minimax", "checked_range"):
        assert getattr(blocked, field) == getattr(whole, field), field
    for field in ("max_dims", "oracle_dims", "oracle_rates", "feasible"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field


def _whole_array_bracket(bias, op, report, sel, inflate, c_lambda):
    """``(m_lo, m_hi)`` with ``m_lo`` the first crossing of the whole bias
    profile below its threshold; None where the bracket is infeasible."""
    m_max = max_dimension(op, sel.eps)
    lo_threshold = 8.0 * report.l_lambda * c_lambda * (1.0 + 1.0 / report.d) * inflate * sel.rate
    crossing = np.nonzero(bias[: sel.dimension] <= lo_threshold * (1.0 + _LOG_TOL))[0]
    if sel.dimension > m_max or crossing.size == 0:
        return None
    hi = 5.0 * report.l_lambda * inflate * sel.rate / (sel.eps * op.max_amplification(sel.dimension))
    return int(crossing[0]) + 1, max(min(m_max, int(math.floor(hi + _LOG_TOL))), sel.dimension)


@st.composite
def plateau_problems(draw):
    """A small problem, the whole-array class weights and a noise grid.
    The truth equals the prior mean from a drawn index on, so the bias
    profile is flat there, at 0 or at the analytic tail, across block edges
    wherever they fall.  The amplification is unit (every variance proxy a
    multiple of eps, so rates tie) or drawn; the class is explicit with
    flat runs, polynomial or exponential; one noise level is drawn to tie
    the two terms of the rate at a drawn index."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        op = make_operator("constant", n)
    else:
        log_amp = 2.0 * rng.uniform(0.0, 2.0) * np.log(np.arange(1.0, n + 1)) + 0.3 * rng.standard_normal(n)
        op = OperatorSequence(np.exp(-0.5 * log_amp), -log_amp)
    means = rng.choice([0.0, 0.25, -0.5], size=n)
    prior = PriorSpec.gaussian(means, rng.uniform(0.5, 2.0, n))
    offsets = rng.choice([0.0, 0.125, 0.5, -0.25, 1.0], size=n)
    offsets[draw(st.integers(0, n)):] = 0.0
    family = draw(st.sampled_from(["explicit", "polynomial"]))
    theta = ParameterSequence(means + offsets, family, *((1.2, 0.3) if family == "polynomial" else ()))
    radius = draw(st.sampled_from([0.0, 0.5, 4.0]))
    j = np.arange(1, n + 1, dtype=np.float64)
    weights_family = draw(st.sampled_from(["explicit", "polynomial", "exponential"]))
    if weights_family == "explicit":
        weights = np.minimum.accumulate(np.concatenate([[1.0], rng.choice([1.0, 0.5, 0.25, 0.125], n - 1)]))
        wclass = make_weights("explicit", n, values=weights, radius=radius)
    else:
        p = draw(st.floats(0.1, 0.5))
        weights = j ** (-2.0 * p) if weights_family == "polynomial" else np.exp(1.0 - j ** (2.0 * p))
        wclass = make_weights(weights_family, n, exponent=p, radius=radius)
    grid = draw(st.lists(_log_uniform(-6.0, -0.3), min_size=1, max_size=3, unique=True))
    tie = draw(st.integers(0, n - 1))
    bias = theta.sq_tail() + np.sum((theta.values[tie + 1 :] - means[tie + 1 :]) ** 2)
    eps = bias / float(np.sum(np.exp(-op.log_sq[: tie + 1])))
    if 0.0 < eps < 1.0 and eps not in grid:
        grid.append(float(eps))
    return theta, prior, op, wclass, weights, grid


@settings(max_examples=150, deadline=None)
@given(problem=plateau_problems(), block=st.sampled_from([1, 7, 64]), c_lambda=st.sampled_from([None, 1.0, 50.0]))
def test_selections_and_brackets_equal_whole_array_references(problem, block, c_lambda):
    """With ``_BLOCK`` patched to a few elements, every oracle and minimax
    selection (public, in the report, and on one shared set of profiles),
    every bracket and the variance proxy and bias of ``risk_decomposition``
    are bit for bit what the whole arrays give: the first ``argmin`` of
    ``max(profile, eps cumsum(amp))``, the first crossing of the bias
    profile below the bracket threshold, and the cumsum and sum at ``m``."""
    theta, prior, op, wclass, weights, grid = problem
    n = theta.n
    sq = (theta.values - prior.means) ** 2
    bias = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])[1:] + theta.sq_tail()
    prefix = np.cumsum(np.exp(-op.log_sq))
    with mock.patch.object(sequences, "_BLOCK", block):
        assert np.array_equal(wclass.weights, weights)
        report = check_assumptions(theta, prior, op, grid, weighted_class=wclass)
        shared = _profiles(theta, prior, op, wclass)
        c_used = report.c_lambda if c_lambda is None else c_lambda
        for i, eps in enumerate(report.eps_grid):
            eps = float(eps)
            for kind, profile, public, column in (
                ("oracle", bias, oracle_dimension(theta, prior, op, eps), (report.oracle_dims, report.oracle_rates)),
                ("minimax", weights, minimax_dimension(wclass, op, eps), (report.minimax_dims, report.minimax_rates)),
            ):
                rates = np.maximum(profile, eps * prefix)
                want = (int(np.argmin(rates)) + 1, float(np.min(rates)))
                sel = shared.select(kind, eps)[0]
                assert (public.dimension, public.rate) == (sel.dimension, sel.rate) == want
                assert (column[0][i], column[1][i]) == want
                inflate = 1.0 if kind == "oracle" else max(1.0, wclass.radius)
                try:
                    got = bracket_dimensions(theta, prior, op, report, sel, weighted_class=wclass, c_lambda=c_lambda)
                except InfeasibleError:
                    got = None
                assert got == _whole_array_bracket(bias, op, report, sel, inflate, c_used)
            for m in sorted({1, (n + 1) // 2, n, min(n, block), min(n, block + 1)}):
                dec = risk_decomposition(theta, prior, op, eps, m)
                assert dec.variance_proxy == float(eps * prefix[m - 1])
                assert dec.bias == float(np.sum(sq[m:])) + theta.sq_tail()


def test_selections_leave_no_state_on_the_sequences():
    """The assumption report, both selections, both brackets, the risk
    decomposition and the bias profile add no attribute to the truth, the
    prior, the operator or the class, explicit or of a formula; the one
    exception is the operator's cached amplification cummax."""
    n = 3000
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.flat(n)
    formula = make_weights("polynomial", n, exponent=1.0, radius=2.0)
    explicit = make_weights("explicit", n, values=formula.weights, radius=2.0)
    for wclass in (formula, explicit):
        seqs = (theta, prior, op, wclass)
        before = [set(vars(x)) for x in seqs]
        with mock.patch.object(sequences, "_BLOCK", 64):
            report = check_assumptions(theta, prior, op, (1e-2, 1e-4), weighted_class=wclass)
            for sel in (oracle_dimension(theta, prior, op, 1e-3), minimax_dimension(wclass, op, 1e-3)):
                bracket_dimensions(theta, prior, op, report, sel, weighted_class=wclass)
            risk_decomposition(theta, prior, op, 1e-3, 100)
            bias_profile(theta, prior)
        gained = [set(vars(x)) - keys for x, keys in zip(seqs, before)]
        assert gained[0] == gained[1] == gained[3] == set() and gained[2] <= {"_log_amp_cummax"}


def test_submultiplicative_witness_past_a_block_edge():
    """A failing pair whose ``l`` lies in the second block of its ``k``'s
    scan is found there, and it is the first failing pair."""
    n, block = 150, 7
    log_amp = np.zeros(n)
    log_amp[26:] = 1.0  # max-amp jumps at 27: first fails at k = 2, l = 14
    op = OperatorSequence(np.exp(-0.5 * log_amp), -log_amp)
    with mock.patch.object(sequences, "_BLOCK", block):
        verdict = _submultiplicative(op)
    assert verdict == _gather_submultiplicative(op) == (False, (2, 14))
    k, l = verdict[1]
    assert l - 1 >= (k - 1) + block  # the l scan starts at k - 1: this is past its first block edge


def test_checker_certifies_unit_decay_polynomial():
    """The canonical smooth design: severity constant 1, regular variation
    within 3, submultiplicative across the whole checked range."""
    n = 10**6
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.flat(n)
    w = make_weights("polynomial", n, exponent=1.0, radius=1.0)
    report = check_assumptions(theta, prior, op, (1e-2, 1e-4), weighted_class=w)
    assert report.c_lambda == pytest.approx(1.0)
    assert report.l_lambda <= 3.0
    assert report.submultiplicative and report.submult_witness is None
    assert report.checked_range == n  # factor pairs verified up to k*l = n
    assert math.isinf(report.d)
    assert report.kappa_oracle is not None and 0.0 < report.kappa_oracle <= 1.0
    assert report.kappa_minimax is not None and 0.0 < report.kappa_minimax <= 1.0


def test_checker_finds_submultiplicativity_violation():
    op = make_operator("exponential", 200, decay=0.5)
    theta = make_parameters("exponential", 200, exponent=0.5)
    prior = PriorSpec.flat(200)
    report = check_assumptions(theta, prior, op, (0.1,))
    assert not report.submultiplicative
    k, l = report.submult_witness
    # the witness really is a counterexample for the certified constant:
    # max-amp(k*l) > C * max-amp(k) * max-amp(l) in log space
    lhs = op.log_amplification[: k * l].max()
    rhs = (
        math.log(report.c_lambda)
        + op.log_amplification[:k].max()
        + op.log_amplification[:l].max()
    )
    assert lhs > rhs


def test_kappa_is_the_two_term_balance():
    n = 200
    op = make_operator("constant", n)
    theta = make_parameters("polynomial", n, exponent=1.0, scale=1.0)
    prior = PriorSpec.flat(n)
    eps = 0.01
    report = check_assumptions(theta, prior, op, (eps,))
    sel = oracle_dimension(theta, prior, op, eps)
    bias = bias_profile(theta, prior)[sel.dimension - 1]
    var = eps * sel.dimension
    assert report.kappa_oracle == pytest.approx(min(bias, var) / max(bias, var))


def test_proper_prior_floor_d():
    n = 50
    op = make_operator("constant", n)
    theta = make_parameters("polynomial", n, exponent=1.0)
    eps = 0.01
    # envelope at the constant design is max(sqrt(eps), eps) = 0.1 everywhere
    prior = PriorSpec.gaussian(np.zeros(n), np.full(n, 0.25))
    report = check_assumptions(theta, prior, op, (eps,))
    assert report.d == pytest.approx(0.25 / 0.1, rel=1e-9)


def test_brackets_contain_selected_dimension():
    n = 10**4
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.flat(n)
    report = check_assumptions(theta, prior, op, (1e-3,))
    sel = oracle_dimension(theta, prior, op, 1e-3)
    m_lo, m_hi = bracket_dimensions(theta, prior, op, report, sel)
    assert 1 <= m_lo <= sel.dimension <= m_hi <= max_dimension(op, 1e-3)
    # a larger dimension-prior constant can only widen the lower side
    lo2, hi2 = bracket_dimensions(theta, prior, op, report, sel, c_lambda=4.0)
    assert lo2 <= m_lo and hi2 == m_hi


def test_bracket_infeasible_when_selection_exceeds_range():
    op = make_operator("exponential", 50, decay=0.5)
    theta = make_parameters("polynomial", 50, exponent=0.6, scale=1.0)
    prior = PriorSpec.flat(50)
    report = check_assumptions(theta, prior, op, (0.5,))
    with pytest.raises(InfeasibleError):
        bracket_dimensions(theta, prior, op, report, oracle_dimension(theta, prior, op, 0.5))


def test_composite_constants_assembly():
    """Recompute every composite from the report fields by hand, in the
    code's order of operations, so each is equal to the last bit."""
    n = 10**5
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.flat(n)
    w = make_weights("polynomial", n, exponent=1.0, radius=2.0)
    grid = (1e-2, 1e-3)
    report = check_assumptions(theta, prior, op, grid, weighted_class=w)
    out = composite_constants(report, theta, prior, op, weighted_class=w)

    L, C = report.l_lambda, report.c_lambda
    sup_or = max(
        e * m * op.max_amplification(int(m)) / r
        for e, m, r in zip(report.eps_grid, report.oracle_dims, report.oracle_rates)
    )
    assert out["oracle_sieve"] == 10.0 * sup_or

    d1 = math.ceil(5.0 * L / report.kappa_oracle)
    assert out["oracle_hierarchical"] == 10.0 * L**2 * max(8.0 * C, d1 * op.max_amplification(d1))
    assert out["oracle_adaptive_mise"] == 2.0 * L * d1 * op.max_amplification(d1) + 16.0 * L * C

    r = 2.0
    sup_mm = max(
        e * m * op.max_amplification(int(m)) / rate
        for e, m, rate in zip(report.eps_grid, report.minimax_dims, report.minimax_rates)
    )
    assert out["minimax_sieve"] == 10.0 * r * sup_mm / report.kappa_minimax
    d2 = math.ceil(5.0 * L / report.kappa_minimax)
    assert out["minimax_hierarchical"] == 16.0 * L**2 * max(8.0 * C, d2 * op.max_amplification(d2)) * r
    d3 = math.ceil(5.0 * L * r / report.kappa_minimax)
    assert out["minimax_adaptive_mise"] == 2.0 * L * d3 * op.max_amplification(d3) + 16.0 * L * C * r

    # overriding the dimension-prior constant rescales only the C entries
    out2 = composite_constants(report, theta, prior, op, weighted_class=w, c_lambda=3.0)
    assert out2["oracle_sieve"] == out["oracle_sieve"]
    assert out2["oracle_adaptive_mise"] == 2.0 * L * d1 * op.max_amplification(d1) + 16.0 * L * 3.0


def test_matched_prior_zero_balance_saturates_threshold():
    """A signal equal to the prior mean has zero bias at every cut, so the
    balance constant degenerates to zero and the threshold dimensions inside
    the composites saturate at the full sequence length.  A bias of 1e-320
    leaves a balance so small that ``5 L / kappa`` is infinite; the
    thresholds saturate the same way."""
    n = 4
    op = make_operator("constant", n)
    prior = PriorSpec.flat(n)
    for last in (0.0, 1e-160):
        theta = make_parameters("explicit", n, values=np.array([0.0, 0.0, 0.0, last]))
        report = check_assumptions(theta, prior, op, (0.1,))
        assert report.kappa_oracle < 1e-300 and (report.kappa_oracle == 0.0) == (last == 0.0)
        assert list(report.oracle_dims) == [1]  # variance-only argmin

        out = composite_constants(report, theta, prior, op)
        # Unit amplification everywhere: L = C = 1 and the oracle supremum is
        # eps * 1 * 1 / eps = 1, so by hand:
        #   sieve        = 10 * max(1 + 0, 0) * 1                    = 10
        #   hierarchical = 10 * 1 * max(8 * 1 * 1, D1 * 1), D1 = n   = 80
        #   adaptive     = 2 * 1 * D1 * 1 + 16 * 1 * 1 * 1 + 0       = 24
        assert out["oracle_sieve"] == pytest.approx(10.0, rel=1e-12)
        assert out["oracle_hierarchical"] == pytest.approx(80.0, rel=1e-12)
        assert out["oracle_adaptive_mise"] == pytest.approx(24.0, rel=1e-12)


def _reference_constants(report, theta, prior, op, weighted_class=None, c_lambda=None):
    """The composite constants written out one branch per selection, oracle
    then minimax, each constant a formula of its own: the reference
    ``composite_constants`` is held to bit for bit."""

    def clamped_ceil(x, n):
        return max(1, int(math.ceil(min(x, n) - _LOG_TOL)))

    d = report.d
    if d**2 == 0.0:
        raise OverflowError(f"1/d^2 is past the double range at the margin constant d={d}")
    inv_d = 0.0 if math.isinf(d) else 1.0 / d
    shift = shift_sq_norm(theta, prior)
    shift_term = 0.0 if math.isinf(d) else shift / d**2
    big_l = report.l_lambda
    big_c = report.c_lambda if c_lambda is None else c_lambda
    eps = report.eps_grid

    sup_oracle = float(
        np.max(
            [
                e * m * op.max_amplification(int(m)) / rate
                for e, m, rate in zip(eps, report.oracle_dims, report.oracle_rates)
            ]
        )
    )
    out = {}
    out["oracle_sieve"] = 10.0 * max(1.0 + inv_d, shift_term) * sup_oracle
    kappa_or = report.kappa_oracle
    d1 = op.n if kappa_or == 0.0 else clamped_ceil(5.0 * big_l / kappa_or, op.n)
    out["oracle_hierarchical"] = (
        10.0
        * max(1.0 + inv_d, shift_term)
        * big_l**2
        * max(8.0 * big_c * (1.0 + inv_d), d1 * op.max_amplification(d1))
    )
    out["oracle_adaptive_mise"] = (
        2.0 * big_l * d1 * op.max_amplification(d1)
        + 16.0 * big_l * big_c * (1.0 + inv_d)
        + 2.0 * shift_term
    )
    if weighted_class is not None:
        r = weighted_class.radius
        r_term = 0.0 if math.isinf(d) else r / d**2
        r_or_one = max(1.0, r)
        kappa_mm = report.kappa_minimax
        sup_mm = float(
            np.max(
                [
                    e * m * op.max_amplification(int(m)) / rate
                    for e, m, rate in zip(eps, report.minimax_dims, report.minimax_rates)
                ]
            )
        )
        out["minimax_sieve"] = 10.0 * max(1.0 + inv_d, r_term) * r_or_one * sup_mm / kappa_mm
        d2 = clamped_ceil(5.0 * big_l / kappa_mm, op.n)
        out["minimax_hierarchical"] = (
            16.0
            * max(1.0 + inv_d, r_term)
            * big_l**2
            * max(8.0 * big_c * (1.0 + inv_d), d2 * op.max_amplification(d2))
            * r_or_one
        )
        d3 = clamped_ceil(5.0 * big_l * r_or_one / kappa_mm, op.n)
        out["minimax_adaptive_mise"] = (
            2.0 * big_l * d3 * op.max_amplification(d3)
            + 16.0 * big_l * big_c * (1.0 + inv_d) * r_or_one
            + 2.0 * r_term
        )
    return out


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


@st.composite
def composite_problems(draw):
    """A small problem of every family, prior and class kind, its assumption
    report with the margin constant ``d`` optionally replaced (finite, past
    the range where ``d**2`` is finite, or infinite) and the oracle balance
    optionally zero, and a dimension-prior override or none."""
    n = draw(st.integers(1, 40))
    family = draw(st.sampled_from(["polynomial", "exponential", "constant"]))
    decay = {"polynomial": st.floats(0.1, 1.0), "exponential": st.floats(0.1, 0.5), "constant": st.none()}[family]
    op = make_operator(family, n, decay=draw(decay))  # e^{1 - 40^{2 decay}} stays above the double range's floor
    theta = make_parameters(draw(st.sampled_from(["polynomial", "exponential"])), n,
                            exponent=draw(st.floats(0.6, 2.0)), scale=draw(_log_uniform(-3.0, 1.0)))
    prior_kind = draw(st.sampled_from(["flat", "gaussian", "mixed"]))
    if prior_kind == "flat":
        prior = PriorSpec.flat(n)
    else:
        means = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        variances = np.array(draw(st.lists(_log_uniform(-4.0, 4.0), min_size=n, max_size=n)))
        if prior_kind == "gaussian":
            prior = PriorSpec.gaussian(means, variances)
        else:
            improper = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            prior = PriorSpec.mixed(np.where(improper, 0.0, means), variances, improper)
    wclass = None
    if draw(st.booleans()):
        wclass = make_weights(draw(st.sampled_from(["polynomial", "exponential"])), n,
                              exponent=draw(st.floats(0.1, 0.5)), radius=draw(st.floats(0.0, 10.0)))
    grid = draw(st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=3, unique=True))
    report = check_assumptions(theta, prior, op, grid, weighted_class=wclass)
    d = draw(st.sampled_from(["report", "finite", "inf"]))
    if d != "report":
        report = dataclasses.replace(report, d=math.inf if d == "inf" else draw(_log_uniform(-170.0, 170.0)))
    if draw(st.booleans()):
        report = dataclasses.replace(report, kappa_oracle=0.0)
    c_lambda = draw(st.none() | st.floats(1.0, 100.0))
    return report, theta, prior, op, wclass, c_lambda


def _large_margin_problem():
    """A Gaussian prior of variance 1e160, whose margin constant d squares
    past the double range, with a class."""
    n = 50
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.6, scale=0.4)
    prior = PriorSpec.gaussian(np.zeros(n), np.full(n, 1e160))
    wclass = make_weights("polynomial", n, exponent=1.0, radius=2.0)
    return check_assumptions(theta, prior, op, (1e-2,), weighted_class=wclass), theta, prior, op, wclass, None


@settings(max_examples=300, deadline=None)
@given(problem=composite_problems())
@example(problem=_large_margin_problem())
def test_composite_constants_equal_the_two_branch_formulas(problem):
    """``composite_constants`` gives every key of the reference, in its
    order, equal with ``==``: the factors and divisors of 1 in the oracle row
    change no bit.  Where ``d**2`` is past the double range the reference
    raises; there ``1/d`` and ``N/d/d`` vanish next to 1, so the constants
    are the reference's at ``d = inf``, bit for bit."""
    report, theta, prior, op, wclass, c_lambda = problem

    def constants(formulas, report):
        return formulas(report, theta, prior, op, weighted_class=wclass, c_lambda=c_lambda)

    try:
        want = constants(_reference_constants, report)
    except OverflowError as err:
        if "Numerical result out of range" in str(err):  # the reference's d**2
            want = constants(_reference_constants, dataclasses.replace(report, d=math.inf))
        else:
            with pytest.raises(OverflowError):
                constants(composite_constants, report)
            return
    got = constants(composite_constants, report)
    assert list(got) == list(want)
    assert got == want


def test_shift_norm_includes_tail():
    theta = make_parameters("polynomial", 100, exponent=1.0, scale=1.0)
    prior = PriorSpec.flat(100)
    got = shift_sq_norm(theta, prior)
    assert got == pytest.approx(float(np.sum(theta.values**2)) + theta.sq_tail(), rel=1e-12)


def test_eps_grid_validation():
    op = make_operator("constant", 10)
    theta = make_parameters("explicit", 10, values=np.zeros(10))
    prior = PriorSpec.flat(10)
    with pytest.raises(ValueError):
        check_assumptions(theta, prior, op, (0.1, 1.0))
    with pytest.raises(ValueError):
        oracle_dimension(theta, prior, op, 0.0)
