"""Hierarchical dimension prior/posterior and the data-driven estimator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from igssm import (
    DimensionDistribution,
    ImproperPriorError,
    PriorSpec,
    adaptive_estimate,
    coordinate_posterior,
    dimension_posterior,
    dimension_prior,
    make_operator,
    make_parameters,
    max_dimension,
    sample_hierarchical_posterior,
    sieve_posterior_mean,
    simulate_observation,
)
from igssm.hierarchy import (
    _CHUNK,
    _MASS_MARGIN,
    _chunk_maxima,
    _log_weights,
    _masses,
    _normalise,
    _shrink,
    _Terms,
)


def make_problem(n, eps, seed, proper=True):
    op = make_operator("polynomial", n, decay=0.7)
    theta = make_parameters("polynomial", n, exponent=1.1, scale=1.5)
    if proper:
        rng = np.random.default_rng(seed + 1000)
        prior = PriorSpec.gaussian(rng.normal(scale=0.2, size=n), rng.uniform(0.2, 2.0, n))
    else:
        prior = PriorSpec.flat(n)
    obs = simulate_observation(theta, op, eps, seed=seed)
    summary = coordinate_posterior(prior, op, obs)
    return op, theta, prior, obs, summary


def test_posterior_weights_match_marginal_likelihood_enumeration():
    """Referee: p(m | Y) from the model marginals, no contrast identity.

    Under the sieve prior of dimension m the observation marginals are
    independent normals — N(lam mu, lam^2 v + eps) up to m, N(lam mu, eps)
    beyond — so Bayes' rule over m can be evaluated directly from logpdfs.
    """
    eps, c = 0.05, 1.25
    op, theta, prior, obs, summary = make_problem(40, eps, seed=21)
    m_top = max_dimension(op, eps)
    lam, mu, v, y = op.values, prior.means, prior.variances, obs.values

    log_marg = np.empty(m_top)
    for m in range(1, m_top + 1):
        wide = norm.logpdf(y[:m], lam[:m] * mu[:m], np.sqrt(lam[:m] ** 2 * v[:m] + eps))
        tight = norm.logpdf(y[m:], lam[m:] * mu[m:], np.sqrt(eps))
        sigma = eps * v[:m] / (v[:m] * lam[:m] ** 2 + eps)
        log_prior = -1.5 * c * m + 0.5 * float(np.sum(np.log(v[:m] / sigma)))
        log_marg[m - 1] = log_prior + float(np.sum(wide)) + float(np.sum(tight))
    ref = np.exp(log_marg - log_marg.max())
    ref /= ref.sum()

    dist = dimension_posterior(summary, prior, op, eps, c)
    np.testing.assert_allclose(dist.probs, ref, atol=1e-12)


def test_improper_posterior_uses_data_contrast():
    eps, c = 0.01, 1.0
    op, theta, prior, obs, summary = make_problem(60, eps, seed=3, proper=False)
    m_top = max_dimension(op, eps)
    dims = np.arange(1, m_top + 1)
    lw = 0.5 * np.cumsum(obs.values[:m_top] ** 2) / eps - 1.5 * c * dims
    ref = np.exp(lw - lw.max())
    ref /= ref.sum()
    dist = dimension_posterior(summary, prior, op, eps, c)
    np.testing.assert_allclose(dist.probs, ref, atol=1e-13)
    np.testing.assert_allclose(dist.log_weights, lw, rtol=1e-12)


def test_prior_is_undefined_under_improper_coordinates():
    op, theta, prior, obs, summary = make_problem(30, 0.05, seed=5, proper=False)
    with pytest.raises(ImproperPriorError):
        dimension_prior(prior, op, 0.05, 1.0)
    # the posterior still exists
    dimension_posterior(summary, prior, op, 0.05, 1.0)


def test_prior_matches_direct_product():
    eps, c = 0.06, 1.5
    op, theta, prior, obs, summary = make_problem(25, eps, seed=9)
    m_top = max_dimension(op, eps)
    sigma = eps * prior.variances / (prior.variances * op.values**2 + eps)
    ratios = prior.variances[:m_top] / sigma[:m_top]
    probs = np.array(
        [np.exp(-1.5 * c * m) * np.sqrt(np.prod(ratios[:m])) for m in range(1, m_top + 1)]
    )
    probs /= probs.sum()
    dist = dimension_prior(prior, op, eps, c)
    np.testing.assert_allclose(dist.probs, probs, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2 * _CHUNK + 3),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    shift=st.integers(-(10**6), 10**6),
)
@example(n=3, rows=1, seed=0, shift=700)
@example(n=_CHUNK + 5, rows=3, seed=1, shift=-700)  # rows ending at 3637, 429 and 2757
def test_log_weight_shift_invariance(n, rows, seed, shift):
    """Log-weights on a dyadic grid, shifted by an integer, are shifted
    exactly, so the masses must not move by a bit: from
    ``from_log_weights`` row by row, and from ``_masses`` on all rows at
    once, whose log-weights ``0.5 * cumsum(post_mean^2) - penalty`` differ
    by row through sparse integer posterior means."""
    rng = np.random.default_rng(seed)
    # a penalty growing by 2 a step on average, and rare contrast jumps of up
    # to 1800: most rows end at different dimensions, some before n
    penalty = np.cumsum(rng.integers(0, 64, n)) / 16.0
    post_mean = rng.integers(0, 60, (rows, n)) * (rng.random((rows, n)) < 0.002)
    want = 0.5 * np.cumsum(post_mean**2, axis=1) - penalty
    masses = []
    for s in (0, shift):
        lw, out = np.empty((2, rows, n))
        end = _masses(_Terms(None, 1.0, penalty - s), post_mean, np.empty((rows, n)), lw, out)
        assert np.array_equal(lw, want + s)
        probs = [DimensionDistribution.from_log_weights(row, "posterior").probs for row in lw]
        assert np.array_equal(out, np.array(probs))
        assert end == max(np.flatnonzero(row - np.max(row) > -_MASS_MARGIN)[-1] + 1 for row in lw)
        assert not np.any(out[:, end:])
        masses.append(out)
    assert np.array_equal(masses[0], masses[1])
    np.testing.assert_allclose(masses[0].sum(axis=1), 1.0, rtol=0, atol=1e-14)


def _assert_mass_end(lw, mass_end):
    """``mass_end`` is one past the last entry with ``lw - max >
    -_MASS_MARGIN``; ``_normalise`` finds it from the chunk maxima, and it
    and ``from_log_weights`` return the full-range masses ``exp(lw - max) /
    sum`` bit for bit, zero from ``mass_end`` on, and ``_shrink`` the
    full-range ``omega``.  All of this holds for ``lw`` alone and as the
    first of two or three rows, beside a row whose mass ends at 1 and one
    whose mass spans the whole range, where ``_normalise`` returns the
    largest of the rows' mass ends, so the rows are exponentiated past
    ``lw``'s own mass end."""
    assert mass_end == np.flatnonzero(lw - np.max(lw) > -_MASS_MARGIN)[-1] + 1
    n = lw.size
    rows = np.stack([lw, np.full(n, -1e6), np.linspace(3.0, -790.0, n)])
    rows[1, 0] = 0.0
    for k in (1, 2, 3):
        block = rows[:k]
        out = np.empty_like(block)
        end = _normalise(block, _chunk_maxima(block), out)
        assert end == max([mass_end, 1, n][:k])
        omega = np.zeros_like(block)
        _shrink(out, end, np.ones_like(block), np.zeros(n), omega, np.empty_like(block))
        for row, probs, weights in zip(block, out, omega):
            w = np.exp(row - np.max(row))
            want = w / w.sum()
            assert np.array_equal(probs, want)
            assert np.array_equal(weights, np.clip(np.cumsum(want[::-1])[::-1], 0.0, 1.0))
        assert not np.any(out[0, mass_end:])
    w = np.exp(lw - np.max(lw))
    assert np.array_equal(DimensionDistribution.from_log_weights(lw, "posterior").probs, w / w.sum())


def test_mass_end_is_the_last_entry_above_the_cut_off():
    """Log-weights are not monotone: an isolated entry above the cut-off far
    past a -2000 gap still carries mass and sets the mass end, wherever it
    sits among the chunks the search splits the range into, and also when
    it ties with the maximum."""
    cases = [
        (1000, 600),
        (_CHUNK - 1, _CHUNK - 2),  # last entry of a short single chunk
        (_CHUNK, _CHUNK - 1),  # last entry of the only full chunk
        (_CHUNK + 1, _CHUNK),  # alone in a one-entry last chunk
        (_CHUNK + 1, _CHUNK - 1),  # last of the first chunk, nothing after it
        (2 * _CHUNK - 1, _CHUNK),  # first entry of a short last chunk
        (3 * _CHUNK, 2 * _CHUNK - 1),  # on a boundary, a full chunk after it
        (3 * _CHUNK + 7, 3 * _CHUNK + 3),  # inside a short last chunk
    ]
    for n, survivor in cases:
        for value in (-700.0, 0.0):
            lw = np.full(n, -2000.0)
            lw[:3] = [0.0, -1.0, -2.5]
            lw[survivor] = value
            _assert_mass_end(lw, survivor + 1)
            assert DimensionDistribution.from_log_weights(lw, "posterior").probs[survivor] > 0.0


def test_subnormal_masses_stay_inside_the_mass_end():
    lw = np.full(50, -1e4)
    lw[0] = 5.0
    lw[[10, 20]] = 5.0 - 740.0, 5.0 - 745.0  # exp: 4.2e-322 and 4.9e-324
    assert 0.0 < np.exp(-745.0) < np.finfo(np.float64).tiny
    _assert_mass_end(lw, 21)


def test_mass_end_spans_the_whole_range():
    for n in (1, 200, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK):
        _assert_mass_end(np.linspace(3.0, -790.0, n), n)


def test_mass_end_of_a_single_dimension():
    for n in (4, _CHUNK + 1, 2 * _CHUNK):
        lw = np.full(n, -1e6)
        lw[:3] = [0.0, -900.0, -_MASS_MARGIN]  # the cut-off itself is outside
        lw[-1] = -_MASS_MARGIN  # also in the last chunk
        _assert_mass_end(lw, 1)
        probs = DimensionDistribution.from_log_weights(lw, "posterior").probs
        assert probs[0] == 1.0 and not np.any(probs[1:])


@given(st.floats(max_value=-_MASS_MARGIN, allow_nan=False))
@example(-_MASS_MARGIN)
def test_exp_is_exactly_zero_below_the_margin(x):
    """The mass end rests on ``np.exp`` returning exactly 0.0 at and below
    ``-_MASS_MARGIN`` on the installed numpy (on a vector, as the kernel
    calls it)."""
    assert not np.any(np.exp(np.full(64, x)))


def test_row_cores_give_each_row_alone():
    """Each row's log-weights and chunk maxima are what the row gives alone,
    for zero and non-zero means and scalar and vector variances."""
    rng = np.random.default_rng(0)
    rows, n = 3, 2 * _CHUNK + 5
    post_mean = rng.normal(size=(rows, n))
    penalty = 1.5 * np.arange(1, n + 1, dtype=np.float64)
    for means, post_var in ((None, 0.3), (rng.normal(size=n), rng.uniform(0.1, 1.0, n))):
        got = _log_weights(post_mean, _Terms(means, post_var, penalty), np.empty((rows, n)), np.empty((rows, n)))
        contrast = (post_mean - (0.0 if means is None else means)) ** 2 / post_var
        maxima = _chunk_maxima(got)
        assert maxima.shape == (rows, 3)
        for i in range(rows):
            assert np.array_equal(got[i], 0.5 * np.cumsum(contrast[i]) - penalty)
            assert maxima[i].tolist() == [got[i, j : j + _CHUNK].max() for j in (0, _CHUNK, 2 * _CHUNK)]


def test_tail_mass_both_sides():
    p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    dist = DimensionDistribution(np.log(p), p, "posterior")
    assert dist.tail_mass(2, 4) == pytest.approx(0.1 + 0.15)
    assert dist.tail_mass(1, 5) == 0.0
    with pytest.raises(ValueError):
        dist.tail_mass(0, 3)


def test_omega_is_the_survival_function():
    eps, c = 0.04, 1.0
    op, theta, prior, obs, summary = make_problem(50, eps, seed=13)
    est = adaptive_estimate(summary, prior, op, eps, c)
    probs = est.dimension_posterior.probs
    ref = np.array([probs[j:].sum() for j in range(probs.size)])
    np.testing.assert_allclose(est.omega, ref, atol=1e-14)
    assert est.omega[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(est.omega) <= 1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    eps=st.floats(0.01, 0.3),
    c=st.floats(1.0, 3.0),
    kind=st.sampled_from(["proper", "flat", "mixed"]),
    seed=st.integers(0, 10**6),
)
@example(n=45, eps=0.03, c=1.0, kind="proper", seed=2)
@example(n=45, eps=0.03, c=1.0, kind="flat", seed=7)
def test_estimator_is_the_sieve_mixture(n, eps, c, kind, seed):
    """est = sum_m p(m | Y) * (posterior mean up to m, prior mean beyond),
    assembled coordinate by coordinate without the survival shortcut, for
    proper, flat and mixed priors."""
    op, theta, prior, obs, summary = make_problem(n, eps, seed, proper=kind != "flat")
    if kind == "mixed":
        improper = np.random.default_rng(seed).random(n) < 0.5
        prior = PriorSpec.mixed(np.where(improper, 0.0, prior.means), prior.variances, improper)
        summary = coordinate_posterior(prior, op, obs)
    est = adaptive_estimate(summary, prior, op, eps, c)
    probs = est.dimension_posterior.probs
    mixture = np.zeros(n)
    for m in range(1, probs.size + 1):
        mixture += probs[m - 1] * sieve_posterior_mean(m, summary, prior)
    np.testing.assert_allclose(est.values, mixture, rtol=1e-12, atol=1e-12)
    # beyond the search range the estimate is exactly the prior mean
    m_top = probs.size
    np.testing.assert_array_equal(est.values[m_top:], prior.means[m_top:])


def test_c_constant_validation():
    op, theta, prior, obs, summary = make_problem(20, 0.05, seed=4)
    with pytest.raises(ValueError):
        dimension_posterior(summary, prior, op, 0.05, 0.5)
    with pytest.raises(ValueError):
        dimension_posterior(summary, prior, op, 0.05, np.inf)


def test_hierarchical_sampler_dimension_frequencies():
    eps, c = 0.05, 1.0
    op, theta, prior, obs, summary = make_problem(40, eps, seed=17)
    dist = dimension_posterior(summary, prior, op, eps, c)
    draws, dims = sample_hierarchical_posterior(summary, prior, op, eps, c, 200_000, seed=6)
    freq = np.bincount(dims, minlength=dist.support_size + 1)[1:] / 200_000
    # total-variation distance shrinks like root-n; 0.01 is ~7 sigma here
    assert 0.5 * np.abs(freq - dist.probs).sum() < 0.01


def test_hierarchical_sampler_conditional_structure():
    eps, c = 0.05, 1.0
    op, theta, prior, obs, summary = make_problem(30, eps, seed=19)
    draws, dims = sample_hierarchical_posterior(summary, prior, op, eps, c, 500, seed=8)
    assert draws.shape == (500, 30)
    for i in (0, 123, 499):
        m = dims[i]
        np.testing.assert_array_equal(draws[i, m:], prior.means[m:])
        assert not np.allclose(draws[i, :m], prior.means[:m])
    a = sample_hierarchical_posterior(summary, prior, op, eps, c, 64, seed=8, rep=2)
    b = sample_hierarchical_posterior(summary, prior, op, eps, c, 64, seed=8, rep=2)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
