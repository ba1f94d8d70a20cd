"""Hierarchical dimension prior/posterior and the data-driven estimator."""

import numpy as np
import pytest
from hypothesis import example, given
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
from igssm.hierarchy import _MASS_MARGIN, _normalise, _shrink


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


def test_log_weight_shift_invariance():
    lw = np.array([-900.0, -901.0, -899.5])
    a = DimensionDistribution.from_log_weights(lw, "posterior")
    b = DimensionDistribution.from_log_weights(lw + 700.0, "posterior")
    c = DimensionDistribution.from_log_weights(lw - 700.0, "posterior")
    np.testing.assert_allclose(a.probs, b.probs, rtol=1e-13)
    np.testing.assert_allclose(a.probs, c.probs, rtol=1e-13)
    assert a.probs.sum() == pytest.approx(1.0, abs=1e-14)


def _assert_mass_end(lw, mass_end):
    """``_normalise`` and ``from_log_weights`` return the full-range masses
    ``exp(lw - max) / sum`` bit for bit, zero from ``mass_end`` on, and
    ``_shrink`` the full-range ``omega``."""
    w = np.exp(lw - np.max(lw))
    want = w / w.sum()
    out = np.empty_like(lw)
    assert _normalise(lw, out) == mass_end
    assert np.array_equal(out, want)
    assert not np.any(out[mass_end:])
    assert np.array_equal(DimensionDistribution.from_log_weights(lw, "posterior").probs, want)
    omega = np.zeros_like(lw)
    _shrink(out, mass_end, np.ones_like(lw), np.zeros_like(lw), omega, np.empty_like(lw))
    assert np.array_equal(omega, np.clip(np.cumsum(want[::-1])[::-1], 0.0, 1.0))


def test_mass_end_is_the_last_entry_above_the_cut_off():
    """Log-weights are not monotone: an isolated entry above the cut-off far
    past a -2000 gap still carries mass and sets the mass end."""
    lw = np.full(1000, -2000.0)
    lw[:3] = [0.0, -1.0, -2.5]
    lw[600] = -700.0
    _assert_mass_end(lw, 601)
    assert DimensionDistribution.from_log_weights(lw, "posterior").probs[600] > 0.0


def test_subnormal_masses_stay_inside_the_mass_end():
    lw = np.full(50, -1e4)
    lw[0] = 5.0
    lw[[10, 20]] = 5.0 - 740.0, 5.0 - 745.0  # exp: 4.2e-322 and 4.9e-324
    assert 0.0 < np.exp(-745.0) < np.finfo(np.float64).tiny
    _assert_mass_end(lw, 21)


def test_mass_end_spans_the_whole_range():
    _assert_mass_end(np.linspace(3.0, -790.0, 200), 200)
    _assert_mass_end(np.array([7.0]), 1)


def test_mass_end_of_a_single_dimension():
    lw = np.array([0.0, -900.0, -_MASS_MARGIN, -1e6])  # the cut-off itself is outside
    _assert_mass_end(lw, 1)
    probs = DimensionDistribution.from_log_weights(lw, "posterior").probs
    assert probs.tolist() == [1.0, 0.0, 0.0, 0.0]


@given(st.floats(max_value=-_MASS_MARGIN, allow_nan=False))
@example(-_MASS_MARGIN)
def test_exp_is_exactly_zero_below_the_margin(x):
    """The mass end rests on ``np.exp`` returning exactly 0.0 at and below
    ``-_MASS_MARGIN`` on the installed numpy (on a vector, as the kernel
    calls it)."""
    assert not np.any(np.exp(np.full(64, x)))


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


def test_estimator_is_the_sieve_mixture():
    """est = sum_m p(m | Y) * (posterior mean up to m, prior mean beyond),
    assembled coordinate by coordinate without the survival shortcut."""
    eps, c = 0.03, 1.0
    for seed, proper in ((2, True), (7, False)):
        op, theta, prior, obs, summary = make_problem(45, eps, seed=seed, proper=proper)
        est = adaptive_estimate(summary, prior, op, eps, c)
        probs = est.dimension_posterior.probs
        mixture = np.zeros(prior.n)
        for m in range(1, probs.size + 1):
            mixture += probs[m - 1] * sieve_posterior_mean(m, summary, prior)
        np.testing.assert_allclose(est.values, mixture, atol=1e-12)
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
