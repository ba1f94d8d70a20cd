"""Coordinate posteriors against a quadrature oracle, plus sieve structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from igssm import (
    PriorSpec,
    coordinate_posterior,
    log_variance_ratio,
    make_operator,
    make_parameters,
    posterior_variances,
    sample_sieve_posterior,
    sieve_posterior_mean,
    simulate_observation,
)
from igssm.montecarlo import _task
from igssm.posterior import _constant_variance


def quadrature_moments(lam, eps, mu, var, y):
    """Posterior mean/variance by numerical integration only.

    The log-density  -(y - lam t)^2 / (2 eps) - (t - mu)^2 / (2 var)  is
    scanned coarsely for its mode, then integrated by Simpson's rule on a
    window of +-12 posterior-scale units.  No conjugacy identities are used
    anywhere; this is the independent referee for the closed form.
    """
    scale = min(np.sqrt(var), np.sqrt(eps) / lam)
    coarse = np.linspace(mu - 50 * scale, mu + 50 * scale, 4001)
    log_d = -((y - lam * coarse) ** 2) / (2 * eps) - (coarse - mu) ** 2 / (2 * var)
    center = coarse[np.argmax(log_d)]
    t = np.linspace(center - 12 * scale, center + 12 * scale, 20001)
    log_d = -((y - lam * t) ** 2) / (2 * eps) - (t - mu) ** 2 / (2 * var)
    w = np.exp(log_d - log_d.max())
    z = simpson(w, x=t)
    mean = simpson(w * t, x=t) / z
    second = simpson(w * t * t, x=t) / z
    return mean, second - mean**2


def conjugacy_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = rng.uniform(0.05, 2.0)
        eps = rng.uniform(0.001, 0.9)
        mu = rng.uniform(-2.0, 2.0)
        var = rng.uniform(0.05, 5.0)
        y = lam * mu + rng.normal(scale=3.0)
        yield lam, eps, mu, var, y


@pytest.mark.parametrize("case", list(conjugacy_cases(12, seed=2024)))
def test_closed_form_matches_quadrature(case):
    lam, eps, mu, var, y = case
    op = make_operator("explicit", 1, values=np.array([lam]))
    prior = PriorSpec.gaussian(np.array([mu]), np.array([var]))
    theta = make_parameters("explicit", 1, values=np.array([0.0]))
    obs = simulate_observation(theta, op, eps, seed=1)
    obs = type(obs)(np.array([y]), eps)  # replace the draw by the case value
    summary = coordinate_posterior(prior, op, obs)
    ref_mean, ref_var = quadrature_moments(lam, eps, mu, var, y)
    assert summary.post_mean[0] == pytest.approx(ref_mean, abs=1e-8)
    assert summary.post_var[0] == pytest.approx(ref_var, abs=1e-8)


def test_improper_coordinates_are_the_projection_limit():
    n = 6
    op = make_operator("polynomial", n, decay=1.0)
    theta = make_parameters("polynomial", n, exponent=1.0)
    obs = simulate_observation(theta, op, 0.09, seed=8)
    prior = PriorSpec.flat(n)
    summary = coordinate_posterior(prior, op, obs)
    np.testing.assert_allclose(summary.post_mean, obs.values / op.values, rtol=1e-14)
    np.testing.assert_allclose(summary.post_var, 0.09 / op.values**2, rtol=1e-14)


def test_mixed_prior_splits_coordinatewise():
    mask = np.array([True, False, True, False])
    means = np.array([0.0, 1.0, 0.0, -1.0])
    variances = np.array([np.inf, 0.5, np.inf, 2.0])
    prior = PriorSpec.mixed(means, variances, mask)
    op = make_operator("explicit", 4, values=np.array([1.0, 2.0, 0.5, 1.0]))
    theta = make_parameters("explicit", 4, values=np.zeros(4))
    obs = simulate_observation(theta, op, 0.25, seed=77)
    summary = coordinate_posterior(prior, op, obs)
    y = obs.values
    # improper coordinates: plain unbiasing
    assert summary.post_mean[0] == pytest.approx(y[0] / 1.0)
    assert summary.post_mean[2] == pytest.approx(y[2] / 0.5)
    # proper coordinates: precision-weighted average
    for j, (v, lam, mu) in ((1, (0.5, 2.0, 1.0)), (3, (2.0, 1.0, -1.0))):
        expect = (0.25 * mu + v * lam * y[j]) / (v * lam**2 + 0.25)
        assert summary.post_mean[j] == pytest.approx(expect, rel=1e-14)


def test_improper_prior_demands_zero_means():
    with pytest.raises(ValueError):
        PriorSpec(np.array([1.0]), np.array([np.inf]), np.array([True]))


def test_variances_need_no_data():
    op = make_operator("polynomial", 10, decay=0.5)
    prior = PriorSpec.gaussian(np.zeros(10), np.full(10, 0.3))
    v = posterior_variances(prior, op, 0.04)
    lam_sq = op.values**2
    np.testing.assert_allclose(v, 0.04 * 0.3 / (0.3 * lam_sq + 0.04), rtol=1e-14)
    assert np.all(v < 0.3)  # data never widen a proper coordinate


def test_sieve_mean_is_posterior_head_prior_tail():
    n = 9
    op = make_operator("constant", n)
    prior = PriorSpec.gaussian(np.linspace(-1, 1, n), np.ones(n))
    theta = make_parameters("polynomial", n, exponent=1.0)
    obs = simulate_observation(theta, op, 0.5, seed=5)
    summary = coordinate_posterior(prior, op, obs)
    for m in (1, 4, 9):
        est = sieve_posterior_mean(m, summary, prior)
        np.testing.assert_array_equal(est[:m], summary.post_mean[:m])
        np.testing.assert_array_equal(est[m:], prior.means[m:])


def test_sieve_sampler_moments_and_degeneracy():
    n = 5
    op = make_operator("constant", n)
    prior = PriorSpec.gaussian(np.full(n, 2.0), np.full(n, 0.8))
    theta = make_parameters("explicit", n, values=np.ones(n))
    obs = simulate_observation(theta, op, 0.2, seed=4)
    summary = coordinate_posterior(prior, op, obs)
    draws = sample_sieve_posterior(3, summary, prior, 40000, seed=10)
    assert draws.shape == (40000, n)
    # beyond the sieve dimension the draw is the prior mean, exactly
    np.testing.assert_array_equal(draws[:, 3:], np.full((40000, 2), 2.0))
    got_mean = draws[:, :3].mean(axis=0)
    got_var = draws[:, :3].var(axis=0)
    se = np.sqrt(summary.post_var[:3] / 40000)
    assert np.all(np.abs(got_mean - summary.post_mean[:3]) < 5 * se)
    np.testing.assert_allclose(got_var, summary.post_var[:3], rtol=0.05)


def test_sieve_sampler_is_reproducible():
    n = 4
    op = make_operator("constant", n)
    prior = PriorSpec.gaussian(np.zeros(n), np.ones(n))
    theta = make_parameters("explicit", n, values=np.zeros(n))
    obs = simulate_observation(theta, op, 0.1, seed=2)
    summary = coordinate_posterior(prior, op, obs)
    a = sample_sieve_posterior(2, summary, prior, 16, seed=9, rep=3)
    b = sample_sieve_posterior(2, summary, prior, 16, seed=9, rep=3)
    np.testing.assert_array_equal(a, b)


def test_log_variance_ratio_matches_direct_quotient():
    op = make_operator("polynomial", 8, decay=1.0)
    prior = PriorSpec.gaussian(np.zeros(8), np.linspace(0.1, 2.0, 8))
    eps = 0.05
    ratio = log_variance_ratio(prior, op, eps)
    direct = np.log(prior.variances / posterior_variances(prior, op, eps))
    np.testing.assert_allclose(ratio, direct, rtol=1e-12)
    with pytest.raises(ValueError):
        log_variance_ratio(PriorSpec.flat(8), op, eps)


def test_length_mismatches_are_rejected():
    op = make_operator("constant", 3)
    prior = PriorSpec.flat(4)
    with pytest.raises(ValueError):
        posterior_variances(prior, op, 0.1)
    theta = make_parameters("explicit", 3, values=np.zeros(3))
    obs = simulate_observation(theta, op, 0.1, seed=0)
    with pytest.raises(ValueError):
        coordinate_posterior(prior, op, obs)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    value=st.floats(1e-3, 1e3),
    eps=st.floats(1e-8, 0.5),
    prior_kind=st.sampled_from(["flat", "one variance", "varying variances", "mixed"]),
    operator_kind=st.sampled_from(["constant", "explicit constant", "decaying"]),
    variance=st.floats(1e-3, 1e3),
)
def test_a_constant_variance_is_every_posterior_variance(n, value, eps, prior_kind, operator_kind, variance):
    """Where every coordinate has the same inputs, a flat prior under a
    constant ``log(lambda_j^2)`` or one prior variance under a constant
    ``lambda_j``, ``_constant_variance`` gives every entry of
    ``posterior_variances`` bit for bit, and the Monte Carlo task keeps it
    as its one scalar; elsewhere, with more than one coordinate, it gives
    None."""
    op = {
        "constant": lambda: make_operator("constant", n),
        "explicit constant": lambda: make_operator("explicit", n, values=np.full(n, value)),
        "decaying": lambda: make_operator("polynomial", n, decay=0.5),
    }[operator_kind]()
    variances = np.full(n, variance) if prior_kind != "varying variances" else np.linspace(variance, 2 * variance, n)
    prior = {
        "flat": lambda: PriorSpec.flat(n),
        "mixed": lambda: PriorSpec.mixed(np.zeros(n), variances, np.arange(n) % 2 == 0),
    }.get(prior_kind, lambda: PriorSpec.gaussian(np.zeros(n), variances))()
    got = _constant_variance(prior, op, eps)
    want = posterior_variances(prior, op, eps)
    same = operator_kind != "decaying" and prior_kind in ("flat", "one variance")
    if same or n == 1:
        assert np.all(want == got)
        theta = make_parameters("polynomial", n, exponent=1.0, scale=1.0)
        assert _task(theta, prior, op, eps, m=n).post_var == got
    else:
        assert got is None
