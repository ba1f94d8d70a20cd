"""Hierarchical dimension prior/posterior and the data-driven estimator."""

import math

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
from igssm.montecarlo import _task
from igssm.rng import stream
from igssm.sequences import _PAIRWISE_LEAF, _PIECE, _sq_err_sum
from igssm.hierarchy import (
    _CHUNK,
    _MASS_MARGIN,
    _chunk_maxima,
    _chunk_squares,
    _dimension_penalty,
    _draw_hierarchical,
    _log_weights,
    _masses,
    _normalise,
    _pairwise_sum,
    _shrink,
    _tail_bound,
    _terms,
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
@example(n=_CHUNK + 5, rows=3, seed=8, shift=-700)  # rows ending at 1046, 3559 and 1516
def test_log_weight_shift_invariance(n, rows, seed, shift):
    """Log-weights on a dyadic grid, shifted by an integer, are shifted
    exactly, so the masses must not move by a bit.  ``_masses`` computes
    the log-weights ``0.5 * cumsum(post_mean^2) - 1.5 m`` (``C = 1``), which
    differ by row through sparse integer posterior means, and their masses
    on all rows at once: with its head at the full range, into separate
    zeroed arrays as the public functions call it, and with its head at
    one chunk, in place on arrays of NaN as the kernel calls it, where
    ``_tail_bound`` decides how far the head reaches.  Both give what
    ``from_log_weights`` gives row by row.  A first posterior mean of ``k``
    adds ``k^2 / 2`` to every log-weight of its row, so setting it to 0 and
    to ``k`` shifts all of them by about ``shift``, and the masses, the mass
    end and the in-place masses must be the same at both."""
    rng = np.random.default_rng(seed)
    # a penalty of 1.5 a step and rare contrast jumps of up to 1740: most
    # rows end at different dimensions, some before n
    post_mean = rng.integers(0, 60, (rows, n)) * (rng.random((rows, n)) < 0.002)
    k = math.isqrt(2 * abs(shift))
    terms = _terms(np.zeros(n), 1.0, 1.0)
    lws, masses, ends, in_places = [], [], [], []
    for first in (0, k) if shift >= 0 else (k, 0):
        post_mean[:, 0] = first
        lw, out = np.empty((rows, n)), np.zeros((rows, n))
        end = _masses(terms, post_mean, lw, out, n)
        assert np.array_equal(lw, 0.5 * np.cumsum(post_mean**2, axis=1) - 1.5 * np.arange(1, n + 1))
        probs = np.array([DimensionDistribution.from_log_weights(row, "posterior").probs for row in lw])
        assert np.array_equal(out, probs)
        assert end == max(np.flatnonzero(row - np.max(row) > -_MASS_MARGIN)[-1] + 1 for row in lw)
        assert not np.any(out[:, end:])
        in_place = np.full((rows, n), np.nan)
        assert _masses(terms, post_mean, in_place, in_place, _CHUNK) == end
        assert np.array_equal(in_place[:, :end], probs[:, :end])
        lws.append(lw)
        masses.append(out)
        ends.append(end)
        in_places.append(in_place[:, :end])
    assert np.array_equal(lws[1], lws[0] + math.copysign(k * k / 2, shift))
    assert np.array_equal(masses[0], masses[1])
    assert ends[0] == ends[1]
    assert np.array_equal(in_places[0], in_places[1])
    np.testing.assert_allclose(masses[0].sum(axis=1), 1.0, rtol=0, atol=1e-14)


def _assert_mass_end(lw, mass_end):
    """``mass_end`` is one past the last entry with ``lw - max >
    -_MASS_MARGIN``; ``_normalise`` finds it from the chunk maxima, and it
    and ``from_log_weights`` return the full-range masses ``exp(lw - max) /
    sum`` bit for bit, zero from ``mass_end`` on, and ``_shrink`` the
    full-range ``omega``; ``_normalise`` reads nothing of ``out`` past the
    end it returns, which holds NaN here.  All of this holds for ``lw``
    alone and as the first of two or three rows, beside a row whose mass
    ends at 1 and one whose mass spans the whole range, where
    ``_normalise`` returns the largest of the rows' mass ends, so the rows
    are exponentiated past ``lw``'s own mass end."""
    assert mass_end == np.flatnonzero(lw - np.max(lw) > -_MASS_MARGIN)[-1] + 1
    n = lw.size
    rows = np.stack([lw, np.full(n, -1e6), np.linspace(3.0, -790.0, n)])
    rows[1, 0] = 0.0
    for k in (1, 2, 3):
        block = rows[:k]
        out = np.full_like(block, np.nan)
        end = _normalise(block, _chunk_maxima(block), out)
        assert end == max([mass_end, 1, n][:k])
        omega = np.zeros_like(block)
        _shrink(out, end, np.ones_like(block), np.zeros(n), omega, np.empty_like(block))
        for row, probs, weights in zip(block, out, omega):
            w = np.exp(row - np.max(row))
            want = w / w.sum()
            assert np.array_equal(probs[:end], want[:end]) and not np.any(want[end:])
            assert np.array_equal(weights, np.clip(np.cumsum(want[::-1])[::-1], 0.0, 1.0))
        assert not np.any(out[0, mass_end:end])
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
    """Each row's log-weights, contrast sum and chunk maxima are what the
    row gives alone, for zero and non-zero means and scalar and vector
    variances, and a head of them is the head of the full range."""
    rng = np.random.default_rng(0)
    rows, n = 3, 2 * _CHUNK + 5
    post_mean = rng.normal(size=(rows, n))
    penalty = 1.5 * np.arange(1, n + 1, dtype=np.float64)
    starts = (0, _CHUNK, 2 * _CHUNK)
    for means, post_var in ((np.zeros(n), np.full(n, 0.3)), (rng.normal(size=n), rng.uniform(0.1, 1.0, n))):
        terms = _terms(means, post_var, 1.0)
        assert isinstance(terms.post_var, float) == (not np.any(means))
        # the penalty of any slice, and of the chunk starts _tail_bound reads
        assert np.array_equal(_dimension_penalty(terms.c_lambda, 0, n), penalty)
        assert np.array_equal(_dimension_penalty(terms.c_lambda, 7, n - 3), penalty[7 : n - 3])
        assert np.array_equal(_dimension_penalty(terms.c_lambda, _CHUNK, n, _CHUNK), penalty[_CHUNK::_CHUNK])
        assert terms.inv_var.tolist() == [np.max(1.0 / post_var[j : j + _CHUNK]) for j in starts]
        got = np.full((rows, n), np.nan)  # the contrast and its cumsum are written in place
        sums = _log_weights(post_mean, terms, got)
        contrast = (post_mean - means) ** 2 / post_var
        maxima = _chunk_maxima(got)
        assert maxima.shape == (rows, 3)
        for i in range(rows):
            assert np.array_equal(got[i], 0.5 * np.cumsum(contrast[i]) - penalty)
            assert sums[i] == np.cumsum(contrast[i])[-1]
            assert maxima[i].tolist() == [got[i, j : j + _CHUNK].max() for j in starts]
        head = np.full((rows, _CHUNK), np.nan)
        sums = _log_weights(post_mean[:, :_CHUNK], terms, head)
        assert np.array_equal(head, got[:, :_CHUNK])
        assert np.array_equal(sums, np.cumsum(contrast, axis=1)[:, _CHUNK - 1])


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 7),  # a leaf of numpy's short loop
        st.integers(8, _PAIRWISE_LEAF),  # one unrolled leaf
        st.integers(_PAIRWISE_LEAF + 1, 2000),  # a few levels of the tree
        st.integers(2000, 300_000),
    ),
    rows=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(n=1, rows=None, seed=0, data=None)
@example(n=_PAIRWISE_LEAF + 1, rows=3, seed=1, data=None)
def test_pairwise_sum_equals_numpy_sum(n, rows, seed, data):
    """``_pairwise_sum`` rebuilds numpy's summation tree bit for bit: on a
    1-d array and on the rows of a 2-d one, with zeros and with the squared
    differences of a tail pair from ``end`` on, for every end up to 2000
    entries and on longer arrays for ends at the first and last entry,
    beside the first leaf and at the root's split and drawn; past ``end``
    the rows hold NaN, which it must not read.  The values span 40 orders
    of magnitude, so a different order of additions changes the sum.  If
    numpy ever changes how it sums a row, this fails, and the masses and
    losses that rely on it must be revisited."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-46.0, 46.0, shape))
    tail = tuple(rng.standard_normal(n) * np.exp(rng.uniform(-23.0, 23.0, n)) for _ in range(2))
    if n <= 2000:
        ends = set(range(1, n + 1))
    else:
        ends = {1, n, _PAIRWISE_LEAF, _PAIRWISE_LEAF + 1, n // 2 - n // 2 % 8}
        if data is not None:
            ends |= set(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="ends"))
    memo = {}
    for end in sorted(ends):
        for fill in (None, tail):
            full = values.copy()
            full[..., end:] = 0.0 if fill is None else (fill[0][end:] - fill[1][end:]) ** 2
            want = np.atleast_1d(np.sum(full, axis=-1))
            if rows is not None:
                assert np.array_equal(want, [np.sum(row) for row in full])
            work = np.atleast_2d(values.copy())
            work[:, end:] = np.nan
            got = _pairwise_sum(work, end, fill, None if fill is None else memo)
            assert np.asarray(got).tobytes() == want.tobytes(), (end, fill is None)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    n=st.one_of(st.integers(1, 300), st.integers(_CHUNK, 3 * _CHUNK)),
    chunk=st.one_of(st.integers(1, 40), st.just(_CHUNK)),
    wide=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])), max_size=8),
)
@example(rows=3, n=2 * _CHUNK + 5, chunk=_CHUNK, wide=2, seed=0, specials=[(5, np.inf), (_CHUNK + 9, np.nan)])
def test_row_reductions_equal_one_row_at_a_time(rows, n, chunk, wide, seed, specials):
    """The dimension-posterior cores run their cumsum and chunk maxima on
    all rows in one call: ``np.cumsum(a, axis=1, out=a)`` in place on the
    head of a wider array gives each row its 1-D ``np.cumsum`` and leaves
    the columns past the head alone, and ``np.maximum.reduceat(a, starts,
    axis=1)`` gives each row its 1-D ``reduceat``, bit for bit, with NaN
    and infinite entries among values over 26 orders of magnitude.  If
    numpy ever changes either, the masses that rely on it must be
    revisited."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-30.0, 30.0, (rows, n)))
    for at, value in specials:
        values.flat[at % values.size] = value
    block = np.full((rows, n + wide), 7.0)
    head = block[:, :n]
    starts = np.arange(0, n, chunk)
    head[...] = values
    assert np.maximum.reduceat(head, starts, axis=1).tobytes() == b"".join(
        np.maximum.reduceat(row, starts).tobytes() for row in values
    )
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and overflow are live here
        np.cumsum(head, axis=1, out=head)
        want = b"".join(np.cumsum(row).tobytes() for row in values)
    assert head.tobytes() == want
    assert np.all(block[:, n:] == 7.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(0, 2000), st.integers(2000, 300_000)),
    lo=st.integers(1, 100_000),
    means=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=_PIECE + 1, lo=1, means=True, seed=0)  # one split, into pieces of 16384 and 16385
@example(n=300_000, lo=99_999, means=False, seed=1)
def test_sq_err_sum_equals_numpy_sum(n, lo, means, seed):
    """``_sq_err_sum`` of ``(theta_j - mu_j)^2`` over ``[lo, lo + n)`` is
    ``np.sum`` of the materialised squares bit for bit, on lengths past
    ``_PIECE`` (so numpy's deep splits are pieced together) and any start,
    with values over 40 orders of magnitude.  A Monte Carlo task's
    remainder past its cut, which it sums so, is the materialised sum."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(lo + n) * np.exp(rng.uniform(-23.0, 23.0, lo + n))
    mu = rng.standard_normal(lo + n) * np.exp(rng.uniform(-23.0, 23.0, lo + n)) if means else np.zeros(lo + n)
    want = np.sum((theta[lo:] - mu[lo:]) ** 2)
    got = _sq_err_sum(theta, mu, lo, n)
    assert float(got).hex() == float(want).hex()
    # the task cut at lo: its remainder, against the formula that builds the squares
    truth, prior = make_parameters("explicit", lo + n, values=theta), PriorSpec.gaussian(mu, 1.0)
    task = _task(truth, prior, make_operator("constant", lo + n), 0.5, m=lo)
    assert task.remainder == float(np.sum((truth.values[lo:] - prior.means[lo:]) ** 2)) + truth.sq_tail()


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 3),
    chunks=st.integers(2, 5),
    extra=st.integers(0, _CHUNK - 1),
    means=st.booleans(),
    spread=st.floats(0.0, 30.0),
    c_lambda=st.floats(1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_tail_bound_holds_every_log_weight(rows, chunks, extra, means, spread, c_lambda, seed):
    """From every chunk boundary on, ``_tail_bound`` lies at or above each
    full-range log-weight of its chunk, for posterior means and variances
    spread over many orders of magnitude, zero and non-zero prior means
    and scalar and vector variances."""
    rng = np.random.default_rng(seed)
    n = chunks * _CHUNK + extra
    post_mean = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-spread, spread, (rows, n)))
    mu = rng.standard_normal(n) * np.exp(rng.uniform(-spread, spread, n)) if means else np.zeros(n)
    post_var = np.exp(rng.uniform(-spread, spread, n)) if rng.random() < 0.7 else np.full(n, 0.7)
    terms = _terms(mu, post_var, c_lambda)
    lw = np.empty((rows, n))
    _log_weights(post_mean, terms, lw)
    maxima = _chunk_maxima(lw)
    for start in range(_CHUNK, n, _CHUNK):
        head = np.empty((rows, start))
        sums = _log_weights(post_mean[:, :start], terms, head)
        squares = _chunk_squares(terms, post_mean, np.empty((rows, n)), start)
        bound = _tail_bound(terms, squares, sums, start)
        assert np.all(np.isfinite(bound))
        assert np.all(maxima[:, start // _CHUNK :] <= bound)


@pytest.mark.parametrize("log_weights", [np.array([]), np.zeros((2, 3)), np.array(0.5)], ids=["empty", "2-d", "0-d"])
def test_from_log_weights_rejects_non_vectors(log_weights):
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        DimensionDistribution.from_log_weights(log_weights, "posterior")


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


@settings(max_examples=60, deadline=None)
@given(
    m_top=st.integers(1, 50),
    head=st.integers(1, 50),
    total=st.sampled_from([1.0, 0.5, 1e-300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m_top=40, head=3, total=0.5, seed=0)  # half of the u past the head's CDF
def test_draw_hierarchical_reads_only_the_mass_head(m_top, head, total, seed):
    """Masses that are zero past ``head`` give the dimensions and the block
    the full-range CDF gives, a ``u`` at or above the head's last CDF value
    included: it lands on the last dimension either way."""
    head = min(head, m_top)
    rng = np.random.default_rng(seed)
    probs = np.zeros(m_top)
    probs[:head] = rng.dirichlet(np.ones(head)) * total
    post_mean, post_sd, means = rng.normal(size=m_top), rng.uniform(0.5, 2.0, m_top), rng.normal(size=m_top)
    draws = 40
    got = _draw_hierarchical(probs, head, post_mean, post_sd, means, draws, stream(seed, 3, 0))
    want = _draw_hierarchical(probs, m_top, post_mean, post_sd, means, draws, stream(seed, 3, 0))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    past = stream(seed, 3, 0).random(draws) >= np.cumsum(probs[:head])[-1]
    np.testing.assert_array_equal(got[0][past], m_top)
