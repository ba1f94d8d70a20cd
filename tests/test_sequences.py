"""Deterministic model ingredients: multipliers, signals, classes, noise."""

import math
from unittest import mock

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaincc

from igssm import (
    Observation,
    OperatorSequence,
    ParameterSequence,
    PriorSpec,
    WeightedClass,
    load_values_csv,
    make_operator,
    make_parameters,
    make_weights,
    simulate_observation,
)
from igssm import rng, sequences
from igssm.rng import OBSERVATION, stream, streams


def test_polynomial_operator_values():
    op = make_operator("polynomial", 20, decay=1.5)
    j = np.arange(1, 21)
    np.testing.assert_allclose(op.values, j**-1.5, rtol=1e-14)
    np.testing.assert_allclose(op.log_sq, -3.0 * np.log(j), rtol=1e-14)
    # amplification is increasing here, so the running max is the last entry
    assert op.max_amplification(7) == pytest.approx(7.0**3, rel=1e-12)


def test_constant_operator_is_direct():
    op = make_operator("constant", 5)
    assert np.all(op.values == 1.0)
    assert op.max_amplification(5) == 1.0


def test_exponential_operator_log_space():
    op = make_operator("exponential", 30, decay=0.5)
    # lambda_j^2 = exp(1 - j), well below double range in log space
    np.testing.assert_allclose(op.log_sq, 1.0 - np.arange(1, 31.0), atol=1e-12)
    assert op.max_amplification(30) == pytest.approx(np.exp(29.0), rel=1e-12)


def test_exponential_operator_overflow_is_checked():
    # multipliers survive in log space well past the point where the
    # amplification factors stop being representable
    op = make_operator("exponential", 1200, decay=0.5)
    with pytest.raises(OverflowError):
        op.max_amplification(1200)
    assert np.isfinite(op.log_amplification).all()
    # pushing the multipliers themselves below the double range is refused
    with pytest.raises(OverflowError):
        make_operator("exponential", 2000, decay=0.5)


def test_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        make_operator("polynomial", 10)  # decay missing
    with pytest.raises(ValueError):
        make_operator("explicit", 3, values=np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        make_operator("squiggle", 3)
    with pytest.raises(ValueError):
        make_operator("polynomial", 0, decay=1.0)


def test_operator_head_preserves_family():
    op = make_operator("polynomial", 10, decay=2.0)
    h = op.head(4)
    assert h.n == 4 and h.family == "polynomial" and h.decay == 2.0
    np.testing.assert_array_equal(h.values, op.values[:4])
    # the full-length head is the immutable sequence itself, not a copy
    theta = make_parameters("polynomial", 10, exponent=1.2)
    prior = PriorSpec.flat(10)
    assert op.head(10) is op and theta.head(10) is theta and prior.head(10) is prior
    assert theta.head(4).n == prior.head(4).n == 4


def _frozen_owner(a):
    """True when no one can write to ``a``'s memory through a plain array:
    it and every array it views are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@pytest.mark.parametrize("view", [False, True])
def test_caller_arrays_are_copied(view):
    """Sequences, classes and priors built from a caller's array keep their
    values when the caller later writes to it, also through a read-only
    view the caller handed over."""
    data = np.array([1.0, 0.5, 0.25])
    mask = np.zeros(3, dtype=bool)

    def lend(a):
        if not view:
            return a
        v = a[:]
        v.setflags(write=False)
        return v

    op = OperatorSequence(lend(data), lend(np.log(data**2)))
    theta = ParameterSequence(lend(data))
    wclass = WeightedClass(lend(data), 1.0)
    prior = PriorSpec(lend(data), lend(data), lend(mask))
    built = [op.values, op.log_sq, theta.values, wclass.weights, prior.means, prior.variances, prior.improper]
    before = [a.copy() for a in built]
    data[:] = [9.0, 9.0, 9.0]
    mask[:] = True
    for a, b in zip(built, before):
        np.testing.assert_array_equal(a, b)
        assert _frozen_owner(a)


def test_built_arrays_are_read_only_and_handed_over():
    """What the factories and the cached operator properties build is
    read-only, and a constructor takes such an array without a copy."""
    n = 6
    ops = [make_operator("polynomial", n, decay=1.0), make_operator("exponential", n, decay=0.5),
           make_operator("constant", n), make_operator("explicit", n, values=np.linspace(1.0, 0.5, n))]
    arrays = [make_parameters("polynomial", n, exponent=1.2).values,
              make_parameters("exponential", n, exponent=0.5).values,
              make_weights("polynomial", n, exponent=1.0).weights,
              make_weights("exponential", n, exponent=0.5).weights]
    for prior in (PriorSpec.flat(n), PriorSpec.gaussian(np.zeros(n), 2.0)):
        arrays += [prior.means, prior.variances, prior.improper]
    for op in ops:
        arrays += [op.values, op.log_sq, op.log_amplification, op._log_amp_cummax]
        np.testing.assert_array_equal(op.log_amplification, -op.log_sq)
        again = OperatorSequence(op.values, op.log_sq)
        assert again.values is op.values and again.log_sq is op.log_sq
    for a in arrays:
        assert _frozen_owner(a)
        with pytest.raises(ValueError):
            a[0] = 0.5
    prior = PriorSpec.flat(n)
    assert PriorSpec(prior.means, prior.variances, prior.improper).improper is prior.improper


def test_parameter_tail_bound_polynomial():
    theta = make_parameters("polynomial", 50, exponent=1.2, scale=0.7)
    # integral bound dominates the true remainder and stays within a factor
    # of (1 + 1/N) of it for monotone j^{-2q}
    true_tail = 0.49 * sum(j**-2.4 for j in range(51, 200000))
    bound = theta.sq_tail()
    assert true_tail <= bound <= true_tail * 1.05


def test_parameter_tail_bound_exponential():
    theta = make_parameters("exponential", 10, exponent=0.5, scale=1.0)
    true_tail = sum(np.exp(1.0 - j) for j in range(11, 100))
    bound = theta.sq_tail()
    # the integral bound for exp(1-x) from N overshoots the discrete sum by
    # exactly e (1 - 1/e) ~ 1.718
    assert true_tail <= bound <= true_tail * 1.72


def _signal(family, n, q, scale):
    """A ``family`` signal of length ``n`` whose values are one read-only
    zero broadcast to that length: only its tail is read."""
    zero = np.zeros(1)
    zero.setflags(write=False)
    return ParameterSequence(np.broadcast_to(zero, n), family, q, scale)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**7), q=st.floats(0.01, 5.0), scale=st.floats(0.0, 3.0))
@example(n=10**6, q=0.1, scale=1.0)  # a tail of 0.147 spread over a long, flat integrand
@example(n=1, q=5.0, scale=1.0)  # the series side of the incomplete gamma
@example(n=1, q=0.015625, scale=1.1017048094383541e-159)  # s^2 is subnormal
def test_exponential_tail_is_the_incomplete_gamma_function(n, q, scale):
    """The exponential tail bound ``s^2 int_N^inf e^{1 - x^p} dx``, ``p =
    2q``, is ``s^2 (e / p) Gamma(1/p, N^p)``: against scipy's regularised
    upper incomplete gamma times the gamma function, scaled by ``s`` twice
    so that no subnormal ``s^2`` is formed."""
    p = 2.0 * q
    want = scale * (scale * (math.e / p * gammaincc(1.0 / p, float(n) ** p) * gamma(1.0 / p)))
    got = _signal("exponential", n, q, scale).sq_tail()
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-300)


_BRUTE_FORCE_END = 10**6


@settings(max_examples=40, deadline=None)
@given(
    family_exponent=st.one_of(
        st.tuples(st.just("polynomial"), st.floats(0.51, 4.0)),
        st.tuples(st.just("exponential"), st.floats(0.05, 3.0)),
    ),
    n=st.integers(1, 1000),
    log_scale=st.floats(-50.0, 50.0),
)
@example(family_exponent=("polynomial", 0.51), n=1000, log_scale=0.0)  # the flattest polynomial tail
@example(family_exponent=("exponential", 0.05), n=1000, log_scale=0.0)  # most of it past J
@example(family_exponent=("exponential", 0.725), n=100, log_scale=30.0)  # e^{1 - N^p} alone underflows
@example(family_exponent=("exponential", 0.6), n=248, log_scale=1.0)
def test_tail_bound_brackets_the_discrete_tail(family_exponent, n, log_scale):
    """For a decreasing ``f``, ``sum_{j>N} f(j) <= int_N^inf f <= f(N) +
    sum_{j>N} f(j)``.  By brute force over ``J = 1e6`` terms, with ``S``
    the ``math.fsum`` of ``f(j) = theta_j^2`` over ``N < j <= J``: ``S <=
    sq_tail(N) <= f(N) + S + sq_tail(J)``, the last term bounding the
    squares past ``J``.  ``f`` is formed in log space: ``s^2 e^{1 - N^p}``
    is a double where ``e^{1 - N^p}`` alone underflows."""
    family, q = family_exponent
    scale = 10.0**log_scale
    j = np.arange(n, _BRUTE_FORCE_END + 1, dtype=np.float64)
    log_shape = -2.0 * q * np.log(j) if family == "polynomial" else 1.0 - j ** (2.0 * q)
    f = np.exp(2.0 * math.log(scale) + log_shape)
    s = math.fsum(f[1:])
    past = _signal(family, _BRUTE_FORCE_END, q, scale).sq_tail()
    assert s <= _signal(family, n, q, scale).sq_tail() <= f[0] + s + past


def test_a_tail_past_the_double_range_is_an_error():
    with pytest.raises(OverflowError, match="tail of the signal past N=10 is past the double range"):
        _signal("exponential", 10, 1e-3, 1.0).sq_tail()  # about e Gamma(500) / 0.002
    assert _signal("exponential", 10, 1e-3, 0.0).sq_tail() == 0.0
    with pytest.raises(OverflowError, match="tail of the signal past N=10 is past the double range"):
        make_parameters("polynomial", 10, exponent=0.51, scale=1e154).sq_tail()  # 1e308 * 10^-0.02 / 0.02


@pytest.mark.parametrize("scale, exponent", [(1.1e-160, 0.5 + 2.5e-14), (3.3e-158, 0.5 + 1e-8)])
def test_polynomial_tail_keeps_its_precision_where_the_squared_scale_is_subnormal(scale, exponent):
    """The polynomial tail bound ``s^2 N^{1-2q} / (2q - 1)`` stays within
    1e-12 of a 40-digit reference where ``s^2`` is subnormal (forming it
    first was 2.7e-5 and 1.4e-9 off at these points).  The exponents keep
    the tail itself a normal number, which it has to be to hold that
    precision."""
    n = 10
    got = make_parameters("polynomial", n, exponent=exponent, scale=scale).sq_tail()
    with mpmath.workdps(40):
        p = mpmath.mpf(2.0 * exponent)
        want = mpmath.mpf(scale) ** 2 * mpmath.mpf(n) ** (1 - p) / (p - 1)
        assert scale**2 < np.finfo(np.float64).tiny <= got
        assert abs(mpmath.mpf(got) / want - 1) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.integers(1, sequences._PAIRWISE_LEAF), min_size=1, max_size=6).map(sorted),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@example(widths=[3, 7, 8, 15, 16, 128], n=5, seed=1)  # every branch of numpy's leaf loop
def test_leaf_sums_equal_numpy_sum(widths, n, seed):
    """``sequences._leaf_sums`` gives, for rows in order of width and zero
    past it, numpy's sum of each row's columns as a contiguous 1-d array,
    bit for bit: the order of additions, not just the value, is numpy's.
    The terms span many orders of magnitude, so a different order rounds
    differently."""
    rng = np.random.default_rng(seed)
    widths = np.array(widths)
    a = rng.random((widths.size, widths[-1], n)) * 10.0 ** rng.uniform(-20, 20, (widths.size, widths[-1], n))
    for row, w in zip(a, widths):
        row[w:] = 0.0
    want = [[np.sum(np.ascontiguousarray(row[:w, d])) for d in range(n)] for row, w in zip(a, widths)]
    assert np.array_equal(sequences._leaf_sums(a.copy(), widths), want)


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda j: make_operator("polynomial", j.size, decay=1.0).values, lambda j: j ** -1.0),
        (lambda j: make_operator("polynomial", j.size, decay=0.7).log_sq, lambda j: -2.0 * 0.7 * np.log(j)),
        (lambda j: make_operator("exponential", j.size, decay=0.2).log_sq, lambda j: 1.0 - j**0.4),
        (lambda j: make_operator("exponential", j.size, decay=0.2).values, lambda j: np.exp(0.5 * (1.0 - j**0.4))),
        (lambda j: make_parameters("polynomial", j.size, exponent=1.6, scale=0.4).values, lambda j: 0.4 * j**-1.6),
        (lambda j: make_parameters("exponential", j.size, exponent=0.3, scale=0.4).values,
         lambda j: 0.4 * np.exp(0.5 * (1.0 - j**0.6))),
        (lambda j: make_weights("polynomial", j.size, exponent=1.0).weights, lambda j: j**-2.0),
        (lambda j: make_weights("exponential", j.size, exponent=0.2).weights, lambda j: np.exp(1.0 - j**0.4)),
    ],
)
def test_builders_write_the_whole_array_formulas(build, want):
    """The builders write their values over their own ``j`` grid, bit for
    bit the values of the formula on the whole grid."""
    j = np.arange(1, 3001, dtype=np.float64)
    assert np.array_equal(build(j), want(j))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_weight_monotonicity_is_checked_across_block_edges(block):
    """The non-increasing check runs a block at a time: a rise between any
    two neighbours is found, at a block edge or inside a block."""
    n = 150
    falling = np.linspace(1.0, 0.1, n)
    with mock.patch.object(sequences, "_BLOCK", block):
        WeightedClass(falling, 1.0)
        for rise in range(1, n):
            w = falling.copy()
            w[rise] = np.nextafter(w[rise - 1], 2.0)
            with pytest.raises(ValueError, match="non-increasing"):
                WeightedClass(w, 1.0)


def test_parameter_square_summability_guard():
    with pytest.raises(ValueError):
        make_parameters("polynomial", 10, exponent=0.5)
    make_parameters("polynomial", 10, exponent=0.51)  # boundary passes


def test_explicit_parameters_have_no_tail():
    theta = make_parameters("explicit", 3, values=np.array([1.0, 2.0, 3.0]))
    assert theta.sq_tail() == 0.0


def test_weight_class_shape_checks():
    w = make_weights("polynomial", 10, exponent=1.0, radius=2.0)
    assert w.weights[0] == 1.0
    with pytest.raises(ValueError):
        make_weights("explicit", 3, values=np.array([0.5, 0.4, 0.3]))  # w_1 != 1
    with pytest.raises(ValueError):
        make_weights("explicit", 3, values=np.array([1.0, 1.1, 0.3]))  # increasing
    with pytest.raises(ValueError):
        make_weights("polynomial", 3, exponent=1.0, radius=-1.0)


def test_weight_class_membership():
    w = make_weights("polynomial", 100, exponent=1.0, radius=1.0)
    inside = make_parameters("polynomial", 100, exponent=1.6, scale=0.4)
    assert w.contains(inside)
    outside = make_parameters("polynomial", 100, exponent=0.9, scale=5.0)
    assert not w.contains(outside)


def test_simulation_is_reproducible_per_replication():
    theta = make_parameters("polynomial", 64, exponent=1.0)
    op = make_operator("polynomial", 64, decay=1.0)
    a = simulate_observation(theta, op, 0.01, seed=3, rep=5)
    b = simulate_observation(theta, op, 0.01, seed=3, rep=5)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_observation(theta, op, 0.01, seed=3, rep=6)
    assert not np.array_equal(a.values, c.values)


def test_simulation_signal_plus_noise_structure():
    theta = make_parameters("explicit", 4, values=np.array([5.0, -3.0, 2.0, 0.0]))
    op = make_operator("explicit", 4, values=np.array([1.0, 0.5, 0.25, 2.0]))
    obs = simulate_observation(theta, op, 0.04, seed=12)
    noise = (obs.values - op.values * theta.values) / 0.2
    expected = stream(12, OBSERVATION, 0).standard_normal(4)
    np.testing.assert_allclose(noise, expected, atol=1e-12)


def test_stream_prefix_stability():
    """Drawing a longer block must not change the leading draws.

    The per-replication streams rely on this: the same (seed, rep) address
    produces the same observation prefix no matter how many coordinates the
    caller asks for.
    """
    long = stream(42, OBSERVATION, 0).standard_normal(1000)
    short = stream(42, OBSERVATION, 0).standard_normal(137)
    np.testing.assert_array_equal(long[:137], short)


def test_stream_paths_are_independent_addresses():
    a = stream(1, 2, 3).standard_normal(8)
    b = stream(1, 2, 4).standard_normal(8)
    c = stream(1, 3, 3).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        stream(-1, 2)


_DOMAINS = (rng.OBSERVATION, rng.SIEVE_DRAW, rng.HIERARCHY_DRAW, rng.AUDIT_DRAW, rng.SUITE_GEN)


def _philox_state(gen):
    state = gen.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(), state["buffer"].tolist(),
        state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**200)),
    domain=st.sampled_from(_DOMAINS),
    start=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
    length=st.integers(0, 40),
)
@example(seed=0, domain=rng.OBSERVATION, start=0, length=3)
@example(seed=2**64 + 5, domain=rng.SIEVE_DRAW, start=2**16 - 20, length=40)  # three words
@example(seed=2**130 + 7, domain=rng.HIERARCHY_DRAW, start=2**16 - 1, length=2)  # past the pool
@example(seed=7, domain=rng.AUDIT_DRAW, start=2**32 - 2, length=4)  # across one word
@example(seed=2**200 - 1, domain=2**40 + 3, start=2**64 - 1, length=3)  # two-word domain, into three words
@example(seed=11, domain=rng.OBSERVATION, start=2**32 - 1, length=1)  # one key, the last of a word
@example(seed=2**33 + 1, domain=rng.SIEVE_DRAW, start=12345, length=9)  # nine keys, one array
def test_streams_start_where_stream_starts(seed, domain, start, length):
    """Each generator ``streams`` yields is in the state ``stream`` starts
    in at that address, for seeds of one word and of many, every domain
    tag, and ranges of one- and two-word replication indices."""
    gens = streams(seed, domain, start, start + length)
    seen = 0
    for r, gen in enumerate(gens, start):
        assert _philox_state(gen) == _philox_state(stream(seed, domain, r))
        seen += 1
    assert seen == length


def test_streams_build_no_seed_sequence_per_replication(monkeypatch):
    """``streams`` derives its keys in batches without a ``SeedSequence``;
    batches that end inside a range, are shorter than ten keys or start
    past a word of the index still give each address the key ``stream``
    gives it."""
    seed, start, length = 2**70 + 9, 2**32 - 11, 30
    want = [_philox_state(stream(seed, rng.HIERARCHY_DRAW, r)) for r in range(start, start + length)]
    built = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(rng, "_KEY_BATCH", 13)  # batches of 11, 13 and 6
    got = [_philox_state(gen) for gen in streams(seed, rng.HIERARCHY_DRAW, start, start + length)]
    assert built == []
    assert got == want


def test_reset_stream_draws_what_stream_draws():
    """The one generator ``streams`` resets draws what a fresh ``stream``
    draws at each address, also after a row that left Philox's buffer half
    used, after a ``random()`` call and after an odd count of 32-bit draws
    (which leaves a spare word)."""
    seed, start = 2**40 + 3, 2**16 - 3
    leftovers = [
        lambda g: g.standard_normal(3),
        lambda g: g.random(),
        lambda g: g.integers(0, 2**31, size=3, dtype=np.uint32),
        lambda g: g.standard_normal((2, 5)),
        lambda g: None,
        lambda g: g.random(7),
    ]
    for domain in _DOMAINS:
        gens = streams(seed, domain, start, start + len(leftovers))
        for r, (gen, leave) in enumerate(zip(gens, leftovers), start):
            fresh = stream(seed, domain, r)
            assert _philox_state(gen) == _philox_state(fresh)
            assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))
            assert gen.random() == fresh.random()
            assert np.array_equal(
                gen.integers(0, 2**31, size=5, dtype=np.uint32),
                fresh.integers(0, 2**31, size=5, dtype=np.uint32),
            )
            leave(gen)


def test_streams_reject_invalid_ranges():
    assert len(list(streams(1, OBSERVATION, 3, 3))) == 0
    for start, stop in ((-1, 3), (5, 4)):
        with pytest.raises(ValueError, match="needs 0 <= start <= stop"):
            streams(1, OBSERVATION, start, stop)
    with pytest.raises(ValueError, match="non-negative"):
        streams(-1, OBSERVATION, 0, 1)


def test_observation_eps_validation():
    with pytest.raises(ValueError):
        Observation(np.array([1.0]), eps=1.0)
    theta = make_parameters("explicit", 2, values=np.array([1.0, 1.0]))
    op = make_operator("constant", 2)
    with pytest.raises(ValueError):
        simulate_observation(theta, op, 0.0, seed=1)


def test_load_values_csv_roundtrip(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("value\n1.5\n-0.25\n3e-2\n")
    np.testing.assert_array_equal(load_values_csv(str(p)), [1.5, -0.25, 0.03])
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong\n1.0\n")
    with pytest.raises(ValueError):
        load_values_csv(str(bad))


@pytest.mark.parametrize(
    "text, message",
    [
        ("value,x\n1.0,2.0\n", "expected header value"),
        ("value\n1.0,2.0\n", "line 2: 2 cells where the header has 1"),
        ("value\n1.0\nabc\n", "line 3: could not convert"),
        ("value\n\n", "no rows below the header"),
    ],
)
def test_values_csv_is_read_exactly(tmp_path, text, message):
    """A values file has the one header ``value`` and one cell a row: a
    second column is an error, not a cell silently dropped."""
    path = tmp_path / "vals.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_values_csv(str(path))
