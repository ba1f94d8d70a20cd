"""Experiment runner: artifacts, sidecars, errors, cleanup, reproducibility."""

import csv
import json
import tracemalloc
from pathlib import Path

import pytest

import igssm
from igssm import experiment, montecarlo, selection
from igssm.cli import EXIT_CHECK, main
from igssm.config import ConfigError, ExperimentConfig, load_config
from igssm.experiment import run_experiment
from igssm.montecarlo import mc_bracket_mass, mc_concentration, mc_mise
from igssm.selection import (
    InfeasibleError,
    bracket_dimensions,
    check_assumptions,
    composite_constants,
    max_dimension,
    minimax_dimension,
    oracle_dimension,
)

SMALL = {
    "model": {"family": "polynomial", "decay": 1.0},
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "prior": {"kind": "improper"},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
    "eps_grid": [0.01, 0.003],
    "mc": {"reps": 20, "draws": 50},
    "seed": 7,
    "estimators": ["fixed", "oracle", "minimax", "adaptive"],
    "fixed_dims": [2],
    "concentration": {
        "kinds": ["sieve_oracle", "bracket_oracle"],
        "eps_grid": [0.01],
    },
    "audit": {"configs": 2, "reps": 10000},
}


def small_config(**overrides):
    raw = json.loads(json.dumps(SMALL))
    for key, value in overrides.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    return ExperimentConfig(raw)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = run_experiment(small_config(), out, check=True)
    return out, result


def test_set_up_keeps_only_the_arrays_the_monte_carlo_reads():
    """After set-up on the direct model at n = 2^18, the live memory is the
    arrays the stages read: lambda, log lambda^2 and its amplification
    cummax, theta, and the prior means, variances and improper mask.  The
    bias profile, the variance-proxy prefix sums and the class weights,
    which serve only the selections, are gone, and no cache on the
    operator or the truth holds a full-length array but the cummax."""
    n = 2**18
    cfg = ExperimentConfig({
        **SMALL, "model": {"family": "constant"}, "eps_grid": [0.01, 1.0 / n],
        "concentration": {"kinds": ["hierarchical_oracle", "bracket_oracle", "bracket_minimax"],
                          "eps_grid": [0.01, 0.001]},
    })
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        theta, _, op, _, _, concentration, _ = experiment._prepare(cfg, "all")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.n == n and len(concentration) == 6
    assert held - before <= (6 * 8 + 1) * n + 2**16
    full = {
        name
        for obj in (theta, op)
        for name, value in vars(obj).items()
        if any(getattr(a, "size", 0) == n for a in (value if isinstance(value, tuple) else (value,)))
    }
    assert full == {"values", "log_sq", "_log_amp_cummax"}


# Set-up at N = 2^20, where one full-length float array is 8 MiB: the
# indirect model with a flat prior, a direct one with a Gaussian prior and
# an exponential one with an exponential truth and the matched prior.  Each
# can run, so set-up plans and checks every row, each bracket included.
_LONG = 2**20
_SET_UPS = {
    "indirect_improper": {"model": {"family": "polynomial", "decay": 1.0, "n": _LONG}},
    "direct_gaussian": {"model": {"family": "constant", "n": _LONG},
                        "prior": {"kind": "gaussian", "variance": 2.0}},
    "exponential_matched": {"model": {"family": "exponential", "decay": 0.2, "n": _LONG},
                            "truth": {"family": "exponential", "exponent": 0.3},
                            "prior": {"kind": "matched", "d": 1.0}, "eps_grid": [0.1, 0.01]},
}
# What a set-up step may hold above the arrays it leaves behind: a few
# blocks of temporaries and the 1-byte-per-coordinate masks of the checks.
_SET_UP_MARGIN = 4 * 2**20


def _long_config(name):
    return ExperimentConfig({
        **SMALL, "eps_grid": [0.01, 1e-4, 1e-6],
        "concentration": {"kinds": ["sieve_oracle", "hierarchical_oracle", "bracket_oracle"],
                          "eps_grid": [0.01, 0.001]},
        **_SET_UPS[name],
    })


@pytest.mark.parametrize("name", list(_SET_UPS))
def test_set_up_peaks_at_the_arrays_it_keeps(name):
    """``_prepare`` peaks at no more than the arrays it keeps plus
    ``_SET_UP_MARGIN``.  Every full-length scan runs in fixed blocks and the
    selections read their profiles a block at a time, so one full-length
    temporary at the high-water mark fails this."""
    cfg = _long_config(name)
    tracemalloc.start()
    try:
        theta, prior, op, *_ = experiment._prepare(cfg, "all")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = [op.values, op.log_sq, op._log_amp_cummax, theta.values, prior.means, prior.variances, prior.improper]
    assert peak <= sum(a.nbytes for a in kept) + _SET_UP_MARGIN


def test_set_up_scans_each_profile_once(monkeypatch):
    """``_prepare`` scans the bias profile, the variance-proxy prefix sums
    and the class weights once each, for a run with three risk noise levels,
    two concentration ones and brackets of both selections: every selection
    and bracket reads that one set."""
    scans = []
    for name in ("_bias", "_prefix", "_weights"):
        scan = getattr(selection, name)
        monkeypatch.setattr(selection, name, lambda *a, scan=scan, name=name: scans.append(name) or scan(*a))
    cfg = ExperimentConfig({
        **SMALL, "eps_grid": [0.01, 0.003, 0.001],
        "concentration": {"kinds": ["sieve_oracle", "bracket_oracle", "sieve_minimax", "bracket_minimax"],
                          "eps_grid": [0.01, 0.003]},
    })
    concentration = experiment._prepare(cfg, "all")[5]
    assert len(concentration) == 8
    assert sorted(scans) == ["_bias", "_prefix", "_weights"]


@pytest.mark.parametrize("name", list(_SET_UPS))
def test_each_set_up_step_peaks_at_what_it_leaves(name):
    """Each step of set-up, from building each sequence to the rows of the
    concentration stage, holds at most ``_SET_UP_MARGIN`` above what it leaves behind,
    so no full-length temporary is built even where the arrays kept later
    would hide it from the overall peak."""
    cfg = _long_config(name)
    live = {}

    def step(key, build):
        tracemalloc.reset_peak()
        live[key] = build()
        after, peak = tracemalloc.get_traced_memory()
        assert peak - after <= _SET_UP_MARGIN, key

    tracemalloc.start()
    try:
        step("op", lambda: cfg.build_operator(_LONG))
        step("theta", lambda: cfg.build_truth(_LONG))
        step("prior", lambda: cfg.build_prior(live["op"]))
        step("class", lambda: cfg.build_class(_LONG))
        seqs = (live["theta"], live["prior"], live["op"])
        step("profiles", lambda: selection._profiles(*seqs, live["class"]))
        step("report", lambda: check_assumptions(*seqs, cfg.eps_grid, weighted_class=live["class"]))
        step("constants", lambda: composite_constants(live["report"], *seqs, weighted_class=live["class"]))
        step("rows", lambda: experiment._concentration_plan(
            cfg, *seqs, live["class"], live["profiles"], live["report"], live["report"].c_lambda,
            live["constants"]))
    finally:
        tracemalloc.stop()


def test_a_bracket_error_is_raised_before_any_concentration_replication(tmp_path, monkeypatch):
    """Set-up computes the brackets only for a run with a concentration
    stage, and raises a bracket's error there, before any replication and
    before ``--out`` is made, though a pass spans rows on both sides of the
    bracket row; ``select`` and ``sweep`` compute none and succeed."""
    def no_bracket(*args, **kwargs):
        raise InfeasibleError("no bracket")

    ran = []
    replications = montecarlo._replications
    monkeypatch.setattr(experiment, "_bracket", no_bracket)
    monkeypatch.setattr(montecarlo, "_replications", lambda *a: ran.append(a) or replications(*a))
    cfg = small_config(audit=None, estimators=[])
    assert experiment._prepare(cfg)[5] == []
    run_experiment(cfg, tmp_path / "sweep", subset="sweep")
    with pytest.raises(InfeasibleError, match="no bracket"):
        run_experiment(cfg, tmp_path / "run")
    assert ran == []  # not even the sieve_oracle row before the bracket_oracle one
    assert not (tmp_path / "run").exists()


def test_run_succeeds_with_all_artifacts(full_run):
    out, result = full_run
    assert result.failures == []
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "audit.csv",
        "audit.meta.json",
        "concentration.csv",
        "concentration.meta.json",
        "mise.csv",
        "mise.meta.json",
        "rates.csv",
        "rates.meta.json",
        "report.json",
    ]


def test_rates_csv_contract(full_run):
    out, _ = full_run
    rows = read_rows(out / "rates.csv")
    assert rows[0] == ["eps", "m_star", "phi_star", "m_circ", "phi_circ", "d", "C_lambda", "L_lambda", "kappa"]
    assert len(rows) == 3  # header + two grid points, largest eps first
    assert float(rows[1][0]) == 0.01 and float(rows[2][0]) == 0.003
    # the improper prior reports an infinite margin constant
    assert rows[1][5] == "inf"
    # numeric cells round-trip exactly through repr
    assert float(rows[1][2]) == pytest.approx(0.02668374002802781, abs=0)


def test_mise_csv_rows(full_run):
    out, _ = full_run
    rows = read_rows(out / "mise.csv")
    assert rows[0] == ["eps", "kind", "m", "mise", "se", "reps"]
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"fixed", "oracle", "minimax", "adaptive"}
    assert len(rows) == 1 + 2 * 4  # two eps, four estimators
    assert all(r[5] == "20" for r in rows[1:])


def test_concentration_csv_rows(full_run):
    out, _ = full_run
    rows = read_rows(out / "concentration.csv")
    assert rows[0] == ["eps", "kind", "m", "constant", "rate", "m_lo", "m_hi", "mass", "se"]
    by_kind = {r[1]: r for r in rows[1:]}
    assert set(by_kind) == {"sieve_oracle", "bracket_oracle"}
    band = by_kind["sieve_oracle"]
    assert band[5] == "" and band[6] == ""  # no bracket columns for bands
    bracket = by_kind["bracket_oracle"]
    assert bracket[3] == "" and bracket[4] == ""  # no constant/rate for brackets
    assert 1 <= int(bracket[5]) <= int(bracket[6])


DIRECT_BRACKETS = {
    # the direct model at eps=1e-4, where the oracle and minimax brackets
    # differ and c_lambda = 1.5 moves m_lo (on pp_small every bracket is
    # the whole search range)
    "model": {"family": "constant"},
    "eps_grid": [0.01, 0.0001],
    "c_lambda": 1.5,
    "estimators": [],
    "concentration": {"kinds": ["bracket_oracle", "bracket_minimax"]},
}


@pytest.mark.parametrize("overrides", [{}, DIRECT_BRACKETS], ids=["pp_small", "direct"])
def test_bracket_rows_carry_their_bracket_and_its_mass(tmp_path, overrides):
    """Every ``bracket_*`` row of ``run pp_small`` holds the bracket of
    ``bracket_dimensions`` at the run's ``c_lambda``, and the mass of
    ``mc_bracket_mass`` on that bracket."""
    cfg = load_config(Path(igssm.__file__).parent / "configs" / "pp_small.json")
    cfg = ExperimentConfig({**cfg.raw, **overrides})
    result = run_experiment(cfg, tmp_path)
    used = result.report["constants"]["c_lambda_used"]
    assert used == overrides.get("c_lambda", result.report["constants"]["c_lambda"])
    op, theta, prior = cfg.build_sequences()
    wclass = cfg.build_class()
    report = check_assumptions(theta, prior, op, cfg.eps_grid, weighted_class=wclass)
    rows = [r for r in read_rows(tmp_path / "concentration.csv")[1:] if r[1].startswith("bracket_")]
    assert sorted({r[1] for r in rows}) == ["bracket_minimax", "bracket_oracle"]
    assert len(rows) == 2 * len(cfg.concentration_eps_grid)
    for eps, kind, _, _, _, m_lo, m_hi, mass, se in rows:
        eps = float(eps)
        if kind == "bracket_minimax":
            sel = minimax_dimension(wclass, op, eps)
        else:
            sel = oracle_dimension(theta, prior, op, eps)
        bracket = bracket_dimensions(theta, prior, op, report, sel, weighted_class=wclass, c_lambda=used)
        assert (int(m_lo), int(m_hi)) == bracket
        est = mc_bracket_mass(theta, prior, op, eps, cfg.mc_reps, cfg.seed, bracket, used)
        assert (float(mass), float(se)) == (est.value, est.se)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_concentration_rows_equal_their_one_row_calls(tmp_path, monkeypatch, threads):
    """With all six kinds and all four estimators, where the stage runs one
    pass per posterior its risk and concentration rows read, every row of
    ``concentration.csv`` is bit for bit what the public
    ``mc_concentration`` or ``mc_bracket_mass`` gives it alone, and every
    row of ``mise.csv`` what ``mc_mise`` gives it, over chunks of several
    rows split across threads.  The composite band constants are vacuous
    here, so each kind gets a small one of its own that puts its mass
    strictly between 0 and 1 somewhere."""
    kinds = [
        "sieve_oracle", "hierarchical_oracle", "bracket_oracle",
        "sieve_minimax", "hierarchical_minimax", "bracket_minimax",
    ]
    bands = {"oracle_sieve": 1.5, "oracle_hierarchical": 1.8, "minimax_sieve": 2.5, "minimax_hierarchical": 1.2}
    composite = experiment.composite_constants
    monkeypatch.setattr(experiment, "composite_constants", lambda *a, **k: {**composite(*a, **k), **bands})
    overrides = {
        **DIRECT_BRACKETS, "concentration": {"kinds": kinds}, "mc": {"reps": 12, "draws": 40},
        "estimators": ["fixed", "oracle", "minimax", "adaptive"],
    }
    cfg = small_config(audit=None, **overrides)
    monkeypatch.setenv("IGSSM_THREADS", threads)
    monkeypatch.setattr(montecarlo, "_ROW_ELEMENTS", 256)
    result = run_experiment(cfg, tmp_path)
    used = result.report["constants"]["c_lambda_used"]
    op, theta, prior = cfg.build_sequences()
    rows = read_rows(tmp_path / "concentration.csv")[1:]
    assert [r[1] for r in rows] == kinds * len(cfg.concentration_eps_grid)
    for kind in kinds[:2] + kinds[3:5]:
        assert any(0.0 < float(r[7]) < 1.0 for r in rows if r[1] == kind), kind
    for eps, kind, m, constant, rate, m_lo, m_hi, mass, se in rows:
        eps = float(eps)
        if kind.startswith("bracket_"):
            est = mc_bracket_mass(theta, prior, op, eps, cfg.mc_reps, cfg.seed, (int(m_lo), int(m_hi)), used)
        else:
            given = {"c_lambda": used} if kind.startswith("hierarchical_") else {"m": int(m)}
            est = mc_concentration(
                theta, prior, op, eps, float(constant), float(rate), cfg.mc_reps, cfg.mc_draws, cfg.seed,
                two_sided=kind != "hierarchical_minimax", **given,
            )
        assert (float(mass), float(se)) == (est.value, est.se)
    risk = read_rows(tmp_path / "mise.csv")[1:]
    assert [r[1] for r in risk] == list(cfg.estimators) * len(cfg.eps_grid)
    for eps, kind, m, mise, se, reps in risk:
        given = {"c_lambda": used} if kind == "adaptive" else {"m": int(m)}
        est = mc_mise(theta, prior, op, float(eps), cfg.mc_reps, cfg.seed, **given)
        assert (float(mise), float(se), int(reps)) == (est.value, est.se, est.reps)


def test_each_task_runs_at_the_cut_its_row_reports(tmp_path, monkeypatch):
    """On ``pp_small`` every risk and concentration row runs where its CSV
    row says: at ``m`` for the sieve kinds, which is the report's selection,
    and at the search range M for the adaptive, hierarchical and bracket
    kinds.  The stage builds one task per posterior its rows read, risk
    and concentration rows alike: per noise level, one on the search range
    and one per sieve dimension, in the order of their first rows, so the
    fixed dimension 2, which is the oracle dimension at eps = 0.003, runs
    once there."""
    cfg = load_config(Path(igssm.__file__).parent / "configs" / "pp_small.json")
    raw = {key: value for key, value in cfg.raw.items() if key != "audit"}
    cfg = ExperimentConfig({**raw, "mc": {"reps": 2, "draws": 5}})
    cuts = []
    task = montecarlo._task

    def spy(theta, prior, op, eps, m=None, c_lambda=None):
        found = task(theta, prior, op, eps, m, c_lambda)
        cuts.append((eps, found.theta.size))
        return found

    monkeypatch.setattr(montecarlo, "_task", spy)
    result = run_experiment(cfg, tmp_path)
    op = cfg.build_sequences()[0]
    grid = result.report["grid"]
    selected = {
        "oracle": dict(zip(grid["eps"], grid["oracle_dims"])),
        "minimax": dict(zip(grid["eps"], grid["minimax_dims"])),
    }
    read = []  # (eps, cut) of every row, risk rows first
    risk = read_rows(tmp_path / "mise.csv")[1:]
    for eps, kind, m, *_ in risk:
        eps, m = float(eps), int(m)
        if kind in selected:
            assert m == selected[kind][eps]
        if kind == "adaptive":
            assert m == max_dimension(op, eps)
        read.append((eps, m))
    rows = read_rows(tmp_path / "concentration.csv")[1:]
    for eps, kind, m, *_ in rows:
        eps, m = float(eps), int(m)
        selection = kind.rpartition("_")[2]
        if kind.startswith("sieve_"):
            assert m == selected[selection][eps]
            cut = m
        else:
            cut = max_dimension(op, eps)
            assert m == (selected[selection][eps] if kind.startswith("bracket_") else cut)
        read.append((eps, cut))
    assert len(risk) == 2 * 4 and len(rows) == 2 * 6  # every row of both grid points
    assert cuts == list(dict.fromkeys(read))
    assert len(cuts) == 7  # four posteriors per noise level; at 0.003 the fixed and the oracle one coincide


def test_adaptive_outside_the_search_range_exits_3_before_any_replication(tmp_path, monkeypatch):
    """The adaptive risk needs the oracle dimension inside the search range
    at every noise level; set-up checks that before any task runs."""
    cfg = small_config(
        model={"family": "exponential", "decay": 0.5},
        truth={"family": "polynomial", "exponent": 0.6, "scale": 1.0},
        eps_grid=[0.5],
        estimators=["fixed", "adaptive"],
        concentration=None,
    )
    ran = []
    replications = montecarlo._replications

    def spy(*args):
        ran.append(args)
        return replications(*args)

    monkeypatch.setattr(montecarlo, "_replications", spy)
    out = tmp_path / "inf"
    with pytest.raises(InfeasibleError, match="exceeds the search range 1 at eps=0.5"):
        run_experiment(cfg, out)
    assert ran == []
    assert not out.exists()


def test_sidecars_carry_run_metadata_and_nothing_else(full_run):
    out, _ = full_run
    cfg = small_config()
    for stem in ("rates", "mise", "concentration", "audit"):
        meta = json.loads((out / f"{stem}.meta.json").read_text())
        assert set(meta) == {"artifact", "config_sha256", "seed", "version"}
        assert meta["artifact"] == f"{stem}.csv"
        assert meta["config_sha256"] == cfg.sha256()
        assert meta["seed"] == 7


def test_report_structure(full_run):
    out, _ = full_run
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert report["constants"]["c_lambda"] == 1.0
    assert report["constants"]["c_lambda_used"] == 1.0
    assert report["constants"]["d"] == "inf"
    composite = report["constants"]["composite"]
    assert set(composite) >= {"oracle_sieve", "oracle_hierarchical", "minimax_sieve"}
    assert report["checks"] == {"enabled": True, "failures": []}
    # grid block mirrors the rates table
    assert report["grid"]["eps"] == [0.01, 0.003]


def test_reruns_are_byte_identical(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    for name in ("rates.csv", "mise.csv", "concentration.csv", "audit.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def serial_seven(tmp_path_factory):
    """A serial run at 7 replications, which neither 2 nor 3 workers split
    evenly."""
    out = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IGSSM_THREADS", "1")
        run_experiment(small_config(mc={"reps": 7, "draws": 50}), out)
    return out


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_thread_count_does_not_change_results(tmp_path, monkeypatch, serial_seven, threads):
    monkeypatch.setenv("IGSSM_THREADS", threads)
    run_experiment(small_config(mc={"reps": 7, "draws": 50}), tmp_path)
    for name in ("rates.csv", "mise.csv", "concentration.csv", "audit.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (serial_seven / name).read_bytes(), name


def test_seed_and_reps_overrides(tmp_path):
    cfg = small_config()
    out = tmp_path / "o"
    run_experiment(cfg, out, seed=99, reps=5, subset="sweep")
    rows = read_rows(out / "mise.csv")
    assert all(r[5] == "5" for r in rows[1:])
    meta = json.loads((out / "mise.meta.json").read_text())
    assert meta["seed"] == 99


def test_sweep_subset_writes_no_concentration(tmp_path):
    out = tmp_path / "sweep"
    run_experiment(small_config(), out, subset="sweep")
    names = {p.name for p in out.iterdir()}
    assert "concentration.csv" not in names and "audit.csv" not in names
    assert {"rates.csv", "mise.csv", "report.json"} <= names


def test_infeasible_selection_exits_3_and_cleans_up(tmp_path, monkeypatch):
    """A concentration row whose selection lies past the search range is
    found in set-up: not even the oracle risk rows before it run, and
    ``--out`` is not made."""
    ran = []
    replications = montecarlo._replications
    monkeypatch.setattr(montecarlo, "_replications", lambda *a: ran.append(a) or replications(*a))
    cfg = small_config(
        model={"family": "exponential", "decay": 0.5},
        truth={"family": "polynomial", "exponent": 0.6, "scale": 1.0},
        eps_grid=[0.5],
        concentration={"kinds": ["sieve_oracle"], "eps_grid": [0.5]},
        estimators=["oracle"],
        fixed_dims=None,
    )
    out = tmp_path / "inf"
    with pytest.raises(InfeasibleError, match="exceeds the search range 1 at eps=0.5 for sieve_oracle"):
        run_experiment(cfg, out)
    assert ran == []
    assert not out.exists()


def test_unexpected_error_removes_partial_artifacts(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(experiment, "_mc_stage", broken)
    out = tmp_path / "broken"
    with pytest.raises(RuntimeError, match="stage failed"):
        run_experiment(small_config(), out)
    assert list(out.iterdir()) == []  # rates.csv was written before the failure


def test_an_interrupt_mid_write_leaves_no_artifact(tmp_path, monkeypatch):
    """Each file is recorded before it is opened, so an interrupt while
    ``mise.csv`` is half written removes it with ``rates.csv`` and its
    sidecar."""
    out = tmp_path / "cut"
    cell = experiment._cell
    cells = []

    def interrupted(value):
        if (out / "mise.csv").exists():
            cells.append(value)
            if len(cells) == 10:
                raise KeyboardInterrupt
        return cell(value)

    monkeypatch.setattr(experiment, "_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(small_config(mc={"reps": 2, "draws": 5}), out, subset="sweep")
    assert len(cells) == 10  # 8 rows of 6 cells: the interrupt came mid-file
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
def test_invalid_thread_count_is_a_config_error(tmp_path, monkeypatch, value):
    monkeypatch.setenv("IGSSM_THREADS", value)
    out = tmp_path / "threads"
    with pytest.raises(ConfigError, match="IGSSM_THREADS must be a positive integer"):
        run_experiment(small_config(), out)
    assert not out.exists()


def _power_rows(kind, grid, slope):
    """``mise.csv`` rows of ``kind`` whose risk is exactly ``eps**slope``."""
    return [[eps, kind, 1, eps**slope, 1e-9, 4] for eps in grid]


def test_rate_check_fails_only_on_a_mismatch_on_an_adequate_grid():
    """The theory's exponent on ``SMALL`` is 2/5.  A slope far from it fails
    the rate line on four noise levels over three decades, once per such
    kind; on three levels the grid is not adequate and no slope fails."""
    cfg = small_config()
    adequate, short = [1e-2, 1e-3, 1e-4, 1e-5], [1e-2, 1e-3, 1e-4]
    rows = _power_rows("oracle", adequate, 0.4) + _power_rows("minimax", adequate, 0.8)
    rows += _power_rows("adaptive", short, 0.8)
    fits = experiment._rate_fits(cfg, rows)
    assert [fit["matches"] for fit in fits.values()] == [True, False, None]
    failures = experiment._run_checks(cfg, fits, [], [])
    assert len(failures) == 1 and failures[0].startswith("rate: minimax slope 0.8000 outside 0.4 +/- 0.08")


def test_concentration_and_bracket_checks_read_only_the_smallest_noise_level():
    """Below the floor 0.9 a band row fails, and above the ceiling 0.1 a
    bracket row fails, each only at the smallest noise level of the
    concentration grid; a mass on the bound passes."""
    cfg = small_config()
    rows = [
        [0.01, "sieve_oracle", 3, 2.0, 0.1, None, None, 0.2, 0.01],
        [0.01, "bracket_oracle", 3, None, None, 1, 5, 0.8, 0.01],
        [0.001, "sieve_oracle", 5, 2.0, 0.01, None, None, 0.5, 0.01],
        [0.001, "hierarchical_minimax", 100, 2.0, 0.01, None, None, 0.9, 0.01],
        [0.001, "bracket_oracle", 5, None, None, 1, 9, 0.25, 0.01],
        [0.001, "bracket_minimax", 5, None, None, 1, 9, 0.1, 0.01],
    ]
    assert experiment._run_checks(cfg, {}, rows, []) == [
        "concentration: sieve_oracle band mass 0.5000 < 0.9 at eps=0.001",
        "bracket: bracket_oracle outside-mass 0.2500 > 0.1 at eps=0.001",
    ]
    # without the smaller level, the rows at 0.01 are the ones checked
    assert experiment._run_checks(cfg, {}, rows[:2], []) == [
        "concentration: sieve_oracle band mass 0.2000 < 0.9 at eps=0.01",
        "bracket: bracket_oracle outside-mass 0.8000 > 0.1 at eps=0.01",
    ]


def test_audit_check_fails_on_each_config_past_its_bound():
    cfg = small_config()
    rows = [[i, 3, 1.0, *[0.0] * 11, passed] for i, passed in enumerate([True, False, True, False])]
    assert experiment._run_checks(cfg, {}, [], rows) == [
        "audit: config 1 exceeded its tail bound",
        "audit: config 3 exceeded its tail bound",
    ]


def test_failed_check_exits_4(tmp_path, capsys):
    cfg = small_config(
        eps_grid=[0.01, 0.001, 0.0001, 0.00001],
        mc={"reps": 3, "draws": 10},
        estimators=["minimax"],
        fixed_dims=None,
        concentration=None,
        audit=None,
        check={"rate_tol": 1e-6},
    )
    out = tmp_path / "strict"
    res = run_experiment(cfg, out, check=True)
    assert any("rate" in f for f in res.failures)
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["failures"] == res.failures
    # the CLI prints each failure and turns them into its exit code
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg.raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "cli"), "--check"]) == EXIT_CHECK
    printed = capsys.readouterr().out.splitlines()
    assert printed[-len(res.failures):] == [f"check failed: {f}" for f in res.failures]
