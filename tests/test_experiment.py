"""Experiment runner: artifacts, sidecars, exit codes, reproducibility."""

import csv
import json
from pathlib import Path

import pytest

import igssm
from igssm import experiment, montecarlo
from igssm.config import ExperimentConfig, load_config
from igssm.experiment import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    run_experiment,
)
from igssm.montecarlo import mc_bracket_mass
from igssm.selection import (
    bracket_dimensions,
    check_assumptions,
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
    result = run_experiment(small_config(), out, check=True, quiet=True)
    return out, result


def test_run_succeeds_with_all_artifacts(full_run):
    out, result = full_run
    assert result.exit_code == EXIT_OK
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
    result = run_experiment(cfg, tmp_path, quiet=True)
    assert result.exit_code == EXIT_OK
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


def test_each_task_runs_at_the_cut_its_row_reports(tmp_path, monkeypatch):
    """On ``pp_small`` every risk, concentration and bracket task cuts the
    problem where its CSV row says: at ``m`` for the sieve kinds, which is
    the report's selection, and at the search range M for the adaptive,
    hierarchical and bracket kinds."""
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
    result = run_experiment(cfg, tmp_path, quiet=True)
    assert result.exit_code == EXIT_OK
    op = cfg.build_sequences()[0]
    grid = result.report["grid"]
    selected = {
        "oracle": dict(zip(grid["eps"], grid["oracle_dims"])),
        "minimax": dict(zip(grid["eps"], grid["minimax_dims"])),
    }
    want = []
    for eps, kind, m, *_ in read_rows(tmp_path / "mise.csv")[1:]:
        eps, m = float(eps), int(m)
        if kind in selected:
            assert m == selected[kind][eps]
        if kind == "adaptive":
            assert m == max_dimension(op, eps)
        want.append((eps, m))
    for eps, kind, m, *_ in read_rows(tmp_path / "concentration.csv")[1:]:
        eps, m = float(eps), int(m)
        selection = kind.rpartition("_")[2]
        if kind.startswith("sieve_"):
            assert m == selected[selection][eps]
            want.append((eps, m))
        else:
            search = max_dimension(op, eps)
            assert m == (selected[selection][eps] if kind.startswith("bracket_") else search)
            want.append((eps, search))
    assert len(want) == 2 * 4 + 2 * 6  # every row of both grid points
    assert cuts == want


def test_adaptive_outside_the_search_range_exits_3_before_any_replication(tmp_path, monkeypatch):
    """The adaptive risk needs the oracle dimension inside the search range
    at every noise level; the risk stage checks that before any task runs."""
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
    res = run_experiment(cfg, out, quiet=True)
    assert res.exit_code == EXIT_INFEASIBLE
    assert "exceeds the search range 1 at eps=0.5" in res.error
    assert ran == []
    assert list(out.iterdir()) == []


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
    run_experiment(cfg, a, quiet=True)
    run_experiment(cfg, b, quiet=True)
    for name in ("rates.csv", "mise.csv", "concentration.csv", "audit.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def serial_seven(tmp_path_factory):
    """A serial run at 7 replications, which neither 2 nor 3 workers split
    evenly."""
    out = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IGSSM_THREADS", "1")
        run_experiment(small_config(mc={"reps": 7, "draws": 50}), out, quiet=True)
    return out


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_thread_count_does_not_change_results(tmp_path, monkeypatch, serial_seven, threads):
    monkeypatch.setenv("IGSSM_THREADS", threads)
    run_experiment(small_config(mc={"reps": 7, "draws": 50}), tmp_path, quiet=True)
    for name in ("rates.csv", "mise.csv", "concentration.csv", "audit.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (serial_seven / name).read_bytes(), name


def test_seed_and_reps_overrides(tmp_path):
    cfg = small_config()
    out = tmp_path / "o"
    res = run_experiment(cfg, out, quiet=True, seed=99, reps=5, subset="sweep")
    assert res.exit_code == EXIT_OK
    rows = read_rows(out / "mise.csv")
    assert all(r[5] == "5" for r in rows[1:])
    meta = json.loads((out / "mise.meta.json").read_text())
    assert meta["seed"] == 99


def test_sweep_subset_writes_no_concentration(tmp_path):
    out = tmp_path / "sweep"
    res = run_experiment(small_config(), out, quiet=True, subset="sweep")
    assert res.exit_code == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert "concentration.csv" not in names and "audit.csv" not in names
    assert {"rates.csv", "mise.csv", "report.json"} <= names


def test_infeasible_selection_exits_3_and_cleans_up(tmp_path):
    cfg = small_config(
        model={"family": "exponential", "decay": 0.5},
        truth={"family": "polynomial", "exponent": 0.6, "scale": 1.0},
        eps_grid=[0.5],
        concentration={"kinds": ["sieve_oracle"], "eps_grid": [0.5]},
        estimators=["oracle"],
        fixed_dims=None,
    )
    out = tmp_path / "inf"
    res = run_experiment(cfg, out, quiet=True)
    assert res.exit_code == EXIT_INFEASIBLE
    assert "exceeds the search range" in res.error
    assert list(out.iterdir()) == []  # partial artifacts removed


def test_unexpected_error_removes_partial_artifacts(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(experiment, "mc_mise", broken)
    out = tmp_path / "broken"
    with pytest.raises(RuntimeError, match="stage failed"):
        run_experiment(small_config(), out, quiet=True)
    assert list(out.iterdir()) == []  # rates.csv was written before the failure


@pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
def test_invalid_thread_count_is_a_config_error(tmp_path, monkeypatch, value):
    monkeypatch.setenv("IGSSM_THREADS", value)
    out = tmp_path / "threads"
    res = run_experiment(small_config(), out, quiet=True)
    assert res.exit_code == EXIT_CONFIG
    assert "IGSSM_THREADS must be a positive integer" in res.error
    assert list(out.iterdir()) == []


def test_failed_check_exits_4(tmp_path):
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
    res = run_experiment(cfg, out, check=True, quiet=True)
    assert res.exit_code == EXIT_CHECK
    assert any("rate" in f for f in res.failures)
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["failures"] == res.failures
