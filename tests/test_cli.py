"""End-to-end exercises of the command-line interface, run in process."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igssm
from igssm import __version__
from igssm.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_meta(csv_path):
    sidecar = csv_path.with_name(csv_path.stem + ".meta.json")
    return json.loads(sidecar.read_text(encoding="utf-8"))


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only where the exponential truth family's tail
    needs quadrature, so starting the CLI does not pay for it."""
    src = str(Path(igssm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, igssm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"igssm {__version__}"


def test_simulate_bundled_config(tmp_path, capsys):
    rc = run_cli("simulate", "--config", "pp_small", "--out", tmp_path)
    assert rc == 0
    assert "observation.csv: 100 coordinates at eps=0.01" in capsys.readouterr().out

    header, rows = read_csv(tmp_path / "observation.csv")
    assert header == ["j", "y"]
    assert len(rows) == 100  # ceil(1/eps) at the coarsest grid level
    assert [int(r[0]) for r in rows] == list(range(1, 101))

    meta = read_meta(tmp_path / "observation.csv")
    assert meta == {
        "artifact": "observation.csv",
        "config_sha256": meta["config_sha256"],
        "eps": 0.01,
        "n": 100,
        "seed": 7,
        "version": __version__,
    }
    assert len(meta["config_sha256"]) == 64


def test_simulate_eps_and_seed_overrides(tmp_path):
    rc = run_cli(
        "simulate", "--config", "pp_small", "--out", tmp_path,
        "--eps", "0.003", "--seed", "11", "--quiet",
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "observation.csv")
    assert len(rows) == 334
    meta = read_meta(tmp_path / "observation.csv")
    assert meta["eps"] == 0.003
    assert meta["seed"] == 11


def test_posterior_roundtrip(tmp_path):
    assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--quiet") == 0
    rc = run_cli(
        "posterior", "--config", "pp_small",
        "--obs", tmp_path / "observation.csv", "--out", tmp_path, "--quiet",
    )
    assert rc == 0

    header, post_rows = read_csv(tmp_path / "posterior.csv")
    assert header == ["j", "sigma", "post_mean"]
    _, obs_rows = read_csv(tmp_path / "observation.csv")
    assert len(post_rows) == len(obs_rows) == 100

    # Improper prior, lambda_j = 1/j: sigma_j = eps j^2 and mean_j = j Y_j.
    y = np.array([float(r[1]) for r in obs_rows])
    j = np.arange(1, 101, dtype=float)
    sigma = np.array([float(r[1]) for r in post_rows])
    mean = np.array([float(r[2]) for r in post_rows])
    np.testing.assert_allclose(sigma, 0.01 * j**2, rtol=1e-12)
    np.testing.assert_allclose(mean, j * y, rtol=1e-12)

    meta = read_meta(tmp_path / "posterior.csv")
    assert meta["artifact"] == "posterior.csv"
    assert meta["eps"] == 0.01


def test_adapt_roundtrip(tmp_path):
    assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--quiet") == 0
    rc = run_cli(
        "adapt", "--config", "pp_small",
        "--obs", tmp_path / "observation.csv", "--out", tmp_path, "--quiet",
    )
    assert rc == 0

    header, dist_rows = read_csv(tmp_path / "dimension_posterior.csv")
    assert header == ["m", "log_weight", "prob"]
    assert [int(r[0]) for r in dist_rows] == list(range(1, 11))  # search range at eps=0.01
    probs = np.array([float(r[2]) for r in dist_rows])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0.0).all()

    header, est_rows = read_csv(tmp_path / "adaptive.csv")
    assert header == ["j", "omega", "theta_hat"]
    assert len(est_rows) == 100
    omega = np.array([float(r[1]) for r in est_rows])
    theta_hat = np.array([float(r[2]) for r in est_rows])
    # omega_j = P(dimension >= j | data): starts at one, non-increasing,
    # and the column is zero-padded past the search range.
    assert omega[0] == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(omega[:10]) <= 1e-12).all()
    assert (omega[10:] == 0.0).all()
    # Improper prior mean is zero beyond the search range.
    assert (theta_hat[10:] == 0.0).all()

    meta = read_meta(tmp_path / "adaptive.csv")
    assert meta["c_lambda"] == 1.0  # certified constant for polynomial decay


def test_adapt_honours_config_override(tmp_path):
    # pp_p1_a1 pins the dimension-prior penalty constant at 1.5.
    assert run_cli(
        "simulate", "--config", "pp_p1_a1", "--out", tmp_path, "--quiet",
    ) == 0
    rc = run_cli(
        "adapt", "--config", "pp_p1_a1",
        "--obs", tmp_path / "observation.csv", "--out", tmp_path, "--quiet",
    )
    assert rc == 0
    assert read_meta(tmp_path / "adaptive.csv")["c_lambda"] == 1.5


def test_select_payload(tmp_path):
    rc = run_cli("select", "--config", "pp_p1_a1", "--out", tmp_path, "--quiet")
    assert rc == 0
    payload = json.loads((tmp_path / "selection.json").read_text(encoding="utf-8"))

    constants = payload["constants"]
    assert constants["d"] == "inf"
    assert constants["c_lambda"] == 1.0
    assert constants["c_lambda_used"] == 1.5
    assert constants["submultiplicative"] is True
    assert constants["submult_witness"] is None
    assert 0.0 < constants["kappa_oracle"] <= 1.0
    assert 0.0 < constants["kappa_minimax"] <= 1.0
    assert set(constants["composite"]) == {
        "oracle_sieve",
        "oracle_hierarchical",
        "oracle_adaptive_mise",
        "minimax_sieve",
        "minimax_hierarchical",
        "minimax_adaptive_mise",
    }

    grid = payload["grid"]
    assert len(grid["eps"]) == 5
    assert grid["eps"] == sorted(grid["eps"], reverse=True)
    assert all(grid["feasible"])
    # Oracle dimensions grow as the noise level shrinks.
    assert grid["oracle_dims"] == sorted(grid["oracle_dims"])
    assert payload["version"] == __version__


def test_select_matched_prior_reports_unit_dimension(tmp_path):
    # Signal equal to the prior mean: selection is a variance-only argmin, so
    # every grid point picks dimension 1 and the balance constant is zero.
    cfg = {
        "model": {"family": "constant", "n": 8},
        "truth": {"family": "explicit", "values": [0.0] * 8},
        "prior": {"kind": "improper"},
        "eps_grid": [0.1, 0.01],
        "seed": 3,
    }
    path = tmp_path / "matched.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = run_cli("select", "--config", path, "--out", tmp_path, "--quiet")
    assert rc == 0
    payload = json.loads((tmp_path / "selection.json").read_text(encoding="utf-8"))
    assert payload["grid"]["oracle_dims"] == [1, 1]
    assert payload["constants"]["kappa_oracle"] == 0.0
    for value in payload["constants"]["composite"].values():
        assert math.isfinite(value)


def test_select_with_path_and_default_out(tmp_path, monkeypatch):
    cfg = {
        "model": {"family": "polynomial", "decay": 1.0},
        "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
        "prior": {"kind": "improper"},
        "eps_grid": [0.01],
        "seed": 3,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli("select", "--config", path, "--quiet") == 0
    payload = json.loads((tmp_path / "igssm_out" / "selection.json").read_text())
    assert payload["grid"]["minimax_dims"] is None  # no class block
    assert payload["n"] == 100


def test_bad_eps_exits_config_error(tmp_path, capsys):
    rc = run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--eps", "1.5")
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "open interval (0, 1)" in err


def test_unknown_config_name_exits_config_error(tmp_path, capsys):
    rc = run_cli("select", "--config", "no_such_config", "--out", tmp_path)
    assert rc == 2
    assert "neither a file nor a bundled config name" in capsys.readouterr().err


def test_posterior_length_mismatch(tmp_path, capsys):
    assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--quiet") == 0
    sidecar = tmp_path / "observation.meta.json"
    meta = json.loads(sidecar.read_text())
    meta["eps"] = 0.003  # model length at this noise level is 334, not 100
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    rc = run_cli(
        "posterior", "--config", "pp_small",
        "--obs", tmp_path / "observation.csv", "--out", tmp_path,
    )
    assert rc == 2
    assert "does not match the config's sequence length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "breakage, message",
    [
        ("header", "expected header j,y"),
        ("float", "malformed observation input"),
        ("sidecar", "cannot read observation"),
        ("empty", "expected header j,y"),
    ],
)
def test_malformed_observation_inputs(tmp_path, capsys, breakage, message):
    obs = tmp_path / "observation.csv"
    sidecar = tmp_path / "observation.meta.json"
    if breakage == "header":
        obs.write_text("a,b\n1,0.5\n", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    elif breakage == "empty":
        obs.write_text("", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    elif breakage == "float":
        obs.write_text("j,y\n1,not_a_number\n", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    else:
        obs.write_text("j,y\n1,0.5\n", encoding="utf-8")  # sidecar missing
    rc = run_cli("posterior", "--config", "pp_small", "--obs", obs, "--out", tmp_path)
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["posterior", "adapt"])
@pytest.mark.parametrize("missing", ["eps", "seed"])
def test_sidecar_without_eps_or_seed_exits_config_error(tmp_path, capsys, command, missing):
    assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--quiet") == 0
    sidecar = tmp_path / "observation.meta.json"
    meta = json.loads(sidecar.read_text())
    del meta[missing]
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    rc = run_cli(
        command, "--config", "pp_small",
        "--obs", tmp_path / "observation.csv", "--out", tmp_path,
    )
    assert rc == 2
    assert f"observation sidecar lacks '{missing}'" in capsys.readouterr().err


def test_infeasible_run_exits_3(tmp_path, capsys):
    # Severe ill-posedness at a coarse noise level: the oracle dimension
    # escapes the feasible search range.
    cfg = {
        "model": {"family": "exponential", "decay": 0.5},
        "truth": {"family": "polynomial", "exponent": 0.6, "scale": 1.0},
        "prior": {"kind": "improper"},
        "eps_grid": [0.5],
        "mc": {"reps": 5, "draws": 10},
        "seed": 1,
        "estimators": ["adaptive"],
    }
    path = tmp_path / "illposed.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = run_cli("run", "--config", path, "--out", tmp_path / "out", "--quiet")
    assert rc == 3
    assert "exceeds the search range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_audit_reps_floor_enforced(tmp_path, capsys):
    rc = run_cli(
        "audit", "--config", "pp_small", "--out", tmp_path, "--reps", "500",
    )
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_audit_subcommand(tmp_path):
    rc = run_cli("audit", "--config", "pp_small", "--out", tmp_path, "--quiet")
    assert rc == 0
    header, rows = read_csv(tmp_path / "audit.csv")
    assert len(rows) == 3  # audit block requests three suite configs
    assert read_meta(tmp_path / "audit.csv")["artifact"] == "audit.csv"


def test_audit_bundled_suite_all_rows_pass(tmp_path):
    # The bundled tail_audit config exists solely to drive this check: every
    # randomized suite config must respect its analytic bound within 3 SE.
    rc = run_cli("audit", "--config", "tail_audit", "--out", tmp_path, "--quiet")
    assert rc == 0
    header, rows = read_csv(tmp_path / "audit.csv")
    assert len(rows) == 60
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        bound = float(row[col["prob_bound"]])
        ok = (
            float(row[col["lower_emp"]])
            <= bound + 3.0 * float(row[col["lower_se"]])
        ) and (
            float(row[col["upper_emp"]])
            <= bound + 3.0 * float(row[col["upper_se"]])
        )
        over_cell = row[col["overshoot_bound"]]
        if over_cell:  # blank cell: no overshoot bound certified for c < 1
            ok = ok and (
                float(row[col["overshoot_emp"]])
                <= float(over_cell) + 3.0 * float(row[col["overshoot_se"]])
            )
        assert ok, f"config {row[col['index']]} exceeded its tail bound"
        assert row[col["passed"]] == "true"


def test_sweep_is_deterministic(tmp_path):
    for name in ("first", "second"):
        rc = run_cli(
            "sweep", "--config", "pp_small", "--out", tmp_path / name,
            "--reps", "5", "--quiet",
        )
        assert rc == 0
    for artifact in ("rates.csv", "mise.csv"):
        first = (tmp_path / "first" / artifact).read_bytes()
        second = (tmp_path / "second" / artifact).read_bytes()
        assert first == second
    assert not (tmp_path / "first" / "concentration.csv").exists()


@pytest.mark.parametrize("command", ["select", "posterior", "adapt"])
def test_seed_flag_only_where_it_has_an_effect(tmp_path, capsys, command):
    """``select`` draws nothing and ``posterior``/``adapt`` take the seed from
    the observation sidecar, so argparse rejects ``--seed`` on them."""
    argv = [command, "--config", "pp_small", "--out", tmp_path, "--seed", "1"]
    if command != "select":
        argv += ["--obs", tmp_path / "observation.csv"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
