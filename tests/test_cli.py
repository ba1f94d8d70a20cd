"""End-to-end exercises of the command-line interface, run in process."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import igssm
from igssm import __version__
from igssm.cli import main
from igssm import config, experiment, montecarlo
from igssm.config import CONCENTRATION_KINDS, load_config


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_meta(csv_path):
    sidecar = csv_path.with_name(csv_path.stem + ".meta.json")
    return json.loads(sidecar.read_text(encoding="utf-8"))


def _bundled(name):
    return load_config(Path(igssm.__file__).parent / "configs" / f"{name}.json")


def _cli_env():
    """The environment of a fresh interpreter that imports this igssm."""
    src = str(Path(igssm.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """scipy is not a runtime dependency: the CLI never imports it, not
    even to run a config with an exponential truth, whose tail bound is the
    closed-form incomplete gamma function."""
    raw = {"model": {"family": "polynomial", "decay": 1.0},
           "truth": {"family": "exponential", "exponent": 0.1, "scale": 0.5},
           "prior": {"kind": "improper"}, "eps_grid": [0.01, 0.001], "mc": {"reps": 2, "draws": 5},
           "seed": 1, "estimators": ["oracle"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code = ("import sys, igssm.cli; code = igssm.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2], "
            "'--quiet']); print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")], env=_cli_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "mise.csv").is_file()


def test_loading_a_config_leaves_jsonschema_unloaded():
    """Configs are validated without jsonschema, so neither it nor the
    packages it pulls in are imported by the CLI or by ``load_config``."""
    env = _cli_env()
    config = Path(igssm.__file__).parent / "configs" / "pp_p1_a1.json"
    code = (
        "import sys, igssm.cli; from igssm.config import load_config; load_config(sys.argv[1]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'referencing', 'attrs', 'attr')))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True, check=True)
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


def test_simulate_defaults_to_the_largest_noise_level(tmp_path):
    """Without ``--eps``, ``simulate`` takes the largest level of the grid,
    which the config sorts, not the first one written."""
    raw = {**_bundled("pp_small").raw, "eps_grid": [0.001, 0.01]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--quiet") == 0
    assert read_meta(tmp_path / "out" / "observation.csv")["eps"] == 0.01


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


@pytest.mark.parametrize("command", ["posterior", "adapt"])
def test_observation_commands_accept_a_values_file_operator(tmp_path, command):
    """A values_file operator fixes its own length (here 50, where eps=0.01
    would give 100), and both commands read what simulate wrote on it."""
    (tmp_path / "ops.csv").write_text(
        "value\n" + "".join(f"{1.0 / j!r}\n" for j in range(1, 51)), encoding="utf-8"
    )
    config = tmp_path / "values_file.json"
    config.write_text(json.dumps({
        "model": {"family": "explicit", "values_file": "ops.csv"},
        "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
        "prior": {"kind": "improper"},
        "eps_grid": [0.01],
        "seed": 3,
    }), encoding="utf-8")
    assert run_cli("simulate", "--config", config, "--out", tmp_path, "--quiet") == 0
    obs = tmp_path / "observation.csv"
    assert run_cli(command, "--config", config, "--obs", obs, "--out", tmp_path, "--quiet") == 0
    name = "posterior.csv" if command == "posterior" else "adaptive.csv"
    assert len(read_csv(tmp_path / name)[1]) == len(read_csv(obs)[1]) == 50


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
        ("extra_column", "expected header j,y"),
        ("wide_row", "3 cells where the header has 2"),
        ("eps", "noise levels must lie in the open interval (0, 1)"),
        ("nan", "observation values must be finite"),
        ("inf", "observation values must be finite"),
        ("1e308", "posterior means must be finite"),  # y_2 / lambda_2 overflows
        ("1e200", "log weights must be finite"),  # only the squared contrast overflows
    ],
)
def test_malformed_observation_inputs(tmp_path, capsys, breakage, message):
    obs = tmp_path / "observation.csv"
    sidecar = tmp_path / "observation.meta.json"
    command = "posterior"
    if breakage in ("nan", "inf", "1e308", "1e200"):
        assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path, "--quiet") == 0
        header, rows = read_csv(obs)
        rows[1][1] = breakage
        obs.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n", encoding="utf-8")
        if breakage == "1e200":  # its posterior means are finite: only adapt fails
            command = "adapt"
    elif breakage == "header":
        obs.write_text("a,b\n1,0.5\n", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    elif breakage == "empty":
        obs.write_text("", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    elif breakage in ("extra_column", "wide_row"):
        text = "j,y,z\n1,0.5,0\n" if breakage == "extra_column" else "j,y\n1,0.5,0\n"
        obs.write_text(text, encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    elif breakage == "eps":
        obs.write_text("j,y\n1,0.5\n", encoding="utf-8")
        sidecar.write_text('{"eps": 0, "seed": 1}', encoding="utf-8")
    elif breakage == "float":
        obs.write_text("j,y\n1,not_a_number\n", encoding="utf-8")
        sidecar.write_text('{"eps": 0.01, "seed": 1}', encoding="utf-8")
    else:
        obs.write_text("j,y\n1,0.5\n", encoding="utf-8")  # sidecar missing
    rc = run_cli(command, "--config", "pp_small", "--obs", obs, "--out", tmp_path / "out")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "run"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_config_numbers_exit_config_error(tmp_path, capsys, command, value):
    """``json`` reads ``NaN`` and ``Infinity``, which every schema bound lets
    through for NaN; the config loader rejects both tokens."""
    raw = json.loads((Path(igssm.__file__).parent / "configs" / "pp_small.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**raw, "c_lambda": value}), encoding="utf-8")
    rc = run_cli(command, "--config", config, "--out", tmp_path / "out", "--quiet")
    assert rc == 2
    token = "NaN" if math.isnan(value) else "Infinity"
    assert f"{token} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["posterior", "adapt"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"eps": 0.01, "seed": Infinity}', "Infinity is not a finite number"),
        ('{"eps": 0.01, "seed": 1.5}', "seed: 1.5 is not of type 'integer'"),
        ('{"eps": 0.01, "seed": true}', "seed: True is not of type 'integer'"),
        ('{"eps": 0.01, "seed": "7"}', "seed: '7' is not of type 'integer'"),
        ('{"eps": 0.01, "seed": -3}', "seed: -3 is less than the minimum of 0"),
        ('{"eps": 0.01, "seed": 1, "seed": 2}', "duplicate key 'seed'"),
        ('{"eps": "0.01", "seed": 1}', "eps: '0.01' is not of type 'number'"),
        ('[0.01, 1]', "must hold a JSON object at top level"),
    ],
)
def test_sidecar_is_read_as_strictly_as_a_config(tmp_path, capsys, command, text, message):
    """The observation sidecar's ``eps`` is a number and its ``seed`` an
    integer of at least 0, with no coercion; a repeated key or a token that
    is not a finite number is refused as in a config.  Each exits 2 and
    writes nothing."""
    obs = tmp_path / "observation.csv"
    obs.write_text("j,y\n1,0.5\n", encoding="utf-8")
    (tmp_path / "observation.meta.json").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--config", "pp_small", "--obs", obs, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


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


# A truth outside its class: sum_j (theta_j - mu_j)^2 / w_j exceeds the
# radius, and the squared bias at the minimax dimension, about 9.6, is past
# the lower-bracket threshold, about 2.9.
_OUTSIDE_THE_CLASS = {
    "model": {"family": "polynomial", "decay": 0.5},
    "truth": {"family": "polynomial", "exponent": 1.2},
    "prior": {"kind": "gaussian", "variance": 1.0, "mean": 0.1},
    "class": {"family": "polynomial", "exponent": 0.8, "radius": 2.5},
    "eps_grid": [0.001], "seed": 1, "estimators": [],
    "concentration": {"kinds": ["bracket_minimax"]},
}


def test_minimax_bracket_of_a_truth_outside_the_class_exits_3(tmp_path, capsys):
    """The minimax lower bracket is empty when the truth lies outside the
    class; ``run`` exits 3 with one line naming the squared bias, the
    threshold, the noise level and the cause, and writes nothing."""
    path, out = tmp_path / "outside.json", tmp_path / "out"
    path.write_text(json.dumps(_OUTSIDE_THE_CLASS), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("run", "--config", path, "--out", out, "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible configuration: lower bracket set is empty at eps=0.001: the squared bias ")
    assert "at the minimax dimension 8 exceeds the threshold " in err
    assert err.endswith("; the truth lies outside the class\n") and err.count("\n") == 1
    bias, threshold = (float(err.split(word)[1].split()[0].rstrip(";")) for word in ("squared bias", "threshold"))
    assert bias > threshold
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "prior", [{"kind": "gaussian", "variance": 1e160}, {"kind": "matched", "d": 1e160}], ids=["gaussian", "matched"]
)
@pytest.mark.parametrize("command", ["select", "run"])
def test_a_margin_constant_squaring_past_the_double_range_runs(tmp_path, prior, command):
    """A margin constant ``d`` near 1e160, whose square is past the double
    range, exits 0 with finite composite constants: ``N/d^2`` is taken as
    ``N/d/d`` there."""
    raw = {**_SELECT_BASE, "model": {"family": "polynomial", "n": 50, "decay": 1.0}, "prior": prior,
           "eps_grid": [0.05, 0.01], "mc": {"reps": 2, "draws": 5},
           "estimators": ["oracle", "minimax", "adaptive"],
           "concentration": {"kinds": ["sieve_oracle", "bracket_minimax"], "eps_grid": [0.05]}}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli(command, "--config", path, "--out", out, "--quiet") == 0
    report = json.loads((out / ("selection.json" if command == "select" else "report.json")).read_text())
    assert 1e154 < report["constants"]["d"] < 1e161
    composite = report["constants"]["composite"]
    assert len(composite) == 6 and all(math.isfinite(v) for v in composite.values())


@pytest.mark.parametrize(
    "truth, code",
    [
        ({"family": "exponential", "exponent": 1e3}, 0),  # theta_j^2 = e^{1 - j^2000}: a zero tail
        ({"family": "polynomial", "exponent": 1.6, "scale": 1e300}, 2),  # scale^2 overflows
    ],
    ids=["exponential_exponent_1e3", "polynomial_scale_1e300"],
)
def test_truth_at_the_edge_of_float_range_exits_without_a_traceback(tmp_path, capsys, truth, code):
    """A truth whose tail bound ``sq_tail`` would overflow: an exponential
    one with ``N^{2q}`` past float range has a tail of 0.0, and a squared
    scale past float range is a config error of the truth, found when the
    truth is built.  Neither prints a traceback or a numpy warning (tier-1
    turns warnings into errors)."""
    raw = {"model": {"family": "constant", "n": 4}, "truth": truth, "prior": {"kind": "improper"},
           "eps_grid": [0.1], "seed": 1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("select", "--config", config, "--out", tmp_path / "out", "--quiet") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: truth: the squared scale 1e+300^2 is past the double range")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, message",
    [
        ({"model": {"family": "exponential", "decay": 1e3}}, "model: exponential operator exponent overflows"),
        ({"class": {"family": "exponential", "exponent": 1e3, "radius": 1.0}},
         "class: exponential weights underflow to zero; shorten the range"),
        ({"prior": {"kind": "gaussian", "variance_family": {"family": "exponential", "exponent": 1e3}}},
         "prior: variance family underflowed to zero"),
    ],
    ids=["operator", "class", "prior_variances"],
)
def test_steep_exponential_families_print_only_the_config_error(tmp_path, block, message):
    """An exponential family whose ``j^{2a}`` overflows is a config error,
    and stderr holds that one line: the overflow in the power is expected
    and checked, never shown as a numpy warning."""
    raw = {"model": {"family": "polynomial", "decay": 1.0}, "truth": {"family": "polynomial", "exponent": 1.6},
           "prior": {"kind": "improper"}, "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
           "eps_grid": [0.01], "mc": {"reps": 2, "draws": 5}, "seed": 1, "estimators": ["oracle"], **block}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "igssm.cli", "run", "--config", str(config), "--out",
                          str(tmp_path / "out"), "--quiet"], env=_cli_env(), capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_audit_reps_floor_enforced(tmp_path, capsys):
    rc = run_cli(
        "audit", "--config", "pp_small", "--out", tmp_path, "--reps", "500",
    )
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["audit", "--reps", "0"],
        ["audit", "--seed", "-1"],
        ["sweep", "--reps", "-3"],
        ["sweep", "--seed", "-1"],
        ["run", "--reps", "0"],
        ["run", "--reps", "-3"],
        ["run", "--seed", "-1"],
        ["run", "--reps", "two"],
    ],
)
def test_bad_override_exits_2_before_any_work(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--config", "pp_small", "--out", out)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "posterior", "adapt", "select", "audit", "sweep", "run"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_unusable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, under):
    """An ``--out`` that is an existing file, or a path under one, is a
    config error on every subcommand; the experiment commands find it
    before any Monte Carlo stage starts."""
    argv = [command, "--config", "pp_small", "--quiet"]
    if command in ("posterior", "adapt"):
        assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path / "obs", "--quiet") == 0
        argv += ["--obs", tmp_path / "obs" / "observation.csv"]
    for stage in ("_mc_stage", "_audit_stage"):
        monkeypatch.setattr(experiment, stage, lambda *args: pytest.fail("a stage ran"))
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*argv, "--out", blocker / "out" if under else blocker) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write to ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("simulate", "observation.meta.json"),
        ("posterior", "posterior.meta.json"),
        ("adapt", "adaptive.csv"),
        ("select", "selection.json"),
        ("audit", "report.json"),
        ("sweep", "report.json"),
        ("run", "report.json"),
    ],
)
def test_a_directory_at_an_artifact_path_exits_2(tmp_path, capsys, command, blocked):
    """A directory where a command writes an artifact (its last one, so
    others come before it) is a config error naming the path: every file
    the command wrote is removed and the directory is left as it was."""
    argv = [command, "--config", "pp_small", "--quiet"]
    if command in ("posterior", "adapt"):
        assert run_cli("simulate", "--config", "pp_small", "--out", tmp_path / "obs", "--quiet") == 0
        argv += ["--obs", tmp_path / "obs" / "observation.csv"]
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / blocked / "keep").write_text("keep\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write to {out / blocked}: ")
    assert "Traceback" not in err
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == [Path(blocked), Path(blocked, "keep")]


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("command", ["audit", "sweep", "run"])
def test_thread_count_error_has_the_config_error_prefix(tmp_path, capsys, monkeypatch, command, value):
    """The experiment commands report an invalid thread count as every
    other config error, before the output directory is made."""
    monkeypatch.setenv("IGSSM_THREADS", value)
    out = tmp_path / "out"
    assert run_cli(command, "--config", "pp_small", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: IGSSM_THREADS must be a positive integer")
    assert captured.out == ""
    assert not out.exists()


def test_audit_reps_flag_equals_config_reps(tmp_path):
    """``audit --reps`` writes what ``audit`` writes on a config whose
    ``audit.reps`` holds that value."""
    bundled = Path(igssm.__file__).parent / "configs" / "tail_audit.json"
    raw = json.loads(bundled.read_text(encoding="utf-8"))
    raw["audit"]["reps"] = 20000
    path = tmp_path / "tail_audit_20000.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert run_cli("audit", "--config", "tail_audit", "--reps", "20000", "--out", flag, "--quiet") == 0
    assert run_cli("audit", "--config", path, "--out", file, "--quiet") == 0
    names = sorted(p.name for p in flag.iterdir())
    assert names == sorted(p.name for p in file.iterdir())
    assert "audit.csv" in names and "report.json" in names
    for name in names:
        assert (flag / name).read_bytes() == (file / name).read_bytes(), name


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


def test_sweep_check_fails_the_rate_line_of_each_fitted_kind(tmp_path, capsys):
    """At a rate tolerance of 1e-9 no fitted slope on ``pp_p1_a1``'s grid
    matches its exponent: ``sweep --check`` exits 4 and prints one rate line
    for each of its two fitted estimators."""
    raw = {**_bundled("pp_p1_a1").raw, "check": {"rate_tol": 1e-9}}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("sweep", "--config", path, "--reps", 4, "--out", tmp_path / "out", "--check") == 4
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check failed: ")]
    assert [line.split(" slope ")[0] for line in failed] == [
        "check failed: rate: minimax",
        "check failed: rate: adaptive",
    ]


def test_run_and_sweep_write_the_same_risk_artifacts(tmp_path):
    """``run pp_small`` scores its risk rows in the passes it shares with the
    concentration rows, ``sweep pp_small`` in passes of their own; both give
    the same ``mise.csv``, ``mise.meta.json`` and ``rates.csv`` byte for
    byte.  Both commands run here, so this holds on any numpy and CPU."""
    for command in ("run", "sweep"):
        assert run_cli(command, "--config", "pp_small", "--out", tmp_path / command, "--quiet") == 0
    for artifact in ("mise.csv", "mise.meta.json", "rates.csv"):
        assert (tmp_path / "run" / artifact).read_bytes() == (tmp_path / "sweep" / artifact).read_bytes(), artifact


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


# Three operator values every generated config may name as a ``values_file``.
_VALUES_FILE = "values.csv"


def _write_values_file(directory):
    (directory / _VALUES_FILE).write_text("value\n1.0\n0.5\n0.25\n", encoding="utf-8")


def _explicit_values(draw, elements):
    """Inline ``values`` or the ``values_file`` the test writes."""
    if draw(st.booleans()):
        return {"values_file": _VALUES_FILE}
    return {"values": draw(st.lists(elements, min_size=1, max_size=6))}


@st.composite
def small_configs(draw):
    """A schema-valid config on at most a few hundred coordinates, with few
    replications, over every model, truth and prior family, explicit values
    inline or from a file included."""
    family = draw(st.sampled_from(["polynomial", "exponential", "constant", "explicit"]))
    model = {"family": family}
    if family == "explicit":
        model.update(_explicit_values(draw, st.floats(0.01, 2.0)))
    elif draw(st.booleans()):
        model["n"] = draw(st.integers(1, 8))
    if family in ("polynomial", "exponential"):
        model["decay"] = draw(st.floats(0.0, 3.0))
    truth = {"family": draw(st.sampled_from(["polynomial", "exponential", "explicit"]))}
    if truth["family"] == "explicit":
        truth.update(_explicit_values(draw, st.floats(-2.0, 2.0)))
    else:
        truth["exponent"] = draw(st.floats(0.3, 3.0))
        truth["scale"] = draw(st.floats(0.0, 2.0))
    kind = draw(st.sampled_from(["improper", "gaussian", "matched"]))
    prior = {"kind": kind}
    if kind == "gaussian":
        prior["mean"] = draw(st.floats(-1.0, 1.0))
        if draw(st.booleans()):
            prior["variance"] = draw(st.floats(1e-3, 10.0))
        else:
            prior["variance_family"] = {
                "family": draw(st.sampled_from(["polynomial", "exponential"])),
                "exponent": draw(st.floats(0.0, 3.0)),
            }
    elif kind == "matched":
        prior["d"] = draw(st.floats(0.1, 10.0))
    eps_grid = draw(st.lists(st.floats(0.005, 0.5), min_size=1, max_size=3, unique=True))
    raw = {
        "model": model,
        "truth": truth,
        "prior": prior,
        "class": {"family": draw(st.sampled_from(["polynomial", "exponential"])),
                  "exponent": draw(st.floats(0.1, 3.0)), "radius": draw(st.floats(0.0, 5.0))},
        "eps_grid": eps_grid,
        "mc": {"reps": draw(st.integers(1, 4)), "draws": draw(st.integers(1, 20))},
        "seed": draw(st.integers(0, 2**32)),
        "estimators": draw(st.lists(st.sampled_from(["fixed", "oracle", "minimax", "adaptive"]), unique=True)),
        "fixed_dims": [draw(st.integers(1, 4))],
        "concentration": {
            "kinds": draw(st.lists(st.sampled_from(CONCENTRATION_KINDS), min_size=1, unique=True)),
        },
        "audit": {"configs": draw(st.integers(1, 2)), "reps": 10000},
    }
    if draw(st.booleans()):
        raw["c_lambda"] = draw(st.floats(1.0, 10.0))
    return raw


_SELECT_BASE = {
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
    "seed": 1,
}

# A valid config whose sieve_oracle band constant, 0.625, is below 1.
_BAND_BELOW_ONE = {
    "model": {"family": "polynomial", "n": 1, "decay": 0.0},
    "truth": {"family": "polynomial", "exponent": 1.0, "scale": 2.0},
    "prior": {"kind": "improper"},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 0.0},
    "eps_grid": [0.25], "mc": {"reps": 1, "draws": 1}, "seed": 0,
    "estimators": [], "fixed_dims": [1],
    "concentration": {"kinds": ["sieve_oracle"]},
    "audit": {"configs": 1, "reps": 10000},
}


def test_band_constant_below_one_exits_3_before_any_replication(tmp_path, capsys, monkeypatch):
    """A sampled concentration kind needs its band constant at least 1; set-up
    checks that with the selections, before any task runs or ``--out`` is
    made, and ``igssm run`` reports it as an infeasible config."""
    ran = []
    replications = montecarlo._replications

    def spy(*args):
        ran.append(args)
        return replications(*args)

    monkeypatch.setattr(montecarlo, "_replications", spy)
    path, out = tmp_path / "band.json", tmp_path / "out"
    path.write_text(json.dumps(_BAND_BELOW_ONE), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("run", "--config", path, "--out", out, "--quiet") == 3
    err = capsys.readouterr().err
    assert err == "infeasible configuration: band constant 0.625 of sieve_oracle is below 1 at eps=0.25\n"
    assert ran == []
    assert not out.exists()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(  # the exponential class weights underflow on 34 coordinates: exit 2
    raw={**_SELECT_BASE, "model": {"family": "constant"}, "prior": {"kind": "improper"},
         "class": {"family": "exponential", "exponent": 1.0, "radius": 1.0}, "eps_grid": [0.03]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # the amplification at a threshold dimension overflows: exit 2
    raw={**_SELECT_BASE, "model": {"family": "exponential", "decay": 2.1},
         "prior": {"kind": "improper"}, "eps_grid": [0.2]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # a vanishing oracle balance makes a threshold dimension infinite
    raw={**_SELECT_BASE, "model": {"family": "exponential", "decay": 0.5},
         "truth": {"family": "polynomial", "exponent": 2.9, "scale": 1e-156},
         "prior": {"kind": "matched", "d": 10.0}, "eps_grid": [0.49, 0.46]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # a non-finite observation value: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "improper"}, "eps_grid": [0.05]},
    command="posterior", overrides={}, check=False, corrupt="nan", row=3,
)
@example(  # finite posterior means whose squared contrast overflows: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "improper"}, "eps_grid": [0.05]},
    command="adapt", overrides={}, check=False, corrupt="1e200", row=3,
)
@example(  # an explicit truth shorter than the working length: exit 2
    raw={**_SELECT_BASE, "model": {"family": "constant", "n": 5},
         "truth": {"family": "explicit", "values": [0.5, 0.2, 0.1]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # the same on the simulator: exit 2
    raw={**_SELECT_BASE, "model": {"family": "constant", "n": 5},
         "truth": {"family": "explicit", "values": [0.5, 0.2, 0.1]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
    command="simulate", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # a fixed dimension past the three values of a model values_file: exit 2
    raw={**_SELECT_BASE, "model": {"family": "explicit", "values_file": _VALUES_FILE},
         "prior": {"kind": "improper"}, "eps_grid": [0.1],
         "estimators": ["fixed"], "fixed_dims": [5]},
    command="sweep", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # a sieve band constant of 0.625, below 1: exit 3
    raw=_BAND_BELOW_ONE, command="run", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # a Gaussian variance whose margin constant d squares to zero: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "gaussian", "variance": 1e-300}, "eps_grid": [0.05]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # the same with a matched d: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "matched", "d": 1e-300}, "eps_grid": [0.05]},
    command="run", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # the same with a variance family's scale: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "gaussian", "variance_family": {"family": "polynomial", "exponent": 1.0,
                                                           "scale": 1e-300}},
         "eps_grid": [0.05]},
    command="sweep", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # an explicit truth whose squared distance from the prior mean overflows: exit 2
    raw={**_SELECT_BASE, "model": {"family": "constant", "n": 3},
         "truth": {"family": "explicit", "values": [1e160, 1e160, 1e160]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # the same from a prior mean: exit 2
    raw={**_SELECT_BASE, "model": {"family": "polynomial", "decay": 1.0},
         "prior": {"kind": "gaussian", "mean": 1e160, "variance": 1.0}, "eps_grid": [0.05]},
    command="run", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # explicit multipliers whose squares overflow: exit 2
    raw={**_SELECT_BASE, "model": {"family": "explicit", "values": [1e160, 1.0, 1.0]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
    command="select", overrides={}, check=False, corrupt=None, row=0,
)
@example(  # explicit multipliers whose squares underflow: exit 2
    raw={**_SELECT_BASE, "model": {"family": "explicit", "values": [1e-300, 1.0, 1.0]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
    command="simulate", overrides={}, check=False, corrupt=None, row=0,
)
@given(
    raw=small_configs(),
    command=st.sampled_from(["simulate", "select", "posterior", "adapt", "audit", "sweep", "run"]),
    overrides=st.fixed_dictionaries(
        {},
        optional={
            "--reps": st.integers(-1, 3),
            "--seed": st.integers(-1, 2**32),
            "--eps": st.floats(-0.5, 1.5),
        },
    ),
    check=st.booleans(),
    corrupt=st.sampled_from([None, "nan", "inf", "-1e308", "1e200"]),
    row=st.integers(0, 10**6),
)
def test_any_small_config_exits_with_a_documented_code(
    tmp_path, capsys, raw, command, overrides, check, corrupt, row
):
    """Whatever the config and overrides, ``main`` returns 0, 2, 3 or 4 (an
    argparse error exits 2) and no exception escapes.  A config error or an
    infeasible config is reported in one line with its prefix, no traceback
    and no warning, and leaves no file in ``--out``.  ``posterior`` and ``adapt`` read an
    observation simulated first, into a directory of its own, at the config's
    first noise level; ``corrupt`` overwrites one of its values (row ``row``
    modulo the length) with a non-finite or huge one.  A config may name the
    values file ``values.csv``, three positive values written beside it."""

    def exit_code(*argv):
        try:
            return run_cli(*argv)
        except SystemExit as exc:
            return exc.code

    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    _write_values_file(tmp_path)
    out, obs_dir = tmp_path / "out", tmp_path / "obs"
    for old in (out, obs_dir):  # hypothesis reuses tmp_path across examples
        shutil.rmtree(old, ignore_errors=True)
    runs = {"--reps", "--seed"}
    allowed = {"simulate": {"--seed", "--eps"}, "audit": runs, "sweep": runs, "run": runs}
    argv = [command, "--config", config, "--out", out, "--quiet"]
    if command in ("posterior", "adapt"):
        code = exit_code("simulate", "--config", config, "--out", obs_dir, "--quiet")
        assert code in (0, 2)
        if code != 0:
            return
        obs = obs_dir / "observation.csv"
        if corrupt is not None:
            lines = obs.read_text(encoding="utf-8").splitlines()
            i = 1 + row % (len(lines) - 1)
            lines[i] = f"{i},{corrupt}"
            obs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv += ["--obs", obs]
    for flag, value in overrides.items():
        if flag in allowed.get(command, set()):
            argv += [flag, value]
    if check and command in ("sweep", "run"):
        argv.append("--check")
    capsys.readouterr()
    code = exit_code(*argv)
    assert code in (0, 2, 3, 4)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code in (2, 3):
        usage = code == 2 and f"igssm {command}: error: argument " in err  # argparse
        assert usage or err.startswith(("config error: ", "infeasible configuration: "))
        assert usage or err.count("\n") == 1  # nothing but that line
        assert not out.exists() or not any(out.iterdir())


# Each family parameter and the families, prior kinds or variance families
# it is drawn under.
_FAMILY_PARAMETERS = {
    ("truth", "exponent"): ("polynomial", "exponential"),
    ("truth", "scale"): ("polynomial", "exponential"),
    ("model", "decay"): ("polynomial", "exponential"),
    ("class", "exponent"): ("polynomial", "exponential"),
    ("class", "radius"): ("polynomial", "exponential"),
    ("prior", "mean"): ("gaussian", "matched"),
    ("prior", "variance"): ("gaussian",),
    ("prior", "d"): ("matched",),
    ("prior", "variance_family", "exponent"): ("polynomial", "exponential"),
    ("prior", "variance_family", "scale"): ("polynomial", "exponential"),
}


@st.composite
def extreme_family_configs(draw):
    """A config on four coordinates with one family parameter drawn
    log-uniformly from 1e-300 to 1e300 under one of its families."""
    path = draw(st.sampled_from(sorted(_FAMILY_PARAMETERS)))
    family = draw(st.sampled_from(_FAMILY_PARAMETERS[path]))
    raw = {
        "model": {"family": "polynomial", "n": 4, "decay": 1.0},
        "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
        "prior": {"kind": "improper"},
        "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
        "eps_grid": [0.05, 0.01], "mc": {"reps": 2, "draws": 5}, "seed": 1,
        "estimators": ["oracle", "minimax", "adaptive"],
        "concentration": {"kinds": list(CONCENTRATION_KINDS), "eps_grid": [0.05]},
    }
    block = raw[path[0]]
    if path[1] == "variance_family":
        block.update(kind="gaussian", variance_family={"family": family, "exponent": 1.0})
        block = block["variance_family"]
    elif path[0] == "prior":
        block.update({"kind": "matched", "d": 1.0} if family == "matched" else {"kind": "gaussian", "variance": 1.0})
    else:
        block["family"] = family
    block[path[-1]] = 10.0 ** draw(st.floats(-300.0, 300.0))
    return raw


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=extreme_family_configs())
@example(raw={**_SELECT_BASE, "model": {"family": "exponential", "n": 4, "decay": 1e300},
              "prior": {"kind": "improper"}, "eps_grid": [0.05]})
@example(raw={**_SELECT_BASE, "model": {"family": "constant", "n": 4},
              "truth": {"family": "exponential", "exponent": 1e-300, "scale": 0.4},
              "prior": {"kind": "improper"}, "eps_grid": [0.05]})
@example(raw={**_SELECT_BASE, "model": {"family": "constant", "n": 4},
              "prior": {"kind": "gaussian", "variance_family": {"family": "exponential", "exponent": 1.0,
                                                                "scale": 1e300}},
              "eps_grid": [0.05]})
def test_extreme_family_parameters_exit_with_a_documented_code(tmp_path, capsys, raw):
    """A family parameter anywhere from 1e-300 to 1e300 (truth exponent or
    scale, model decay, class exponent or radius, prior mean, variance,
    margin constant or variance family) gives ``select`` and ``run`` exit
    0, 2 or 3, a config error or an infeasible config as one line on
    stderr, and no traceback and no warning."""
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(raw), encoding="utf-8")
    for command in ("select", "run"):
        shutil.rmtree(out, ignore_errors=True)  # hypothesis reuses tmp_path across examples
        capsys.readouterr()
        code = run_cli(command, "--config", config, "--out", out, "--quiet")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (command, err)
        assert "Traceback" not in err and "Warning" not in err
        if code != 0:
            assert err.startswith(("config error: ", "infeasible configuration: ")) and err.count("\n") == 1


# A schema-valid value of each key some family or kind does not use.
_UNUSED_VALUES = {
    "n": 4,
    "decay": 1.0,
    "values": [1.0, 0.5],
    "values_file": _VALUES_FILE,
    "exponent": 1.5,
    "scale": 2.0,
    "mean": 0.5,
    "variance": 1.0,
    "variance_family": {"family": "polynomial", "exponent": 1.0},
    "d": 2.0,
}


def _family_choices(raw, block):
    """The needed keys of ``raw[block]``'s family or kind, as tuples of
    alternatives, from ``config._FAMILY_KEYS``; and its selector key."""
    selector = "kind" if block == "prior" else "family"
    needs, takes = config._FAMILY_KEYS[block, raw[block][selector]]
    return [(need,) if isinstance(need, str) else need for need in needs], takes, selector


@st.composite
def unused_key_cases(draw):
    """A small config, one of its model, truth and prior blocks, a key of
    the block's schema that its family or kind does not use, or the other
    alternative of a choice the block made, and a command: ``(raw, block,
    key, command)``."""
    raw = draw(small_configs())
    block = draw(st.sampled_from(["model", "truth", "prior"]))
    choices, takes, selector = _family_choices(raw, block)
    known = {selector, *takes, *(key for choice in choices for key in choice)}
    keys = [key for key in config._SCHEMA["properties"][block]["properties"] if key not in known]
    keys += [key for choice in choices for key in choice if key not in raw[block]]
    key = draw(st.sampled_from(keys))
    return raw, block, key, draw(st.sampled_from(["simulate", "select", "sweep", "run", "audit"]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(  # an explicit model with n, whose values alone decide its length
    case=(
        {**_SELECT_BASE, "model": {"family": "explicit", "values": [1.0, 0.5, 0.25]},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
        "model", "n", "simulate",
    ),
)
@example(  # a gaussian prior with both a variance and a variance family
    case=(
        {**_SELECT_BASE, "model": {"family": "constant"},
         "prior": {"kind": "gaussian", "variance_family": {"family": "polynomial", "exponent": 2.0}},
         "eps_grid": [0.1]},
        "prior", "variance", "select",
    ),
)
@example(  # the same two keys, the variance family given second
    case=(
        {**_SELECT_BASE, "model": {"family": "constant"}, "prior": {"kind": "gaussian", "variance": 1.0},
         "eps_grid": [0.1]},
        "prior", "variance_family", "select",
    ),
)
@example(  # inline model values beside a values file that does not exist
    case=(
        {**_SELECT_BASE, "model": {"family": "explicit", "values_file": "missing.csv"},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
        "model", "values", "simulate",
    ),
)
@example(  # inline truth values beside a values file that does not exist
    case=(
        {**_SELECT_BASE, "model": {"family": "constant", "n": 2},
         "truth": {"family": "explicit", "values_file": "missing.csv"},
         "prior": {"kind": "improper"}, "eps_grid": [0.1]},
        "truth", "values", "select",
    ),
)
@given(case=unused_key_cases())
def test_keys_a_family_does_not_use_are_config_errors(tmp_path, capsys, case):
    """A key the chosen model or truth family or prior kind does not read,
    or both alternatives of a choice (``values``/``values_file``,
    ``variance``/``variance_family``), make any command exit 2 with a
    message naming the key, or the choice's first alternative, before
    anything else about the config is checked, and leave no artifact."""
    raw, block, key, command = case
    choice = next((c for c in _family_choices(raw, block)[0] if key in c), (key,))
    raw = {**raw, block: {**raw[block], key: _UNUSED_VALUES[key]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _write_values_file(tmp_path)
    out = tmp_path / "out"
    assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
    err = capsys.readouterr().err
    assert f"{block}.{choice[0]}: " in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "model, truth, extra, message",
    [
        pytest.param(
            {"family": "constant", "n": 5}, {"family": "explicit", "values": [0.5, 0.2, 0.1]}, {},
            "truth: 3 explicit values do not match the working sequence length 5", id="truth",
        ),
        pytest.param(
            {"family": "explicit", "values_file": _VALUES_FILE}, _SELECT_BASE["truth"],
            {"estimators": ["fixed"], "fixed_dims": [5]},
            "fixed_dims: dimension 5 exceeds the working sequence length 3", id="fixed_dims",
        ),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "select", "sweep", "run"])
def test_lengths_the_sequences_fix_are_config_errors(tmp_path, capsys, model, truth, extra, message, command):
    """An explicit truth of the wrong length, and fixed dimensions past the
    length a model values file gives, exit 2 with a message naming the field
    and leave no artifact.  The values file is read when the config loads,
    so ``simulate``, which does not use ``fixed_dims``, refuses the config
    as it refuses the same values given inline."""
    raw = {**_SELECT_BASE, "model": model, "truth": truth, "prior": {"kind": "improper"},
           "eps_grid": [0.1], **extra}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    _write_values_file(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(command, "--config", config, "--out", out, "--quiet")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("eps_grid", [[0.1], [1e-8]])
def test_values_file_model_selects_as_inline_values(tmp_path, eps_grid):
    """A model given by a values file and the same values inline have one
    working length at every noise level: ``select`` exits alike and writes
    the same ``selection.json``, also below the noise level whose
    ``ceil(1/eps)`` passes the length limit.  Only the hash of the config,
    which differs, is masked."""
    _write_values_file(tmp_path)
    outputs = []
    for model in ({"values_file": _VALUES_FILE}, {"values": [1.0, 0.5, 0.25]}):
        raw = {**_SELECT_BASE, "model": {"family": "explicit", **model}, "prior": {"kind": "improper"},
               "eps_grid": eps_grid}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / f"out{len(outputs)}"
        assert run_cli("select", "--config", config, "--out", out, "--quiet") == 0
        text = (out / "selection.json").read_text(encoding="utf-8")
        outputs.append(text.replace(load_config(config).sha256(), "<config_sha256>"))
    assert outputs[0] == outputs[1]
