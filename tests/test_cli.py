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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import igssm
from igssm import __version__
from igssm.cli import main
from igssm.config import CONCENTRATION_KINDS


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
    tmp_path, raw, command, overrides, check, corrupt, row
):
    """Whatever the config and overrides, ``main`` returns 0, 2, 3 or 4 (an
    argparse error exits 2) and no exception escapes.  ``posterior`` and
    ``adapt`` read an observation simulated first at the config's first noise
    level; ``corrupt`` overwrites one of its values (row ``row`` modulo the
    length) with a non-finite or huge one.  A config may name the values
    file ``values.csv``, three positive values written beside it."""

    def exit_code(*argv):
        try:
            return run_cli(*argv)
        except SystemExit as exc:
            return exc.code

    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    _write_values_file(tmp_path)
    out = tmp_path / "out"
    runs = {"--reps", "--seed"}
    allowed = {"simulate": {"--seed", "--eps"}, "audit": runs, "sweep": runs, "run": runs}
    argv = [command, "--config", config, "--out", out, "--quiet"]
    if command in ("posterior", "adapt"):
        code = exit_code("simulate", "--config", config, "--out", out, "--quiet")
        assert code in (0, 2)
        if code != 0:
            return
        obs = out / "observation.csv"
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
    assert exit_code(*argv) in (0, 2, 3, 4)


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
    and leave no artifact (``simulate`` does not use ``fixed_dims``)."""
    raw = {**_SELECT_BASE, "model": model, "truth": truth, "prior": {"kind": "improper"},
           "eps_grid": [0.1], **extra}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    _write_values_file(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(command, "--config", config, "--out", out, "--quiet")
    if command == "simulate" and "fixed_dims" in extra:
        assert rc == 0
        return
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
