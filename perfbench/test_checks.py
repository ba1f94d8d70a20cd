"""Tests of the benchmark's own parts: each output check passes on what the
program writes and rejects a perturbed artifact; the tracer's self times.

    python3 -m pytest -q perfbench

The artifacts come from small runs of the real CLI.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import checks
from layer_trace import Tracer

ROOT = Path(__file__).resolve().parents[1]

INDIRECT_SWEEP = {
    "model": {"family": "polynomial", "decay": 1.0},
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "prior": {"kind": "improper"},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
    "eps_grid": [0.01, 0.001, 0.0001, 1e-05],
    "mc": {"reps": 200, "draws": 100},
    "seed": 7,
    "c_lambda": 1.5,
    "estimators": ["minimax", "adaptive"],
}
DIRECT_CONCENTRATION = {
    "model": {"family": "constant"},
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "prior": {"kind": "improper"},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
    "eps_grid": [0.01, 0.001],
    "mc": {"reps": 50, "draws": 200},
    "seed": 7,
    "c_lambda": 1.5,
    "estimators": [],
    "concentration": {"kinds": ["sieve_oracle", "hierarchical_oracle", "bracket_oracle", "hierarchical_minimax"]},
}
AUDIT = {
    "model": {"family": "constant", "n": 10},
    "truth": {"family": "explicit", "values": [0.0] * 10},
    "prior": {"kind": "improper"},
    "eps_grid": [0.1],
    "seed": 7,
    "estimators": [],
    "audit": {"configs": 12, "reps": 10000},
}


def _run_cli(tmp: Path, command: str, raw: dict) -> Path:
    config = tmp / f"{command}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp / f"{command}-out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), IGSSM_THREADS="2")
    subprocess.run([sys.executable, "-m", "igssm.cli", command, "--config", str(config),
                    "--out", str(out), "--quiet"], check=True, env=env, timeout=300)
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifacts")
    return {
        "sweep": _run_cli(tmp, "sweep", INDIRECT_SWEEP),
        "run": _run_cli(tmp, "run", DIRECT_CONCENTRATION),
        "audit": _run_cli(tmp, "audit", AUDIT),
    }


RAW = {"sweep": INDIRECT_SWEEP, "run": DIRECT_CONCENTRATION, "audit": AUDIT}


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rewrite(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    rows = _rows(src / name)
    for row in rows:
        edit(row)
    with open(dst / name, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return dst


@pytest.mark.parametrize("command", ["sweep", "run", "audit"])
def test_program_output_passes(artifacts, command):
    results = checks.check_outputs(command, RAW[command], artifacts[command])
    assert results
    assert [r for r in results if not r.ok] == []


def test_mise_scaled_by_1_1_is_rejected(artifacts, tmp_path):
    def scale(row):
        row["mise"] = repr(float(row["mise"]) * 1.1)

    out = _rewrite(artifacts["sweep"], tmp_path / "scaled", "mise.csv", scale)
    failed = {r.name for r in checks.check_outputs("sweep", INDIRECT_SWEEP, out) if not r.ok}
    assert {f"mise adaptive eps={eps}" for eps in INDIRECT_SWEEP["eps_grid"]} <= failed


@pytest.mark.parametrize("kind", ["minimax", "adaptive"])
def test_slope_shifted_by_0_1_is_rejected(artifacts, kind):
    prob = checks.Problem.from_config(INDIRECT_SWEEP)
    rows = [r for r in _rows(artifacts["sweep"] / "mise.csv") if r["kind"] == kind]
    checks.check_slope(prob, kind, rows, None)
    eps = np.array([float(r["eps"]) for r in rows])
    slope = checks.fit_slope(eps, [float(r["mise"]) for r in rows])
    shift = 0.1 if slope >= prob.theory_slope() else -0.1
    shifted = [dict(r, mise=repr(float(r["mise"]) * float(e) ** shift)) for r, e in zip(rows, eps)]
    assert checks.fit_slope(eps, [float(r["mise"]) for r in shifted]) == pytest.approx(slope + shift)
    with pytest.raises(checks.CheckFailed):
        checks.check_slope(prob, kind, shifted, None)


def test_sieve_mass_moved_by_10_se_is_rejected(artifacts):
    prob = checks.Problem.from_config(DIRECT_CONCENTRATION)
    rows = [r for r in _rows(artifacts["run"] / "concentration.csv") if r["kind"] == "sieve_oracle"]
    row = min(rows, key=lambda r: abs(float(r["mass"]) - 0.5))
    eps = float(row["eps"])
    m, rate = prob.oracle(eps)
    const = float(row["constant"])
    p = checks.sieve_band_law(prob, eps, m, rate / const, rate * const)
    se = math.sqrt(p * (1.0 - p) / prob.reps)
    assert se > 1e-3
    moved = dict(row, mass=repr(float(row["mass"]) - 10.0 * se))
    checks.check_sieve_band_law(prob, eps, row)
    with pytest.raises(checks.CheckFailed):
        checks.check_sieve_band_law(prob, eps, moved)
    with pytest.raises(checks.CheckFailed):
        checks.check_concentration_row(prob, eps, "sieve_oracle", moved)


@pytest.mark.parametrize("kind", ["hierarchical_oracle", "hierarchical_minimax", "bracket_oracle"])
def test_recomputed_mass_moved_is_rejected(artifacts, kind):
    prob = checks.Problem.from_config(DIRECT_CONCENTRATION)
    row = next(r for r in _rows(artifacts["run"] / "concentration.csv") if r["kind"] == kind)
    eps = float(row["eps"])
    checks.check_concentration_row(prob, eps, kind, row)
    moved = dict(row, mass=repr(abs(float(row["mass"]) - 1.0 / (prob.reps * prob.draws))))
    with pytest.raises(checks.CheckFailed):
        checks.check_concentration_row(prob, eps, kind, moved)


@pytest.mark.parametrize("field", ["prob_bound", "overshoot_bound"])
def test_wrong_bound_is_rejected(artifacts, field):
    reps = AUDIT["audit"]["reps"]
    rows = _rows(artifacts["audit"] / "audit.csv")
    i = next(k for k, r in enumerate(rows) if r[field] != "")
    checks.check_audit_row(AUDIT["seed"], reps, i, rows[i])
    wrong = dict(rows[i], **{field: repr(float(rows[i][field]) * 1.01)})
    with pytest.raises(checks.CheckFailed):
        checks.check_audit_row(AUDIT["seed"], reps, i, wrong)


def test_audit_frequency_moved_off_its_law_is_rejected(artifacts):
    reps = AUDIT["audit"]["reps"]
    row = _rows(artifacts["audit"] / "audit.csv")[0]  # the chi-square reference
    p = float(row["upper_emp"]) + 10.0 * math.sqrt(0.00535 * (1 - 0.00535) / reps)
    moved = dict(row, upper_emp=repr(p), upper_se=repr(math.sqrt(p * (1 - p) / reps)))
    with pytest.raises(checks.CheckFailed):
        checks.check_audit_row(AUDIT["seed"], reps, 0, moved)


def test_missing_artifact_fails_every_check_that_reads_it(artifacts, tmp_path):
    out = shutil.copytree(artifacts["run"], tmp_path / "partial")
    (out / "concentration.csv").unlink()
    results = checks.check_outputs("run", DIRECT_CONCENTRATION, out)
    clean = checks.check_outputs("run", DIRECT_CONCENTRATION, artifacts["run"])
    assert len(results) == len(clean)
    failed = [r.name for r in results if not r.ok]
    assert failed and all(n.startswith(("concentration", "closed form", "sidecars")) for n in failed)


def test_self_time_is_per_thread():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_outer = tracer.wrap("m.outer", outer)
    threads = [threading.Thread(target=traced_outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans()
    outers = [s for s in spans if s[0] == "m.outer"]
    inners = [s for s in spans if s[0] == "m.inner"]
    assert len(outers) == len(inners) == 4
    for layer, _tid, start, end, self_s, _work in outers:
        assert 0.005 <= self_s < end - start - 0.015
