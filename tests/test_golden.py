"""Golden digests: the byte-identical contract held against recorded bytes.

Each of ``select``, ``run``, ``sweep`` and ``audit`` runs on the four
bundled configs and on the ``direct_concentration`` benchmark config at
seed 1 (written by ``perfbench/workloads.make_config``), with ``--reps``
caps that keep the whole file to a few seconds.  The sha256 of every
artifact and the exit code must equal the record in
``tests/golden/<command>-<config>.json``.

The bytes may depend on numpy's version and on the SIMD paths it takes on
the CPU, so each record also holds the numpy version and numpy's enabled
CPU features it was made under.  Where either differs, the case is
skipped with the difference named (``pytest -rs`` shows it); it never
passes without comparing.

Regenerate every record, from the root of the repository, with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why any digest moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from igssm.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("pp_small", "pp_p1_a0", "pp_p1_a1", "tail_audit", "direct_concentration")
COMMANDS = ("select", "run", "sweep", "audit")
# The replication caps: the Monte Carlo replications of run and sweep, and
# the audit draws per config (the schema's floor).  select takes none.
REPS = {"run": 4, "sweep": 4, "audit": 10_000}
CASES = [(command, config) for config in CONFIGS for command in COMMANDS]


def environment() -> dict:
    """The numpy version and the CPU features numpy found and enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _config_path(config: str, work: Path) -> str:
    """A bundled config's name, or the file of the benchmark config."""
    if config != "direct_concentration":
        return config
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = work / "direct_concentration.json"
    path.write_text(json.dumps(workloads.make_config(config, 1, ROOT)), encoding="utf-8")
    return str(path)


def digests(command: str, config: str, work: Path) -> dict:
    """The exit code of ``command`` on ``config`` and the sha256 of each
    artifact it wrote."""
    out = work / "out"
    argv = [command, "--config", _config_path(config, work), "--out", str(out), "--quiet"]
    if command in REPS:
        argv += ["--reps", str(REPS[command])]
    code = main(argv)
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit_code": code,
            "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def _record_path(command: str, config: str) -> Path:
    return GOLDEN / f"{command}-{config}.json"


def _differences(recorded: dict, found: dict) -> list:
    out = []
    if recorded["numpy"] != found["numpy"]:
        out.append(f"numpy {found['numpy']} here, {recorded['numpy']} recorded")
    missing = sorted(set(recorded["cpu_features"]) - set(found["cpu_features"]))
    extra = sorted(set(found["cpu_features"]) - set(recorded["cpu_features"]))
    if missing or extra:
        out.append(f"CPU features missing here {missing}, extra here {extra}")
    return out


@pytest.mark.parametrize("command,config", CASES, ids=[f"{c}-{g}" for c, g in CASES])
def test_artifacts_match_the_golden_digests(command, config, tmp_path):
    record = json.loads(_record_path(command, config).read_text(encoding="utf-8"))
    differences = _differences(record, environment())
    if differences:
        pytest.skip("golden digests not compared: " + "; ".join(differences))
    found = digests(command, config, tmp_path)
    assert found == {"exit_code": record["exit_code"], "artifacts": record["artifacts"]}


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    env = environment()
    for command, config in CASES:
        with tempfile.TemporaryDirectory() as work:
            record = {"command": command, "config": config, "reps": REPS.get(command),
                      **digests(command, config, Path(work)), **env}
        _record_path(command, config).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                                 encoding="utf-8")
        print(f"{command} {config}: exit {record['exit_code']}, {len(record['artifacts'])} artifacts")


if __name__ == "__main__":
    sys.exit(_regenerate())
