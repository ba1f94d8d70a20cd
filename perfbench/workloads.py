"""The four benchmark workloads: which CLI command each runs and the config
it runs on, generated from the benchmark seed.

Why these four (see README.md for the measured figures):

* ``direct_sweep``: the replication loop on long vectors (search range up
  to 1e6); one task dominates, so threads do not help.  A batched kernel or
  sharding shows here.
* ``indirect_run``: the same replication layers on many short vectors plus
  the concentration and bracket tasks; per-call overhead, set-up and import
  dominate.  A change that helps long vectors but costs short ones shows here.
* ``direct_concentration``: posterior sampling and its (draws x M) arrays
  dominate time and memory; only workload where they do.
* ``tail_audit``: the only workload that runs ``audit_tail_bounds`` and the
  only one whose tasks spread evenly over the thread pool.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

# Bundled config each workload starts from (None: generated below), and the
# CLI subcommand a user would run on it.
WORKLOADS = {
    "direct_sweep": ("sweep", "pp_p1_a0"),
    "indirect_run": ("run", "pp_p1_a1"),
    "direct_concentration": ("run", None),
    "tail_audit": ("audit", "tail_audit"),
}

# The config of direct_concentration: direct model, improper prior, no risk
# estimators, every concentration kind that samples the hierarchical
# posterior at a search range up to 1e4 (a 40 MB draw array per replication).
DIRECT_CONCENTRATION = {
    "model": {"family": "constant"},
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "prior": {"kind": "improper"},
    "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0},
    "eps_grid": [0.01, 0.001, 0.0001],
    "mc": {"reps": 200, "draws": 500},
    "seed": 0,
    "c_lambda": 1.5,
    "estimators": [],
    "concentration": {
        "kinds": ["sieve_oracle", "hierarchical_oracle", "bracket_oracle", "hierarchical_minimax"],
        "eps_grid": [0.01, 0.001, 0.0001],
    },
}


def make_config(workload: str, seed: int, root: Path) -> dict:
    """The workload's config with its seed set to the benchmark seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _, bundled = WORKLOADS[workload]
    if bundled is None:
        raw = copy.deepcopy(DIRECT_CONCENTRATION)
    else:
        path = root / "src" / "igssm" / "configs" / f"{bundled}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
    raw["seed"] = int(seed)
    return raw


def cli_args(workload: str, config_path: Path, out_dir: Path) -> list:
    command, _ = WORKLOADS[workload]
    return [command, "--config", str(config_path), "--out", str(out_dir), "--quiet"]


def task_coordinates(command: str, cfg, op, theta, prior, wclass) -> int:
    """Problem coordinates the Monte Carlo tasks of ``cfg`` must process.

    reps x cut for risk and bracket tasks, reps x draws x cut for
    concentration tasks (cut = m for sieve, M for hierarchical), draws x m
    for audit configs.  Derived from the config through the program's
    selection functions, so it does not depend on how the work is done.
    """
    from igssm.montecarlo import random_tail_suite
    from igssm.selection import max_dimension, minimax_dimension, oracle_dimension

    reps, draws = cfg.mc_reps, cfg.mc_draws
    total = 0
    if command in ("sweep", "run"):
        for eps in cfg.eps_grid:
            for kind in cfg.estimators:
                if kind == "adaptive":
                    total += reps * max_dimension(op, eps)
                elif kind == "oracle":
                    total += reps * oracle_dimension(theta, prior, op, eps).dimension
                elif kind == "minimax":
                    total += reps * minimax_dimension(wclass, op, eps).dimension
                else:
                    total += reps * sum(cfg.fixed_dims)
    if command == "run":
        for eps in cfg.concentration_eps_grid:
            m_max = max_dimension(op, eps)
            for kind in cfg.concentration_kinds:
                if kind.startswith("bracket"):
                    total += reps * m_max
                elif kind.startswith("hierarchical"):
                    total += reps * draws * m_max
                elif kind.endswith("_minimax"):
                    total += reps * draws * minimax_dimension(wclass, op, eps).dimension
                else:
                    total += reps * draws * oracle_dimension(theta, prior, op, eps).dimension
    block = cfg.audit_block
    if command == "audit" or (command == "run" and block is not None):
        block = block or {"configs": 50, "reps": 100_000}
        suite = random_tail_suite(int(block["configs"]), cfg.seed)
        total += sum(int(block["reps"]) * c.m for c in suite)
    return total
