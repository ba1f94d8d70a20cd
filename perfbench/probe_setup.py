"""Time the set-up a workload pays before its first Monte Carlo task.

Run in a fresh interpreter:

    python3 perfbench/probe_setup.py <sweep|run|audit> <config.json>

It imports ``igssm.cli``, loads the config, builds the sequences and runs
``check_assumptions`` and ``composite_constants`` as ``run_experiment``
does, then prints one JSON line with the time of each phase, the Monte Carlo
coordinate count of the config and the file igssm was imported from.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    command, config_path = argv
    t0 = time.perf_counter()
    import igssm.cli  # noqa: F401  (the import a CLI user pays)
    from igssm.config import load_config
    from igssm.selection import check_assumptions, composite_constants

    t1 = time.perf_counter()
    cfg = load_config(config_path)
    op = cfg.build_operator(cfg.sequence_length())
    theta = cfg.build_truth(op.n)
    prior = cfg.build_prior(op)
    wclass = cfg.build_class()
    t2 = time.perf_counter()
    report = check_assumptions(theta, prior, op, cfg.eps_grid, weighted_class=wclass)
    c_lambda = cfg.c_lambda_override if cfg.c_lambda_override is not None else report.c_lambda
    t3 = time.perf_counter()
    composite_constants(report, theta, prior, op, weighted_class=wclass, c_lambda=c_lambda)
    t4 = time.perf_counter()

    from workloads import task_coordinates

    print(json.dumps({
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "check_s": t3 - t2,
        "constants_s": t4 - t3,
        "setup_s": t4 - t0,
        "coords": task_coordinates(command, cfg, op, theta, prior, wclass),
        "igssm_file": igssm.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
