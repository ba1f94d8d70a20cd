"""Regenerate the reference figures of README.md.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 25]

Run from the root of a checkout.  For every workload it runs the benchmark
once per seed (``--trace 0``) and prints the median, the quartiles and the
spread (quartile distance over median) of each end-to-end metric; then one
traced run per workload (first seed) with every per-layer metric; then one
workload process per workload at ``IGSSM_THREADS=1`` as the single-thread
baseline; then the machine facts.  Takes about 4 x seeds x 30 s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import run
import workloads


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    root = Path.cwd().resolve()

    print(f"## End-to-end, seeds {args.seeds[0]}-{args.seeds[-1]}, {args.seconds} s runs\n")
    print("| workload | metric | median | Q1 | Q3 | spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads.WORKLOADS:
        results = [bench(root, workload, seed, args.seconds, 0) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            print(f"| {workload} | {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {failed}/{attempted} |", flush=True)

    print(f"\n## Per layer, seed {args.seeds[0]}, one traced run per workload\n")
    traced = {w: bench(root, w, args.seeds[0], args.seconds, 1) for w in workloads.WORKLOADS}
    print("| metric | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    first = next(iter(traced.values()))["metrics"]
    for name, entry in first.items():
        cells = " | ".join(f"{t['metrics'][name]['value']:.4g}" for t in traced.values())
        print(f"| {name} | {entry['unit']} | {cells} |")

    print("\n## Single-thread baseline (IGSSM_THREADS=1, one process each, seed "
          f"{args.seeds[0]})\n")
    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = run.Runner(root, Path(tmp))
        runner.env["IGSSM_THREADS"] = "1"
        for workload in workloads.WORKLOADS:
            raw = workloads.make_config(workload, args.seeds[0], root)
            config = Path(tmp) / f"{workload}.json"
            config.write_text(json.dumps(raw), encoding="utf-8")
            argv = [sys.executable, "-m", "igssm.cli"] + workloads.cli_args(workload, config, Path(tmp) / workload)
            wall, rss, code = runner.process(argv, Path(tmp) / "log")
            print(f"- {workload}: wall {wall:.2f} s, peak RSS {rss:.0f} MiB, exit {code}")

    print("\n## Machine\n")
    print(f"- nproc (usable cores) {len(os.sched_getaffinity(0))}, IGSSM_THREADS = nproc in every run")
    print(f"- Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")
    print(f"- rng.floor_normals_per_s {run.floor_normals_per_s():.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
