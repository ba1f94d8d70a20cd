"""Benchmark of the igssm Monte Carlo harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round starts a fresh
``python3 -m igssm.cli <command>`` process on the workload's config
(generated from ``--seed``) with ``IGSSM_THREADS`` pinned to the number of
usable cores, then checks every artifact it wrote (``checks.py``).  Before
each round, set-up is timed in a fresh interpreter (``probe_setup.py``; at
least three times per run).  Another round starts while the mean round time
so far predicts it ends within ``--seconds``; there is at least one, and
every round runs the same operations.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``setup_s`` and
``peak_rss_mb`` (medians over rounds and probes), and ``coords_per_s``, the
Monte Carlo coordinates over (``wall_s`` - ``setup_s``).  ``--trace
1`` alternates an untraced round with a round under ``layer_trace.py`` and
prints the per-layer metrics, the tracing overhead, and fails an operation
if any CSV of the traced round differs from the untraced one by a byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from layer_trace import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
FLOOR_BLOCK = 1_000_000


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".tasks"):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("draw_bytes"):
        return "bytes_computed"
    if name.endswith("parallel_efficiency"):
        return "ratio"
    if name.endswith("_mb"):
        return "MiB"
    return "s"


class Runner:
    """Starts the program's processes for one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.threads = len(os.sched_getaffinity(0))
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
                        IGSSM_THREADS=str(self.threads))

    def process(self, argv: list, log: Path) -> tuple[float, float, int]:
        """Run ``argv`` to its end: (wall seconds, peak RSS in MiB, exit code)."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=err, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup(self, command: str, config: Path) -> dict:
        log = self.work / "setup.log"
        argv = [sys.executable, str(BENCH_DIR / "probe_setup.py"), command, str(config)]
        _, _, code = self.process(argv, log)
        text = log.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}:\n{text}")
        probe = json.loads(text.strip().splitlines()[-1])
        if not Path(probe["igssm_file"]).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"igssm imported from {probe['igssm_file']}, not from this checkout")
        return probe


def floor_normals_per_s() -> float:
    """Philox standard-normal rate on a 1e6 block: the floor for coords_per_s."""
    rng = np.random.Generator(np.random.Philox(12345))
    rng.standard_normal(FLOOR_BLOCK)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        rng.standard_normal(FLOOR_BLOCK)
        times.append(time.perf_counter() - start)
    return FLOOR_BLOCK / statistics.median(times)


def artifact_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def csv_differences(a: Path, b: Path) -> list:
    names = sorted({p.name for p in a.glob("*.csv")} | {p.name for p in b.glob("*.csv")})
    return [n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                     and (a / n).read_bytes() == (b / n).read_bytes())]


def measure(args, runner: Runner) -> tuple[dict, int, int]:
    command, _ = workloads.WORKLOADS[args.workload]
    raw = workloads.make_config(args.workload, args.seed, runner.root)
    config = runner.work / "config.json"
    config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")

    attempted = failed = 0
    verdicts: dict = {}

    def round_(k: int, traced: bool):
        nonlocal attempted, failed
        out = runner.work / f"round{k}{'-traced' if traced else ''}"
        argv = [sys.executable]
        if traced:
            argv += [str(BENCH_DIR / "layer_trace.py"), str(runner.work / f"spans{k}.json")]
        else:
            argv += ["-m", "igssm.cli"]
        argv += workloads.cli_args(args.workload, config, out)
        wall, rss, code = runner.process(argv, runner.work / f"round{k}.log")
        if code != 0:
            sys.stderr.write((runner.work / f"round{k}.log").read_text(errors="replace"))
        if not traced:
            # The checks are a function of the artifact bytes, so a round whose
            # artifacts repeat an earlier round's byte for byte reuses its verdicts.
            digest = artifact_digest(out)
            if digest not in verdicts:
                verdicts[digest] = checks.check_outputs(command, raw, out)
            for result in verdicts[digest]:
                attempted += 1
                if not result.ok:
                    failed += 1
                    print(f"check failed: {result.name}: {result.detail}", file=sys.stderr)
        return wall, rss, out

    probes, walls, rsses, traced_walls, layers = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    # start another round only while the mean round so far predicts it ends in time
    while k == 0 or (time.perf_counter() - start) * (k + 1) / k <= args.seconds:
        probe = runner.setup(command, config)
        probes.append(probe)
        wall, rss, out = round_(k, traced=False)
        walls.append(wall)
        rsses.append(rss)
        if args.trace:
            t_wall, _, t_out = round_(k, traced=True)
            traced_walls.append(t_wall)
            spans = json.loads((runner.work / f"spans{k}.json").read_text())["spans"]
            layers.append(layer_metrics(spans, runner.threads))
            attempted += 1
            differ = csv_differences(out, t_out)
            if differ:
                failed += 1
                print(f"check failed: traced CSVs differ: {differ}", file=sys.stderr)
            shutil.rmtree(t_out, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    while len(probes) < SETUP_REPEATS:
        probes.append(runner.setup(command, config))
    setup_s = statistics.median(p["setup_s"] for p in probes)

    if not args.trace:
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "coords_per_s": probes[0]["coords"] / (wall_s - setup_s),
            "peak_rss_mb": statistics.median(rsses),
        }
    else:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["rng.floor_normals_per_s"] = floor_normals_per_s()
        metrics["config.load_s"] = statistics.median(p["load_s"] for p in probes)
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd().resolve()
    if not (root / "src" / "igssm" / "cli.py").is_file():
        print(f"error: no igssm source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed = measure(args, Runner(root, work))
    except (RuntimeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
