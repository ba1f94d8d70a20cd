"""Run the igssm CLI with its layer boundaries traced from outside the program.

    python3 perfbench/layer_trace.py <spans.json> <igssm cli arguments...>

Thread-safe wrappers replace the names the igssm modules import from each
other (``stream``, ``simulate_observation``, ``coordinate_posterior``, the
samplers, the dimension posterior, the ``mc_*`` tasks, ``audit_tail_bounds``,
``check_assumptions``, ``composite_constants``).  Spans stay in memory and
are written to ``spans.json`` when the CLI returns; the program itself has
no timers.  Self time is computed per thread: a span's duration minus the
durations of the spans it directly encloses on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

WRAPPED_MODULES = ("sequences", "posterior", "hierarchy", "montecarlo", "experiment")
WRAPPED_NAMES = (
    "stream",
    "simulate_observation",
    "coordinate_posterior",
    "sample_sieve_posterior",
    "sample_hierarchical_posterior",
    "dimension_posterior",
    "adaptive_estimate",
    "mc_mise",
    "mc_concentration",
    "mc_bracket_mass",
    "audit_tail_bounds",
    "check_assumptions",
    "composite_constants",
)
# Monte Carlo task entry points: one span each per experiment task.
TASK_LAYERS = (
    "montecarlo.mc_mise",
    "montecarlo.mc_concentration",
    "montecarlo.mc_bracket_mass",
    "montecarlo.audit_tail_bounds",
)


def _draw_bytes(result) -> int:
    # computed from the returned shapes, not measured
    return sum(a.size * a.itemsize for a in result)


# Work recorded per span, computed from the call's result.
WORK = {
    "simulate_observation": lambda result: result.values.size,
    "audit_tail_bounds": lambda result: result.config.m * result.reps,
    "sample_hierarchical_posterior": _draw_bytes,
}


class Tracer:
    """Collects ``(layer, thread, start, end, self_s, work)`` spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # open spans' child time, finished spans
            self._local.state = state
            with self._lock:
                self._per_thread.append(state[1])
        return state

    def wrap(self, layer: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                amount = work(result) if work is not None and result is not None else 0
                spans.append((layer, threading.get_ident(), start, end, end - start - child, amount))

        return traced

    def spans(self) -> list:
        with self._lock:
            return [span for spans in self._per_thread for span in spans]


def install(tracer: Tracer) -> None:
    """Replace every wrapped name in every module that imports it."""
    wrappers: dict = {}
    for module_name in WRAPPED_MODULES:
        module = importlib.import_module(f"igssm.{module_name}")
        for name in WRAPPED_NAMES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            if id(fn) not in wrappers:
                layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = tracer.wrap(layer, fn, WORK.get(name))
            setattr(module, name, wrappers[id(fn)])


# Per-layer metrics taken from the spans: <layer>.<calls|busy_s|self_s> sum
# over spans; <layer>.<...>_per_s is work over busy time; draw_bytes is the
# largest single call's work.
SPAN_METRICS = (
    "rng.stream.calls",
    "rng.stream.busy_s",
    "sequences.simulate_observation.calls",
    "sequences.simulate_observation.busy_s",
    "sequences.simulate_observation.coords_per_s",
    "posterior.coordinate_posterior.calls",
    "posterior.coordinate_posterior.busy_s",
    "posterior.sample_sieve_posterior.calls",
    "posterior.sample_sieve_posterior.busy_s",
    "hierarchy.dimension_posterior.calls",
    "hierarchy.dimension_posterior.busy_s",
    "hierarchy.adaptive_estimate.self_s",
    "hierarchy.sample_hierarchical_posterior.calls",
    "hierarchy.sample_hierarchical_posterior.busy_s",
    "hierarchy.sample_hierarchical_posterior.draw_bytes",
    "montecarlo.mc_mise.self_s",
    "montecarlo.mc_concentration.self_s",
    "montecarlo.mc_bracket_mass.busy_s",
    "montecarlo.audit_tail_bounds.busy_s",
    "montecarlo.audit_tail_bounds.draws_per_s",
    "selection.check_assumptions.busy_s",
    "selection.composite_constants.busy_s",
)


def layer_metrics(spans: list, workers: int) -> dict:
    """Per-layer figures from the spans of one traced workload process; a
    layer that did not run reads 0."""
    by_layer: dict = {}
    for layer, _tid, start, end, self_s, work in spans:
        entry = by_layer.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "max_work": 0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += self_s
        entry["work"] += work
        entry["max_work"] = max(entry["max_work"], work)

    metrics = {}
    for name in SPAN_METRICS:
        layer, _, key = name.rpartition(".")
        entry = by_layer.get(layer)
        if entry is None:
            metrics[name] = 0
        elif key.endswith("_per_s"):
            metrics[name] = entry["work"] / entry["busy_s"]
        elif key == "draw_bytes":
            metrics[name] = entry["max_work"]
        else:
            metrics[name] = entry[key]
    tasks = [s for s in spans if s[0] in TASK_LAYERS]
    metrics["experiment.tasks"] = len(tasks)
    metrics["experiment.parallel_efficiency"] = 0.0
    if tasks:
        phase = max(s[3] for s in tasks) - min(s[2] for s in tasks)
        metrics["experiment.parallel_efficiency"] = sum(s[3] - s[2] for s in tasks) / (phase * workers)
    return metrics


def main(argv: list) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import igssm.cli

    tracer = Tracer()
    install(tracer)
    try:
        return igssm.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
