"""End-to-end experiment runner: builds the sequences from a validated
config, runs the requested Monte Carlo stages across the noise grid, and
writes the CSV/JSON artifacts.

Outputs are deterministic for a fixed (config, seed): replication streams
are keyed by counter, and no timestamps are embedded.  Set-up
(``_prepare``) makes every selection and bracket the run needs and plans
and checks every row of its stages, so a config that cannot run raises
``ConfigError`` or ``InfeasibleError`` before any replication and before
the output directory is made; any artifact written before a later
exception is removed.  One Monte Carlo stage (``_mc_stage``) runs every
risk and concentration row: one pass (``montecarlo._pass``) per posterior
the rows read (at each noise level, the search range for the adaptive,
hierarchical and bracket rows, and each sieve dimension), in which each
row reads one column, the loss, an interval or a bracket.  The passes run
one after another, each splitting its own replications across the worker
threads, and the rows are written in config order; the audit configs run
in parallel and are gathered in submission order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONCENTRATION_TABLE, ConfigError, ExperimentConfig
from .montecarlo import (
    _band,
    _max_workers,
    _parallel_map,
    _pass,
    audit_tail_bounds,
    random_tail_suite,
    rate_regression,
    theoretical_exponent,
)
from .selection import (
    InfeasibleError,
    _assumptions,
    _bracket,
    _profiles,
    composite_constants,
    max_dimension,
)

__all__ = ["ExperimentResult", "run_experiment"]

_FITTED_KINDS = ("oracle", "minimax", "adaptive")

@dataclass
class ExperimentResult:
    """The ``report.json`` payload, the checks that failed (with
    ``check=True``) and one progress line per CSV written."""

    report: dict
    failures: list
    messages: list


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):  # a numpy bool, integer or float
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


class _Writer:
    """Artifact writer for one command: ``with _Writer(out_dir, cfg, seed) as
    writer:`` creates ``out_dir``, and any exception in the block removes
    every file written in it, one cut off mid-write too, then propagates.

    Every CSV gets a ``<stem>.meta.json`` sidecar naming the artifact, the
    config hash, the seed and the version, plus any extra fields given."""

    def __init__(self, out_dir, cfg: ExperimentConfig, seed: int):
        self.out_dir = Path(out_dir)
        self.cfg = cfg
        self.seed = int(seed)
        self.written: list = []

    def __enter__(self) -> _Writer:
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:  # an existing file, or a path under one
            raise ConfigError(f"cannot write to {self.out_dir}: {err}") from err
        return self

    def __exit__(self, kind, err, tb) -> None:
        if kind is not None:
            for path in self.written:
                with contextlib.suppress(OSError):
                    path.unlink()

    def _open(self, name: str):
        path = self.out_dir / name
        self.written.append(path)  # before it exists, so a failed write is removed
        try:
            return open(path, "w", encoding="utf-8", newline="")
        except OSError as err:  # a directory at the path, say: not ours to remove
            self.written.pop()
            raise ConfigError(f"cannot write to {path}: {err}") from err

    def csv(self, name: str, header: list, rows: list, **extra) -> None:
        with self._open(name) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        meta = {
            "artifact": name,
            "config_sha256": self.cfg.sha256(),
            "seed": self.seed,
            "version": __version__,
            **extra,
        }
        self.json(Path(name).stem + ".meta.json", meta)

    def json(self, name: str, payload: dict) -> None:
        with self._open(name) as fh:
            fh.write(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


# One Monte Carlo row: its CSV cells before the estimate, the cut its task
# runs at (the sieve dimension m, or the search range under c_lambda) and the
# column it reads of that task's pass: ("loss", None), ("interval", (lo, hi))
# with a band's closed interval of squared distances, or ("bracket", (m_lo, m_hi)).
_Row = namedtuple("_Row", "cells m c_lambda column")


def _prepare(cfg: ExperimentConfig, subset: str | None = None) -> tuple:
    """``(theta, prior, op, report, mise, concentration, header)``: the
    sequences of ``cfg``, its assumption report, the checked rows of the
    risk and concentration stages ``subset`` runs (see ``run_experiment``;
    none without one, as for ``igssm select``) and the ``report.json``
    header (all of it but the seed).  Every selection and bracket the run
    needs is made here, on both noise grids, and all of them read one set
    of profiles (``selection._profiles``): the bias profile, the
    variance-proxy prefix sums and the class weights, each scanned once and
    kept as its values at the block ends, so no full-length array is built
    for them and none outlives set-up."""
    op, theta, prior = cfg.build_sequences()
    wclass = cfg.build_class(op.n)  # explicit operators fix their own length

    try:
        profiles = _profiles(theta, prior, op, wclass)
        report = _assumptions(theta, prior, op, cfg.eps_grid, wclass, profiles)
        c_lambda = report.c_lambda if cfg.c_lambda_override is None else cfg.c_lambda_override
        constants = composite_constants(
            report, theta, prior, op, weighted_class=wclass, c_lambda=c_lambda
        )
    except OverflowError as err:  # |theta - mu|^2, 1/d^2 or the amplification at a threshold dimension
        raise ConfigError(f"constants: {err}") from err
    mise = _mise_plan(cfg, report, c_lambda) if subset in ("all", "sweep") else []
    concentration = []
    if subset == "all":
        concentration = _concentration_plan(cfg, theta, prior, op, wclass, profiles, report, c_lambda, constants)
    header = {
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "n": op.n,
        "constants": {
            "d": report.d,
            "c_lambda": report.c_lambda,
            "c_lambda_used": c_lambda,
            "l_lambda": report.l_lambda,
            "submultiplicative": report.submultiplicative,
            "submult_witness": report.submult_witness,
            "kappa_oracle": report.kappa_oracle,
            "kappa_minimax": report.kappa_minimax,
            "checked_range": report.checked_range,
            "composite": constants,
        },
        "grid": {
            "eps": report.eps_grid,
            "max_dims": report.max_dims,
            "oracle_dims": report.oracle_dims,
            "oracle_rates": report.oracle_rates,
            "minimax_dims": report.minimax_dims,
            "minimax_rates": report.minimax_rates,
            "feasible": report.feasible,
        },
    }
    return theta, prior, op, report, mise, concentration, header


def _mise_plan(cfg, report, c_lambda) -> list:
    """The risk stage's rows: per noise level and estimator, each fixed
    dimension, the oracle or minimax selection, or the search range of the
    adaptive estimate, which needs the oracle dimension inside it."""
    selected = {"oracle": report.oracle_dims, "minimax": report.minimax_dims, "adaptive": report.max_dims}
    rows = []
    for i, eps in enumerate(cfg.eps_grid):
        for kind in cfg.estimators:
            if kind == "adaptive" and not report.feasible[i]:
                raise InfeasibleError(
                    f"oracle dimension {report.oracle_dims[i]} exceeds the search "
                    f"range {report.max_dims[i]} at eps={eps}"
                )
            for dim in cfg.fixed_dims if kind == "fixed" else (selected[kind][i],):
                cut = (None, c_lambda) if kind == "adaptive" else (dim, None)
                rows.append(_Row((eps, kind, dim), *cut, ("loss", None)))
    return rows


def _concentration_plan(cfg, theta, prior, op, wclass, profiles, report, c_lambda, constants) -> list:
    """The concentration stage's rows, per noise level and kind: a band at
    the selection or on the search range, or the bracket of the selection
    (see ``CONCENTRATION_TABLE``), each selection and bracket read from
    ``profiles``.  A row raises at a selection past the search range, a
    bracket that cannot be computed, a band constant below 1 or a rate
    ``montecarlo._band`` refuses."""
    rows = []
    for eps in cfg.concentration_eps_grid:
        m_max = max_dimension(op, eps)
        selected = {kind: profiles.select(kind, eps)[0] for kind in profiles.kinds}
        for name in cfg.concentration_kinds:
            kind = CONCENTRATION_TABLE[name]
            sel = selected[kind.selection]
            if sel.dimension > m_max:
                raise InfeasibleError(
                    f"selected dimension {sel.dimension} exceeds the search "
                    f"range {m_max} at eps={eps} for {name}"
                )
            if kind.estimate == "bracket":
                bracket = _bracket(profiles.bias, theta, prior, op, report, sel, wclass, c_lambda)
                cells = (eps, name, sel.dimension, None, None, *bracket)
                rows.append(_Row(cells, None, c_lambda, ("bracket", bracket)))
                continue
            constant = constants[kind.constant]
            if not constant >= 1.0:
                raise InfeasibleError(f"band constant {constant} of {name} is below 1 at eps={eps}")
            m, lam = (sel.dimension, None) if kind.estimate == "sieve" else (None, c_lambda)
            cells = (eps, name, m_max if m is None else m, constant, sel.rate, None, None)
            rows.append(_Row(cells, m, lam, ("interval", _band(constant, sel.rate, kind.two_sided))))
    return rows


def _rates_rows(report):
    """One ``rates.csv`` row a noise level; without a class the minimax
    cells are blank and kappa is the oracle's."""
    minimax, kappa = (report.minimax_dims, report.minimax_rates), report.kappa_minimax
    if kappa is None:
        minimax, kappa = ([None] * report.eps_grid.size,) * 2, report.kappa_oracle
    constants = (report.d, report.c_lambda, report.l_lambda, kappa)
    columns = zip(report.eps_grid, report.oracle_dims, report.oracle_rates, *minimax)
    return [[*cells, *constants] for cells in columns]


def _mc_stage(theta, prior, op, plan, seed, reps, draws) -> list:
    """The estimate of every row of ``plan``, risk and concentration rows
    alike, in order: one pass (``montecarlo._pass``) per posterior the rows
    read, keyed by ``(eps, m, c_lambda)``, in the order of its first row,
    with one column for each distinct column its rows read."""
    passes = {}  # (eps, m, c_lambda): per kind of column, in the pass's order, the regions its rows read
    for row in plan:
        kind, region = row.column
        columns = passes.setdefault((row.cells[0], row.m, row.c_lambda), {"interval": {}, "bracket": {}, "loss": {}})
        columns[kind][region] = None
    found = {}
    for (eps, m, c_lambda), columns in passes.items():
        intervals, brackets, loss = map(list, columns.values())
        estimates = _pass(theta, prior, op, eps, reps, seed, intervals, brackets, draws, m, c_lambda, loss)
        found.update(zip([(eps, m, c_lambda, kind, region) for kind in columns for region in columns[kind]], estimates))
    return [found[(row.cells[0], row.m, row.c_lambda, *row.column)] for row in plan]


def _rate_fits(cfg, rows) -> dict:
    """The log-log fit of each fitted estimator's ``mise.csv`` rows."""
    fits = {}
    model = cfg.raw["model"]
    block = cfg.raw.get("class")
    theory = theoretical_exponent(
        model["family"],
        model.get("decay"),
        block["family"] if block else "none",
        block["exponent"] if block else None,
    )
    for kind in _FITTED_KINDS:
        pts = [(r[0], r[3], r[4]) for r in rows if r[1] == kind]
        if len(pts) < 2:
            continue
        eps_arr = np.array([p[0] for p in pts])
        mise_arr = np.array([p[1] for p in pts])
        se_arr = np.array([p[2] for p in pts])
        fit = rate_regression(eps_arr, mise_arr, se=se_arr, theory=theory)
        span = math.log10(float(eps_arr.max()) / float(eps_arr.min()))
        adequate = eps_arr.size >= 4 and span >= 3.0 - 1e-9
        fits[kind] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "theory_kind": theory.kind,
            "exponent": theory.exponent,
            "note": theory.note,
            "adequate_grid": adequate,
            "matches": fit.slope_matches(cfg.check_rate_tol) if adequate else None,
            "eps": list(eps_arr),
            "mise": list(mise_arr),
            "se": list(se_arr),
        }
    return fits


# audit.csv's columns: the config's index in the suite, then attributes of
# the audit, or of its config where the audit has none of that name.
_AUDIT_COLUMNS = (
    "index", "m", "c", "var_bound", "max_bound", "shift_bound",
    "prob_bound", "lower_emp", "lower_se", "upper_emp", "upper_se",
    "overshoot_bound", "overshoot_emp", "overshoot_se", "passed",
)


def _audit_stage(cfg, seed):
    """One ``audit.csv`` row per config of the tail-bound suite."""
    block = cfg.audit_settings
    suite = random_tail_suite(int(block["configs"]), seed)
    audit_reps = int(block["reps"])

    def run(indexed):
        i, tail_cfg = indexed
        audit = audit_tail_bounds(tail_cfg, audit_reps, seed, rep=i)
        return [i, *(getattr(audit if hasattr(audit, name) else tail_cfg, name) for name in _AUDIT_COLUMNS[1:])]

    return _parallel_map(run, list(enumerate(suite)))


def _run_checks(cfg, fits, conc_rows, audit_rows):
    failures = []
    for kind, fit in fits.items():
        if fit["matches"] is False:
            failures.append(
                f"rate: {kind} slope {fit['slope']:.4f} outside "
                f"{fit['exponent']} +/- {cfg.check_rate_tol}"
            )
    if conc_rows:
        floor = cfg.check_concentration_floor
        ceiling = cfg.check_bracket_ceiling
        smallest = min(r[0] for r in conc_rows)
        for row in conc_rows:
            eps, kind, mass = row[0], row[1], row[7]
            if eps != smallest:
                continue
            if CONCENTRATION_TABLE[kind].estimate == "bracket":
                if mass > ceiling:
                    failures.append(
                        f"bracket: {kind} outside-mass {mass:.4f} > {ceiling} at eps={eps}"
                    )
            elif mass < floor:
                failures.append(
                    f"concentration: {kind} band mass {mass:.4f} < {floor} at eps={eps}"
                )
    for row in audit_rows:
        if row[-1] is False:
            failures.append(f"audit: config {row[0]} exceeded its tail bound")
    return failures


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    check: bool = False,
    seed: int | None = None,
    reps: int | None = None,
    subset: str = "all",
) -> ExperimentResult:
    """Run the experiment described by ``cfg`` and write artifacts under
    ``out_dir``.  ``subset`` limits the stages: "sweep" runs selection +
    MISE + rate fits, "audit" only the tail-bound suite, "all" everything
    the config asks for.  A config that set-up finds cannot run leaves
    ``out_dir`` untouched."""
    if subset not in ("all", "sweep", "audit"):
        raise ValueError(f"unknown subset {subset!r}")
    seed = cfg.seed if seed is None else int(seed)
    reps = cfg.mc_reps if reps is None else int(reps)
    _max_workers()  # every subset starts threads: an invalid IGSSM_THREADS fails here
    theta, prior, op, report, mise_plan, conc_plan, header = _prepare(cfg, subset)
    payload = {**header, "seed": seed}
    fits: dict = {}
    conc_rows: list = []
    audit_rows: list = []
    messages = []

    with _Writer(out_dir, cfg, seed) as writer:
        if subset in ("all", "sweep"):
            writer.csv(
                "rates.csv",
                ["eps", "m_star", "phi_star", "m_circ", "phi_circ", "d", "C_lambda", "L_lambda", "kappa"],
                _rates_rows(report),
            )
            messages.append(f"rates.csv: {len(report.eps_grid)} grid points")
        estimates = _mc_stage(theta, prior, op, mise_plan + conc_plan, seed, reps, cfg.mc_draws)
        if mise_plan:
            mise_rows = [[*row.cells, est.value, est.se, est.reps] for row, est in zip(mise_plan, estimates)]
            writer.csv("mise.csv", ["eps", "kind", "m", "mise", "se", "reps"], mise_rows)
            messages.append(f"mise.csv: {len(mise_rows)} rows")
            fits = payload["rates_fit"] = _rate_fits(cfg, mise_rows)

        if conc_plan:
            conc_rows = [[*row.cells, est.value, est.se] for row, est in zip(conc_plan, estimates[len(mise_plan) :])]
            writer.csv(
                "concentration.csv",
                ["eps", "kind", "m", "constant", "rate", "m_lo", "m_hi", "mass", "se"],
                conc_rows,
            )
            messages.append(f"concentration.csv: {len(conc_rows)} rows")
            payload["concentration"] = [
                {"eps": r[0], "kind": r[1], "mass": r[7], "se": r[8]} for r in conc_rows
            ]

        if subset == "audit" or (subset == "all" and cfg.audit_block is not None):
            audit_rows = _audit_stage(cfg, seed)
            writer.csv("audit.csv", _AUDIT_COLUMNS, audit_rows)
            n_passed = sum(1 for r in audit_rows if r[-1])
            messages.append(f"audit.csv: {n_passed}/{len(audit_rows)} configs within bounds")
            payload["audit"] = {"configs": len(audit_rows), "passed": n_passed}

        failures = _run_checks(cfg, fits, conc_rows, audit_rows) if check else []
        payload["checks"] = {"enabled": bool(check), "failures": failures}
        writer.json("report.json", payload)
    return ExperimentResult(payload, failures, messages)
