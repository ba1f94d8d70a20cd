"""Command-line harness.

Subcommands are thin veneers over the library: ``simulate`` writes an
observation CSV, ``posterior`` the per-coordinate posterior summary,
``select`` the dimension selections and assumption report, ``adapt`` the
dimension posterior and adaptive estimate, ``audit`` the tail-bound suite,
``sweep`` the rate study (selection + MISE + log-log fit), and ``run`` the
full experiment.  Configs are JSON files validated against the published
schema; a bare name (e.g. ``pp_p1_a1``) resolves to a bundled config.

Exit codes: 0 success, 2 configuration error (an unusable ``--out``
included), 3 infeasible configuration, 4 failed checks under ``--check``.
The library raises ``ConfigError`` and ``InfeasibleError``, in set-up
where it can, and ``main`` alone turns them into an exit code.  Every
subcommand writes through one ``experiment._Writer``, which removes its
files when the command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, _check_eps_values, _read_json, _validate, load_config
from .experiment import _prepare, _Writer, run_experiment
from .hierarchy import adaptive_estimate
from .posterior import coordinate_posterior
from .selection import InfeasibleError, _operator_constant
from .sequences import Observation, _read_column, simulate_observation

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_INFEASIBLE", "EXIT_CHECK"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK = 4


def _load_any(arg: str) -> ExperimentConfig:
    """Load a config from a path, or from the bundled configs by name."""
    path = Path(arg)
    if path.exists():
        return load_config(path)
    name = arg if arg.endswith(".json") else arg + ".json"
    resource = importlib.resources.files("igssm").joinpath("configs", name)
    if resource.is_file():
        with importlib.resources.as_file(resource) as real:
            return load_config(real)
    raise ConfigError(f"config {arg!r} is neither a file nor a bundled config name")


def _numbered(*columns) -> list:
    """CSV rows ``(j, columns...)`` with ``j`` counting from 1."""
    return [(j, *values) for j, values in enumerate(zip(*columns), start=1)]


# The fields of an observation sidecar that ``posterior`` and ``adapt`` read.
_SIDECAR_SCHEMA = {
    "type": "object",
    "required": ["eps", "seed"],
    "properties": {"eps": {"type": "number"}, "seed": {"type": "integer", "minimum": 0}},
}


def _cmd_simulate(args) -> int:
    cfg = _load_any(args.config)
    eps = cfg.eps_grid[0] if args.eps is None else _check_eps_values((args.eps,), "--eps")[0]
    seed = cfg.seed if args.seed is None else args.seed
    op, theta, _ = cfg.build_sequences(eps)
    obs = simulate_observation(theta, op, eps, seed)
    with _Writer(args.out, cfg, seed) as writer:
        writer.csv("observation.csv", ["j", "y"], _numbered(obs.values), eps=eps, n=op.n)
    if not args.quiet:
        print(f"observation.csv: {op.n} coordinates at eps={eps}")
    return EXIT_OK


@contextlib.contextmanager
def _finite_posterior():
    """An observation too large for the operator makes the library reject
    its posterior means or log-weights as not finite: a config error."""
    try:
        with np.errstate(over="ignore"):  # the overflow is the error raised below
            yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _observed(args) -> tuple:
    """``(cfg, observation, op, theta, prior)`` for the ``--obs`` commands:
    the observation with the eps and seed of its sidecar, which is read as
    strictly as a config, and the sequences at that noise level, checked to
    match its length."""
    cfg = _load_any(args.config)
    obs_path = Path(args.obs)
    meta_path = obs_path.with_name(obs_path.stem + ".meta.json")
    meta = _read_json(meta_path, "observation sidecar")
    for key in _SIDECAR_SCHEMA["required"]:
        if key not in meta:
            raise ConfigError(f"{meta_path}: observation sidecar lacks {key!r}")
    try:
        _validate(meta, _SIDECAR_SCHEMA)
    except ConfigError as err:
        raise ConfigError(f"{meta_path}: {err}") from None
    (eps,) = _check_eps_values((meta["eps"],), f"{meta_path}: eps")
    try:
        values = _read_column(obs_path, ("j", "y"), 1)
    except OSError as err:
        raise ConfigError(f"cannot read observation: {err}") from err
    except ValueError as err:
        raise ConfigError(f"malformed observation input: {err}") from err
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{obs_path}: observation values must be finite")
    op, theta, prior = cfg.build_sequences(eps)
    if op.n != values.size:
        raise ConfigError(
            f"observation length {values.size} does not match the config's "
            f"sequence length {op.n} at eps={eps}"
        )
    return cfg, Observation(values, eps, int(meta["seed"])), op, theta, prior


def _cmd_posterior(args) -> int:
    cfg, obs, op, _, prior = _observed(args)
    with _finite_posterior():
        summary = coordinate_posterior(prior, op, obs)
    with _Writer(args.out, cfg, obs.seed) as writer:
        writer.csv(
            "posterior.csv", ["j", "sigma", "post_mean"],
            _numbered(summary.post_var, summary.post_mean), eps=obs.eps,
        )
    if not args.quiet:
        print(f"posterior.csv: {op.n} coordinates")
    return EXIT_OK


def _cmd_adapt(args) -> int:
    cfg, obs, op, _, prior = _observed(args)
    eps = obs.eps
    c_lambda = cfg.c_lambda_override
    if c_lambda is None:
        c_lambda = _operator_constant(op)
    with _finite_posterior():
        summary = coordinate_posterior(prior, op, obs)
        estimate = adaptive_estimate(summary, prior, op, eps, c_lambda)
    dist = estimate.dimension_posterior
    omega = np.zeros(op.n)
    omega[: estimate.omega.size] = estimate.omega
    with _Writer(args.out, cfg, obs.seed) as writer:
        writer.csv(
            "dimension_posterior.csv", ["m", "log_weight", "prob"],
            _numbered(dist.log_weights, dist.probs), eps=eps, c_lambda=c_lambda,
        )
        writer.csv(
            "adaptive.csv", ["j", "omega", "theta_hat"],
            _numbered(omega, estimate.values), eps=eps, c_lambda=c_lambda,
        )
    if not args.quiet:
        print(f"adaptive.csv: search range {estimate.omega.size} of {op.n} coordinates")
    return EXIT_OK


def _cmd_select(args) -> int:
    cfg = _load_any(args.config)
    header = _prepare(cfg)[-1]
    with _Writer(args.out, cfg, cfg.seed) as writer:
        writer.json("selection.json", header)
    if not args.quiet:
        grid = header["grid"]
        dims = ", ".join(f"eps={e}: m*={m}" for e, m in zip(grid["eps"], grid["oracle_dims"]))
        print(f"selection.json: {dims}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    """``audit``, ``sweep`` and ``run``: the experiment runner on a subset of
    its stages.  On ``audit``, ``--reps`` sets the audit draws; the config
    is rebuilt with them, so the schema's floor applies."""
    cfg = _load_any(args.config)
    reps = args.reps
    if args.subset == "audit" and reps is not None:
        audit = {**cfg.audit_settings, "reps": reps}
        cfg = ExperimentConfig(raw={**cfg.raw, "audit": audit}, base_dir=cfg.base_dir)
        reps = None
    result = run_experiment(cfg, args.out, check=args.check, seed=args.seed, reps=reps, subset=args.subset)
    if not args.quiet:
        for line in result.messages:
            print(line)
        for failure in result.failures:
            print(f"check failed: {failure}")
    return EXIT_CHECK if result.failures else EXIT_OK


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igssm",
        description="Bayesian estimation laboratory for the indirect Gaussian sequence space model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, reps=None, check=False, eps=False, obs=False):
        p.add_argument("--config", required=True, help="config path or bundled config name")
        p.add_argument("--out", default="igssm_out", help="output directory (default: igssm_out)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=None, help="override the config seed")
        if reps:
            p.add_argument("--reps", type=_at_least(1), default=None, help=reps)
        if check:
            p.add_argument("--check", action="store_true", help="turn checks into the exit code")
        if eps:
            p.add_argument("--eps", type=float, default=None, help="noise level (default: the largest grid entry)")
        if obs:
            p.add_argument("--obs", required=True, help="observation.csv from the simulate stage")

    p = sub.add_parser("simulate", help="draw one observation vector")
    common(p, seed=True, eps=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("posterior", help="per-coordinate posterior summary from an observation")
    common(p, obs=True)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("select", help="dimension selections and assumption report")
    common(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("adapt", help="dimension posterior and adaptive estimate from an observation")
    common(p, obs=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("audit", help="run the tail-bound audit suite")
    common(p, seed=True, reps="override the audit draws per config (at least 10000)")
    p.set_defaults(func=_cmd_experiment, subset="audit", check=False)

    p = sub.add_parser("sweep", help="rate study: selection, MISE, log-log fit")
    common(p, seed=True, reps="override MC replications", check=True)
    p.set_defaults(func=_cmd_experiment, subset="sweep")

    p = sub.add_parser("run", help="full experiment (sweep + concentration + audit)")
    common(p, seed=True, reps="override MC replications", check=True)
    p.set_defaults(func=_cmd_experiment, subset="all")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as err:
        print(f"infeasible configuration: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
