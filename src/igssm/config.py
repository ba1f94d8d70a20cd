"""Experiment configuration: JSON schema, validation, and builders.

A config file describes one experiment: the operator and truth sequences,
the prior, an optional smoothness class, the noise-level grid, Monte Carlo
sizes, which estimators to run, and optional concentration/audit/check
blocks.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .posterior import PriorSpec
from .sequences import (
    OperatorSequence,
    ParameterSequence,
    WeightedClass,
    load_values_csv,
    make_operator,
    make_parameters,
    make_weights,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "CONCENTRATION_KINDS"]


class ConfigError(ValueError):
    """Invalid experiment configuration (schema or semantic)."""


# Longest working sequence a config may ask for: ten times the longest
# bundled one (1e6 at eps = 1e-6), 80 MB per float64 array.  Longer lengths
# are rejected before any array is built.
MAX_SEQUENCE_LENGTH = 10**7

CONCENTRATION_KINDS = (
    "sieve_oracle",
    "hierarchical_oracle",
    "bracket_oracle",
    "sieve_minimax",
    "hierarchical_minimax",
    "bracket_minimax",
)

_EPS_GRID = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 1,
}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "truth", "prior", "eps_grid", "seed"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["polynomial", "exponential", "constant", "explicit"]},
                "decay": {"type": "number", "minimum": 0},
                "n": {"type": "integer", "minimum": 1},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "values_file": {"type": "string"},
            },
        },
        "truth": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["polynomial", "exponential", "explicit"]},
                "exponent": {"type": "number"},
                "scale": {"type": "number"},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "values_file": {"type": "string"},
            },
        },
        "prior": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["improper", "gaussian", "matched"]},
                "mean": {"type": "number"},
                "variance": {"type": "number", "exclusiveMinimum": 0},
                "variance_family": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family", "exponent"],
                    "properties": {
                        "family": {"enum": ["polynomial", "exponential"]},
                        "exponent": {"type": "number"},
                        "scale": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "d": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "class": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "exponent", "radius"],
            "properties": {
                "family": {"enum": ["polynomial", "exponential"]},
                "exponent": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "minimum": 0},
            },
        },
        "eps_grid": _EPS_GRID,
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "reps": {"type": "integer", "minimum": 1},
                "draws": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "c_lambda": {"type": "number", "minimum": 1},
        "estimators": {
            "type": "array",
            "items": {"enum": ["fixed", "oracle", "minimax", "adaptive"]},
            "uniqueItems": True,
        },
        "fixed_dims": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
            "uniqueItems": True,
        },
        "concentration": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kinds"],
            "properties": {
                "kinds": {
                    "type": "array",
                    "items": {"enum": list(CONCENTRATION_KINDS)},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "eps_grid": _EPS_GRID,
            },
        },
        "audit": {
            "type": "object",
            "additionalProperties": False,
            "required": ["configs", "reps"],
            "properties": {
                "configs": {"type": "integer", "minimum": 1},
                "reps": {"type": "integer", "minimum": 10000},
            },
        },
        "check": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rate_tol": {"type": "number", "exclusiveMinimum": 0},
                "concentration_floor": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "bracket_ceiling": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


def _check_eps_values(values, where: str) -> tuple:
    out = []
    for e in values:
        e = float(e)
        if not 0.0 < e < 1.0:
            raise ConfigError(
                f"{where}: noise levels must lie in the open interval (0, 1), got {e}"
            )
        out.append(e)
    return tuple(out)


def _validate_semantics(raw: dict) -> None:
    model = raw["model"]
    if model["family"] in ("polynomial", "exponential") and "decay" not in model:
        raise ConfigError("model: polynomial/exponential families need a decay value")
    if model["family"] == "explicit" and not ("values" in model or "values_file" in model):
        raise ConfigError("model: explicit family needs values or values_file")
    truth = raw["truth"]
    if truth["family"] in ("polynomial", "exponential") and "exponent" not in truth:
        raise ConfigError("truth: polynomial/exponential families need an exponent")
    if truth["family"] == "explicit" and not ("values" in truth or "values_file" in truth):
        raise ConfigError("truth: explicit family needs values or values_file")
    prior = raw["prior"]
    if prior["kind"] == "gaussian" and not ("variance" in prior or "variance_family" in prior):
        raise ConfigError("prior: gaussian kind needs variance or variance_family")
    if prior["kind"] == "matched" and "d" not in prior:
        raise ConfigError("prior: matched kind needs the margin constant d")
    estimators = raw.get("estimators", [])
    if "fixed" in estimators and "fixed_dims" not in raw:
        raise ConfigError("estimators: the fixed kind needs fixed_dims")
    needs_class = "minimax" in estimators or any(
        k.endswith("_minimax") for k in raw.get("concentration", {}).get("kinds", [])
    )
    if needs_class and "class" not in raw:
        raise ConfigError("a minimax estimator or concentration kind needs a class block")


def _ceil_inv(eps: float) -> int:
    """``ceil(1/eps)`` robust to the one-ulp wobble of decimal grids."""
    return int(math.ceil(1.0 / eps - 1e-9))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment configuration.

    ``eps_grid`` is stored largest-first; relative ``values_file`` paths
    resolve against ``base_dir`` (the config file's directory).
    """

    raw: dict
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        try:
            jsonschema.validate(self.raw, _SCHEMA)
        except jsonschema.ValidationError as err:
            path = ".".join(str(p) for p in err.absolute_path) or "<root>"
            raise ConfigError(f"{path}: {err.message}") from err
        _check_eps_values(self.raw["eps_grid"], "eps_grid")
        if "concentration" in self.raw and "eps_grid" in self.raw["concentration"]:
            _check_eps_values(self.raw["concentration"]["eps_grid"], "concentration.eps_grid")
        _validate_semantics(self.raw)
        self._check_fixed_dims(self.sequence_length())

    def _check_fixed_dims(self, n: int) -> None:
        if self.fixed_dims and max(self.fixed_dims) > n:
            raise ConfigError(
                f"fixed_dims: dimension {max(self.fixed_dims)} exceeds the "
                f"working sequence length {n}"
            )

    # -- scalar accessors ---------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def eps_grid(self) -> tuple:
        return tuple(sorted(set(_check_eps_values(self.raw["eps_grid"], "eps_grid")), reverse=True))

    @property
    def concentration_eps_grid(self) -> tuple:
        block = self.raw.get("concentration", {})
        if "eps_grid" in block:
            vals = _check_eps_values(block["eps_grid"], "concentration.eps_grid")
            return tuple(sorted(set(vals), reverse=True))
        return self.eps_grid

    @property
    def concentration_kinds(self) -> tuple:
        return tuple(self.raw.get("concentration", {}).get("kinds", ()))

    @property
    def mc_reps(self) -> int:
        return int(self.raw.get("mc", {}).get("reps", 200))

    @property
    def mc_draws(self) -> int:
        return int(self.raw.get("mc", {}).get("draws", 500))

    @property
    def estimators(self) -> tuple:
        return tuple(self.raw.get("estimators", ("oracle",)))

    @property
    def fixed_dims(self) -> tuple:
        return tuple(int(m) for m in self.raw.get("fixed_dims", ()))

    @property
    def c_lambda_override(self) -> float | None:
        return float(self.raw["c_lambda"]) if "c_lambda" in self.raw else None

    @property
    def audit_block(self) -> dict | None:
        return self.raw.get("audit")

    @property
    def audit_settings(self) -> dict:
        """The audit block, or the default suite of 50 configs x 1e5 draws
        that ``igssm audit`` runs on a config without one."""
        return self.raw.get("audit", {"configs": 50, "reps": 100_000})

    @property
    def check_rate_tol(self) -> float:
        return float(self.raw.get("check", {}).get("rate_tol", 0.08))

    @property
    def check_concentration_floor(self) -> float:
        return float(self.raw.get("check", {}).get("concentration_floor", 0.9))

    @property
    def check_bracket_ceiling(self) -> float:
        return float(self.raw.get("check", {}).get("bracket_ceiling", 0.1))

    def sha256(self) -> str:
        text = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- builders -------------------------------------------------------------

    def sequence_length(self, eps: float | None = None) -> int:
        """Working truncation length: an explicit model value list fixes it;
        otherwise ``model.n``; otherwise ``ceil(1/eps)`` at the given (or
        finest grid) noise level.  Raises :class:`ConfigError` past
        :data:`MAX_SEQUENCE_LENGTH`."""
        model = self.raw["model"]
        if model["family"] == "explicit" and "values" in model:
            n = len(model["values"])
        elif "n" in model:
            n = int(model["n"])
        else:
            eps = min(self.eps_grid + self.concentration_eps_grid) if eps is None else eps
            if eps < 1.0 / MAX_SEQUENCE_LENGTH:  # also keeps 1 / eps finite
                raise ConfigError(f"eps={eps} needs a sequence longer than the limit {MAX_SEQUENCE_LENGTH}")
            n = _ceil_inv(eps)
        if n > MAX_SEQUENCE_LENGTH:
            raise ConfigError(f"working sequence length {n} exceeds the limit {MAX_SEQUENCE_LENGTH}")
        return n

    def build_sequences(self, eps: float | None = None) -> tuple:
        """``(op, theta, prior)`` at the working length for ``eps`` (default:
        the finest noise level of the config).  An explicit truth must have
        the operator's length; at the default, so must ``fixed_dims`` fit
        it, which a model ``values_file`` sets only once it is read."""
        op = self.build_operator(self.sequence_length(eps))
        theta = self.build_truth(op.n)
        if theta.n != op.n:
            raise ConfigError(
                f"truth: {theta.n} explicit values do not match the working sequence length {op.n}"
            )
        if eps is None:
            self._check_fixed_dims(op.n)
        return op, theta, self.build_prior(op)

    def _file_values(self, block: dict):
        if "values" in block:
            return [float(v) for v in block["values"]]
        if "values_file" in block:
            path = Path(block["values_file"])
            if not path.is_absolute():
                path = self.base_dir / path
            try:
                return load_values_csv(path)
            except (OSError, ValueError) as err:
                raise ConfigError(f"values_file {path}: {err}") from err
        return None

    def build_operator(self, n: int) -> OperatorSequence:
        model = self.raw["model"]
        try:
            if model["family"] == "explicit":
                values = self._file_values(model)
                return make_operator("explicit", len(values), values=values)
            return make_operator(model["family"], n, decay=model.get("decay"))
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"model: {err}") from err

    def build_truth(self, n: int) -> ParameterSequence:
        truth = self.raw["truth"]
        try:
            if truth["family"] == "explicit":
                values = self._file_values(truth)
                return make_parameters("explicit", len(values), values=values)
            return make_parameters(
                truth["family"], n, exponent=truth.get("exponent"), scale=truth.get("scale", 1.0)
            )
        except ValueError as err:
            raise ConfigError(f"truth: {err}") from err

    def build_prior(self, op: OperatorSequence) -> PriorSpec:
        """The prior at the operator's length.

        The matched kind sets the coordinate variances to ``d * max(sqrt(
        eps * amp), eps * amp)`` at the finest grid noise level, so the
        margin assumption holds there with constant exactly ``d``.
        """
        prior = self.raw["prior"]
        n = op.n
        try:
            if prior["kind"] == "improper":
                return PriorSpec.flat(n)
            mean = float(prior.get("mean", 0.0))
            means = np.full(n, mean)
            if prior["kind"] == "matched":
                eps_ref = min(self.eps_grid)
                amp = op.amplification
                envelope = np.maximum(np.sqrt(eps_ref * amp), eps_ref * amp)
                return PriorSpec.gaussian(means, float(prior["d"]) * envelope)
            if "variance_family" in prior:
                fam = prior["variance_family"]
                scale = float(fam.get("scale", 1.0))
                j = np.arange(1, n + 1, dtype=np.float64)
                q = float(fam["exponent"])
                if fam["family"] == "polynomial":
                    variances = scale * j**-q
                else:
                    variances = scale * np.exp(1.0 - j**q)
                if not np.all(variances > 0.0):
                    raise ValueError("variance family underflowed to zero")
                return PriorSpec.gaussian(means, variances)
            return PriorSpec.gaussian(means, float(prior["variance"]))
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"prior: {err}") from err

    def build_class(self, n: int | None = None) -> WeightedClass | None:
        """The smoothness class at length ``n`` (default: the working
        sequence length), or None without a class block."""
        block = self.raw.get("class")
        if block is None:
            return None
        n = self.sequence_length() if n is None else n
        try:
            return make_weights(block["family"], n, exponent=block["exponent"], radius=block["radius"])
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"class: {err}") from err


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err

    def non_finite(token):  # json reads NaN and +-Infinity; no config key takes them
        raise ConfigError(f"config {path}: {token} is not a finite number")

    try:
        raw = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object at top level")
    return ExperimentConfig(raw=raw, base_dir=path.parent)
