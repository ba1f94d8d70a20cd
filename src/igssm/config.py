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
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .posterior import PriorSpec
from .sequences import (
    OperatorSequence,
    ParameterSequence,
    WeightedClass,
    _blocks,
    _decaying,
    _freeze,
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

# Per concentration kind: the selection it reads, what it estimates (the
# posterior mass of a "sieve" or a "hierarchical" band, or the dimension-
# posterior mass outside a "bracket") and, for a band, its composite-
# constant key and whether it has a lower edge.  hierarchical_minimax bounds
# the mass from above only: no uniform lower edge exists for it.
ConcentrationKind = namedtuple(
    "ConcentrationKind", "selection estimate constant two_sided", defaults=(None, True)
)
CONCENTRATION_TABLE = {
    "sieve_oracle": ConcentrationKind("oracle", "sieve", "oracle_sieve"),
    "hierarchical_oracle": ConcentrationKind("oracle", "hierarchical", "oracle_hierarchical"),
    "bracket_oracle": ConcentrationKind("oracle", "bracket"),
    "sieve_minimax": ConcentrationKind("minimax", "sieve", "minimax_sieve"),
    "hierarchical_minimax": ConcentrationKind("minimax", "hierarchical", "minimax_hierarchical", False),
    "bracket_minimax": ConcentrationKind("minimax", "bracket"),
}
CONCENTRATION_KINDS = tuple(CONCENTRATION_TABLE)

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


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


# JSON-Schema's types: a bool is no number, and an integral float is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _canon(v):
    """A hashable stand-in for a JSON value under JSON-Schema equality, where
    1 equals 1.0 but not true (``uniqueItems``)."""
    if isinstance(v, bool) or v is None:
        return (type(v), v)
    if isinstance(v, list):
        return (list, tuple(map(_canon, v)))
    if isinstance(v, dict):
        return (dict, frozenset((k, _canon(x)) for k, x in v.items()))
    return v


def _validate(value, schema: dict, path: tuple = ()) -> None:
    """Check ``value`` against ``schema``, which uses only the keywords
    handled here, and raise :class:`ConfigError` at the first violation
    as ``path: message``, with jsonschema's message and the path's keys and
    indices joined by dots (``<root>`` for the top level)."""

    def fail(message: str):
        raise ConfigError(f"{'.'.join(map(str, path)) or '<root>'}: {message}")

    if "type" in schema and not _TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and value not in schema["enum"]:  # every enum holds strings alone
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = sorted((k for k in value if k not in props), key=str)
        if schema.get("additionalProperties") is False and extra:
            verb = "was" if len(extra) == 1 else "were"
            fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} {verb} unexpected)")
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        for key, sub in props.items():
            if key in value:
                _validate(value[key], sub, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _validate(item, schema.get("items", {}), path + (i,))
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} {'should be non-empty' if schema['minItems'] == 1 else 'is too short'}")
        if schema.get("uniqueItems") and len(set(map(_canon, value))) < len(value):
            fail(f"{value!r} has non-unique elements")
    elif _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            fail(f"{value!r} is greater than the maximum of {schema['maximum']!r}")


def _check_eps_values(values, where: str) -> tuple:
    """The noise levels ``values``, each in (0, 1), as floats, deduplicated
    and largest first."""
    for e in values:
        if not 0.0 < e < 1.0:
            raise ConfigError(f"{where}: noise levels must lie in the open interval (0, 1), got {float(e)}")
    return tuple(sorted({float(e) for e in values}, reverse=True))


# Per model or truth family and prior kind: (the keys it needs, the keys it
# may take).  A needed pair is a choice, of which exactly one key is given.
# Any other key of the block is one its builder does not read: an error, not
# a setting silently ignored.
_FAMILY_KEYS = {
    ("model", "polynomial"): (("decay",), ("n",)),
    ("model", "exponential"): (("decay",), ("n",)),
    ("model", "constant"): ((), ("n",)),
    ("model", "explicit"): ((("values", "values_file"),), ()),
    ("truth", "polynomial"): (("exponent",), ("scale",)),
    ("truth", "exponential"): (("exponent",), ("scale",)),
    ("truth", "explicit"): ((("values", "values_file"),), ()),
    ("prior", "improper"): ((), ()),
    ("prior", "gaussian"): ((("variance", "variance_family"),), ("mean",)),
    ("prior", "matched"): (("d",), ("mean",)),
}
_KEY_NAMES = {"d": "the margin constant d"}


def _validate_semantics(raw: dict) -> None:
    for block, selector in (("model", "family"), ("truth", "family"), ("prior", "kind")):
        given, kind = raw[block], raw[block][selector]
        needs, takes = _FAMILY_KEYS[block, kind]
        choices = [(need,) if isinstance(need, str) else need for need in needs]
        for key in given:
            if key != selector and key not in takes and not any(key in c for c in choices):
                raise ConfigError(f"{block}.{key}: the {kind} {selector} does not use this key")
        for choice in choices:
            count = sum(key in given for key in choice)
            if count > 1:
                raise ConfigError(f"{block}.{choice[0]}: give {' or '.join(choice)}, not both")
            if count == 0:
                names = " or ".join(_KEY_NAMES.get(key, key) for key in choice)
                raise ConfigError(f"{block}.{choice[0]}: the {kind} {selector} needs {names}")
    estimators = raw.get("estimators", [])
    if "fixed" in estimators and "fixed_dims" not in raw:
        raise ConfigError("estimators: the fixed kind needs fixed_dims")
    needs_class = "minimax" in estimators or any(
        CONCENTRATION_TABLE[k].selection == "minimax" for k in raw.get("concentration", {}).get("kinds", [])
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
        _validate(self.raw, _SCHEMA)
        self.eps_grid, self.concentration_eps_grid  # both grids are checked here, and kept
        _validate_semantics(self.raw)
        n = self.sequence_length()
        if self.fixed_dims and max(self.fixed_dims) > n:
            raise ConfigError(
                f"fixed_dims: dimension {max(self.fixed_dims)} exceeds the "
                f"working sequence length {n}"
            )

    # -- scalar accessors ---------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @cached_property
    def eps_grid(self) -> tuple:
        return _check_eps_values(self.raw["eps_grid"], "eps_grid")

    @cached_property
    def concentration_eps_grid(self) -> tuple:
        grid = self.raw.get("concentration", {}).get("eps_grid")
        return self.eps_grid if grid is None else _check_eps_values(grid, "concentration.eps_grid")

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
        """Working truncation length: the values of an explicit model fix
        it; otherwise ``model.n``; otherwise ``ceil(1/eps)`` at the given (or
        finest grid) noise level.  Raises :class:`ConfigError` past
        :data:`MAX_SEQUENCE_LENGTH`."""
        model = self.raw["model"]
        if self._model_values is not None:
            n = self._model_values.size
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
        the operator's length."""
        op = self.build_operator(self.sequence_length(eps))
        theta = self.build_truth(op.n)
        if theta.n != op.n:
            raise ConfigError(
                f"truth: {theta.n} explicit values do not match the working sequence length {op.n}"
            )
        return op, theta, self.build_prior(op)

    @cached_property
    def _model_values(self) -> np.ndarray | None:
        """The values of an explicit model, its ``values_file`` read once,
        when the config is validated; None for the other families."""
        model = self.raw["model"]
        return self._file_values(model) if model["family"] == "explicit" else None

    def _file_values(self, block: dict) -> np.ndarray:
        """An explicit family's values: inline, or read from its values_file."""
        if "values" in block:
            return _freeze(np.array(block["values"], dtype=np.float64))
        path = self.base_dir / block["values_file"]  # an absolute path stays as it is
        try:
            return _freeze(load_values_csv(path))
        except (OSError, ValueError) as err:
            raise ConfigError(f"values_file {path}: {err}") from err

    def build_operator(self, n: int) -> OperatorSequence:
        model = self.raw["model"]
        try:
            if model["family"] == "explicit":
                return make_operator("explicit", self._model_values.size, values=self._model_values)
            return make_operator(model["family"], n, decay=model.get("decay"))
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"model: {err}") from err

    def build_truth(self, n: int) -> ParameterSequence:
        truth = self.raw["truth"]
        try:
            if truth["family"] == "explicit":
                values = self._file_values(truth)
                return make_parameters("explicit", values.size, values=values)
            theta = make_parameters(
                truth["family"], n, exponent=truth.get("exponent"), scale=truth.get("scale", 1.0)
            )
            theta.sq_tail()  # a tail past the double range fails here, not in a later stage
            return theta
        except (ValueError, OverflowError) as err:
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
            means = _freeze(np.full(n, mean))
            if prior["kind"] == "matched":
                eps_ref = min(self.eps_grid)
                variances = op.amplification  # a new array, turned into the variances in place
                variances *= eps_ref
                for lo, hi in _blocks(n):
                    block = variances[lo:hi]
                    np.maximum(np.sqrt(block), block, out=block)
                variances *= float(prior["d"])
                return PriorSpec.gaussian(means, _freeze(variances))
            if "variance_family" in prior:
                fam = prior["variance_family"]
                scale = float(fam.get("scale", 1.0))
                variances = _decaying(fam["family"], float(fam["exponent"]), np.arange(1, n + 1, dtype=np.float64))
                variances *= scale
                if not np.all(variances > 0.0):
                    raise ValueError("variance family underflowed to zero")
                return PriorSpec.gaussian(means, _freeze(variances))
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


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in the file at ``path``, read strictly: an unreadable
    file, a repeated key, a number that is not finite (``NaN``,
    ``Infinity``, ``1e999`` or an integer past float range) and a top level
    that is not an object are each a :class:`ConfigError` naming ``what``."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err

    def finite(token, parse=float):  # json reads NaN, +-Infinity and 1e999 as floats
        value = parse(token)
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{what} {path}: {token} is not a finite number")
        return value

    def unique(pairs):  # json keeps the last of a repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"{what} {path}: duplicate key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        raw = json.loads(
            text, parse_float=finite, parse_constant=finite,
            parse_int=lambda token: finite(token, int), object_pairs_hook=unique,
        )
    except (json.JSONDecodeError, RecursionError) as err:  # nested past the recursion limit
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object at top level")
    return raw


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    path = Path(path)
    return ExperimentConfig(raw=_read_json(path, "config"), base_dir=path.parent)
