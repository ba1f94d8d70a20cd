"""Schema and semantic validation of experiment configs."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igssm import cli, config
from igssm.cli import main
from igssm.config import MAX_SEQUENCE_LENGTH, ConfigError, ExperimentConfig, load_config

BASE = {
    "model": {"family": "polynomial", "decay": 1.0},
    "truth": {"family": "polynomial", "exponent": 1.6, "scale": 0.4},
    "prior": {"kind": "improper"},
    "eps_grid": [0.01, 0.001],
    "seed": 7,
}


def cfg_with(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return ExperimentConfig(raw)


def test_minimal_config_and_defaults():
    cfg = cfg_with()
    assert cfg.seed == 7
    assert cfg.eps_grid == (0.01, 0.001)
    assert cfg.mc_reps == 200 and cfg.mc_draws == 500
    assert cfg.estimators == ("oracle",)
    assert cfg.check_rate_tol == 0.08
    assert cfg.check_concentration_floor == 0.9
    assert cfg.check_bracket_ceiling == 0.1
    assert cfg.c_lambda_override is None


def test_eps_grid_sorted_deduplicated():
    cfg = cfg_with(eps_grid=[0.001, 0.01, 0.001])
    assert cfg.eps_grid == (0.01, 0.001)


def test_noise_grids_are_checked_once(monkeypatch):
    """Each grid is checked and sorted when the config is validated, and
    kept: reading it again re-checks nothing."""
    calls = []
    check = config._check_eps_values
    monkeypatch.setattr(config, "_check_eps_values", lambda values, where: calls.append(where) or check(values, where))
    cfg = cfg_with(concentration={"kinds": ["bracket_oracle"], "eps_grid": [0.001, 0.01]})
    for _ in range(3):
        assert cfg.eps_grid == cfg.concentration_eps_grid == (0.01, 0.001)
    cfg.build_sequences()
    assert calls == ["eps_grid", "concentration.eps_grid"]


def test_eps_outside_unit_interval_names_the_interval():
    with pytest.raises(ConfigError, match=r"open interval \(0, 1\)"):
        cfg_with(eps_grid=[1.5])
    with pytest.raises(ConfigError, match=r"open interval \(0, 1\)"):
        cfg_with(eps_grid=[0.0])


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError):
        cfg_with(bogus=1)
    with pytest.raises(ConfigError):
        cfg_with(model={"family": "polynomial", "decay": 1.0, "extra": 2})


def test_semantic_requirements():
    with pytest.raises(ConfigError, match="decay"):
        cfg_with(model={"family": "polynomial"})
    with pytest.raises(ConfigError, match="exponent"):
        cfg_with(truth={"family": "polynomial"})
    with pytest.raises(ConfigError, match="values"):
        cfg_with(truth={"family": "explicit"})
    with pytest.raises(ConfigError, match="variance"):
        cfg_with(prior={"kind": "gaussian"})
    with pytest.raises(ConfigError, match="margin"):
        cfg_with(prior={"kind": "matched"})
    with pytest.raises(ConfigError, match="fixed_dims"):
        cfg_with(estimators=["fixed"])
    with pytest.raises(ConfigError, match="class"):
        cfg_with(estimators=["minimax"])
    with pytest.raises(ConfigError, match="class"):
        cfg_with(concentration={"kinds": ["sieve_minimax"]})


def test_audit_reps_floor():
    with pytest.raises(ConfigError):
        cfg_with(audit={"configs": 5, "reps": 5000})
    cfg = cfg_with(audit={"configs": 5, "reps": 10000})
    assert cfg.audit_block == {"configs": 5, "reps": 10000}


def test_c_lambda_override_floor():
    with pytest.raises(ConfigError):
        cfg_with(c_lambda=0.5)
    assert cfg_with(c_lambda=1.5).c_lambda_override == 1.5


def test_sequence_length_rules():
    assert cfg_with().sequence_length() == 1000  # ceil(1 / min eps)
    assert cfg_with(model={"family": "constant", "n": 64}).sequence_length() == 64
    explicit = cfg_with(model={"family": "explicit", "values": [1.0, 0.5, 0.25]})
    assert explicit.sequence_length() == 3
    # concentration grid can be the finest point
    cfg = cfg_with(concentration={"kinds": ["bracket_oracle"], "eps_grid": [1e-4]})
    assert cfg.sequence_length() == 10000


def test_working_length_is_bounded_before_any_array_is_built(tmp_path, monkeypatch, capsys):
    def no_arrays(*args, **kwargs):
        raise AssertionError("a sequence was built")

    monkeypatch.setattr(config, "make_operator", no_arrays)
    monkeypatch.setattr(config, "make_parameters", no_arrays)
    assert MAX_SEQUENCE_LENGTH == 10**7
    with pytest.raises(ConfigError, match="longer than the limit 10000000"):
        cfg_with(eps_grid=[1e-12])
    with pytest.raises(ConfigError, match="length 10000001 exceeds the limit"):
        cfg_with(model={"family": "constant", "n": 10**7 + 1})
    assert cfg_with(model={"family": "constant", "n": 10**7}).sequence_length() == 10**7
    out = tmp_path / "out"
    assert main(["simulate", "--config", "pp_small", "--eps", "1e-12", "--out", str(out)]) == 2
    assert "longer than the limit" in capsys.readouterr().err
    assert not out.exists()


def test_fixed_dims_must_fit_the_sequence():
    with pytest.raises(ConfigError, match="fixed_dims"):
        cfg_with(
            model={"family": "constant", "n": 10},
            estimators=["fixed"],
            fixed_dims=[11],
        )


def test_builders_produce_model_objects():
    cfg = cfg_with(estimators=["minimax"], **{"class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0}})
    n = cfg.sequence_length()
    op = cfg.build_operator(n)
    theta = cfg.build_truth(n)
    prior = cfg.build_prior(op)
    wclass = cfg.build_class()
    assert op.n == theta.n == prior.n == wclass.n == n
    assert prior.improper.all()
    assert wclass.radius == 1.0


def test_matched_prior_tracks_the_noise_envelope():
    cfg = cfg_with(prior={"kind": "matched", "d": 2.0})
    op = cfg.build_operator(cfg.sequence_length())
    prior = cfg.build_prior(op)
    eps_ref = 0.001
    amp = op.values**-2.0
    expect = 2.0 * np.maximum(np.sqrt(eps_ref * amp), eps_ref * amp)
    np.testing.assert_allclose(prior.variances, expect, rtol=1e-12)
    assert not prior.any_improper


def test_gaussian_prior_variance_family():
    cfg = cfg_with(
        prior={
            "kind": "gaussian",
            "mean": 0.5,
            "variance_family": {"family": "polynomial", "exponent": 2.0, "scale": 3.0},
        },
        model={"family": "constant", "n": 5},
    )
    prior = cfg.build_prior(cfg.build_operator(5))
    np.testing.assert_allclose(prior.variances, 3.0 * np.arange(1.0, 6.0) ** -2.0)
    assert np.all(prior.means == 0.5)


def _decaying_reference(family, power, n):
    """``j^-power`` or ``exp(1 - j^power)`` for ``j = 1..n``, as numpy's
    power, subtract and exp compute them on a fresh array."""
    j = np.arange(1, n + 1, dtype=np.float64)
    if family == "polynomial":
        return j ** -power
    with np.errstate(over="ignore"):
        return np.exp(1.0 - j**power)


@pytest.mark.parametrize(
    "family, exponent, n",
    [("polynomial", p, 300) for p in (0.3, 1.0, 1.7, 4.0)] + [("exponential", p, 20) for p in (0.3, 0.5, 1.0)],
)
def test_variance_family_and_class_weights_share_one_formula(family, exponent, n):
    """The prior's variance family at exponent q and the class weights at
    exponent p are the one decaying formula at powers q and 2p, bit for
    bit what it gives alone (short exponential ranges, which would
    underflow to zero further out)."""
    cfg = cfg_with(
        prior={"kind": "gaussian", "variance_family": {"family": family, "exponent": exponent, "scale": 1.5}},
        model={"family": "constant", "n": n},
        **{"class": {"family": family, "exponent": exponent, "radius": 1.0}},
    )
    prior = cfg.build_prior(cfg.build_operator(n))
    assert np.array_equal(prior.variances, _decaying_reference(family, exponent, n) * 1.5)
    assert np.array_equal(cfg.build_class(n).weights, _decaying_reference(family, 2.0 * exponent, n))


def test_an_exponential_variance_family_that_underflows_is_a_config_error():
    """exp(1 - j^1000) is zero from j = 2 on: the variances are refused."""
    cfg = cfg_with(
        prior={"kind": "gaussian", "variance_family": {"family": "exponential", "exponent": 1e3}},
        model={"family": "constant", "n": 5},
    )
    with pytest.raises(ConfigError, match="prior: variance family underflowed to zero"):
        cfg.build_prior(cfg.build_operator(5))


def test_values_file_resolution(tmp_path):
    vals = tmp_path / "theta.csv"
    vals.write_text("value\n0.9\n0.3\n0.1\n")
    raw = json.loads(json.dumps(BASE))
    raw["model"] = {"family": "constant", "n": 3}
    raw["truth"] = {"family": "explicit", "values_file": "theta.csv"}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    theta = cfg.build_truth(3)
    np.testing.assert_array_equal(theta.values, [0.9, 0.3, 0.1])
    # missing file is a config error, not an OSError
    raw["truth"] = {"family": "explicit", "values_file": "nope.csv"}
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="values_file"):
        load_config(cfg_path).build_truth(3)


def test_sha_is_key_order_insensitive(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"model":{"family":"constant","n":4},"truth":{"family":"explicit","values":[1.0]},"prior":{"kind":"improper"},"eps_grid":[0.1],"seed":1}')
    b.write_text('{"seed":1,"eps_grid":[0.1],"prior":{"kind":"improper"},"truth":{"values":[1.0],"family":"explicit"},"model":{"n":4,"family":"constant"}}')
    assert load_config(a).sha256() == load_config(b).sha256()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": 1, "eps_grid": [0.1], "seed": 5}', "seed"),
        ('{"prior": {"kind": "improper", "kind": "gaussian"}, "seed": 1}', "kind"),
        ('{"seed": 1, "prior": {"variance_family": {"family": "a", "family": "b"}}}', "family"),
    ],
    ids=["top", "nested", "twice_nested"],
)
def test_duplicate_keys_are_config_errors(tmp_path, capsys, text, key):
    """json keeps the last of a repeated key; the loader names the key
    instead, at any depth, and ``select`` exits 2 on such a config."""
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
        load_config(path)
    assert main(["select", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"config error: config {path}: duplicate key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400], ids=["inf", "-inf", "10**400"])
def test_numbers_past_float_range_are_config_errors(tmp_path, capsys, literal):
    """``json`` reads ``1e999`` as infinity and keeps an integer too large
    for a float, which no config key can use; the loader refuses both."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**BASE, "c_lambda": 2.5}).replace("2.5", literal), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{literal} is not a finite number"):
        load_config(path)
    grid = path.read_text(encoding="utf-8").replace(literal, "2").replace("[0.01, 0.001]", f"[{literal}]")
    path.write_text(grid, encoding="utf-8")
    assert main(["select", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"{literal} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match=f"cannot read config {path}: 'utf-8' codec"):
        load_config(path)


def test_json_nested_past_the_recursion_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["select", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {path} is not valid JSON: maximum recursion depth")
    assert not (tmp_path / "out").exists()



def test_malformed_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_bundled_configs_all_load():
    from importlib.resources import files

    names = [p.name for p in (files("igssm") / "configs").iterdir() if p.name.endswith(".json")]
    assert len(names) >= 3
    for name in names:
        cfg = load_config(str(files("igssm") / "configs" / name))
        assert cfg.seed >= 0


def test_benchmark_configs_load():
    """The configs ``perfbench/workloads.py`` generates pass validation,
    the unused-key check included."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        ExperimentConfig(raw=workloads.make_config(name, 3, root))


# -- the config validator against jsonschema ----------------------------------

_ABSENT = object()

# Every schema ``config._validate`` checks, and the JSON-Schema keywords it
# implements.
_SCHEMAS = (config._SCHEMA, cli._SIDECAR_SCHEMA)
_KEYWORDS = {
    "type", "enum", "properties", "additionalProperties", "required", "items",
    "minItems", "uniqueItems", "minimum", "exclusiveMinimum", "maximum",
}
_SIDECAR = {"artifact": "observation.csv", "eps": 0.01, "n": 100, "seed": 7, "version": "0.1.0"}


def _nodes(value, schema, path=()):
    """``(path, value, subschema)`` of every place of ``_SCHEMA`` a config
    holds or may hold; ``value`` is ``_ABSENT`` where the config has none."""
    yield path, value, schema
    if isinstance(value, dict) or (value is _ABSENT and "properties" in schema):
        for key, sub in schema.get("properties", {}).items():
            child = value.get(key, _ABSENT) if isinstance(value, dict) else _ABSENT
            yield from _nodes(child, sub, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], path + (i,))


def _near_misses(schema):
    """Values on both sides of each of the schema's keywords: wrong types,
    ``true`` and integral floats, bounds and their neighbours, enum members
    and near-members, empty and duplicated arrays."""
    out = [True, 1.0, 1.5, 0, -1, 7, "polynomial", None, {}, [], [1], [1, 1], [1, 1.0], [True, 1]]
    for key in ("minimum", "exclusiveMinimum", "maximum"):
        if key in schema:
            bound = schema[key]
            out += [bound, float(bound), bound - 1, bound + 0.5]
    if "enum" in schema:
        out += list(schema["enum"]) + [schema["enum"][0].upper(), schema["enum"][:2] * 2]
    return out


def _mutate(raw, path, value, action):
    """``raw`` with ``action`` applied at ``path``, made of fresh objects."""
    raw = json.loads(json.dumps(raw))
    *parents, last = path
    node = raw
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if action == "delete":
        del node[last]
    elif action == "unknown key":
        node[last]["bogus"] = 1
    elif action == "duplicate":
        node[last] = node[last] + node[last][:1]
    else:
        node[last] = value
    return raw


@st.composite
def mutated_documents(draw):
    """A bundled config or an observation sidecar with one mutation: a value
    set to a near miss of its schema, a key removed, an unknown key added or
    an array item repeated."""
    from importlib.resources import files

    name = draw(st.sampled_from(["pp_p1_a0", "pp_p1_a1", "pp_small", "tail_audit", "sidecar"]))
    if name == "sidecar":
        raw, root = dict(_SIDECAR), cli._SIDECAR_SCHEMA
    else:
        raw = json.loads((files("igssm") / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        root = config._SCHEMA
    path, value, schema = draw(st.sampled_from([n for n in _nodes(raw, root) if n[0]]))
    actions = ["set"]
    if value is not _ABSENT:
        actions.append("delete")
    if isinstance(value, dict):
        actions.append("unknown key")
    if isinstance(value, list) and value:
        actions.append("duplicate")
    action = draw(st.sampled_from(actions))
    return _mutate(raw, path, draw(st.sampled_from(_near_misses(schema))), action)


@settings(max_examples=300, deadline=None)
@given(raw=mutated_documents())
@example(raw={"mc": {"reps": 0}})
@example(raw={**BASE, "eps_grid": []})
@example(raw={**BASE, "seed": True})
@example(raw={**BASE, "seed": 7.0})
@example(raw={**BASE, "fixed_dims": [1, 1.0]})
@example(raw={**BASE, "fixed_dims": [True, 1]})
@example(raw={**BASE, "prior": {"kind": "gaussian", "variance": 0}})
@example(raw={**BASE, "check": {"concentration_floor": 1.5}})
@example(raw={**BASE, "other": 1, "bogus": 2})
@example(raw={**_SIDECAR, "seed": 1.5})
@example(raw={**_SIDECAR, "eps": "0.01"})
def test_validator_agrees_with_jsonschema(raw):
    """On every schema it checks, configs' and sidecars' alike, the
    validator accepts exactly what jsonschema accepts, and its message is
    one of jsonschema's errors, formatted ``path: message``; with a single
    error, that error."""
    import jsonschema

    for schema in _SCHEMAS:
        errors = [
            f"{'.'.join(map(str, err.absolute_path)) or '<root>'}: {err.message}"
            for err in jsonschema.Draft202012Validator(schema).iter_errors(raw)
        ]
        try:
            config._validate(raw, schema)
        except ConfigError as err:
            assert str(err) in errors
        else:
            assert errors == []


def test_schemas_use_only_implemented_keywords():
    """A keyword the validator does not implement would be ignored, so a
    schema that uses one fails here."""

    def keywords(schema):
        yield from schema
        for sub in schema.get("properties", {}).values():
            yield from keywords(sub)
        if "items" in schema:
            yield from keywords(schema["items"])

    for schema in _SCHEMAS:
        assert set(keywords(schema)) <= _KEYWORDS


@pytest.mark.parametrize(
    "items, unique", [([1, 1.0], False), ([True, 1], True), ([[1], [1.0]], False), ([{"a": 0}, {"a": False}], True)]
)
def test_unique_items_follow_json_equality(items, unique):
    """1 equals 1.0, inside arrays and objects too, but true is not 1."""
    import jsonschema

    schema = {"type": "array", "uniqueItems": True}
    assert jsonschema.Draft202012Validator(schema).is_valid(items) is unique
    if unique:
        config._validate(items, schema)
    else:
        with pytest.raises(ConfigError, match="non-unique"):
            config._validate(items, schema)


def test_validator_names_the_nested_field():
    with pytest.raises(ConfigError) as err:
        cfg_with(mc={"reps": 0, "draws": 5})
    assert str(err.value) == "mc.reps: 0 is less than the minimum of 1"
    with pytest.raises(ConfigError) as err:
        cfg_with(fixed_dims=[2, True], estimators=["fixed"])
    assert str(err.value) == "fixed_dims.1: True is not of type 'integer'"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig({})
    assert str(err.value) == "<root>: 'model' is a required property"


def test_values_file_fixes_the_working_length(tmp_path):
    """A model values file is read once, when the config is validated, and
    its length is the working length at every noise level."""
    (tmp_path / "ops.csv").write_text("value\n1.0\n0.5\n0.25\n", encoding="utf-8")
    raw = {**BASE, "model": {"family": "explicit", "values_file": "ops.csv"}, "eps_grid": [1e-8],
           "class": {"family": "polynomial", "exponent": 1.0, "radius": 1.0}}
    cfg = ExperimentConfig(raw, base_dir=tmp_path)
    (tmp_path / "ops.csv").unlink()
    assert cfg.sequence_length() == cfg.sequence_length(0.5) == 3
    assert cfg.build_class().n == cfg.build_operator(cfg.sequence_length()).n == 3
    with pytest.raises(ConfigError, match="values_file"):
        ExperimentConfig(raw, base_dir=tmp_path)
