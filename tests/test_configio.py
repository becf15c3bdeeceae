import ast
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spoofbench.configio import ConfigError, config_from_dict, config_to_dict, load_config, save_config, save_json
from spoofbench.dataset import DatasetFormatError, generate, load, save
from spoofbench.mlp import MlpArchitecture, TrainConfig, load_model, save_model, train
from spoofbench.scenario import ChannelParams, default_config
from spoofbench.spec import DatasetSpec, load_spec, spec_to_dict


_DROP = object()


def valid_doc() -> dict:
    return json.loads(json.dumps(config_to_dict(default_config(), ChannelParams(rng_seed=4))))


def test_config_round_trips_through_its_file(tmp_path):
    path = tmp_path / "config.json"
    save_config(path, default_config(), ChannelParams(rng_seed=4, sampled_los=True))
    scenario, channel = load_config(path)
    assert scenario == default_config()
    assert channel == ChannelParams(rng_seed=4, sampled_los=True)


def test_seed_and_frequency_keys_are_read_into_the_channel():
    doc = valid_doc()
    doc["rng_seed"], doc["carrier_frequency_ghz"] = 9, 3.5
    scenario, channel = config_from_dict(doc)
    assert (channel.rng_seed, channel.carrier_frequency) == (9, 3.5)
    assert config_to_dict(scenario, channel) == doc


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("meas_noise_sigma_db", math.nan, "meas_noise_sigma must be finite"),
        ("nlos_shadow_sigma_db", math.inf, "nlos_shadow_sigma must be finite"),
        ("carrier_frequency_ghz", math.inf, "carrier_frequency must be finite"),
        ("mission_radius_m", math.nan, "mission_radius must be finite"),
        ("n_destinations", 7, "n_destinations must be even"),
        ("start", [150.0, 150.0, 20.0], "altitude"),
        ("sampled_los", "false", "sampled_los must be a boolean"),
        ("los_shadow_formula", 1, "los_shadow_formula must be a boolean"),
        ("n_destinations", 16.9, "n_destinations must be an integer"),
        ("n_destinations", 16.0, "n_destinations must be an integer"),
        ("window_size", True, "window_size must be an integer"),
        ("rng_seed", "1", "rng_seed must be an integer"),
        ("rng_seed", -1, "rng_seed must be >= 0"),
        ("mission_radius_m", "100", "mission_radius_m must be a number"),
        ("mission_radius_m", 10**400, "invalid config value"),
        ("start", [150.0, "150", 150.0], "start must be a number"),
        ("start", {"x": 1}, "start must be a list"),
        ("base_stations", [{"id": 1.5, "x": 0, "y": 0, "h": 35}], "base_stations.id must be an integer"),
        ("base_stations", [{"id": 1, "x": 0, "y": 0}], "need id, x, y and h"),
        ("base_stations", [{"id": 1, "x": 0, "y": 0, "h": None}], "base_stations.h must be a number"),
        ("carrier_frequency_ghz", 2**53 + 1, "carrier_frequency_ghz must be finite and held exactly by a double"),
        ("start", [150.0, 150.0, 2**60 + 1], "start must be finite and held exactly by a double"),
        ("base_stations", [], "base_stations must hold at least one station"),
        ("base_stations", [{"id": -1, "x": 0, "y": 0, "h": 35}], "base station -1 id must be >= 0"),
        ("sampled_los", _DROP, "config missing keys: sampled_los"),
    ],
)
def test_load_rejects_bad_values_naming_the_key(tmp_path, key, value, message):
    doc = valid_doc()
    if value is _DROP:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity are written as JSON extensions
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.update(meas_noise_sigma=5.0), r"config: unknown fields \['meas_noise_sigma'\]"),
        (lambda d: d["base_stations"][1].update(z=2.0), r"base_stations: unknown fields \['z'\]"),
    ],
)
def test_load_refuses_unknown_keys_naming_them(tmp_path, edit, message):
    doc = valid_doc()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_load_names_the_file_and_the_line_of_a_syntax_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{\n  "start": [0, 0, 150],,\n}')
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: Expecting property name") + ".*line 2"):
        load_config(path)


def test_load_names_the_file_of_a_document_nested_too_deep_to_parse(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: maximum recursion depth")):
        load_config(path)


def _documents(tmp_path) -> dict:
    """A written file of each kind the tools read, with its reader."""
    spec = DatasetSpec(default_config(), ChannelParams(rng_seed=4), "wd", 1, train_size=6, test_size=4)
    save_config(tmp_path / "config.json", spec.scenario, spec.channel)
    save_json(tmp_path / "spec.json", spec_to_dict(spec))
    train_ds = generate(spec)[0]
    save(train_ds, tmp_path / "train.csv")
    model = train(MlpArchitecture(1, 1, 2), train_ds.features, train_ds.labels, TrainConfig(0.01, max_epochs=1))
    save_model(model, tmp_path / "model.json", {"method": "wd", "n_bs": 1, "dataset_spec_hash": "x"})
    return {
        "config.json": load_config,
        "spec.json": load_spec,
        "train.meta.json": lambda _: load(tmp_path / "train.csv"),
        "model.json": load_model,
    }


# Each file with one of its keys given twice, the first time with another
# value; read last-wins, every one of them would load. A case named
# "<file>:<key path>" repeats a key of the object at that path.
REPEATS = {
    "config.json": '"window_size": 7',
    "config.json:base_stations": '"h": 30.0',
    "spec.json": '"method": "box"',
    "train.meta.json": '"split": "test"',
    "model.json": '"best_epoch": 0',
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_a_repeated_key_is_refused_naming_the_file_and_the_key(tmp_path, case):
    name, _, where = case.partition(":")
    read = _documents(tmp_path)[name]
    path = tmp_path / name
    read(path)
    key = REPEATS[case].split(":")[0].strip('"')
    # The member goes in front of the first member of its name.
    path.write_text(path.read_text().replace(f'"{key}":', f'{REPEATS[case]}, "{key}":', 1))
    error = DatasetFormatError if name == "train.meta.json" else ConfigError
    key_path = f"{where}.{key}: " if where else ""
    with pytest.raises(error, match="^" + re.escape(f"{path}: {key_path}repeated key '{key}'") + "$"):
        read(path)


def test_only_configio_parses_json():
    """One reader and one writer: no other module under src/spoofbench calls
    json.loads, or json.dumps with indent= (the writers' call; the canonical
    text of spec_hash and of the sidecar comparison has no indent)."""
    package = Path(__file__).resolve().parents[1] / "src" / "spoofbench"
    parsers, writers = set(), set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "loads" and getattr(node.value, "id", None) == "json":
                parsers.add(source.name)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                parsers.add(source.name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and getattr(node.func.value, "id", None) == "json"
                and any(k.arg == "indent" for k in node.keywords)
            ):
                writers.add(source.name)
    assert parsers == {"configio.py"}
    assert writers == {"configio.py"}


# -- fuzzing ------------------------------------------------------------------

KEYS = sorted(valid_doc())
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


def _number_near(value):
    bound = 2.0 * abs(value) + 10.0 if math.isfinite(value) else 10.0
    return st.one_of(
        st.just(value),
        st.floats(min_value=-bound, max_value=bound),
        st.integers(min_value=-5, max_value=50),
    )


@st.composite
def mutated_docs(draw):
    """A valid config document with a few keys dropped, renamed, retyped or
    set to nearby or arbitrary values, at the top level or inside a list."""
    doc = valid_doc()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        key = draw(st.sampled_from(KEYS))
        action = draw(st.sampled_from(["drop", "rename", "arbitrary", "near", "station", "start", "extra"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "rename" and key in doc:
            doc[key + draw(st.sampled_from(["_", "s", "X"]))] = doc.pop(key)
        elif action == "arbitrary":
            doc[key] = draw(JSON_VALUES)
        elif action == "near" and isinstance(doc.get(key), (int, float)) and not isinstance(doc[key], bool):
            doc[key] = draw(_number_near(doc[key]))
        elif action == "station":
            stations = valid_doc()["base_stations"]
            i = draw(st.integers(min_value=0, max_value=len(stations) - 1))
            field = draw(st.sampled_from(["id", "x", "y", "h"]))
            stations[i][field] = draw(st.one_of(_number_near(stations[i][field]), JSON_SCALARS))
            if draw(st.booleans()):  # a fourth station, maybe reusing an id
                stations.append(dict(stations[i], id=draw(st.integers(min_value=0, max_value=5))))
            doc["base_stations"] = stations
        elif action == "start" and isinstance(doc.get("start"), list) and doc["start"]:
            i = draw(st.integers(min_value=0, max_value=len(doc["start"]) - 1))
            doc["start"] = doc["start"][:i] + [draw(JSON_VALUES)] + doc["start"][i + 1 :]
        elif action == "extra":
            doc[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs())
@example(doc={**valid_doc(), "carrier_frequency_ghz": 2**53 + 1})  # read as 2**53 before
def test_config_from_dict_fuzz_rejects_with_config_error_or_round_trips(doc):
    try:
        scenario, channel = config_from_dict(doc)
    except ConfigError:
        return
    written = config_to_dict(scenario, channel)
    assert json.loads(json.dumps(written)) == written
    assert config_from_dict(written) == (scenario, channel)
    # What was read is what the document said, key by key.
    for key, value in written.items():
        if key in doc:
            assert doc[key] == value, key
