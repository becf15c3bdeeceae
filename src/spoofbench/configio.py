"""The scenario config file, the one JSON reader (typed, array, fields,
load_json) that also reads the dataset spec, its sidecar and the model, the
one JSON writer (save_json) of every document the tools write, and the one
CSV writer (save_csv) of every table.

One JSON document holds both the scene geometry (ScenarioConfig) and the
channel settings (ChannelParams), under fixed keys:

    scene:   base_stations, start, mission_radius_m, n_destinations,
             window_size
    channel: carrier_frequency_ghz, rng_seed, nlos_shadow_sigma_db,
             los_shadow_formula, meas_noise_sigma_db, sampled_los

A document has exactly its keys, once each, and a value its JSON type:
booleans are true/false, counts, ids and seeds integers, and a number is
read only if a double holds it exactly. Errors name the key path, and
load_json's the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import ChannelParams
from .scenario import BaseStation, ScenarioConfig


class ConfigError(ValueError):
    """Malformed or incomplete JSON document."""


def _float(x) -> float:
    """x written as the float it equals: -0.0 as 0.0 (as RFC 8785 writes
    -0) and an int as a float. Configs that compare equal then write the
    same document, and so get the same spec hash."""
    return float(x) + 0.0


def config_to_dict(config: ScenarioConfig, channel: ChannelParams) -> dict:
    return {
        "base_stations": [
            {"id": bs.id, "x": _float(bs.position[0]), "y": _float(bs.position[1]), "h": _float(bs.position[2])}
            for bs in config.base_stations
        ],
        "start": [_float(v) for v in config.start],
        "mission_radius_m": _float(config.mission_radius),
        "n_destinations": config.n_destinations,
        "carrier_frequency_ghz": _float(channel.carrier_frequency),
        "window_size": config.window_size,
        "rng_seed": channel.rng_seed,
        "nlos_shadow_sigma_db": _float(channel.nlos_shadow_sigma),
        "los_shadow_formula": channel.los_shadow_formula,
        "meas_noise_sigma_db": _float(channel.meas_noise_sigma),
        "sampled_los": channel.sampled_los,
    }


_JSON_TYPES = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    list: ("a list", (list,)),
    dict: ("an object", (dict,)),
    object: ("a JSON value", (object,)),
}


def typed(key: str, value, kind):
    """value, if its JSON type is kind's (object: any); ConfigError naming
    key if not. A float is the number the document states, exactly: an
    integer that no double holds raises ValueError, as a constructor's
    check would (I-JSON, RFC 7493 section 2.2)."""
    name, types = _JSON_TYPES[kind]
    # bool is a subclass of int in Python, but true is no JSON number.
    if not isinstance(value, types) or (kind in (int, float) and isinstance(value, bool)):
        raise ConfigError(f"{key} must be {name}, got {value!r:.40}")
    if kind is not float or isinstance(value, float):
        return value
    try:
        if float(value) == value:  # int == float compares exactly
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{key} must be finite and held exactly by a double, got {value!r:.40}")


def array(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Nested JSON lists of finite numbers, of exactly this shape."""
    try:
        cells = np.array(value, dtype=object)
    except ValueError:
        cells = None
    if cells is None or cells.shape != shape:
        raise ConfigError(f"{key} must be a {' x '.join(map(str, shape))} array")
    out = np.array([typed(key, v, float) for v in cells.flat], dtype=float).reshape(shape)
    if not np.isfinite(out).all():
        raise ValueError(f"{key} must be finite")
    return out


def at(path: str, key: str) -> str:
    """The key path of key in the object at path ("" for the top level)."""
    return f"{path}.{key}" if path else key


def fields(path: str, value, kinds: dict, name: str = "") -> dict:
    """The values of a JSON object with exactly the keys of kinds, each read
    as its kind. path is the object's key path, or "" for the top level of
    the document called name, where a missing key is reported as "<name>
    missing keys: ..."."""
    value = typed(path or name, value, dict)
    keys = list(kinds)
    missing = [k for k in keys if k not in value]
    if missing:
        need = ", ".join(keys[:-1]) + " and " + keys[-1] if len(keys) > 1 else keys[0]
        nested = f"{path}: missing fields {missing}; need {need}"
        raise ConfigError(nested if path else f"{name} missing keys: {', '.join(missing)}")
    unknown = sorted(set(value) - set(kinds), key=str)
    if unknown:
        raise ConfigError(f"{path or name}: unknown fields {unknown}")
    return {key: typed(at(path, key), value[key], kind) for key, kind in kinds.items()}


def save_csv(path, header, rows) -> None:
    """A header line, then a line per row, each cell written with str: a
    float, np.float64 too, as the shortest digits that read back exactly."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def save_json(path, doc, indent: int = 1) -> None:
    """doc as strict JSON, keys sorted: a NaN or infinity raises ValueError."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False) + "\n")


def _objects(value, path: str = ""):
    """value as parsed with each JSON object's (name, value) pairs, a tuple,
    made a dict. A name given twice raises ConfigError naming it and, below
    the top level, its key path (I-JSON, RFC 7493 section 2.3)."""
    if isinstance(value, list):
        return [_objects(v, path) for v in value]
    if not isinstance(value, tuple):
        return value
    doc = {}
    for key, member in value:
        if key in doc:
            where = f"{at(path, key)}: " if path else ""
            raise ConfigError(f"{where}repeated key {key!r:.40}")
        doc[key] = _objects(member, at(path, key))
    return doc


def load_json(path, read, error=ConfigError):
    """read(document) for the JSON document in a file. Any ValueError, a
    syntax error's line and column or a repeated key included, or a nesting
    too deep to parse is re-raised as error prefixed with the path."""
    try:
        # JSON arrays parse as lists, so a tuple is always an object's members.
        return read(_objects(json.loads(Path(path).read_text(), object_pairs_hook=tuple)))
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise error(f"{path}: {exc}") from None


_STATION_KEYS = {"id": int, "x": float, "y": float, "h": float}
_CONFIG_KEYS = {
    "base_stations": list, "start": list, "mission_radius_m": float, "n_destinations": int,
    "carrier_frequency_ghz": float, "window_size": int, "rng_seed": int, "nlos_shadow_sigma_db": float,
    "los_shadow_formula": bool, "meas_noise_sigma_db": float, "sampled_los": bool,
}


def config_from_dict(doc: dict, path: str = "") -> tuple[ScenarioConfig, ChannelParams]:
    """The scene and channel a `config_to_dict` document describes, at key
    path path of its file; ConfigError, naming the key, if it is not one."""
    try:
        d = fields(path, doc, _CONFIG_KEYS, "config")
        stations = [fields(at(path, "base_stations"), b, _STATION_KEYS) for b in d["base_stations"]]
        config = ScenarioConfig(
            base_stations=tuple(BaseStation(b["id"], (b["x"], b["y"], b["h"])) for b in stations),
            start=[typed(at(path, "start"), v, float) for v in d["start"]],
            mission_radius=d["mission_radius_m"],
            n_destinations=d["n_destinations"],
            window_size=d["window_size"],
        )
        channel = ChannelParams(
            carrier_frequency=d["carrier_frequency_ghz"],
            los_shadow_formula=d["los_shadow_formula"],
            nlos_shadow_sigma=d["nlos_shadow_sigma_db"],
            meas_noise_sigma=d["meas_noise_sigma_db"],
            rng_seed=d["rng_seed"],
            sampled_los=d["sampled_los"],
        )
    except ConfigError:
        raise
    except ValueError as exc:  # a constructor's check, or a number no double holds
        raise ConfigError(f"invalid config value: {exc}") from None
    return config, channel


def save_config(path, config: ScenarioConfig, channel: ChannelParams) -> None:
    save_json(path, config_to_dict(config, channel), indent=2)


def load_config(path) -> tuple[ScenarioConfig, ChannelParams]:
    return load_json(path, config_from_dict)
