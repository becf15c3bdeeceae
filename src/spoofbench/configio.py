"""Reading and writing the human-editable scenario config file.

One JSON document holds both the scene geometry (ScenarioConfig) and the
channel settings (ChannelParams), under fixed keys:

    scene:   base_stations, start, mission_radius_m, n_destinations,
             window_size, sample_period_s
    channel: carrier_frequency_ghz, rng_seed, nlos_shadow_sigma_db,
             los_shadow_formula, meas_noise_sigma_db, sampled_los

Values must have their JSON type: booleans are true/false, counts, ids and
seeds are integers. A wrong type or a value the constructors reject raises
ConfigError.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import ChannelParams
from .scenario import BaseStation, ScenarioConfig


class ConfigError(ValueError):
    """Malformed or incomplete config file."""


def config_to_dict(config: ScenarioConfig, channel: ChannelParams) -> dict:
    return {
        "base_stations": [
            {"id": bs.id, "x": bs.position[0], "y": bs.position[1], "h": bs.position[2]}
            for bs in config.base_stations
        ],
        "start": list(config.start),
        "mission_radius_m": config.mission_radius,
        "n_destinations": config.n_destinations,
        "carrier_frequency_ghz": channel.carrier_frequency,
        "window_size": config.window_size,
        "rng_seed": channel.rng_seed,
        "sample_period_s": config.sample_period,
        "nlos_shadow_sigma_db": channel.nlos_shadow_sigma,
        "los_shadow_formula": channel.los_shadow_formula,
        "meas_noise_sigma_db": channel.meas_noise_sigma,
        "sampled_los": channel.sampled_los,
    }


_JSON_TYPES = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
}


def typed(key: str, value, kind):
    """value converted to kind, if its JSON type is kind's; names key if not."""
    name, types = _JSON_TYPES[kind]
    # bool is a subclass of int in Python, but true is no JSON number.
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return kind(value)


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def config_from_dict(doc: dict) -> tuple[ScenarioConfig, ChannelParams]:
    required = [
        "base_stations",
        "start",
        "mission_radius_m",
        "n_destinations",
        "carrier_frequency_ghz",
        "window_size",
        "rng_seed",
    ]
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    try:
        stations = []
        for b in _list("base_stations", doc["base_stations"]):
            if not isinstance(b, dict) or not {"id", "x", "y", "h"} <= b.keys():
                raise ConfigError(f"base_stations entries need id, x, y and h, got {b!r}")
            position = [typed(f"base_stations.{k}", b[k], float) for k in ("x", "y", "h")]
            stations.append(BaseStation(typed("base_stations.id", b["id"], int), np.array(position)))
        config = ScenarioConfig(
            base_stations=tuple(stations),
            start=np.array([typed("start", v, float) for v in _list("start", doc["start"])]),
            mission_radius=typed("mission_radius_m", doc["mission_radius_m"], float),
            n_destinations=typed("n_destinations", doc["n_destinations"], int),
            window_size=typed("window_size", doc["window_size"], int),
            sample_period=typed("sample_period_s", doc.get("sample_period_s", 1.0), float),
        )
        channel = ChannelParams(
            carrier_frequency=typed("carrier_frequency_ghz", doc["carrier_frequency_ghz"], float),
            los_shadow_formula=typed("los_shadow_formula", doc.get("los_shadow_formula", True), bool),
            nlos_shadow_sigma=typed("nlos_shadow_sigma_db", doc.get("nlos_shadow_sigma_db", 6.0), float),
            meas_noise_sigma=typed("meas_noise_sigma_db", doc.get("meas_noise_sigma_db", 0.5), float),
            rng_seed=typed("rng_seed", doc["rng_seed"], int),
            sampled_los=typed("sampled_los", doc.get("sampled_los", False), bool),
        )
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:  # a constructor's check, or an int too big for a float
        raise ConfigError(f"invalid config value: {exc}") from exc
    return config, channel


def save_config(path, config: ScenarioConfig, channel: ChannelParams) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config, channel), sort_keys=True, indent=2) + "\n"
    )


def load_config(path) -> tuple[ScenarioConfig, ChannelParams]:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)
