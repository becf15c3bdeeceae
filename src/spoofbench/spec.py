"""The dataset spec, its document (spec.json and each sidecar's "spec"),
and the choices a spec is made of: feature methods, station subsets,
splits and threshold aggregations. Nothing here imports numpy, so `init`
and the command-line parser start without it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .configio import ConfigError, at, config_from_dict, config_to_dict, fields, load_json
from .scenario import ChannelParams, ScenarioConfig

SPLITS = ("train", "test")
METHODS = ("mvsk", "box", "wd")  # features.py's families
FEATURES_PER_BS = {"mvsk": 4, "box": 5, "wd": 1}
BS_SUBSETS = {1: (1,), 2: (1, 3), 3: (1, 2, 3)}
AGGREGATIONS = ("mean-delta", "majority-vote")  # baseline.py's; the first is the default


def check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown feature method {method!r}; expected one of {METHODS}")
    return method


def select_bs_subset(n_bs: int) -> tuple[int, ...]:
    """Station ids used in the 1-, 2- and 3-station evaluation scenarios."""
    try:
        return BS_SUBSETS[n_bs]
    except KeyError:
        raise ValueError(f"n_bs must be one of {sorted(BS_SUBSETS)}, got {n_bs}") from None


@dataclass(frozen=True)
class DatasetSpec:
    scenario: ScenarioConfig
    channel: ChannelParams
    method: str
    n_bs: int
    train_size: int = 2259
    test_size: int = 969

    def __post_init__(self):
        check_method(self.method)
        missing = set(select_bs_subset(self.n_bs)) - {bs.id for bs in self.scenario.base_stations}
        if missing:
            raise ValueError(f"n_bs {self.n_bs} uses base station {min(missing)}, which the scenario lacks")
        for name, size in (("train_size", self.train_size), ("test_size", self.test_size)):
            if size < 2:  # the row plan's row 0 is spoofed and row 1 legitimate
                raise ValueError(f"{name} must be >= 2 for a spoofed and a legitimate row, got {size}")


_SPEC_KEYS = {"scenario": dict, "method": str, "n_bs": int, "train_size": int, "test_size": int}


def spec_to_dict(spec: DatasetSpec) -> dict:
    return {
        "scenario": config_to_dict(spec.scenario, spec.channel),
        "method": spec.method,
        "n_bs": spec.n_bs,
        "train_size": spec.train_size,
        "test_size": spec.test_size,
    }


def spec_from_dict(doc: dict, path: str = "") -> DatasetSpec:
    """The spec a `spec_to_dict` document describes, at key path path of its
    file; ConfigError, naming the key, on a missing or unknown key, a value
    of the wrong JSON type or a bad value."""
    d = fields(path, doc, _SPEC_KEYS, "spec")
    scenario, channel = config_from_dict(d.pop("scenario"), at(path, "scenario"))
    try:
        return DatasetSpec(scenario, channel, **d)
    except ValueError as exc:  # a DatasetSpec check
        raise ConfigError(f"invalid spec value: {exc}") from exc


def load_spec(path) -> DatasetSpec:
    """The spec in a spec.json file; errors name the file and the key."""
    return load_json(path, spec_from_dict)


def spec_hash(spec: DatasetSpec) -> str:
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def split_size(spec: DatasetSpec, split: str) -> int:
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r:.40}")
    return spec.train_size if split == "train" else spec.test_size
