"""End-to-end dataset generation: flights -> windows -> labeled features.

Rows are (flight, noise seed) pairs. Spoofed rows cycle through the
non-planned destinations; legitimate rows replay the planned flight with a
fresh noise seed, keeping the class counts within one of each other. Train
and test rows draw from disjoint seed ranges, so no noise realization is
shared between splits. Everything is a pure function of the DatasetSpec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import features
from .channel import ChannelParams, Link, check_finite, measured_window, window_positions, window_rng
from .configio import ConfigError, config_from_dict, config_to_dict, typed
from .features import FEATURES_PER_BS, FeatureVector, check_method
from .scenario import ScenarioConfig, SpoofingScenario, destination_grid, flight_to

SPLITS = ("train", "test")

# Rows simulated per chunk; the bound is there for peak memory. wd/3 at seed 1
# peaked at 39.6 MB after generate with 64-row chunks, as the per-sample
# simulation did, against 41.2 MB with 256 and 43.5 MB with 512, which also
# grew on each repeat. Per-chunk overhead is already negligible at 64 rows.
CHUNK_ROWS = 64

BS_SUBSETS = {1: (1,), 2: (1, 3), 3: (1, 2, 3)}


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
    rng_seed: int = 1

    def __post_init__(self):
        check_method(self.method)
        subset = select_bs_subset(self.n_bs)
        for bs_id in subset:
            self.scenario.base_station_by_id(bs_id)
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError("split sizes must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")

    @property
    def feature_width(self) -> int:
        return self.n_bs * FEATURES_PER_BS[self.method]


def spec_to_dict(spec: DatasetSpec) -> dict:
    return {
        "scenario": config_to_dict(spec.scenario, spec.channel),
        "method": spec.method,
        "n_bs": spec.n_bs,
        "train_size": spec.train_size,
        "test_size": spec.test_size,
        "rng_seed": spec.rng_seed,
    }


def spec_from_dict(doc: dict) -> DatasetSpec:
    """The spec a `spec_to_dict` document describes; ConfigError, naming the
    key, on a missing key, a value of the wrong JSON type or a bad value."""
    missing = [k for k in ("scenario", "method", "n_bs") if k not in doc]
    if missing:
        raise ConfigError(f"spec missing keys: {', '.join(missing)}")
    if not isinstance(doc["scenario"], dict):
        raise ConfigError(f"scenario must be an object, got {doc['scenario']!r:.40}")
    scenario, channel = config_from_dict(doc["scenario"])
    try:
        return DatasetSpec(
            scenario=scenario,
            channel=channel,
            method=typed("method", doc["method"], str),
            n_bs=typed("n_bs", doc["n_bs"], int),
            train_size=typed("train_size", doc.get("train_size", 2259), int),
            test_size=typed("test_size", doc.get("test_size", 969), int),
            rng_seed=typed("rng_seed", doc.get("rng_seed", 1), int),
        )
    except ConfigError:
        raise
    except ValueError as exc:  # a DatasetSpec check
        raise ConfigError(f"invalid spec value: {exc}") from exc


def spec_hash(spec: DatasetSpec) -> str:
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class RowPlan:
    index: int
    label: bool  # True = spoofed
    dest_index: int
    noise_seed: int


def row_plan(spec: DatasetSpec, split: str) -> list[RowPlan]:
    """Deterministic (destination, seed) assignment for every row of a split.

    Even rows are spoofed and cycle the non-planned destinations; odd rows
    are legitimate replays. Seeds encode (dataset seed, split, row) so the
    two splits can never share a noise stream.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    split_id = SPLITS.index(split)
    size = spec.train_size if split == "train" else spec.test_size
    n_spoofed_dests = spec.scenario.n_destinations - 1
    rows = []
    for k in range(size):
        spoofed = k % 2 == 0
        dest = 1 + (k // 2) % n_spoofed_dests if spoofed else 0
        seed = ((spec.rng_seed * 2 + split_id) << 32) + k
        rows.append(RowPlan(index=k, label=spoofed, dest_index=dest, noise_seed=seed))
    return rows


def archive_plan(n_destinations: int) -> list[RowPlan]:
    """The rows of a `simulate` archive: one flight per destination, seeded
    with its index (only destination 0, the planned one, is legitimate),
    then n - 2 legitimate replays seeded n ... 2n - 3, so the classes come
    out balanced.
    """
    n = n_destinations
    flights = [RowPlan(index=i, label=i != 0, dest_index=i, noise_seed=i) for i in range(n)]
    replays = [RowPlan(index=k, label=False, dest_index=0, noise_seed=k) for k in range(n, 2 * n - 2)]
    return flights + replays


def iter_windows(config: ScenarioConfig, channel: ChannelParams, bs_ids, plans: list[RowPlan]):
    """Yields (plans, theoretical, measured) for consecutive chunks of at most
    CHUNK_ROWS rows: the one simulation behind `generate` and `simulate`.

    Every row reports the planned flight, destination 0, so theoretical is
    one (stations, samples) array of its noise-free path loss, shared by
    every chunk. measured is a (rows, stations, samples) array of the path
    loss each station reports along the row's true flight. Stations come in
    bs_ids order. The noise-free path loss is computed once per
    (destination, station); per row only the window's random draws are made.
    """
    n = config.window_size
    stations = [config.base_station_by_id(i) for i in bs_ids]
    destinations = destination_grid(config)
    reported = flight_to(config, destinations[0])
    links = []  # [destination][station]
    for dest_index, destination in enumerate(destinations):
        flight = flight_to(config, destination)
        # Validates the pair: identical when legitimate, divergent when spoofed.
        SpoofingScenario(flight, reported, label=dest_index != 0)
        positions = window_positions(flight, n)
        links.append([Link.along(positions, bs, channel) for bs in stations])
    theoretical = check_finite(np.stack([lk.theoretical() for lk in links[0]]))
    for start in range(0, len(plans), CHUNK_ROWS):
        chunk = plans[start : start + CHUNK_ROWS]
        measured = np.empty((len(chunk), len(stations), n))
        for i, plan in enumerate(chunk):
            for j, lk in enumerate(links[plan.dest_index]):
                rng = window_rng(channel, plan.noise_seed, stations[j].id)
                measured[i, j] = measured_window(lk, channel, rng)
        yield chunk, theoretical, check_finite(measured)


def iter_delta_chunks(spec: DatasetSpec, split: str):
    """Yields (plans, deltas) for consecutive chunks of at most CHUNK_ROWS rows.

    deltas is a (rows, stations, samples) array of |measured - theoretical|
    path loss, stations in select_bs_subset order.
    """
    windows = iter_windows(spec.scenario, spec.channel, select_bs_subset(spec.n_bs), row_plan(spec, split))
    for chunk, theoretical, measured in windows:
        measured -= theoretical  # in place: |measured - theoretical| without temporaries
        yield chunk, np.abs(measured, out=measured)


@dataclass
class LabeledDataset:
    rows: list[FeatureVector]
    split: str
    provenance: str  # hash of the generating DatasetSpec
    spec: DatasetSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")
        if not self.rows:
            raise ValueError("dataset has no rows")
        widths = {r.width for r in self.rows}
        if len(widths) != 1:
            raise ValueError(f"rows have inconsistent widths {sorted(widths)}")
        methods = {r.method for r in self.rows}
        if len(methods) != 1:
            raise ValueError("rows mix feature methods")
        labels = {r.label for r in self.rows}
        if len(labels) != 2:
            raise ValueError("dataset must contain both classes")

    @property
    def method(self) -> str:
        return self.rows[0].method

    @property
    def width(self) -> int:
        return self.rows[0].width

    def features(self) -> np.ndarray:
        return np.stack([r.flattened for r in self.rows])

    def labels(self) -> np.ndarray:
        return np.array([float(r.label) for r in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.split == other.split
            and self.provenance == other.provenance
            and self.rows == other.rows
        )


def generate(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Simulate, extract and label the train and test splits of a spec."""
    digest = spec_hash(spec)
    bs_ids = select_bs_subset(spec.n_bs)
    splits = []
    for split in SPLITS:
        rows = []
        for plans, deltas in iter_delta_chunks(spec, split):
            rows += features.extract(deltas, spec.method, [p.label for p in plans], bs_ids)
        splits.append(LabeledDataset(rows=rows, split=split, provenance=digest, spec=spec))
    return splits[0], splits[1]


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def save(dataset: LabeledDataset, path) -> None:
    """CSV with full-precision features plus a JSON sidecar holding the spec."""
    path = Path(path)
    width = dataset.width
    header = "label," + ",".join(f"f{i + 1}" for i in range(width))
    lines = [header]
    for row in dataset.rows:
        lines.append(f"{int(row.label)}," + ",".join(repr(float(v)) for v in row.flattened))
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "spec_hash": dataset.provenance,
        "split": dataset.split,
        "n_rows": len(dataset.rows),
        "width": width,
        "method": dataset.method,
        "bs_ids": [bs_id for bs_id, _ in dataset.rows[0].per_bs],
    }
    if dataset.spec is not None:
        sidecar["spec"] = spec_to_dict(dataset.spec)
        sidecar["n_bs"] = dataset.spec.n_bs
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


class DatasetFormatError(ValueError):
    pass


def load(path) -> LabeledDataset:
    """Reads a dataset CSV and its sidecar; errors name the offending cell."""
    path = Path(path)
    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise DatasetFormatError(f"{path}: missing sidecar {sidecar_file.name}")
    sidecar = json.loads(sidecar_file.read_text())
    method = check_method(sidecar["method"])
    spec = spec_from_dict(sidecar["spec"]) if "spec" in sidecar else None
    if spec is not None and spec_hash(spec) != sidecar["spec_hash"]:
        raise DatasetFormatError(f"{path}: sidecar hash does not match its spec (tampered?)")

    lines = path.read_text().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DatasetFormatError(f"{path}: row 1: bad header {lines[0]!r}")
    width = len(header) - 1
    per_bs = FEATURES_PER_BS[method]
    if "bs_ids" in sidecar:
        bs_ids = tuple(int(i) for i in sidecar["bs_ids"])
    elif spec is not None:
        bs_ids = select_bs_subset(spec.n_bs)
    else:
        raise DatasetFormatError(f"{path}: sidecar names neither bs_ids nor a spec")
    if len(bs_ids) * per_bs != width:
        raise DatasetFormatError(f"{path}: {len(bs_ids)} stations do not fit width {width} ({method})")
    if spec is not None and bs_ids != select_bs_subset(spec.n_bs):
        raise DatasetFormatError(f"{path}: bs_ids {list(bs_ids)} disagree with the spec's n_bs")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width + 1:
            raise DatasetFormatError(
                f"{path}: row {i}: expected {width + 1} columns, found {len(cells)}"
            )
        if cells[0] not in ("0", "1"):
            raise DatasetFormatError(f"{path}: row {i}, column 1: bad label {cells[0]!r}")
        values = []
        for j, cell in enumerate(cells[1:], start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: row {i}, column {j}: {cell!r} is not a number"
                ) from None
        blocks = tuple(
            (bs_id, tuple(values[k * per_bs : (k + 1) * per_bs]))
            for k, bs_id in enumerate(bs_ids)
        )
        rows.append(
            FeatureVector(
                method=method,
                per_bs=blocks,
                flattened=np.array(values),
                label=cells[0] == "1",
            )
        )
    return LabeledDataset(
        rows=rows, split=sidecar["split"], provenance=sidecar["spec_hash"], spec=spec
    )
