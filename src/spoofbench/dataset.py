"""End-to-end dataset generation: flights -> windows -> labeled features.

Row k of a split flies to dests[k] with noise seed first_seed + k. Spoofed
rows cycle through the non-planned destinations; legitimate rows replay
the planned flight with a fresh noise seed, keeping the class counts
within one of each other. Train and test rows draw from disjoint seed
ranges, so no noise realization is shared between splits. Everything is a
pure function of the DatasetSpec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features
from .channel import ChannelParams, Link, check_finite, measured_windows
from .configio import ConfigError, config_from_dict, config_to_dict, typed
from .features import FEATURES_PER_BS, check_method
from .scenario import ScenarioConfig, destination_grid, flight_positions

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


def row_plan(spec: DatasetSpec, split: str) -> tuple[np.ndarray, int]:
    """Every row's destination in a split, and row 0's noise seed; row k is
    seeded first_seed + k, and spoofed exactly when its destination is not 0.

    Even rows are spoofed and cycle the non-planned destinations; odd rows
    are legitimate replays. Seeds encode (dataset seed, split, row) so the
    two splits can never share a noise stream. They stay Python ints: from
    rng_seed 2**30 on they exceed int64.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    size = spec.train_size if split == "train" else spec.test_size
    k = np.arange(size)
    dests = np.where(k % 2 == 0, 1 + (k // 2) % (spec.scenario.n_destinations - 1), 0)
    return dests, (spec.rng_seed * 2 + SPLITS.index(split)) << 32


def archive_plan(n_destinations: int) -> np.ndarray:
    """The destinations of a `simulate` archive's rows, each seeded with its
    index: one flight per destination (only destination 0, the planned one,
    is legitimate), then n - 2 legitimate replays, so the classes come out
    balanced.
    """
    return np.concatenate([np.arange(n_destinations), np.zeros(n_destinations - 2, dtype=int)])


def iter_windows(config: ScenarioConfig, channel: ChannelParams, bs_ids, dests, first_seed: int):
    """Yields (rows, theoretical, measured) for consecutive chunks of at most
    CHUNK_ROWS rows: the one simulation behind `generate` and `simulate`.
    Row k flies to destination dests[k] with noise seed first_seed + k, and
    rows is the chunk's range of k.

    Every row reports the planned flight, destination 0, so theoretical is
    one (stations, samples) array of its noise-free path loss, shared by
    every chunk. measured is a (rows, stations, samples) array of the path
    loss each station reports along the row's true flight. Stations come in
    bs_ids order. The noise-free path loss is computed once per
    (destination, station); per window only its generator is re-seeded and
    its draws made (channel.measured_windows).
    """
    stations = [config.base_station_by_id(i) for i in bs_ids]
    positions = flight_positions(config, destination_grid(config))
    # Destination 0 is the reported flight; every other one is flown spoofed.
    never_diverge = np.all(positions[1:] == positions[0], axis=(1, 2))
    if np.any(never_diverge):
        k = 1 + int(np.argmax(never_diverge))
        raise ValueError(f"spoofed flight to destination {k} never diverges from the planned one")
    links = Link.along(positions, stations, channel)
    theoretical = check_finite(links.theoretical())
    dests = np.asarray(dests)
    for start in range(0, len(dests), CHUNK_ROWS):
        rows = range(start, min(start + CHUNK_ROWS, len(dests)))
        seeds = range(first_seed + rows.start, first_seed + rows.stop)
        measured = measured_windows(links, dests[rows.start : rows.stop], channel, seeds, bs_ids)
        yield rows, theoretical, check_finite(measured)


def iter_delta_chunks(spec: DatasetSpec, split: str):
    """Yields (rows, deltas) for consecutive chunks of at most CHUNK_ROWS rows.

    rows is the chunk's range of row indices, and deltas a (rows, stations,
    samples) array of |measured - theoretical| path loss, stations in
    select_bs_subset order.
    """
    dests, first_seed = row_plan(spec, split)
    windows = iter_windows(spec.scenario, spec.channel, select_bs_subset(spec.n_bs), dests, first_seed)
    for rows, theoretical, measured in windows:
        measured -= theoretical  # in place: |measured - theoretical| without temporaries
        yield rows, np.abs(measured, out=measured)


@dataclass(eq=False)
class LabeledDataset:
    """One split of a spec: an (n, width) feature matrix and one label per row
    (True = spoofed). Each row's blocks belong to bs_ids, in that order."""

    features: np.ndarray
    labels: np.ndarray
    split: str
    spec: DatasetSpec

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")
        if self.features.ndim != 2 or len(self.features) == 0:
            raise ValueError("dataset has no rows")
        if len(self.bs_ids) * FEATURES_PER_BS[self.method] != self.width:
            raise ValueError(f"{len(self.bs_ids)} stations do not fit width {self.width} ({self.method})")
        if self.labels.shape != (len(self.features),):
            raise ValueError(f"{len(self.labels)} labels for {len(self.features)} rows")
        if len(np.unique(self.labels)) != 2:
            raise ValueError("dataset must contain both classes")

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def bs_ids(self) -> tuple[int, ...]:
        return select_bs_subset(self.spec.n_bs)

    @property
    def method(self) -> str:
        return self.spec.method

    @property
    def provenance(self) -> str:
        return spec_hash(self.spec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            (self.split, self.provenance) == (other.split, other.provenance)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


def generate(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Simulate, extract and label the train and test splits of a spec."""
    splits = []
    for split in SPLITS:
        blocks = [features.extract(deltas, spec.method) for _, deltas in iter_delta_chunks(spec, split)]
        splits.append(LabeledDataset(np.concatenate(blocks), row_plan(spec, split)[0] != 0, split, spec))
    return splits[0], splits[1]


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _implied_keys(spec: DatasetSpec) -> dict:
    """The sidecar keys that restate the spec, with the values it implies."""
    return {
        "spec_hash": spec_hash(spec),
        "method": spec.method,
        "bs_ids": list(select_bs_subset(spec.n_bs)),
        "n_bs": spec.n_bs,
        "width": spec.n_bs * FEATURES_PER_BS[spec.method],
    }


def save(dataset: LabeledDataset, path) -> None:
    """CSV with full-precision features plus a JSON sidecar holding the spec."""
    path = Path(path)
    header = "label," + ",".join(f"f{i + 1}" for i in range(dataset.width))
    lines = [header] + [
        f"{int(label)}," + ",".join(map(repr, row))
        for label, row in zip(dataset.labels.tolist(), dataset.features.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        **_implied_keys(dataset.spec),
        "spec": spec_to_dict(dataset.spec),
        "split": dataset.split,
        "n_rows": len(dataset.labels),
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


class DatasetFormatError(ValueError):
    pass


SIDECAR_KEYS = ("spec", "spec_hash", "split", "n_rows", "width", "method", "bs_ids", "n_bs")


def _read_sidecar(sidecar_file: Path) -> tuple[DatasetSpec, str, int]:
    """The sidecar's spec, split and row count; every other key must be
    written exactly as the spec implies. Errors name the file and the key."""
    try:
        doc = json.loads(sidecar_file.read_text())
        if not isinstance(doc, dict):
            raise ConfigError("sidecar must be a JSON object")
        missing = [k for k in SIDECAR_KEYS if k not in doc]
        if missing:
            raise ConfigError(f"sidecar missing keys: {', '.join(missing)}")
        if not isinstance(doc["spec"], dict):
            raise ConfigError(f"spec must be an object, got {doc['spec']!r:.40}")
        spec = spec_from_dict(doc["spec"])
        for key, implied in _implied_keys(spec).items():
            # Compared as JSON text, so 3.0 or true do not pass for 3 or 1.
            if json.dumps(doc[key]) != json.dumps(implied):
                raise ConfigError(f"{key} {doc[key]!r:.70} disagrees with the spec's {implied!r}")
        split = typed("split", doc["split"], str)
        n_rows = typed("n_rows", doc["n_rows"], int)
    except ValueError as exc:  # ConfigError, or malformed JSON
        raise DatasetFormatError(f"{sidecar_file}: {exc}") from None
    return spec, split, n_rows


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, width) feature matrix and the labels of a dataset CSV; errors
    name the row and the column."""
    lines = path.read_text().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DatasetFormatError(f"{path}: row 1: bad header {lines[0]!r}")
    labels, rows = [], []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DatasetFormatError(f"{path}: row {i}: expected {len(header)} columns, found {len(cells)}")
        if cells[0] not in ("0", "1"):
            raise DatasetFormatError(f"{path}: row {i}, column 1: bad label {cells[0]!r}")
        labels.append(cells[0] == "1")
        row = []
        for j, cell in enumerate(cells[1:], start=2):
            try:
                row.append(float(cell))
            except ValueError:
                raise DatasetFormatError(f"{path}: row {i}, column {j}: {cell!r} is not a number") from None
        rows.append(row)
    matrix = np.array(rows).reshape(len(rows), len(header) - 1)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        r, c = bad[0].tolist()
        cell = lines[r + 1].split(",")[c + 1]
        raise DatasetFormatError(f"{path}: row {r + 2}, column {c + 2}: {cell!r} is not finite")
    return matrix, np.array(labels)


def load(path) -> LabeledDataset:
    """Reads a dataset CSV and its sidecar; errors name the file and the
    offending key or cell. The labels must be the spec's row plan."""
    path = Path(path)
    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise DatasetFormatError(f"{path}: missing sidecar {sidecar_file.name}")
    spec, split, n_rows = _read_sidecar(sidecar_file)
    matrix, labels = _read_csv(path)
    if n_rows != len(matrix):
        raise DatasetFormatError(f"{sidecar_file}: n_rows {n_rows} disagrees with the CSV's {len(matrix)}")
    try:
        ds = LabeledDataset(matrix, labels, split, spec)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    planned = row_plan(spec, split)[0] != 0
    if len(planned) != len(labels):
        raise DatasetFormatError(
            f"{path}: {len(labels)} rows, but the spec's {split} split has {len(planned)}"
        )
    wrong = np.flatnonzero(planned != labels)
    if len(wrong):
        k = int(wrong[0])
        raise DatasetFormatError(
            f"{path}: row {k + 2}, column 1: label {int(labels[k])} disagrees with the spec's row plan"
        )
    return ds
