"""End-to-end dataset generation: flights -> windows -> labeled features.

Row k of a split flies to dests[k] with noise seed first_seed + k. Spoofed
rows cycle through the non-planned destinations; legitimate rows replay
the planned flight with a fresh noise seed, keeping the class counts
within one of each other. Train and test rows draw from disjoint seed
ranges, so no noise realization is shared between splits. Everything is a
pure function of the DatasetSpec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features, forks
from .channel import Link, check_finite, measured_windows, window_states
from .configio import ConfigError, fields, load_json, save_csv, save_json
from .scenario import ChannelParams, ScenarioConfig, destination_points
from .spec import (
    FEATURES_PER_BS, SPLITS, DatasetSpec, select_bs_subset, spec_from_dict, spec_hash, spec_to_dict, split_size,
)

# Rows simulated per chunk; the bound is there for peak memory. wd/3 at seed 1
# peaked at 39.6 MB after generate with 64-row chunks, as the per-sample
# simulation did, against 41.2 MB with 256 and 43.5 MB with 512, which also
# grew on each repeat. Per-chunk overhead is already negligible at 64 rows.
CHUNK_ROWS = 64

# The fewest rows worth a process of their own. A forked part also pays for
# the fork and the wait (about 4 ms), while 256 wd/3 rows simulate and
# featurize in about 7.5 ms, scene links included (2-vCPU Xeon).
PART_MIN_ROWS = 256


def destination_grid(config: ScenarioConfig) -> np.ndarray:
    """The config's (n_destinations, 3) destinations
    (scenario.destination_points); row 0 is the planned (real) one."""
    return np.array(destination_points(config.start, config.mission_radius, config.n_destinations))


def flight_positions(config: ScenarioConfig, destinations) -> np.ndarray:
    """(destinations, samples, 3) positions of straight flights from the
    start to each destination: sample k of a window of W sits at k / W of
    the way.

    slope * k + start is the arithmetic np.interp does on [0, W], so the
    positions are its bit for bit.
    """
    ks = np.arange(config.window_size, dtype=float)
    start = np.asarray(config.start)
    slope = (np.asarray(destinations, dtype=float) - start) / config.window_size
    return slope[:, None, :] * ks[:, None] + start


def plan_rows(n_destinations: int, rng_seed: int, split: str, n_rows: int) -> tuple[np.ndarray, int]:
    """The destinations of a split's first n_rows rows, and row 0's noise
    seed; row k is seeded first_seed + k, and spoofed exactly when its
    destination is not 0.

    Even rows are spoofed and cycle the non-planned destinations; odd rows
    are legitimate replays. Seeds encode (channel seed, split, row) so the
    two splits can never share a noise stream. They stay Python ints: from
    rng_seed 2**30 on they exceed int64.
    """
    k = np.arange(n_rows)
    dests = np.where(k % 2 == 0, 1 + (k // 2) % (n_destinations - 1), 0)
    return dests, (rng_seed * 2 + SPLITS.index(split)) << 32


def row_plan(spec: DatasetSpec, split: str) -> tuple[np.ndarray, int]:
    """Every row's destination in a split of spec, and row 0's noise seed."""
    return plan_rows(spec.scenario.n_destinations, spec.channel.rng_seed, split, split_size(spec, split))


def scene_links(config: ScenarioConfig, channel: ChannelParams, bs_ids) -> tuple[Link, np.ndarray]:
    """The noise-free links of every destination of a scene to the stations
    bs_ids, in that order (Link.along), and the (stations, samples)
    theoretical path loss of destination 0. Every row reports that planned
    flight, so the one array serves every row of `generate` and `simulate`.
    """
    stations = [config.base_station_by_id(i) for i in bs_ids]
    positions = flight_positions(config, destination_grid(config))
    # Destination 0 is the reported flight; every other one is flown spoofed.
    never_diverge = np.all(positions[1:] == positions[0], axis=(1, 2))
    if np.any(never_diverge):
        k = 1 + int(np.argmax(never_diverge))
        raise ValueError(f"spoofed flight to destination {k} never diverges from the planned one")
    links = Link.along(positions, stations, channel)
    return links, check_finite(links.theoretical())


def _simulate_features(spec: DatasetSpec, method: str, splits) -> list[np.ndarray]:
    """The (rows, width) feature matrix by method of each split in splits.

    The scene's links are built once, here; forked parts inherit them. The
    rows of splits, in order, are cut into chunks of at most CHUNK_ROWS
    rows, and the chunks into k contiguous parts, one process each
    (fork_map); k is one per usable CPU (forks.workers), with at least
    PART_MIN_ROWS rows a part. A part seeds all its chunks' windows in one
    window_states call, and a chunk draws only from its own rows' streams,
    so neither the bytes nor the error, that of the first failing chunk,
    depend on k.
    """
    bs_ids = select_bs_subset(spec.n_bs)
    links, theoretical = scene_links(spec.scenario, spec.channel, bs_ids)
    chunks = []  # (destinations, noise seeds) of each chunk
    for split in splits:
        dests, first_seed = row_plan(spec, split)
        for start in range(0, len(dests), CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, len(dests))
            chunks.append((dests[start:stop], range(first_seed + start, first_seed + stop)))

    def simulate(part) -> np.ndarray:
        states = window_states(spec.channel.rng_seed, [seed for _, seeds in part for seed in seeds], bs_ids)
        ends = np.cumsum([len(dests) * len(bs_ids) for dests, _ in part])
        blocks = []
        for (dests, _), chunk_states in zip(part, np.split(states, ends[:-1])):
            deltas = measured_windows(links, dests, spec.channel, chunk_states)
            deltas -= theoretical  # in place: |measured - theoretical| without temporaries
            blocks.append(features.extract(np.abs(deltas, out=deltas), method))
        return np.concatenate(blocks)

    sizes = [split_size(spec, split) for split in splits]
    k = forks.workers(sum(sizes) // PART_MIN_ROWS)
    parts = [chunks[i * len(chunks) // k : (i + 1) * len(chunks) // k] for i in range(k)]
    blocks = forks.fork_map(simulate, [part for part in parts if part])
    return np.split(np.concatenate(blocks), np.cumsum(sizes)[:-1])


def spec_width(spec: DatasetSpec) -> int:
    return spec.n_bs * FEATURES_PER_BS[spec.method]


@dataclass(eq=False)
class LabeledDataset:
    """One split of a spec: an (n, width) feature matrix, labelled by the row
    plan (True = spoofed). Each row's blocks belong to the spec's stations,
    in select_bs_subset order."""

    features: np.ndarray
    split: str
    spec: DatasetSpec

    def __post_init__(self):
        shape = (split_size(self.spec, self.split), spec_width(self.spec))
        if self.features.shape != shape:
            raise ValueError(f"features of shape {self.features.shape}, but the {self.split} split is {shape}")

    @property
    def labels(self) -> np.ndarray:
        return row_plan(self.spec, self.split)[0] != 0

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def provenance(self) -> str:
        return spec_hash(self.spec)


def generate(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Simulate and extract the train and test splits of a spec, on every
    usable CPU (_simulate_features)."""
    train, test = _simulate_features(spec, spec.method, SPLITS)
    return LabeledDataset(train, "train", spec), LabeledDataset(test, "test", spec)


def window_means(ds: LabeledDataset) -> np.ndarray:
    """The (rows, stations) window means of |measured - theoretical| path loss
    that the threshold baseline tests. They are the wd features, and the
    mean that leads each station's mvsk block, bit for bit. A box row holds
    no mean, so a box split is re-simulated from its spec."""
    if ds.spec.method == "wd":
        return ds.features
    if ds.spec.method == "mvsk":
        return ds.features[:, :: FEATURES_PER_BS["mvsk"]]
    return _simulate_features(ds.spec, "wd", (ds.split,))[0]


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _implied_keys(spec: DatasetSpec, split: str) -> dict:
    """The sidecar keys that restate the spec and split, with their values."""
    return {
        "spec_hash": spec_hash(spec),
        "method": spec.method,
        "bs_ids": list(select_bs_subset(spec.n_bs)),
        "n_bs": spec.n_bs,
        "width": spec_width(spec),
        "n_rows": split_size(spec, split),
    }


def _header(width: int) -> list[str]:
    return ["label"] + [f"f{i + 1}" for i in range(width)]


def save(dataset: LabeledDataset, path) -> None:
    """CSV with full-precision features plus a JSON sidecar holding the spec."""
    path = Path(path)
    labels = dataset.labels.astype(int).tolist()
    rows = ([label, *row] for label, row in zip(labels, dataset.features.tolist()))
    save_csv(path, _header(dataset.width), rows)
    sidecar = {
        **_implied_keys(dataset.spec, dataset.split),
        "spec": spec_to_dict(dataset.spec),
        "split": dataset.split,
    }
    save_json(_sidecar_path(path), sidecar, indent=2)


class DatasetFormatError(ValueError):
    pass


# Any JSON value is read for a key that restates the spec; _implied_keys checks it.
_SIDECAR_KEYS = {
    "spec": dict, "spec_hash": object, "split": str, "n_rows": object,
    "width": object, "method": object, "bs_ids": object, "n_bs": object,
}


def _sidecar_from_dict(doc: dict) -> tuple[DatasetSpec, str]:
    """The sidecar's spec and split; every other key must be written exactly
    as they imply."""
    d = fields("", doc, _SIDECAR_KEYS, "sidecar")
    spec = spec_from_dict(d["spec"], "spec")
    for key, implied in _implied_keys(spec, d["split"]).items():
        # Compared as JSON text, so 3.0 or true do not pass for 3 or 1.
        if json.dumps(d[key]) != json.dumps(implied):
            raise ConfigError(f"{key} {d[key]!r:.70} disagrees with the spec's {implied!r}")
    return spec, d["split"]


def _read_csv(path: Path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, width) feature matrix and the labels of a dataset CSV whose
    header is _header(width); errors name the row and the column."""
    lines = path.read_text().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header = ",".join(_header(width))
    if lines[0] != header:
        raise DatasetFormatError(f"{path}: row 1: bad header {lines[0]!r:.70}, expected {header!r}")
    labels, rows = [], []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width + 1:
            raise DatasetFormatError(f"{path}: row {i}: expected {width + 1} columns, found {len(cells)}")
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
    matrix = np.array(rows).reshape(len(rows), width)
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
    spec, split = load_json(sidecar_file, _sidecar_from_dict, DatasetFormatError)
    matrix, labels = _read_csv(path, spec_width(spec))
    try:
        ds = LabeledDataset(matrix, split, spec)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    wrong = np.flatnonzero(ds.labels != labels)
    if len(wrong):
        k = int(wrong[0])
        raise DatasetFormatError(
            f"{path}: row {k + 2}, column 1: label {int(labels[k])} disagrees with the spec's row plan"
        )
    return ds
