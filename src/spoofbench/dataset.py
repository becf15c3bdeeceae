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
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features
from .channel import ChannelParams, Link, check_finite, measured_windows
from .configio import ConfigError, at, config_from_dict, config_to_dict, fields, load_json, save_csv, save_json
from .features import FEATURES_PER_BS, check_method
from .scenario import ScenarioConfig, destination_grid, flight_positions

SPLITS = ("train", "test")

# Rows simulated per chunk; the bound is there for peak memory. wd/3 at seed 1
# peaked at 39.6 MB after generate with 64-row chunks, as the per-sample
# simulation did, against 41.2 MB with 256 and 43.5 MB with 512, which also
# grew on each repeat. Per-chunk overhead is already negligible at 64 rows.
CHUNK_ROWS = 64

# The fewest rows worth a process of their own. A forked part also pays for
# the fork and the wait (about 4 ms) and each split's noise-free links
# (about 2.5 ms), while 256 wd/3 rows simulate in about 19 ms (2-vCPU Xeon).
PART_MIN_ROWS = 256

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

    def __post_init__(self):
        check_method(self.method)
        missing = set(select_bs_subset(self.n_bs)) - {bs.id for bs in self.scenario.base_stations}
        if missing:
            raise ValueError(f"n_bs {self.n_bs} uses base station {min(missing)}, which the scenario lacks")
        for name, size in (("train_size", self.train_size), ("test_size", self.test_size)):
            if size < 2:  # the row plan's row 0 is spoofed and row 1 legitimate
                raise ValueError(f"{name} must be >= 2 for a spoofed and a legitimate row, got {size}")


_SPEC_KEYS = {
    "scenario": dict, "method": str, "n_bs": int, "train_size": (int, DatasetSpec.train_size),
    "test_size": (int, DatasetSpec.test_size),
}


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


def row_plan(spec: DatasetSpec, split: str) -> tuple[np.ndarray, int]:
    """Every row's destination in a split, and row 0's noise seed; row k is
    seeded first_seed + k, and spoofed exactly when its destination is not 0.

    Even rows are spoofed and cycle the non-planned destinations; odd rows
    are legitimate replays. Seeds encode (channel seed, split, row) so the
    two splits can never share a noise stream. They stay Python ints: from
    rng_seed 2**30 on they exceed int64.
    """
    k = np.arange(split_size(spec, split))
    dests = np.where(k % 2 == 0, 1 + (k // 2) % (spec.scenario.n_destinations - 1), 0)
    return dests, (spec.channel.rng_seed * 2 + SPLITS.index(split)) << 32


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


def iter_delta_chunks(spec: DatasetSpec, split: str, rows: range | None = None):
    """Yields (rows, deltas) for consecutive chunks of at most CHUNK_ROWS rows
    of a split, or of its rows in range rows. rows must start on a chunk
    boundary, so every chunk is one that the whole split yields.

    rows is the chunk's range of row indices, and deltas a (rows, stations,
    samples) array of |measured - theoretical| path loss, stations in
    select_bs_subset order.
    """
    dests, first_seed = row_plan(spec, split)
    rows = range(len(dests)) if rows is None else rows
    if rows.start % CHUNK_ROWS:
        raise ValueError(f"rows must start on a multiple of {CHUNK_ROWS}, got {rows.start}")
    bs_ids = select_bs_subset(spec.n_bs)
    windows = iter_windows(spec.scenario, spec.channel, bs_ids, dests[rows.start : rows.stop], first_seed + rows.start)
    for chunk, theoretical, measured in windows:
        measured -= theoretical  # in place: |measured - theoretical| without temporaries
        yield range(rows.start + chunk.start, rows.start + chunk.stop), np.abs(measured, out=measured)


def _parts(spec: DatasetSpec, splits) -> list[list[tuple[str, range]]]:
    """The rows of splits, taken in order, as k contiguous parts of whole
    chunks, each a list of (split, rows) segments; a chunk starting at row r
    of the splits joined goes to part r * k // (their rows).

    k is one per usable CPU, with at least PART_MIN_ROWS rows a part. It is
    one where the usable CPUs are unknown, or where another thread runs,
    since a fork copies only the calling thread.
    """
    sizes = [split_size(spec, split) for split in splits]
    total = sum(sizes)
    k = 1
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        k = max(1, min(len(os.sched_getaffinity(0)), total // PART_MIN_ROWS))
    parts: list[list[tuple[str, range]]] = [[] for _ in range(k)]
    offset = 0
    for split, size in zip(splits, sizes):
        for start in range(0, size, CHUNK_ROWS):
            segments = parts[(offset + start) * k // total]
            rows = range(start, min(start + CHUNK_ROWS, size))
            if segments and segments[-1][0] == split:  # the part's segment of this split grows
                rows = range(segments.pop()[1].start, rows.stop)
            segments.append((split, rows))
        offset += size
    return [part for part in parts if part]


def _simulate_part(spec: DatasetSpec, method: str, part) -> list[np.ndarray]:
    """The feature block of each (split, rows) segment of a part."""
    return [
        np.concatenate([features.extract(deltas, method) for _, deltas in iter_delta_chunks(spec, split, rows)])
        for split, rows in part
    ]


def _fork_part(spec: DatasetSpec, method: str, part):
    """Simulates a part in a forked child. Returns the child's pid and the
    read end of a pipe that carries the pickled (True, blocks) or (False,
    error)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child leaves only through os._exit, so none of the parent's
        # exit handlers or cleanups (atexit, a test runner's) runs twice.
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, _simulate_part(spec, method, part))
            except Exception as exc:
                outcome = (False, exc)
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _join(live: list) -> list[np.ndarray]:
    """The result of the first forked part in live, once its process has
    exited and left live; raises the part's error, or RuntimeError if the
    process sent none."""
    pid, pipe = live[0]
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del live[0]
    if status != 0:  # the child sets 0 only once it has sent the whole result
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"simulation process {pid} exited with status {code} and sent no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _simulate_features(spec: DatasetSpec, method: str, splits) -> list[np.ndarray]:
    """The (rows, width) feature matrix by method of each split in splits.

    The rows are simulated in parts (_parts): the first in this process,
    every other in a forked child that sends its blocks back through a pipe.
    Each part runs the chunks that one part would, so neither the bytes nor
    the error, that of the first failing chunk, depend on the part count.
    No child outlives the call.
    """
    parts = _parts(spec, splits)
    live: list = []  # (pid, pipe) of every forked part not yet reaped, in part order
    try:
        for part in parts[1:]:
            live.append(_fork_part(spec, method, part))
        results = [_simulate_part(spec, method, parts[0])]
        while live:
            results.append(_join(live))
    finally:
        for pid, pipe in live:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    blocks: dict[str, list] = {split: [] for split in splits}
    for part, result in zip(parts, results):
        for (split, _), block in zip(part, result):
            blocks[split].append(block)
    return [np.concatenate(blocks[split]) for split in splits]


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        same = (self.split, self.spec) == (other.split, other.spec)
        return same and np.array_equal(self.features, other.features)


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
