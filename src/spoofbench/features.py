"""Statistical features of measured-vs-theoretical path loss windows.

Three feature families summarize each station's series of absolute
measured-vs-theoretical differences:

  mvsk -- mean, variance, skewness, kurtosis
  box  -- five-number summary (min, quartiles, max)
  wd   -- 1-D Wasserstein distance between the difference distribution and
          the all-zero reference of an unspoofed link (one value per
          station)

Feature vectors concatenate the per-station blocks in ascending station id,
so the input width is n_stations * {4, 5, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METHODS = ("mvsk", "box", "wd")
FEATURES_PER_BS = {"mvsk": 4, "box": 5, "wd": 1}


def check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown feature method {method!r}; expected one of {METHODS}")
    return method


def mvsk(series) -> tuple[float, float, float, float]:
    """Mean, sample variance (n-1), skewness g1 and excess kurtosis g2.

    g1 = m3 / m2^1.5 and g2 = m4 / m2^2 - 3 with central moments m_k taken
    over n. A constant series has zero variance; its skewness and kurtosis
    are defined as 0.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("mvsk needs a 1-D series of length >= 2")
    return tuple(_mvsk_lanes(x[None])[0].tolist())


def _mvsk_lanes(x: np.ndarray) -> np.ndarray:
    """mvsk of every series along the last axis; shape (..., 4)."""
    n = x.shape[-1]
    if n < 2:
        raise ValueError("mvsk needs a 1-D series of length >= 2")
    x = _sorted_lanes(x)
    mean = np.mean(x, axis=-1)
    centered = x - mean[..., None]
    sum_sq = np.sum(centered**2, axis=-1)
    m2 = sum_sq / n
    m3 = np.sum(centered**3, axis=-1) / n
    m4 = np.sum(centered**4, axis=-1) / n
    # g1 and g2 lane by lane in Python floats: numpy's vectorized pow rounds
    # m2**1.5 differently from the C library in the last bit.
    shape_moments = [
        (c3 / c2**1.5, c4 / c2**2 - 3.0) if c2 != 0.0 else (0.0, 0.0)
        for c2, c3, c4 in zip(m2.ravel().tolist(), m3.ravel().tolist(), m4.ravel().tolist())
    ]
    variance = np.where(m2 == 0.0, 0.0, sum_sq / (n - 1))
    return np.concatenate(
        [np.stack([mean, variance], axis=-1), np.reshape(shape_moments, m2.shape + (2,))], axis=-1
    )


def box(series) -> tuple[float, float, float, float, float]:
    """Five-number summary with linearly interpolated quartiles."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise ValueError("box needs a non-empty 1-D series")
    return tuple(_box_lanes(x).tolist())


def _box_lanes(x: np.ndarray) -> np.ndarray:
    """Five-number summary of every series along the last axis; shape (..., 5)."""
    return np.moveaxis(np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0], axis=-1), 0, -1)


def _wd_lanes(deltas: np.ndarray) -> np.ndarray:
    """wasserstein_1d(d, zeros) of every series along the last axis; shape (..., 1).

    Against the all-zero reference the distance is the mean of the sorted
    deltas, summed in wasserstein_1d's order, so the values are bit-identical.
    """
    return np.mean(_sorted_lanes(deltas), axis=-1)[..., None]


def _sorted_lanes(x: np.ndarray) -> np.ndarray:
    """Each series along the last axis sorted, so sums are bit-exact under any
    permutation, and in C order, so numpy sums each series pairwise as it
    sums a 1-D array (a strided last axis is summed in another order)."""
    return np.ascontiguousarray(np.sort(x, axis=-1))


_LANE_FEATURES = {"mvsk": _mvsk_lanes, "box": _box_lanes, "wd": _wd_lanes}


def wasserstein_1d(a, b) -> float:
    """Order-1 Wasserstein distance between two equal-size empirical samples:
    the mean absolute difference of the sorted values."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or len(a) == 0:
        raise ValueError("need non-empty 1-D samples")
    if len(a) != len(b):
        raise ValueError(f"sample sizes differ: {len(a)} vs {len(b)}")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


@dataclass(frozen=True)
class FeatureVector:
    """Flattened per-station features for one window, with its label."""

    method: str
    per_bs: tuple[tuple[int, tuple[float, ...]], ...]  # (bs_id, block), ascending id
    flattened: np.ndarray
    label: bool

    def __post_init__(self):
        object.__setattr__(self, "flattened", np.asarray(self.flattened, dtype=float))
        check_method(self.method)
        ids = [bs_id for bs_id, _ in self.per_bs]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("per-station blocks must be ordered by unique bs_id")
        expected = len(self.per_bs) * FEATURES_PER_BS[self.method]
        if len(self.flattened) != expected:
            raise ValueError(
                f"{self.method} features for {len(self.per_bs)} stations "
                f"must have width {expected}, got {len(self.flattened)}"
            )
        if not np.all(np.isfinite(self.flattened)):
            raise ValueError("features must be finite")

    @property
    def width(self) -> int:
        return len(self.flattened)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return (
            self.method == other.method
            and self.label == other.label
            and self.per_bs == other.per_bs
            and np.array_equal(self.flattened, other.flattened)
        )


def extract(deltas, method: str, labels, bs_ids) -> list[FeatureVector]:
    """Labeled feature vectors for a batch of decision windows.

    deltas is a (rows, stations, samples) array of per-instant
    |measured - theoretical| path loss, its station axis ordered as bs_ids;
    labels holds one label per row. mvsk and box summarize each station's
    series; wd measures how far its distribution sits from the all-zero
    reference. Blocks come out in ascending station id.
    """
    check_method(method)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 3 or 0 in deltas.shape:
        raise ValueError(f"deltas must be a non-empty (rows, stations, samples) array, got {deltas.shape}")
    if len(bs_ids) != deltas.shape[1] or len(set(bs_ids)) != len(bs_ids):
        raise ValueError(f"need one unique station id per station column, got {list(bs_ids)}")
    if len(labels) != deltas.shape[0]:
        raise ValueError(f"{len(labels)} labels for {deltas.shape[0]} rows")
    if np.any(deltas < 0):
        raise ValueError("delta values must be >= 0")
    order = np.argsort(bs_ids, kind="stable")
    ids = [int(bs_ids[k]) for k in order]
    blocks = _LANE_FEATURES[method](deltas[:, order])
    flat = blocks.reshape(len(blocks), -1)
    return [
        FeatureVector(
            method=method,
            per_bs=tuple(zip(ids, map(tuple, row))),
            flattened=flat[i],
            label=bool(label),
        )
        for i, (row, label) in enumerate(zip(blocks.tolist(), labels))
    ]
