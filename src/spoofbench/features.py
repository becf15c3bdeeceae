"""Statistical features of measured-vs-theoretical path loss windows.

Three feature families summarize each station's series of absolute
measured-vs-theoretical differences:

  mvsk -- mean, variance, skewness, kurtosis
  box  -- five-number summary (min, quartiles, max)
  wd   -- 1-D Wasserstein distance between the difference distribution and
          the all-zero reference of an unspoofed link (one value per
          station)

A row of features concatenates the per-station blocks in ascending station
id, so the input width is n_stations * {4, 5, 1}.
"""

from __future__ import annotations

import numpy as np

from .spec import check_method


def _mvsk_lanes(x: np.ndarray) -> np.ndarray:
    """Mean, sample variance (n-1), skewness g1 and excess kurtosis g2 of
    every series along the last axis; shape (..., 4).

    g1 = m3 / (m2 sqrt(m2)) and g2 = m4 / (m2 m2) - 3 with central moments
    m_k taken over n: IEEE sqrt, multiply and divide are correctly rounded,
    so the bytes do not depend on the platform's pow. A constant series has
    zero variance; its skewness and kurtosis are defined as 0.
    """
    n = x.shape[-1]
    if n < 2:
        raise ValueError("mvsk needs series of length >= 2")
    x = _sorted_lanes(x)
    # A power that overflows is refused below, with the error naming mvsk.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(x, axis=-1)
        centered = x - mean[..., None]
        sum_sq = np.sum(centered**2, axis=-1)
        m2 = sum_sq / n
        m3 = np.sum(centered**3, axis=-1) / n
        m4 = np.sum(centered**4, axis=-1) / n
    if not all(np.all(np.isfinite(m)) for m in (m2, m3, m4)):
        raise ValueError(f"mvsk skewness and kurtosis overflow: a window's variance reaches {np.max(m2):.3g} dB^2")
    spread = m2 != 0.0
    # m2 * m2 below the normal range has lost its precision, or all of it.
    if np.any(spread & (m2 * m2 < np.finfo(float).tiny)):
        raise ValueError(f"mvsk skewness and kurtosis underflow: a window's variance is {m2[spread].min():.3g} dB^2")
    m2 = np.where(spread, m2, 1.0)  # no division by zero; those lanes are 0
    g1 = np.where(spread, m3 / (m2 * np.sqrt(m2)), 0.0)
    g2 = np.where(spread, m4 / (m2 * m2) - 3.0, 0.0)
    variance = np.where(spread, sum_sq / (n - 1), 0.0)
    return np.stack([mean, variance, g1, g2], axis=-1)


def _box_lanes(x: np.ndarray) -> np.ndarray:
    """Five-number summary (min, linearly interpolated quartiles, max) of
    every series along the last axis; shape (..., 5)."""
    return np.moveaxis(np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0], axis=-1), 0, -1)


def _wd_lanes(deltas: np.ndarray) -> np.ndarray:
    """Order-1 Wasserstein distance of every series along the last axis from
    the all-zero reference; shape (..., 1). That distance is the mean
    absolute difference of the sorted samples, so for deltas >= 0 it is the
    mean of the sorted deltas.
    """
    return np.mean(_sorted_lanes(deltas), axis=-1)[..., None]


def _sorted_lanes(x: np.ndarray) -> np.ndarray:
    """Each series along the last axis sorted, so sums are bit-exact under any
    permutation, and in C order, so numpy sums each series pairwise as it
    sums a 1-D array (a strided last axis is summed in another order)."""
    return np.ascontiguousarray(np.sort(x, axis=-1))


_LANE_FEATURES = {"mvsk": _mvsk_lanes, "box": _box_lanes, "wd": _wd_lanes}


def extract(deltas, method: str) -> np.ndarray:
    """The (rows, width) feature matrix of a batch of decision windows.

    deltas is a (rows, stations, samples) array of per-instant
    |measured - theoretical| path loss. mvsk and box summarize each
    station's series; wd measures how far its distribution sits from the
    all-zero reference. A row concatenates the stations' blocks in the
    station axis' order.
    """
    check_method(method)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 3 or 0 in deltas.shape:
        raise ValueError(f"deltas must be a non-empty (rows, stations, samples) array, got {deltas.shape}")
    if np.any(deltas < 0):
        raise ValueError("delta values must be >= 0")
    features = _LANE_FEATURES[method](deltas).reshape(len(deltas), -1)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{method} features must be finite")
    return features
