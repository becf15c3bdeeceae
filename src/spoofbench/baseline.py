"""Threshold-based hypothesis test: flag a position as spoofed when the
path-loss difference exceeds a threshold T.

This is the non-learned baseline the MLP detectors are compared against.
It reads a (rows, stations) array of window means of per-instant
|measured - theoretical| path loss, the wd features of the same windows:
each station's window mean is tested against T, either averaged across
stations ("mean-delta") or by strict majority vote. Both reduce a row to
one score tested against T, so `fit` finds the training split's best T
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AGGREGATIONS = ("mean-delta", "majority-vote")


@dataclass(frozen=True)
class ThresholdDetector:
    threshold_db: float
    aggregation: str = "mean-delta"

    def __post_init__(self):
        if not self.threshold_db >= 0:  # NaN compares False; +inf is a legal threshold
            raise ValueError(f"threshold_db must be >= 0, got {self.threshold_db!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def scores(means, aggregation: str) -> np.ndarray:
    """Each row's score, whose verdict at threshold T is score > T.

    means is a (rows, stations) array of window means. For mean-delta the
    score is their mean. For a majority vote over k stations it is the
    (k // 2 + 1)-th largest, so score > T exactly when more than half of
    the stations' means exceed T.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or 0 in means.shape:
        raise ValueError(f"need a non-empty (rows, stations) array of window means, got {means.shape}")
    if aggregation == "mean-delta":
        return np.mean(means, axis=-1)
    if aggregation == "majority-vote":
        k = means.shape[-1]
        return np.sort(means, axis=-1)[:, k - (k // 2 + 1)]
    raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def decide(detector: ThresholdDetector, means) -> np.ndarray:
    """Per-row verdicts (True = spoofed): the row's score exceeds T. means
    is a (rows, stations) array of window means."""
    return scores(means, detector.aggregation) > detector.threshold_db


def fit(means, labels, aggregation: str = "mean-delta") -> ThresholdDetector:
    """The detector of highest accuracy on these rows, ties going to the
    smaller T.

    The verdicts, and so the accuracy, change only where T passes a score.
    So the best T over all T >= 0 is one of 0 and the positive scores:
    sorting the scores once counts every such cut's correct verdicts.
    """
    s = scores(means, aggregation)
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != s.shape:
        raise ValueError(f"{len(labels)} labels for {len(s)} rows")
    order = np.argsort(s, kind="stable")
    legit_below = np.concatenate(([0], np.cumsum(~labels[order])))  # among the i lowest scores
    cuts = np.unique(np.append(s[s > 0], 0.0))
    below = np.searchsorted(s[order], cuts, side="right")  # rows at or under each cut: legitimate
    legit = legit_below[below]
    correct = legit + (labels.sum() - (below - legit))  # and the spoofed rows over the cut
    return ThresholdDetector(float(cuts[np.argmax(correct)]), aggregation)


@dataclass(frozen=True)
class OperatingPoint:
    threshold_db: float
    accuracy: float
    fp_rate: float
    fn_rate: float


def sweep_threshold(means, labels, t_grid, aggregation: str = "mean-delta") -> list[OperatingPoint]:
    """Operating curve of the detector over a grid of thresholds.

    means is a (rows, stations) array of window means and labels holds each
    row's true label (True = spoofed). FP rate is taken over legitimate
    rows, FN rate over spoofed rows.
    """
    labels = np.asarray(labels, dtype=bool)
    t_grid = [ThresholdDetector(float(t), aggregation).threshold_db for t in t_grid]
    if not t_grid:
        raise ValueError("empty threshold grid")
    verdicts = scores(means, aggregation) > np.array(t_grid)[:, None]
    if verdicts.shape[1] != len(labels):
        raise ValueError(f"{len(labels)} labels for {verdicts.shape[1]} rows")
    n_spoofed = int(labels.sum())
    n_legit = len(labels) - n_spoofed
    curve = []
    for t, row in zip(t_grid, verdicts):
        fp = int(np.sum(row & ~labels))
        fn = int(np.sum(~row & labels))
        curve.append(
            OperatingPoint(
                threshold_db=t,
                accuracy=float(np.mean(row == labels)),
                fp_rate=fp / n_legit if n_legit else 0.0,
                fn_rate=fn / n_spoofed if n_spoofed else 0.0,
            )
        )
    return curve


def best_operating_point(curve: list[OperatingPoint]) -> OperatingPoint:
    """Highest-accuracy point; ties broken toward the smaller threshold."""
    finite_first = sorted(
        curve, key=lambda p: (-p.accuracy, math.inf if math.isinf(p.threshold_db) else p.threshold_db)
    )
    return finite_first[0]
