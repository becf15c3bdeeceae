"""Threshold-based hypothesis test: flag a position as spoofed when the
path-loss difference exceeds a threshold T.

This is the non-learned baseline the MLP detectors are compared against.
It reads a (rows, stations) array of window means of per-instant
|measured - theoretical| path loss, the wd features of the same windows:
each station's window mean is tested against T, either averaged across
stations ("mean-delta") or by strict majority vote. Both reduce a row to
one score tested against T, so `fit` finds the training split's best T
exactly.

loss_mse, accuracy and confusion_matrix score any detector's predictions
against the labels; the trainer and every report use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spec import AGGREGATIONS


@dataclass(frozen=True)
class ThresholdDetector:
    threshold_db: float
    aggregation: str = AGGREGATIONS[0]

    def __post_init__(self):
        if not 0 <= self.threshold_db < math.inf:  # NaN compares False
            raise ValueError(f"threshold_db must be finite and >= 0, got {self.threshold_db!r}")
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


def fit(means, labels, aggregation: str = AGGREGATIONS[0]) -> ThresholdDetector:
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


def _pair(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    """predictions and labels as float arrays, checked to pair up."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(p) == 0 or len(p) != len(y):
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return p, y


def loss_mse(predictions, labels) -> float:
    p, y = _pair(predictions, labels)
    return float(np.mean((y - p) ** 2))


def accuracy(predictions, labels) -> float:
    """Fraction of correct spoofed/legitimate calls; positive means spoofed."""
    p, y = _pair(predictions, labels)
    return float(np.mean((p >= 0.5) == (y >= 0.5)))


def confusion_matrix(predictions, labels) -> dict[str, int]:
    p, y = _pair(predictions, labels)
    p, y = p >= 0.5, y >= 0.5
    return {
        "tp": int(np.sum(p & y)),
        "fp": int(np.sum(p & ~y)),
        "fn": int(np.sum(~p & y)),
        "tn": int(np.sum(~p & ~y)),
    }
