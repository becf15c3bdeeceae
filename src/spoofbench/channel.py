"""Aerial path-loss channel between a UAV and ground base stations.

Theoretical path loss follows the urban-macro aerial model for elevated
user terminals (22.5 m to 300 m):

    LoS:  PL = 28.0 + 22 log10(d3d) + 20 log10(fc)
    NLoS: PL = -17.5 + (46 - 7 log10(h)) log10(d3d) + 20 log10(40 pi fc / 3)

with d3d in meters, fc in GHz and h the UAV height in meters. Above 100 m
the link is line-of-sight with probability one; between 22.5 m and 100 m
the LoS probability uses the model's d1/p1 height rule (below 22.5 m the
height is clamped to 22.5 for that rule). LoS shadow fading has standard
deviation 4.64 exp(-0.0066 h) dB; NLoS shadow fading is configurable.

"Measured" path loss is synthesized from the true UAV position plus shadow
fading plus independent measurement noise; the theoretical value is computed
noise-free from the reported GPS position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import BaseStation, check_positive_finite

LOS_PROBABILITY_MIN_HEIGHT = 22.5  # rule below this clamps to the model floor


@dataclass(frozen=True)
class ChannelParams:
    """Stochastic channel configuration; all sigmas in dB.

    The only holder of the carrier frequency and of rng_seed, the seed of
    every window's noise stream (window_rng).
    """

    carrier_frequency: float = 2.0  # GHz
    los_shadow_formula: bool = True  # height-dependent LoS shadow sigma on/off
    nlos_shadow_sigma: float = 6.0
    meas_noise_sigma: float = 0.5
    rng_seed: int = 1
    sampled_los: bool = False  # draw the LoS/NLoS branch instead of thresholding

    def __post_init__(self):
        check_positive_finite("carrier_frequency", self.carrier_frequency)
        for name in ("nlos_shadow_sigma", "meas_noise_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma!r}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


def los_probability(heights, d2d) -> np.ndarray:
    """Probability that each UAV-to-station link is line-of-sight."""
    h = np.maximum(np.asarray(heights, dtype=float), LOS_PROBABILITY_MIN_HEIGHT)
    d2d = np.asarray(d2d, dtype=float)
    d1 = np.maximum(460.0 * np.log10(h) - 700.0, 18.0)
    p1 = 4300.0 * np.log10(h) - 3800.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        far = d1 / d2d + np.exp(-d2d / p1) * (1.0 - d1 / d2d)
    prob = np.where(d2d <= d1, 1.0, far)
    return np.where(heights > 100.0, 1.0, np.clip(prob, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class Link:
    """Noise-free path loss of one station's link along one sampled flight path.

    Everything here depends only on (path, station, params), so a dataset
    builds one Link per (destination, station) and every row that flies that
    path shares it. Arrays hold one value per sample instant.
    """

    los_db: np.ndarray  # LoS-branch path loss
    nlos_db: np.ndarray  # NLoS-branch path loss
    los_prob: np.ndarray
    los_sigma: np.ndarray  # LoS shadow-fading sigma
    nlos_sigma: float
    heights: np.ndarray

    @classmethod
    def along(cls, positions, bs: BaseStation, params: ChannelParams) -> Link:
        """Link quantities for an (n, 3) array of UAV positions."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        delta = positions - bs.position
        d3d = np.linalg.norm(delta, axis=1)
        if np.any(d3d == 0.0):
            raise ValueError("UAV position coincides with the base station")
        d2d = np.linalg.norm(delta[:, :2], axis=1)
        heights = positions[:, 2]
        fc = params.carrier_frequency
        with np.errstate(divide="ignore", invalid="ignore"):  # zero heights: see branch()
            nlos_db = (
                -17.5
                + (46.0 - 7.0 * np.log10(heights)) * np.log10(d3d)
                + 20.0 * np.log10(40.0 * math.pi * fc / 3.0)
            )
        los_sigma = 4.64 * np.exp(-0.0066 * heights)
        return cls(
            los_db=28.0 + 22.0 * np.log10(d3d) + 20.0 * np.log10(fc),
            nlos_db=nlos_db,
            los_prob=los_probability(heights, d2d),
            los_sigma=los_sigma if params.los_shadow_formula else np.zeros_like(heights),
            nlos_sigma=params.nlos_shadow_sigma,
            heights=heights,
        )

    def branch(self, los: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Path loss and shadow-fading sigma per sample for a LoS mask."""
        if np.all(los):
            return self.los_db, self.los_sigma
        if np.any(self.heights[~los] <= 0):
            raise ValueError("NLoS path loss undefined at zero height")
        return (
            np.where(los, self.los_db, self.nlos_db),
            np.where(los, self.los_sigma, self.nlos_sigma),
        )

    def theoretical(self) -> np.ndarray:
        """Noise-free path loss, LoS where its probability is at least one half."""
        return self.branch(self.los_prob >= 0.5)[0]


def window_rng(params: ChannelParams, noise_seed: int, bs_id: int) -> np.random.Generator:
    """Fixed seed derivation: one independent stream per (seed, flight, station)."""
    return np.random.default_rng([params.rng_seed, noise_seed, bs_id])


def measured_window(link: Link, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Noisy path loss a station reports along a window of the true path.

    These are the only per-window random draws, in the order every dataset
    depends on: the LoS branch of every sample (sampled_los only), then
    every shadow-fading value, then every measurement-noise value.
    """
    n = len(link.los_prob)
    los = rng.random(n) < link.los_prob if params.sampled_los else link.los_prob >= 0.5
    pl, sigma = link.branch(los)
    # sigma * standard_normal() is normal(0, sigma) bit for bit, without the
    # per-call scale checks that normal() makes on an array sigma.
    return pl + sigma * rng.standard_normal(n) + params.meas_noise_sigma * rng.standard_normal(n)


def check_finite(values: np.ndarray) -> np.ndarray:
    """values, if every one is finite; the shared guard on simulated path loss."""
    if not np.all(np.isfinite(values)):
        raise ValueError("path loss values must be finite")
    return values

