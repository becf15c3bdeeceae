"""Scene geometry and channel settings: base stations, destination layouts
and the stochastic channel's parameters.

A flight goes in a straight line from a fixed start point to one of several
destinations spread on a sphere around the start. The GPS receiver reports
the flight toward the planned destination (index 0); under spoofing the
vehicle physically flies toward a different destination while still
reporting the planned path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ELEVATION_SPREAD_DEG = 15.0  # destinations sit at +/- this elevation angle


def _as_vec3(p) -> tuple[float, float, float]:
    """p as a tuple of three finite floats: a value, so a frozen config
    shares nothing its caller can still write."""
    try:
        v = [float(x) for x in p]
    except TypeError:  # a number, or a nested list: no flat sequence
        raise ValueError(f"expected a 3-vector, got {p!r:.60}") from None
    if len(v) != 3:
        raise ValueError(f"expected a 3-vector, got shape ({len(v)},)")
    if not all(map(math.isfinite, v)):
        raise ValueError(f"coordinates must be finite, got {v}")
    return tuple(v)


def check_positive_finite(name: str, value: float) -> None:
    """Raises unless value is a finite number above zero."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class BaseStation:
    """A fixed ground station at (x, y, h) meters, h above ground."""

    id: int
    position: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        # Ids seed noise streams (default_rng takes non-negative entropy only).
        if self.id < 0:
            raise ValueError(f"base station {self.id} id must be >= 0")
        if self.position[2] <= 0:
            raise ValueError(f"base station {self.id} height must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """The mission's geometry, serializable to a config file.

    The carrier frequency and the noise seed belong to the channel
    (ChannelParams), which the same file also holds.
    """

    base_stations: tuple[BaseStation, ...]
    start: tuple[float, float, float]
    mission_radius: float  # meters from start to every destination
    n_destinations: int
    window_size: int  # samples per decision window, one per flight

    def __post_init__(self):
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        object.__setattr__(self, "start", _as_vec3(self.start))
        if not self.base_stations:
            raise ValueError("base_stations must hold at least one station")
        ids = [bs.id for bs in self.base_stations]
        if len(set(ids)) != len(ids):
            raise ValueError("base station ids must be unique")
        if self.n_destinations < 2 or self.n_destinations % 2:
            raise ValueError(f"n_destinations must be even and >= 2, got {self.n_destinations}")
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        check_positive_finite("mission_radius", self.mission_radius)
        # Two destinations span both elevation rings, and a destination's
        # height does not depend on its azimuth: this fails exactly when the
        # full layout would put a destination underground.
        destination_points(self.start, self.mission_radius, 2)

    def base_station_by_id(self, bs_id: int) -> BaseStation:
        for bs in self.base_stations:
            if bs.id == bs_id:
                return bs
        raise KeyError(f"no base station with id {bs_id}")


def default_config() -> ScenarioConfig:
    """Reference setup: three 35 m stations, start at (150,150,150), sixteen
    destinations 100 m away, 100-sample windows."""
    return ScenarioConfig(
        base_stations=(
            BaseStation(1, (0.0, 0.0, 35.0)),
            BaseStation(2, (150.0, 150.0, 35.0)),
            BaseStation(3, (300.0, 150.0, 35.0)),
        ),
        start=(150.0, 150.0, 150.0),
        mission_radius=100.0,
        n_destinations=16,
        window_size=100,
    )


def destination_points(start, radius: float, n: int) -> list[tuple[float, float, float]]:
    """n destinations at exactly `radius` from start, evenly spread in
    angle: n/2 azimuths times two elevation rings at +/-ELEVATION_SPREAD_DEG,
    so n must be even and at least 2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"cannot lay out {n} destinations on two elevation rings")
    el = math.radians(ELEVATION_SPREAD_DEG)
    azimuths = [2.0 * math.pi * k / (n // 2) for k in range(n // 2)]
    # The math module's cos and sin, one angle at a time: NumPy's vectorized
    # trigonometry may round differently on other CPUs.
    units = [
        (math.cos(e) * math.cos(az), math.cos(e) * math.sin(az), math.sin(e))
        for az in azimuths
        for e in (el, -el)
    ]
    start = _as_vec3(start)
    points = [tuple(s + radius * u for s, u in zip(start, unit)) for unit in units]
    if any(z <= 0 for _, _, z in points):
        raise ValueError("destination altitude would be <= 0")
    return points


@dataclass(frozen=True)
class ChannelParams:
    """Stochastic channel configuration; all sigmas in dB.

    The only holder of the carrier frequency and of rng_seed, the first
    entry of every window's noise seed (channel.measured_windows).
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
