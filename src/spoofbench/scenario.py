"""Scene geometry: base stations, destination layouts and flight position
arrays.

A flight goes in a straight line from a fixed start point to one of several
destinations spread on a sphere around the start. The GPS receiver reports
the flight toward the planned destination (index 0); under spoofing the
vehicle physically flies toward a different destination while still
reporting the planned path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ELEVATION_SPREAD_DEG = 15.0  # destinations sit at +/- this elevation angle


def _as_vec3(p) -> np.ndarray:
    """A read-only copy of p as a finite 3-vector: a frozen config must not
    share a buffer its caller can still write."""
    v = np.array(p, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"coordinates must be finite, got {v.tolist()}")
    v.flags.writeable = False
    return v


def check_positive_finite(name: str, value: float) -> None:
    """Raises unless value is a finite number above zero."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class BaseStation:
    """A fixed ground station at (x, y, h) meters, h above ground."""

    id: int
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        if self.position[2] <= 0:
            raise ValueError(f"base station {self.id} height must be > 0")

    def __eq__(self, other):
        if not isinstance(other, BaseStation):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.position, other.position)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """The mission's geometry and sampling, serializable to a config file.

    The carrier frequency and the noise seed belong to the channel
    (ChannelParams), which the same file also holds.
    """

    base_stations: tuple[BaseStation, ...]
    start: np.ndarray
    mission_radius: float  # meters from start to every destination
    n_destinations: int
    window_size: int  # samples per decision window
    sample_period: float = 1.0  # seconds between path-loss samples

    def __post_init__(self):
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        object.__setattr__(self, "start", _as_vec3(self.start))
        ids = [bs.id for bs in self.base_stations]
        if len(set(ids)) != len(ids):
            raise ValueError("base station ids must be unique")
        if self.n_destinations < 2 or self.n_destinations % 2:
            raise ValueError(f"n_destinations must be even and >= 2, got {self.n_destinations}")
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        check_positive_finite("mission_radius", self.mission_radius)
        check_positive_finite("sample_period", self.sample_period)
        # Two destinations span both elevation rings, and a destination's
        # height does not depend on its azimuth: this fails exactly when the
        # full layout would put a destination underground.
        destination_layout(self.start, self.mission_radius, 2)

    def __eq__(self, other):
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return (
            self.base_stations == other.base_stations
            and np.array_equal(self.start, other.start)
            and (self.mission_radius, self.n_destinations, self.window_size, self.sample_period)
            == (other.mission_radius, other.n_destinations, other.window_size, other.sample_period)
        )

    def base_station_by_id(self, bs_id: int) -> BaseStation:
        for bs in self.base_stations:
            if bs.id == bs_id:
                return bs
        raise KeyError(f"no base station with id {bs_id}")

    @property
    def flight_duration(self) -> float:
        # One full decision window per flight.
        return self.window_size * self.sample_period


def default_config() -> ScenarioConfig:
    """Reference setup: three 35 m stations, start at (150,150,150), sixteen
    destinations 100 m away, 100-sample windows."""
    return ScenarioConfig(
        base_stations=(
            BaseStation(1, np.array([0.0, 0.0, 35.0])),
            BaseStation(2, np.array([150.0, 150.0, 35.0])),
            BaseStation(3, np.array([300.0, 150.0, 35.0])),
        ),
        start=np.array([150.0, 150.0, 150.0]),
        mission_radius=100.0,
        n_destinations=16,
        window_size=100,
    )


def destination_layout(start: np.ndarray, radius: float, n: int) -> np.ndarray:
    """(n, 3) destinations at exactly `radius` from start, evenly spread in
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
    points = _as_vec3(start) + radius * np.array(units)
    if np.any(points[:, 2] <= 0):
        raise ValueError("destination altitude would be <= 0")
    return points


def destination_grid(config: ScenarioConfig) -> np.ndarray:
    """The config's (n_destinations, 3) destinations; row 0 is the planned
    (real) one."""
    return destination_layout(config.start, config.mission_radius, config.n_destinations)


def flight_positions(config: ScenarioConfig, destinations) -> np.ndarray:
    """(destinations, samples, 3) positions of straight flights from the
    start to each destination, at the window's sample instants.

    slope * t + start is the arithmetic np.interp does on
    [0, flight_duration], so the positions are its bit for bit.
    """
    ts = np.arange(config.window_size) * config.sample_period
    slope = (np.asarray(destinations, dtype=float) - config.start) / config.flight_duration
    return slope[:, None, :] * ts[:, None] + config.start
