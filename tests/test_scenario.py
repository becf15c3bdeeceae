import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import position_at
from spoofbench.channel import ChannelParams
from spoofbench.dataset import DatasetSpec, plan_rows, scene_links, spec_hash
from spoofbench.scenario import (
    ELEVATION_SPREAD_DEG,
    BaseStation,
    ScenarioConfig,
    default_config,
    destination_grid,
    destination_layout,
    flight_positions,
)


def test_default_config_reference_values():
    cfg = default_config()
    assert [bs.id for bs in cfg.base_stations] == [1, 2, 3]
    assert cfg.base_stations[0].position == (0.0, 0.0, 35.0)
    assert cfg.base_stations[1].position == (150.0, 150.0, 35.0)
    assert cfg.base_stations[2].position == (300.0, 150.0, 35.0)
    assert cfg.start == (150.0, 150.0, 150.0)
    assert cfg.mission_radius == 100.0
    assert cfg.n_destinations == 16
    assert ChannelParams().carrier_frequency == 2.0
    assert cfg.window_size == 100


def test_destination_grid_radius_and_distinctness():
    cfg = default_config()
    dests = destination_grid(cfg)
    assert len(dests) == 16
    for d in dests:
        assert math.dist(d, cfg.start) == pytest.approx(100.0, rel=1e-9)
    for i, a in enumerate(dests):
        for b in dests[i + 1 :]:
            assert not np.allclose(a, b)


def test_destination_layout_rejects_underground_and_odd_counts():
    with pytest.raises(ValueError, match="altitude"):
        destination_layout(np.array([0.0, 0.0, 10.0]), 100.0, 16)
    for n in (1, 7):
        with pytest.raises(ValueError, match=f"cannot lay out {n} destinations"):
            destination_layout(np.array([0.0, 0.0, 500.0]), 100.0, n)


def test_flight_positions_match_the_scalar_oracle_bit_for_bit():
    cfg = default_config()
    dests = destination_grid(cfg)
    positions = flight_positions(cfg, dests)
    assert positions.shape == (16, 100, 3)
    for d, dest in enumerate(dests):
        for k in range(cfg.window_size):
            assert positions[d, k].tolist() == position_at(cfg, dest, k).tolist()


def test_flight_positions_leave_the_start_at_constant_speed():
    cfg = default_config()
    (positions,) = flight_positions(cfg, [np.add(cfg.start, [100.0, 0.0, 0.0])])
    assert positions[0].tolist() == [150.0, 150.0, 150.0]
    assert positions[25] == pytest.approx([175.0, 150.0, 150.0])
    step = cfg.mission_radius / cfg.window_size
    steps = np.linalg.norm(np.diff(flight_positions(cfg, destination_grid(cfg)), axis=1), axis=-1)
    assert steps == pytest.approx(np.full(steps.shape, step), rel=1e-9)


def _archive_plan(cfg):
    """The destinations of a default-channel `simulate` archive's rows, the
    first 2n - 2 of the train split, and row 0's noise seed."""
    return plan_rows(cfg.n_destinations, ChannelParams().rng_seed, "train", 2 * cfg.n_destinations - 2)


def test_archive_scenarios_diverge_exactly_when_spoofed():
    cfg = default_config()
    positions = flight_positions(cfg, destination_grid(cfg))
    dests, _ = _archive_plan(cfg)
    assert sorted(dests[::2].tolist()) == list(range(1, cfg.n_destinations))
    for dest in dests:
        diverged = np.any(positions[dest] != positions[0], axis=1)
        if dest != 0:
            assert not diverged[0]  # both paths leave the start together
            assert np.all(diverged[1:])
        else:
            assert not np.any(diverged)


def test_windows_refuse_a_spoofed_flight_that_never_diverges():
    # A radius this small rounds every destination onto the start.
    cfg = _config(mission_radius=1e-300)
    with pytest.raises(ValueError, match="destination 1 never diverges"):
        scene_links(cfg, ChannelParams(), [1])


def _config(**overrides):
    cfg = default_config()
    fields = dict(
        base_stations=cfg.base_stations,
        start=cfg.start,
        mission_radius=cfg.mission_radius,
        n_destinations=cfg.n_destinations,
        window_size=cfg.window_size,
    )
    return ScenarioConfig(**{**fields, **overrides})


def test_config_validation():
    with pytest.raises(ValueError):
        BaseStation(1, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="base station -1 id must be >= 0"):
        BaseStation(-1, [0.0, 0.0, 35.0])
    cfg = default_config()
    assert _config() == cfg
    with pytest.raises(ValueError):
        _config(base_stations=(cfg.base_stations[0], cfg.base_stations[0]))
    with pytest.raises(ValueError):
        _config(n_destinations=1)


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"mission_radius": math.nan}, "mission_radius must be finite"),
        ({"mission_radius": math.inf}, "mission_radius must be finite"),
        ({"mission_radius": 0.0}, "mission_radius"),
        ({"window_size": 1}, "window_size must be >= 2"),
        ({"n_destinations": 7}, "even"),
        ({"n_destinations": 0}, "even"),
        ({"start": [150.0, 150.0, 20.0]}, "altitude"),
        ({"start": [150.0, math.nan, 150.0]}, "finite"),
    ],
)
def test_config_rejects_what_the_simulator_cannot_lay_out(overrides, message):
    with pytest.raises(ValueError, match=message):
        _config(**overrides)


def test_config_layout_check_matches_destination_grid():
    # The constructor's two-point check agrees with the full layout at the
    # edge: the lower ring sits radius * sin(15 deg) below the start.
    drop = 100.0 * math.sin(math.radians(15.0))
    for z, underground in ((drop - 1e-9, True), (drop, True), (drop + 1e-9, False)):
        start = np.array([150.0, 150.0, z])
        if underground:
            with pytest.raises(ValueError, match="altitude"):
                destination_layout(start, 100.0, 16)
            with pytest.raises(ValueError, match="altitude"):
                _config(start=start)
        else:
            assert len(destination_grid(_config(start=start))) == 16


def test_configs_copy_their_vectors_into_immutable_tuples():
    start = np.array([150.0, 150.0, 150.0])
    position = [0.0, 0.0, 35]
    station = BaseStation(1, position)
    cfg = _config(base_stations=(station,), start=start)
    spec = DatasetSpec(scenario=cfg, channel=ChannelParams(), method="wd", n_bs=1)
    before = spec_hash(spec)
    start[2] = -1000.0  # the caller's array and list stay the caller's
    position[2] = -3.0
    assert cfg.start == (150.0, 150.0, 150.0)
    assert station.position == (0.0, 0.0, 35.0)
    assert all(type(v) is float for v in cfg.start + station.position)
    assert spec_hash(spec) == before
    for frozen in (cfg.start, station.position, default_config().start):
        with pytest.raises(TypeError):
            frozen[2] = -1000.0


def test_equal_scenes_compare_and_hash_equal():
    # Built from arrays, lists or tuples, the same scene is one value.
    a = DatasetSpec(default_config(), ChannelParams(), "wd", 3)
    stations = [BaseStation(bs.id, np.array(bs.position)) for bs in default_config().base_stations]
    b = DatasetSpec(_config(base_stations=stations, start=[150, 150, 150]), ChannelParams(), "wd", 3)
    assert a == b and hash(a) == hash(b)
    assert a.scenario == b.scenario and hash(a.scenario) == hash(b.scenario)
    assert {a: "wd/3"}[b] == "wd/3"
    moved = _config(start=(150.0, 150.0, 150.5))
    assert moved != a.scenario and _config(base_stations=stations[:2]) != a.scenario
    assert len({a, b, DatasetSpec(moved, ChannelParams(), "wd", 3)}) == 2


DROP = math.sin(math.radians(ELEVATION_SPREAD_DEG))  # lower ring, per meter of radius


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(min_value=1e-3, max_value=1e4),
    radius=st.floats(min_value=1e-3, max_value=1e4),
    n_destinations=st.integers(min_value=1, max_value=16).map(lambda k: 2 * k),
)
@example(z=100.0 * DROP, radius=100.0, n_destinations=16)  # a destination on the ground
def test_every_valid_config_flies_above_ground(z, radius, n_destinations):
    # The invariant that makes the NLoS path loss's log10(height) finite:
    # a config is refused exactly when its lower ring would touch the ground.
    start = [150.0, 150.0, z]
    if z - radius * DROP <= 0:
        with pytest.raises(ValueError, match="altitude"):
            _config(start=start, mission_radius=radius, n_destinations=n_destinations)
        return
    cfg = _config(start=start, mission_radius=radius, n_destinations=n_destinations)
    assert flight_positions(cfg, destination_grid(cfg))[..., 2].min() > 0
