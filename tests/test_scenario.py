import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import position_at
from spoofbench.channel import ChannelParams
from spoofbench.dataset import archive_plan
from spoofbench.scenario import (
    BaseStation,
    ScenarioConfig,
    SpoofingScenario,
    Trajectory,
    Waypoint,
    default_config,
    destination_grid,
    destination_layout,
    flight_to,
    positions_at,
)


def test_default_config_reference_values():
    cfg = default_config()
    assert [bs.id for bs in cfg.base_stations] == [1, 2, 3]
    assert cfg.base_stations[0].position.tolist() == [0.0, 0.0, 35.0]
    assert cfg.base_stations[1].position.tolist() == [150.0, 150.0, 35.0]
    assert cfg.base_stations[2].position.tolist() == [300.0, 150.0, 35.0]
    assert cfg.start.tolist() == [150.0, 150.0, 150.0]
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


def test_destination_layout_single_point_at_zero_angles():
    (point,) = destination_layout(np.array([150.0, 150.0, 150.0]), 100.0, 1)
    assert point == pytest.approx([250.0, 150.0, 150.0])


def test_destination_layout_rejects_underground_and_odd_counts():
    with pytest.raises(ValueError, match="altitude"):
        destination_layout(np.array([0.0, 0.0, 10.0]), 100.0, 16)
    with pytest.raises(ValueError):
        destination_layout(np.array([0.0, 0.0, 500.0]), 100.0, 7)


def test_position_at_waypoints_and_segments():
    traj = Trajectory(
        waypoints=(Waypoint([0.0, 0.0, 0.0], 0.0), Waypoint([2.0, 0.0, 0.0], 4.0)),
        sample_period=1.0,
    )
    assert position_at(traj, 0.0).tolist() == [0.0, 0.0, 0.0]
    assert position_at(traj, 4.0).tolist() == [2.0, 0.0, 0.0]
    assert position_at(traj, 2.0).tolist() == [1.0, 0.0, 0.0]


def test_position_at_quarter_point():
    traj = Trajectory(
        waypoints=(
            Waypoint([150.0, 150.0, 150.0], 0.0),
            Waypoint([250.0, 150.0, 150.0], 100.0),
        ),
        sample_period=1.0,
    )
    assert position_at(traj, 25.0) == pytest.approx([175.0, 150.0, 150.0])


def test_position_at_out_of_range():
    traj = Trajectory(
        waypoints=(Waypoint([0.0, 0.0, 1.0], 0.0), Waypoint([1.0, 0.0, 1.0], 1.0)),
        sample_period=0.5,
    )
    with pytest.raises(ValueError):
        position_at(traj, -0.1)
    with pytest.raises(ValueError):
        position_at(traj, 1.1)


@settings(max_examples=100)
@given(
    t=st.floats(min_value=0.0, max_value=99.0),
    eps=st.floats(min_value=1e-6, max_value=1.0),
)
def test_position_at_is_speed_continuous(t, eps):
    cfg = default_config()
    traj = flight_to(cfg, destination_grid(cfg)[3])
    speed = cfg.mission_radius / cfg.flight_duration
    step = np.linalg.norm(position_at(traj, t + eps) - position_at(traj, t))
    assert step <= speed * eps * (1 + 1e-9) + 1e-12


def test_archive_plan_counts_and_balance():
    plans = archive_plan(16)
    labels = [p.label for p in plans]
    # one flight per destination first: 1 legitimate then 15 spoofed
    assert labels[0] is False
    assert all(labels[1:16])
    assert abs(sum(labels) - (len(labels) - sum(labels))) <= 1
    seeds = [p.noise_seed for p in plans]
    assert len(set(seeds)) == len(seeds)


def test_archive_plan_spoofs_exactly_the_unplanned_destinations():
    plans = archive_plan(16)
    assert [p.dest_index for p in plans[:16]] == list(range(16))
    for p in plans:
        assert p.label == (p.dest_index != 0)


def test_archive_plan_keeps_the_archive_seed_scheme():
    # Destination i flies with seed i, then n - 2 replays take n ... 2n - 3:
    # the seeds every `simulate` archive was written with.
    for n in (2, 4, 16):
        plans = archive_plan(n)
        assert [p.index for p in plans] == list(range(2 * n - 2))
        assert [p.noise_seed for p in plans] == list(range(2 * n - 2))
        assert [p.dest_index for p in plans] == list(range(n)) + [0] * (n - 2)


def test_archive_scenarios_diverge_exactly_when_spoofed():
    cfg = default_config()
    dests = destination_grid(cfg)
    reported = flight_to(cfg, dests[0])
    ts = np.arange(cfg.window_size) * cfg.sample_period
    p_rep = positions_at(reported, ts)
    for plan in archive_plan(cfg.n_destinations):
        s = SpoofingScenario(flight_to(cfg, dests[plan.dest_index]), reported, plan.label)
        diverged = np.any(positions_at(s.true_trajectory, ts) != p_rep, axis=1)
        if s.label:
            assert not diverged[0]  # both paths leave the start together
            assert np.all(diverged[1:])
        else:
            assert not np.any(diverged)


def test_scenario_label_consistency_enforced():
    cfg = default_config()
    dests = destination_grid(cfg)
    same = flight_to(cfg, dests[0])
    other = flight_to(cfg, dests[1])
    with pytest.raises(ValueError):
        SpoofingScenario(same, other, label=False)
    with pytest.raises(ValueError):
        SpoofingScenario(same, same, label=True)
    # Trajectories compare by value, not identity.
    SpoofingScenario(same, flight_to(cfg, dests[0]), label=False)
    with pytest.raises(ValueError, match="divergent"):
        SpoofingScenario(same, flight_to(cfg, dests[0]), label=True)
    # Unequal trajectories that agree at every sample instant are no spoof.
    coarse = Trajectory(same.waypoints, sample_period=2.0)
    with pytest.raises(ValueError, match="never diverge"):
        SpoofingScenario(same, coarse, label=True)


def test_trajectory_validation():
    w0 = Waypoint([0.0, 0.0, 1.0], 0.0)
    w1 = Waypoint([1.0, 0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        Trajectory(waypoints=(w0,), sample_period=1.0)
    with pytest.raises(ValueError):
        Trajectory(waypoints=(w1, w0), sample_period=1.0)
    with pytest.raises(ValueError):
        Trajectory(waypoints=(w0, w1), sample_period=0.0)
    with pytest.raises(ValueError):
        Waypoint([0.0, 0.0, -1.0], 0.0)
    with pytest.raises(ValueError):
        Waypoint([0.0, 0.0, 1.0], -2.0)


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
        ({"sample_period": math.nan}, "sample_period must be finite"),
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
