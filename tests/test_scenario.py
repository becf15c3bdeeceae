import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import position_at
from spoofbench.scenario import (
    BaseStation,
    ScenarioConfig,
    SpoofingScenario,
    Trajectory,
    Waypoint,
    build_scenarios,
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
    assert cfg.carrier_frequency == 2.0
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


def test_build_scenarios_counts_and_balance():
    scenarios = build_scenarios(default_config())
    labels = [s.label for s in scenarios]
    # one flight per destination first: 1 legitimate then 15 spoofed
    assert labels[0] is False
    assert all(labels[1:16])
    assert abs(sum(labels) - (len(labels) - sum(labels))) <= 1
    seeds = [s.noise_seed for s in scenarios]
    assert len(set(seeds)) == len(seeds)


def test_build_scenarios_reported_is_planned_destination():
    cfg = default_config()
    dests = destination_grid(cfg)
    for s in build_scenarios(cfg):
        assert np.array_equal(s.reported_trajectory.waypoints[-1].position, dests[0])
        assert s.label == (
            not np.array_equal(s.true_trajectory.waypoints[-1].position, dests[0])
        )


def test_build_scenarios_is_deterministic():
    a = build_scenarios(default_config(rng_seed=9))
    b = build_scenarios(default_config(rng_seed=9))
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.noise_seed == sb.noise_seed and sa.label == sb.label
        assert np.array_equal(
            sa.true_trajectory.waypoints[-1].position,
            sb.true_trajectory.waypoints[-1].position,
        )


def test_spoofed_scenarios_coincide_only_before_onset():
    cfg = default_config()
    for s in build_scenarios(cfg):
        ts = np.arange(cfg.window_size) * cfg.sample_period
        p_true = positions_at(s.true_trajectory, ts)
        p_rep = positions_at(s.reported_trajectory, ts)
        diverged = np.any(p_true != p_rep, axis=1)
        if s.label:
            assert not np.any(diverged & (ts < s.spoof_onset))
            assert np.any(diverged & (ts >= s.spoof_onset))
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


def test_config_validation():
    with pytest.raises(ValueError):
        BaseStation(1, [0.0, 0.0, 0.0])
    cfg = default_config()
    with pytest.raises(ValueError):
        ScenarioConfig(
            base_stations=(cfg.base_stations[0], cfg.base_stations[0]),
            start=cfg.start,
            mission_radius=100.0,
            n_destinations=16,
            carrier_frequency=2.0,
            window_size=100,
            rng_seed=1,
        )
    with pytest.raises(ValueError):
        ScenarioConfig(
            base_stations=cfg.base_stations,
            start=cfg.start,
            mission_radius=100.0,
            n_destinations=1,
            carrier_frequency=2.0,
            window_size=100,
            rng_seed=1,
        )
