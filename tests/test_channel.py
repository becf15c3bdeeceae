import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distance_3d, measured_window, path_loss, position_at, window_rng
from spoofbench.channel import (
    ChannelParams,
    Link,
    check_finite,
    los_probability,
    measured_windows,
    window_states,
)
from spoofbench.dataset import DatasetSpec, generate, plan_rows, row_plan
from spoofbench.scenario import BaseStation, default_config, destination_grid, flight_positions

PARAMS = ChannelParams(carrier_frequency=2.0, rng_seed=1)
QUIET = ChannelParams(
    carrier_frequency=2.0,
    los_shadow_formula=False,
    nlos_shadow_sigma=0.0,
    meas_noise_sigma=0.0,
    rng_seed=1,
)
BS1 = BaseStation(1, [0.0, 0.0, 35.0])
BS2 = BaseStation(2, [150.0, 150.0, 35.0])


def test_distance_3d():
    assert distance_3d([0, 0, 0], [0, 0, 0]) == 0.0
    assert distance_3d([150, 150, 150], [150, 150, 35]) == pytest.approx(115.0)
    assert distance_3d([150, 150, 150], [0, 0, 35]) == pytest.approx(241.29857024027308)


def test_los_probability_above_100m_is_one():
    assert los_probability(150.0, 0.0) == 1.0
    assert los_probability(150.0, 5000.0) == 1.0
    assert los_probability(100.1, 123.0) == 1.0


def test_los_probability_mid_heights():
    p = los_probability(50.0, 10.0)
    assert 0.0 <= p <= 1.0
    # close range, 50 m up: inside the always-LoS radius of the height rule
    assert p == 1.0
    # far away at low altitude the link should usually be obstructed
    assert los_probability(30.0, 5000.0) < 0.5


def test_los_probability_takes_lists_as_it_takes_arrays():
    # Heights on both sides of 100 m and of the 22.5 m clamp; NaN stays NaN.
    heights, d2d = [50.0, 150.0, 10.0, 100.0, math.nan], [10.0, 500.0, 3000.0, 4000.0, 10.0]
    from_lists = los_probability(heights, d2d)
    from_arrays = los_probability(np.array(heights), np.array(d2d))
    assert from_lists.tobytes() == from_arrays.tobytes()
    assert from_lists[1] == 1.0 and 0.0 < from_lists[3] < 1.0 and math.isnan(from_lists[4])
    assert los_probability([50.0, 150.0], [10.0, 500.0]).tolist() == [1.0, 1.0]


@settings(max_examples=200)
@given(
    h=st.floats(min_value=0.1, max_value=300.0),
    d=st.floats(min_value=0.0, max_value=10_000.0),
)
def test_los_probability_is_a_probability(h, d):
    assert 0.0 <= los_probability(h, d) <= 1.0


def test_theoretical_path_loss_frozen_values():
    # start position against the station right underneath (d3d = 115 m)
    assert path_loss([150, 150, 150], BS2, PARAMS) == pytest.approx(79.35595240105908, rel=1e-12)
    # start position against the corner station (d3d = sqrt(58225) m)
    assert path_loss([150, 150, 150], BS1, PARAMS) == pytest.approx(86.43680438255353, rel=1e-12)


def test_doubling_frequency_adds_6db():
    four = ChannelParams(carrier_frequency=4.0)
    gain = path_loss([150, 150, 150], BS1, four) - path_loss([150, 150, 150], BS1, PARAMS)
    assert gain == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)


def test_nlos_branch_value():
    # 30 m up, 5 km out: obstructed. Hand evaluation of the NLoS expression.
    uav = [5000.0, 0.0, 30.0]
    d3d = math.dist(uav, [0.0, 0.0, 35.0])
    expected = (
        -17.5
        + (46.0 - 7.0 * math.log10(30.0)) * math.log10(d3d)
        + 20.0 * math.log10(40.0 * math.pi * 2.0 / 3.0)
    )
    assert path_loss(uav, BS1, PARAMS) == pytest.approx(expected, rel=1e-12)


def test_zero_distance_rejected():
    with pytest.raises(ValueError):
        path_loss([0.0, 0.0, 35.0], BS1, PARAMS)


@settings(max_examples=100)
@given(
    d_near=st.floats(min_value=10.0, max_value=4000.0),
    factor=st.floats(min_value=1.001, max_value=10.0),
)
def test_path_loss_increases_with_distance_in_los(d_near, factor):
    # fly level at 150 m (always LoS) and move horizontally outward
    h = 150.0
    bs = BaseStation(1, [0.0, 0.0, 35.0])
    horiz = lambda d3d: math.sqrt(d3d**2 - (h - 35.0) ** 2)
    d_far = d_near * factor
    near = path_loss([horiz(d_near + 200), 0, h], bs, PARAMS)
    far = path_loss([horiz(d_far + 200), 0, h], bs, PARAMS)
    assert far > near


@settings(max_examples=100)
@given(
    shift=st.tuples(
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-20.0, max_value=100.0),
    )
)
def test_path_loss_translation_invariant(shift):
    uav = np.array([150.0, 150.0, 150.0])
    c = np.array(shift)
    moved_bs = BaseStation(1, BS1.position + c)
    assert path_loss(uav + c, moved_bs, PARAMS) == pytest.approx(path_loss(uav, BS1, PARAMS), rel=1e-9)


def test_los_shadow_sigma_at_150m():
    sigma = Link.along([[[150.0, 150.0, 150.0]]], [BS1], PARAMS).los_sigma[0, 0, 0]
    assert sigma == pytest.approx(1.724115846342292, rel=1e-12)


def one_window(link, params, noise_seed, bs_id):
    """The library's measured path loss of the window of a Link of one path
    and one station."""
    return measured_windows(link, [0], params, [noise_seed], [bs_id])[0, 0]


def test_measured_equals_theoretical_without_noise():
    uav = [150.0, 150.0, 150.0]
    measured = one_window(Link.along([[uav]], [BS1], QUIET), QUIET, 0, BS1.id)
    assert measured[0] == path_loss(uav, BS1, QUIET)


def test_measured_noise_is_zero_mean():
    uav = [150.0, 150.0, 150.0]
    n = 100_000
    pl = path_loss(uav, BS1, PARAMS)
    link = Link.along(np.tile(uav, (1, n, 1)), [BS1], PARAMS)
    draws = measured_window(link, PARAMS, np.random.default_rng(1234)) - pl
    sigma = math.hypot(link.los_sigma[0, 0, 0], PARAMS.meas_noise_sigma)
    assert abs(draws.mean()) <= 3.0 * sigma / math.sqrt(n)
    assert draws.std() == pytest.approx(sigma, rel=0.02)


CONFIG = default_config()
DESTINATIONS = destination_grid(CONFIG)
POSITIONS = flight_positions(CONFIG, DESTINATIONS)


def _flights():
    """The `simulate` archive's flights, the first 2n - 2 rows of the seed-1
    train split, as (destination index, noise seed) pairs: even rows spoofed,
    odd rows legitimate."""
    dests, first_seed = plan_rows(CONFIG.n_destinations, PARAMS.rng_seed, "train", 2 * CONFIG.n_destinations - 2)
    return [(dest, first_seed + k) for k, dest in enumerate(dests.tolist())]


def sample_window(flight, bs, params, positions=POSITIONS):
    """(measured, theoretical) path loss of one station's window of a
    (destination index, noise seed) pair."""
    dest_index, noise_seed = flight
    measured = one_window(Link.along(positions[[dest_index]], [bs], params), params, noise_seed, bs.id)
    return measured, Link.along(positions[:1], [bs], params).theoretical()[0]


def test_sample_window_length_and_alignment():
    flight = _flights()[4]  # row 4 flies to destination 3
    measured, theoretical = sample_window(flight, BS1, QUIET)
    assert measured.shape == theoretical.shape == (100,)
    for k in (0, 1, 50, 99):
        assert measured[k] == path_loss(position_at(CONFIG, DESTINATIONS[3], k), BS1, QUIET)
        assert theoretical[k] == path_loss(position_at(CONFIG, DESTINATIONS[0], k), BS1, QUIET)


def test_sample_window_legitimate_zero_noise_is_exact():
    measured, theoretical = sample_window(_flights()[1], BS1, QUIET)
    assert np.array_equal(measured, theoretical)


def test_sample_window_spoofed_zero_noise_diverges():
    measured, theoretical = sample_window(_flights()[0], BS1, QUIET)
    assert np.any(measured != theoretical)


def test_sample_window_seeded_determinism():
    spoofed = _flights()[2]
    a, _ = sample_window(spoofed, BS1, PARAMS)
    b, _ = sample_window(spoofed, BS1, PARAMS)
    assert np.array_equal(a, b)
    c, _ = sample_window(spoofed, BS1, ChannelParams(carrier_frequency=2.0, rng_seed=2))
    assert np.any(a != c)


def test_sample_window_streams_differ_across_stations_and_flights():
    s = _flights()
    m1, t1 = sample_window(s[1], BS1, PARAMS)
    m2, t2 = sample_window(s[1], BS2, PARAMS)
    assert np.any(m1 - t1 != m2 - t2)
    m3, _ = sample_window(s[3], BS1, PARAMS)  # legitimate replica, fresh seed
    assert np.any(m1 != m3)


def test_sampled_los_mode_is_deterministic():
    low = np.column_stack([np.arange(2000.0, 2100.0), np.zeros(100), np.full(100, 60.0)])
    params = ChannelParams(carrier_frequency=2.0, rng_seed=3, sampled_los=True)
    a, _ = sample_window((0, 0), BS1, params, positions=low[None])
    b, _ = sample_window((0, 0), BS1, params, positions=low[None])
    assert np.array_equal(a, b)


def test_path_loss_sample_requires_finite_values():
    for bad in (math.inf, -math.inf, math.nan):
        for field in ("carrier_frequency", "nlos_shadow_sigma", "meas_noise_sigma"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ChannelParams(**{field: bad})
    with pytest.raises(ValueError, match="carrier_frequency"):
        ChannelParams(carrier_frequency=0.0)
    with pytest.raises(ValueError, match="meas_noise_sigma"):
        ChannelParams(meas_noise_sigma=-0.1)
    with pytest.raises(ValueError, match="rng_seed"):
        ChannelParams(rng_seed=-1)


def test_check_finite_rejects_any_non_finite_value():
    values = np.array([[80.0, 81.5], [79.0, 82.0]])
    assert check_finite(values) is values
    for bad in (math.inf, -math.inf, math.nan):
        broken = values.copy()
        broken[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            check_finite(broken)
    # A finite sigma can still draw an overflowing value; the simulation checks.
    spec = DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0, meas_noise_sigma=1e308),
        method="wd", n_bs=1, train_size=2, test_size=2,
    )
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        generate(spec)


def test_window_rng_is_stable_derivation():
    a = window_rng(PARAMS, 7, 1).normal(size=3)
    b = window_rng(PARAMS, 7, 1).normal(size=3)
    c = window_rng(PARAMS, 8, 1).normal(size=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _default_rng_state(params, noise_seed, bs_id):
    state = window_rng(params, noise_seed, bs_id).bit_generator.state["state"]
    return state["state"], state["inc"]


def _first_seed(rng_seed, split):
    spec = DatasetSpec(CONFIG, replace(PARAMS, rng_seed=rng_seed), "wd", n_bs=3)
    return row_plan(spec, split)[1]


# A low pass 2 km from station 1 at 60 m: LoS with probability about 0.6,
# so sampled_los draws both branches.
LOW_PASS = np.column_stack([np.arange(2000.0, 2100.0), np.zeros(100), np.full(100, 60.0)])


@pytest.mark.parametrize(
    "channel_seed, noise_seeds",
    [
        (1, range(40)),  # seeds from 0: one word each
        (0, range(40)),  # channel seed 0 is the word 0
        (1, range(_first_seed(1, "train"), _first_seed(1, "train") + 40)),  # two words
        (1, range(_first_seed(1, "test"), _first_seed(1, "test") + 40)),
        (1, range(2**32 - 20, 2**32 + 20)),  # one and two words in one batch
        (2**31, range(_first_seed(2**31, "test"), _first_seed(2**31, "test") + 40)),  # 5 words
        (2**40, range(_first_seed(2**40, "train"), _first_seed(2**40, "train") + 40)),  # 6 words
    ],
)
@pytest.mark.parametrize("sampled_los", [False, True])
def test_batched_windows_are_default_rng_bit_for_bit(channel_seed, noise_seeds, sampled_los):
    """Batched seeding gives every window default_rng's PCG64 (state, inc),
    and the windows drawn from them are the one-generator-per-window
    reference's, the LoS draw (sampled_los) coming first."""
    params = ChannelParams(rng_seed=channel_seed, sampled_los=sampled_los)
    bs_ids = (1, 2, 3)
    expected = [_default_rng_state(params, seed, bs_id) for seed in noise_seeds for bs_id in bs_ids]
    assert window_states(channel_seed, noise_seeds, bs_ids) == expected
    stations = [CONFIG.base_station_by_id(bs_id) for bs_id in bs_ids]
    links = [Link.along(LOW_PASS[None], [bs], params) for bs in stations]
    dests = np.zeros(len(noise_seeds), dtype=int)
    measured = measured_windows(Link.along(LOW_PASS[None], stations, params), dests, params, noise_seeds, bs_ids)
    assert measured.shape == (len(noise_seeds), len(bs_ids), 100)
    for row, seed in zip(measured, noise_seeds):
        for window, link, bs_id in zip(row, links, bs_ids):
            reference = measured_window(link, params, window_rng(params, seed, bs_id))
            assert window.tolist() == reference.tolist()
    if sampled_los:  # the windows draw both branches
        los = window_rng(params, noise_seeds[0], 1).random(100) < links[0].los_prob[0, 0]
        assert 0 < np.sum(los) < 100
