import math

import numpy as np
import pytest

from conftest import split_deltas
from oracles import count_rule_verdicts, path_loss, position_at
from spoofbench.baseline import ThresholdDetector, decide, fit
from spoofbench.dataset import destination_grid, row_plan
from spoofbench.features import extract
from spoofbench.scenario import ChannelParams, default_config
from spoofbench.spec import AGGREGATIONS, DatasetSpec

QUIET = ChannelParams(
    carrier_frequency=2.0,
    los_shadow_formula=False,
    nlos_shadow_sigma=0.0,
    meas_noise_sigma=0.0,
    rng_seed=1,
)


def row(*station_values):
    """The (1, stations) window means of a one-row delta array, one sample
    list per station."""
    return extract(np.array([station_values], dtype=float), "wd")


def test_all_zero_deltas_are_legitimate():
    detector = ThresholdDetector(1.0)
    assert decide(detector, row([0.0, 0.0, 0.0])).tolist() == [False]


def test_large_constant_delta_is_spoofed():
    detector = ThresholdDetector(1.0)
    assert decide(detector, row([5.0, 5.0])).tolist() == [True]


def test_decide_requires_input():
    with pytest.raises(ValueError):
        decide(ThresholdDetector(1.0), np.zeros((1, 0)))
    with pytest.raises(ValueError):
        decide(ThresholdDetector(1.0), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="window means"):  # deltas, not their means
        decide(ThresholdDetector(1.0), np.zeros((1, 1, 10)))


def test_majority_vote_needs_strict_majority():
    detector = ThresholdDetector(1.0, "majority-vote")
    two_of_three = row([9.0], [9.0], [0.0])
    one_of_three = row([9.0], [0.0], [0.0])
    one_of_two = row([9.0], [0.0])
    assert decide(detector, two_of_three).tolist() == [True]
    assert decide(detector, one_of_three).tolist() == [False]
    assert decide(detector, one_of_two).tolist() == [False]  # exactly half is not a majority
    batch = np.concatenate([two_of_three, one_of_three])
    assert decide(detector, batch).tolist() == [True, False]


def test_decide_is_monotone_in_threshold():
    rng = np.random.default_rng(3)
    means = extract(rng.uniform(0, 4, size=(20, 1, 10)), "wd")
    previous = np.ones(20, dtype=bool)
    for t in np.linspace(0.0, 5.0, 21):
        verdicts = decide(ThresholdDetector(float(t)), means)
        assert np.all(previous | ~verdicts)  # spoofed never reappears as T grows
        previous = verdicts


def test_detector_validation():
    for bad, shown in ((-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ValueError, match=f"threshold_db must be finite and >= 0, got {shown}$"):
            ThresholdDetector(bad)
    with pytest.raises(ValueError):
        ThresholdDetector(1.0, "average")


def test_zero_noise_spoofed_flight_exceeds_1db():
    """Oracle: recompute the window-mean delta by walking both flights
    through the loss model directly, then check decide() agrees."""
    cfg = default_config()
    bs = cfg.base_stations[0]
    spec = DatasetSpec(cfg, QUIET, "wd", n_bs=1, train_size=16, test_size=2)
    deltas = split_deltas(spec, "train")
    k = int(np.flatnonzero(row_plan(spec, "train")[0] == 8)[0])  # opposite azimuth
    true, reported = destination_grid(cfg)[8], destination_grid(cfg)[0]

    oracle = []
    for j in range(cfg.window_size):
        pl_true = path_loss(position_at(cfg, true, j), bs, QUIET)
        pl_rep = path_loss(position_at(cfg, reported, j), bs, QUIET)
        oracle.append(abs(pl_true - pl_rep))
    assert np.allclose(deltas[k, 0], oracle, rtol=1e-12)
    assert float(np.mean(oracle)) > 1.0
    assert decide(ThresholdDetector(1.0), extract(deltas[k : k + 1], "wd")).tolist() == [True]


def _noisy_rows(n=40):
    """(n, 1) window means of noisy 12-sample deltas, and their labels."""
    rng = np.random.default_rng(11)
    labels = np.arange(n) % 2 == 0
    base = np.where(labels, 1.5, 0.0)[:, None, None]
    return extract(np.abs(base + rng.normal(0, 0.7, size=(n, 1, 12))), "wd"), labels


def test_decide_at_zero_flags_every_positive_row():
    means, _ = _noisy_rows()
    assert np.all(means > 0)
    assert decide(ThresholdDetector(0.0), means).all()


def test_fit_on_noisy_rows_scores_above_0_8():
    means, labels = _noisy_rows(200)
    assert np.mean(decide(fit(means, labels), means) == labels) > 0.8


def test_fit_on_a_zero_noise_split_separates_perfectly():
    spec = DatasetSpec(default_config(), QUIET, "wd", n_bs=3, train_size=30, test_size=2)
    deltas = split_deltas(spec, "train")
    means, labels = extract(deltas, "wd"), row_plan(spec, "train")[0] != 0
    assert np.all(decide(fit(means, labels), means) == labels)


def test_fit_validates_input():
    with pytest.raises(ValueError, match="window means"):
        fit(np.zeros((0, 1)), [])
    with pytest.raises(ValueError, match="3 labels for 4 rows"):
        fit(_noisy_rows(4)[0], [True, False, True])
    with pytest.raises(ValueError):
        fit(_noisy_rows(4)[0], [True] * 4, "average")


def _random_means(rng, rows, stations):
    """(rows, stations) window means, half of them from a few values (0
    among them) so that rows tie and means fall exactly on a cut."""
    drawn = rng.uniform(0, 3, size=(rows, stations))
    few = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=(rows, stations))
    return np.where(rng.random((rows, stations)) < 0.5, few, drawn)


@pytest.mark.parametrize("aggregation", AGGREGATIONS)
def test_fit_is_the_best_cut_of_a_sweep_over_every_candidate(aggregation):
    """Brute force: every row's station mean, every window mean and 0 hold
    every score, so the most accurate of them, the smallest on a tie, is
    the best T."""
    rng = np.random.default_rng(26)
    for _ in range(300):
        rows, stations = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        means = _random_means(rng, rows, stations)
        labels = rng.random(rows) < 0.5
        cuts = np.concatenate(([0.0], means.ravel(), np.mean(means, axis=-1)))

        def accuracy(t):
            return np.mean(decide(ThresholdDetector(t, aggregation), means) == labels)

        best = max(cuts.tolist(), key=lambda t: (accuracy(t), -t))
        assert fit(means, labels, aggregation) == ThresholdDetector(best, aggregation)


def test_fit_takes_the_smallest_of_tied_cuts():
    means = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert fit(means, [False, True, False, True]).threshold_db == 0.0  # 0 and 2 both score 3/4
    assert fit(means, [False, False, True, True]).threshold_db == 1.0
    assert fit(means, [True, True, False, False]).threshold_db == 3.0  # best to flag no row
    assert repr(fit(-0.0 * means, [True, False, True, False]).threshold_db) == "0.0"  # never -0.0


@pytest.mark.parametrize("aggregation", AGGREGATIONS)
def test_decide_gives_the_count_rule_verdicts(aggregation):
    rng = np.random.default_rng(7)
    for stations in range(1, 6):
        means = _random_means(rng, 200, stations)
        for t in (0.0, 0.5, 1.45, 2.0, float(means[0, 0])):  # some means exactly at T
            verdicts = decide(ThresholdDetector(t, aggregation), means)
            assert verdicts.tolist() == count_rule_verdicts(means, t, aggregation).tolist()
