"""Acceptance suite: every headline property of the workbench, one test per
criterion, each printing a PASS/FAIL line (run with -s or -rA to see them).

Everything is pinned: seed 1, the default scene (three stations, sixteen
destinations, 2 GHz, 100-sample windows), the full 2259/969 dataset sizes
and the shipped reference hyperparameters per (method, station count).
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import split_deltas
from oracles import (
    backprop_gradients,
    cdf_area_distance,
    finite_difference_gradients,
    max_relative_gradient_error,
    min_hidden_preactivation,
    naive_mvsk,
)
from spoofbench.baseline import accuracy, decide, fit
from spoofbench.cli import main as cli
from spoofbench.dataset import generate, row_plan
from spoofbench.features import extract
from spoofbench.forks import fork_map, workers
from spoofbench.mlp import (
    VALIDATION_FRACTION,
    MlpArchitecture,
    TrainConfig,
    _deal,
    forward_batch,
    init_model,
    train,
)
from spoofbench.presets import BEST_SETTINGS
from spoofbench.scenario import ChannelParams, default_config
from spoofbench.spec import FEATURES_PER_BS, METHODS, DatasetSpec

SEED = 1
BS_COUNTS = (3, 2, 1)


def check(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_spec(method: str, n_bs: int, **overrides) -> DatasetSpec:
    return DatasetSpec(
        scenario=default_config(), channel=ChannelParams(rng_seed=SEED), method=method, n_bs=n_bs,
        **overrides,
    )


@dataclass
class BenchRun:
    spec: DatasetSpec
    train_rows: int
    test_rows: int
    width: int
    model: object
    test_accuracy: float
    seconds: float


@pytest.fixture(scope="module")
def bench():
    """Nine full-size datasets and reference-setting training runs, in
    (stations, method) order. Each dataset is made here, on every usable
    CPU; the trainings are dealt as `tune` deals architectures, to at most
    one process per usable CPU, and come back through each group's pipe.
    Training is deterministic, so the deal changes no model."""
    cells = [(method, n_bs) for n_bs in BS_COUNTS for method in METHODS]
    made = []  # (spec, train split, test split, seconds to generate) per cell
    for cell in cells:
        t0 = time.perf_counter()
        spec = make_spec(*cell)
        made.append((spec, *generate(spec), time.perf_counter() - t0))
    archs = [MlpArchitecture(made[i][1].width, *BEST_SETTINGS[cell][1:]) for i, cell in enumerate(cells)]

    def run(group):
        runs = []
        for i in group:
            spec, train_ds, test_ds, seconds = made[i]
            t0 = time.perf_counter()
            config = TrainConfig(learning_rate=BEST_SETTINGS[cells[i]][0], rng_seed=SEED)
            model = train(archs[i], train_ds.features, train_ds.labels, config)
            runs.append((i, BenchRun(
                spec=spec,
                train_rows=len(train_ds.labels),
                test_rows=len(test_ds.labels),
                width=train_ds.width,
                model=model,
                test_accuracy=accuracy(forward_batch(model, test_ds.features), test_ds.labels),
                seconds=seconds + time.perf_counter() - t0,
            )))
        return runs

    found = dict(pair for runs in fork_map(run, _deal(archs, workers())) for pair in runs)
    return {cell: found[i] for i, cell in enumerate(cells)}


def test_criterion_01_headline_accuracy_three_stations(bench):
    """WD detector, 3 stations, reference settings: >= 0.90 hard gate
    (0.93 target) on the 969-row test set, end to end within 5 minutes."""
    run = bench[("wd", 3)]
    lr, layers, neurons = BEST_SETTINGS[("wd", 3)]
    ok = (
        run.test_accuracy >= 0.90
        and run.train_rows == 2259
        and run.test_rows == 969
        and run.seconds <= 300.0
        and (lr, layers, neurons) == (0.0005, 3, 16)
    )
    check(
        1, ok,
        f"wd/3bs test accuracy {run.test_accuracy:.4f} (gate 0.90, target 0.93 "
        f"{'met' if run.test_accuracy >= 0.93 else 'missed'}) on {run.test_rows} rows "
        f"in {run.seconds:.1f}s",
    )


def test_criterion_02_single_station_accuracy(bench):
    """Best single-station model, selected on validation: >= 0.75 (0.80 target)."""
    candidates = [bench[(m, 1)] for m in METHODS]
    best = min(
        candidates,
        key=lambda r: (
            r.model.val_mse,
            -r.model.val_accuracy,
            r.model.architecture.parameter_count(),
        ),
    )
    ok = best.test_accuracy >= 0.75
    check(
        2, ok,
        f"best 1bs model ({best.spec.method}) test accuracy {best.test_accuracy:.4f} "
        f"(gate 0.75, target 0.80 {'met' if best.test_accuracy >= 0.80 else 'missed'})",
    )


def test_criterion_03_accuracy_monotone_in_station_count(bench):
    """Per method: acc(3) >= acc(2) >= acc(1), each step within 0.02."""
    details, ok = [], True
    for method in METHODS:
        a3, a2, a1 = (bench[(method, k)].test_accuracy for k in BS_COUNTS)
        step_ok = a3 >= a2 - 0.02 and a2 >= a1 - 0.02
        ok &= step_ok
        details.append(f"{method} {a3:.4f}/{a2:.4f}/{a1:.4f}{'' if step_ok else ' VIOLATED'}")
    check(3, ok, "3bs/2bs/1bs accuracy " + "; ".join(details))


def test_criterion_04_wd_dominates_other_methods(bench):
    """WD >= MVSK and WD >= BOX in every scenario, within 0.02."""
    details, ok = [], True
    for n_bs in BS_COUNTS:
        wd = bench[("wd", n_bs)].test_accuracy
        others = {m: bench[(m, n_bs)].test_accuracy for m in ("mvsk", "box")}
        scenario_ok = all(wd >= a - 0.02 for a in others.values())
        ok &= scenario_ok
        details.append(
            f"{n_bs}bs wd {wd:.4f} vs mvsk {others['mvsk']:.4f} box {others['box']:.4f}"
            + ("" if scenario_ok else " VIOLATED")
        )
    check(4, ok, "; ".join(details))


def mse_accuracy_trend(mses, accs, n_val: int) -> tuple[bool, str]:
    """Criterion 05 on one run's validation history: (ok, detail).

    Passes when the final MSE is below the first epoch's and the best
    accuracy reached inside the lowest decile of the run's MSE values trails
    the run's best accuracy a_max by at most one binomial standard error,
    sqrt(a_max (1 - a_max) / n_val): the one-standard-error rule of Breiman
    et al. (1984), CART. The detail reports the gap and the allowance in
    validation rows.
    """
    mses = np.asarray(mses, dtype=float)
    accs = np.asarray(accs, dtype=float)
    downward = mses[-1] < mses[0]
    best = float(accs.max())
    in_decile = float(accs[mses <= np.quantile(mses, 0.10)].max())
    allowed = float(np.sqrt(best * (1.0 - best) / n_val))
    ok = downward and best - in_decile <= allowed
    corr = float(np.corrcoef(accs, mses)[0, 1])
    detail = (
        f"n_val {n_val}, gap {(best - in_decile) * n_val:.1f}/{allowed * n_val:.1f} rows, "
        f"corr {corr:+.2f}"
        + ("" if downward else f", final mse {mses[-1]:.5f} >= first {mses[0]:.5f}")
    )
    return ok, detail


def test_criterion_05_mse_accuracy_inverse_trend(bench):
    """Trend check on every training run: final validation MSE below the
    first epoch's, and the lowest decile of the run's validation MSE values
    reaches the run's best validation accuracy to within one binomial
    standard error, sqrt(a_max (1 - a_max) / n_val) (see mse_accuracy_trend).

    The clause is judged at the validation set's resolution because a
    single-epoch argmax cannot carry it: with n_val = 452 rows one standard
    error is 2.8-6.9 rows at seed 1, validation accuracy plateaus, and the
    argmax epoch is decided by 1-5 rows, so it can land anywhere on the
    plateau while the MSE decile only covers the tail. Each run's detail
    prints n_val, the gap and the allowance in validation rows, and the
    accuracy/MSE correlation.
    """
    details, ok = [], True
    for (method, n_bs), run in sorted(bench.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
        # validation rows, rounded as mlp.train rounds them
        n_val = max(1, int(round(VALIDATION_FRACTION * run.train_rows)))
        run_ok, detail = mse_accuracy_trend(
            [h.val_mse for h in run.model.history],
            [h.val_accuracy for h in run.model.history],
            n_val,
        )
        ok &= run_ok
        details.append(f"{method}/{n_bs}bs[{'ok' if run_ok else 'MISS'}, {detail}]")
    check(5, ok, " ".join(details))


def test_criterion_05_trend_check_rejects_drops_and_rising_mse():
    """The criterion 05 check fails a run whose accuracy drops by more than
    one standard error inside the lowest-MSE decile, or whose MSE does not
    end below its start, and passes a plateau within one standard error."""
    n_val = 452
    epochs = 100
    falling = np.linspace(0.20, 0.02, epochs)
    one_se_rows = np.sqrt(443 * 9 / n_val)  # 2.97 rows at a_max 443/452

    def peak_then(rows_lost: int) -> np.ndarray:
        """Accuracy climbing to 443/452 at epoch 20, then rows_lost rows lower."""
        accs = np.full(epochs, (443 - rows_lost) / n_val)
        accs[:19] = np.linspace(300, 440, 19).round() / n_val
        accs[19] = 443 / n_val
        return accs

    ok, detail = mse_accuracy_trend(falling, peak_then(2), n_val)
    assert ok, detail
    ok, detail = mse_accuracy_trend(falling, peak_then(3), n_val)
    assert not ok and f"gap 3.0/{one_se_rows:.1f} rows" in detail, detail
    ok, detail = mse_accuracy_trend(falling, peak_then(13), n_val)
    assert not ok, detail

    rising = np.concatenate([falling[:70], np.linspace(0.02, 0.25, 30)])
    ok, detail = mse_accuracy_trend(rising, peak_then(0), n_val)
    assert not ok and "final mse" in detail, detail


def test_criterion_06_feature_widths(bench):
    """Extractor widths: 12/15/3 (3bs), 8/10/2 (2bs), 4/5/1 (1bs), exactly."""
    expected = {
        ("mvsk", 3): 12, ("box", 3): 15, ("wd", 3): 3,
        ("mvsk", 2): 8, ("box", 2): 10, ("wd", 2): 2,
        ("mvsk", 1): 4, ("box", 1): 5, ("wd", 1): 1,
    }
    widths = {key: run.width for key, run in bench.items()}
    ok = widths == expected and all(
        w == key[1] * FEATURES_PER_BS[key[0]] for key, w in widths.items()
    )
    check(6, ok, f"widths {tuple(widths[(m, k)] for k in BS_COUNTS for m in METHODS)}")


def test_criterion_07_gradient_oracle():
    """Analytic backprop vs central finite differences (step 1e-5) on 100
    random model/batch draws: relative error <= 1e-4, zero failures."""
    rng = np.random.default_rng(SEED)
    checked, failures, worst = 0, 0, 0.0
    while checked < 100:
        arch = MlpArchitecture(
            int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
        )
        model = init_model(arch, rng)
        X = rng.normal(size=(8, arch.input_width))
        y = rng.integers(0, 2, size=8).astype(float)
        if min_hidden_preactivation(model, X) < 1e-4:
            continue  # kink inside the step: finite differences undefined there
        analytic = backprop_gradients(model, X, y)
        numeric = finite_difference_gradients(model, X, y, step=1e-5)
        err = max_relative_gradient_error(analytic, numeric)
        worst = max(worst, err)
        failures += err > 1e-4
        checked += 1
    check(7, failures == 0, f"{checked} draws, worst relative error {worst:.2e}")


def test_criterion_08_statistical_oracles():
    """mvsk features vs naive two-pass summation (1e-12) and wd features vs
    CDF-area integration against the all-zero reference (1e-9 absolute),
    1000 random delta series each."""
    rng = np.random.default_rng(SEED)
    worst_mvsk = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 101))
        series = np.abs(rng.normal(rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0), size=n))
        got = extract(series[None, None], "mvsk")[0]
        want = naive_mvsk(series.tolist())
        for g, w in zip(got, want):
            worst_mvsk = max(worst_mvsk, abs(g - w) / max(abs(g), abs(w), 1.0))
    mvsk_ok = worst_mvsk <= 1e-12

    worst_wd = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 61))
        deltas = np.abs(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), size=n))
        got = extract(deltas[None, None], "wd")[0, 0]
        worst_wd = max(worst_wd, abs(got - cdf_area_distance(deltas, np.zeros(n))))
    wd_ok = worst_wd <= 1e-9

    check(
        8, mvsk_ok and wd_ok,
        f"mvsk worst rel err {worst_mvsk:.2e} (<=1e-12), "
        f"wd worst abs err {worst_wd:.2e} (<=1e-9)",
    )


def split_means(spec: DatasetSpec, split: str):
    """A whole split's (rows, stations) window means and its labels."""
    means = extract(split_deltas(spec, split), "wd")
    return means, row_plan(spec, split)[0] != 0


def test_criterion_09_baseline_sanity(bench):
    """Zero noise: some threshold separates perfectly, so the best one fitted
    on the test split does. Default noise: T fitted on the train split, as
    evaluate fits it, trails the best 3-station MLP on test (margin reported
    only)."""
    quiet = DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(
            carrier_frequency=2.0, los_shadow_formula=False,
            nlos_shadow_sigma=0.0, meas_noise_sigma=0.0, rng_seed=SEED,
        ),
        method="wd", n_bs=3, train_size=60, test_size=30,
    )
    means, labels = split_means(quiet, "test")
    quiet_t = fit(means, labels)
    quiet_acc = float(np.mean(decide(quiet_t, means) == labels))

    noisy = bench[("wd", 3)].spec
    noisy_t = fit(*split_means(noisy, "train"))
    means, labels = split_means(noisy, "test")
    noisy_acc = float(np.mean(decide(noisy_t, means) == labels))
    mlp_acc = bench[("wd", 3)].test_accuracy
    margin = mlp_acc - noisy_acc

    check(
        9, quiet_acc == 1.0,
        f"zero-noise perfect at T={quiet_t.threshold_db:.2f} dB; threshold fitted on train "
        f"{noisy_acc:.4f} (T={noisy_t.threshold_db:.4f} dB) vs "
        f"3bs MLP {mlp_acc:.4f}, margin {margin:+.4f} (reported only)",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Same command, same flags, same seed: byte-identical dataset, model and
    report files (wall-clock field excluded from the report comparison)."""
    base = ["init", "--out", str(tmp_path), "--method", "wd", "--n-bs", "3",
            "--seed", "7", "--train-size", "40", "--test-size", "20"]
    assert cli(base) == 0
    mismatches = []
    for tag in ("a", "b"):
        assert cli(["simulate", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / f"archive_{tag}.json")]) == 0
        assert cli(["generate", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / f"data_{tag}")]) == 0
        assert cli(["train", str(tmp_path / f"data_{tag}"),
                    "--out", str(tmp_path / f"run_{tag}"),
                    "--epochs", "60", "--seed", "7"]) == 0
        assert cli(["evaluate", str(tmp_path / f"data_{tag}"),
                    "--model", str(tmp_path / f"run_{tag}" / "model.json"),
                    "--out", str(tmp_path / f"report_{tag}.json")]) == 0

    for name in ("archive_a.json", "data_a/train.csv", "data_a/test.csv",
                 "data_a/train.meta.json", "run_a/model.json"):
        if (tmp_path / name).read_bytes() != (tmp_path / name.replace("_a", "_b")).read_bytes():
            mismatches.append(name)
    reports = []
    for tag in ("a", "b"):
        doc = json.loads((tmp_path / f"report_{tag}.json").read_text())
        doc.pop("wall_clock_s")
        reports.append(doc)
    if reports[0] != reports[1]:
        mismatches.append("report.json")
    check(10, not mismatches, "all replayed files byte-identical"
          if not mismatches else f"mismatches: {mismatches}")
