"""Tests of the scripts: the experiment scripts' end-to-end entry points,
and the benchmark pair runner's summary and run order on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

from spoofbench.baseline import fit
from spoofbench.dataset import load, window_means

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_headline_reproduces_seed1_accuracy(tmp_path):
    script = load_script("run_headline")
    result = script.run(seed=1, workdir=tmp_path)
    assert result["mlp_accuracy"] == 0.9618163054695562
    assert result["threshold_accuracy"] == 0.9525283797729618
    assert result["threshold_db"] == 1.457331316210478
    # T is the training split's best, never a pick on the test rows it scores.
    train = load(tmp_path / "data" / "train.csv")
    assert result["threshold_db"] == fit(window_means(train), train.labels).threshold_db


def _result(wall_s, accuracy, correct=True):
    """A run.py result line with two of its end-to-end metrics."""
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "test_accuracy": {"value": accuracy, "unit": "ratio"},
    }}


def test_bench_pairs_summary_counts_wins_by_each_metrics_direction():
    script = load_script("bench_pairs")
    pairs = [
        (1, _result(1.0, 0.95), _result(0.9, 0.95)),
        (2, _result(1.2, 0.95), _result(1.0, 0.96)),
        (3, _result(1.1, 0.95), _result(1.1, 0.94)),
        (4, _result(0.9, 0.95), _result(1.0, 0.95, correct=False)),
    ]
    summary = script.summarize(pairs, script.better_directions(), script.bounds())
    assert (summary["pairs"], summary["seeds"], summary["correct"]) == (4, [1, 2, 3, 4], False)
    wall = summary["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert wall["parent"] == {"median": 1.05, "q1": 0.925, "q3": 1.175, "runs": [1.0, 1.2, 1.1, 0.9]}
    assert wall["change"]["runs"] == [0.9, 1.0, 1.1, 1.0]
    assert (wall["change_better_pairs"], wall["tied_pairs"]) == (2, 1)
    accuracy = summary["test_accuracy"]
    assert accuracy["better"] == "higher"
    assert (accuracy["change_better_pairs"], accuracy["tied_pairs"]) == (1, 2)


def test_bench_pairs_reads_raw_wall_time_and_pace_factor_from_the_record():
    script = load_script("bench_pairs")

    def iteration(wall_s, samples, kernel_s, handler_s):
        return {"wall_s": wall_s, "pace": {"samples": samples, "kernel_s": kernel_s, "handler_s": handler_s}}

    def setup(setup_s, samples, handler_s):
        return {"setup_s": setup_s, "setup_pace": {"samples": samples, "kernel_s": 0.001, "handler_s": handler_s}}

    record = {"iterations": [iteration(1.0, 10, 0.02, 0.1), iteration(1.3, 20, 0.03, 0.2),
                             iteration(1.2, 10, 0.01, 0.1), {"wall_s": None, "pace": None}],
              "setups": [setup(0.2, 2, 0.01), setup(0.03, 0, 0.0), setup(0.25, 3, 0.02),
                         {"setup_s": None, "setup_pace": None}]}
    raw = script.raw_metrics(record, reference_s=0.0012)
    assert raw["raw_wall_s"] == {"value": pytest.approx(1.1), "unit": "s"}
    assert raw["pace_factor"] == {"value": pytest.approx(0.0012 * 40 / 0.06), "unit": "ratio"}
    # A set-up that ends before the first pace sample is raw time as it is.
    assert raw["raw_setup_s"] == {"value": pytest.approx(0.19), "unit": "s"}
    assert raw["setup_pace_samples"] == {"value": 5, "unit": "count"}

    def with_raw(wall_s, raw_wall_s, factor):
        result = _result(wall_s, 0.95)
        result["metrics"].update({"raw_wall_s": {"value": raw_wall_s, "unit": "s"},
                                  "pace_factor": {"value": factor, "unit": "ratio"}})
        return result

    pairs = [(1, with_raw(1.0, 1.2, 0.8), with_raw(0.9, 1.1, 0.9)),
             (2, with_raw(1.0, 1.2, 0.8), with_raw(0.9, 1.3, 1.1))]
    summary = script.summarize(pairs, script.better_directions(), script.bounds())
    assert (summary["raw_wall_s"]["better"], summary["raw_wall_s"]["change_better_pairs"]) == ("lower", 1)
    pace = summary["pace_factor"]
    assert pace["better"] is None and "change_better_pairs" not in pace
    assert pace["change"]["runs"] == [0.9, 1.1]


@pytest.mark.parametrize("change_wall, claim_met", [
    ([0.9] * 9 + [1.2], True),  # 9 of 10 pairs, median gap 0.1 > quartile spread 0.025
    ([0.9] * 8 + [1.2] * 2, False),  # 8 of 10 pairs
    ([0.99] * 10, False),  # 10 of 10, but a gap of 0.01 is inside the parent's spread
])
def test_bench_pairs_gives_the_bound_and_claim_verdicts(change_wall, claim_met):
    script = load_script("bench_pairs")
    parent_wall = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.02, 0.98, 1.01, 0.99]
    pairs = [(seed, _result(p, 0.95), _result(c, 0.92)) for seed, p, c in zip(range(1, 11), parent_wall, change_wall)]
    summary = script.summarize(pairs, script.better_directions(), script.bounds(), claim="wall_s")
    wall, accuracy = summary["wall_s"], summary["test_accuracy"]
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.025)
    assert (wall["claim_met"], wall["worse_by_more_than_bound"]) == (claim_met, False)
    # 0.95 -> 0.92 is 3.2 % worse, past test_accuracy's bound of 0.03
    assert accuracy["worse_by_more_than_bound"] is True and "claim_met" not in accuracy
    pairs = [(seed, _result(1.0, 0.95), _result(1.24, 0.93)) for seed in range(1, 11)]
    summary = script.summarize(pairs, script.better_directions(), script.bounds())
    assert not summary["wall_s"]["worse_by_more_than_bound"] and not summary["test_accuracy"]["worse_by_more_than_bound"]
    assert "claim_met" not in summary["wall_s"]
    pairs = [(seed, _result(1.0, 0.95), _result(1.26, 0.95)) for seed in range(1, 11)]
    assert script.summarize(pairs, script.better_directions(), script.bounds())["wall_s"]["worse_by_more_than_bound"]


def test_bench_pairs_refuses_a_claim_on_a_metric_without_a_direction(capsys):
    script = load_script("bench_pairs")
    for metric in ("pace_factor", "no_such_metric"):
        with pytest.raises(SystemExit):
            script.main(["old", "new", "--workload", "headline", "--claim", metric])
        assert f"--claim {metric}" in capsys.readouterr().err


def test_bench_pairs_runs_the_parent_first_on_odd_seeds(monkeypatch, capsys):
    script = load_script("bench_pairs")
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((str(checkout), seed))
        return _result(1.0 if str(checkout) == "old" else 0.9, 0.95)

    monkeypatch.setattr(script, "run_once", run_once)
    assert script.main(["old", "new", "--workload", "headline", "--seeds", "1-4", "--seconds", "5"]) == 0
    assert calls == [("old", 1), ("new", 1), ("new", 2), ("old", 2),
                     ("old", 3), ("new", 3), ("new", 4), ("old", 4)]
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["order"] for line in lines[:4]] == [["parent", "change"], ["change", "parent"]] * 2
    assert lines[-1]["wall_s"]["change_better_pairs"] == 4


def test_bench_pairs_records_the_bytecode_setting_of_its_runs(monkeypatch, capsys, tmp_path):
    script = load_script("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "spoofbench" / "__pycache__").mkdir(parents=True)

    def run_once(checkout, workload, seed, seconds, trace):
        # A run that writes bytecode leaves a cache; the record predates it.
        (checkout / "src" / "spoofbench" / "__pycache__").mkdir(parents=True, exist_ok=True)
        return _result(1.0, 0.95)

    monkeypatch.setattr(script, "run_once", run_once)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert script.main([str(parent), str(change), "--workload", "headline", "--seeds", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["bytecode"] == {
        "PYTHONDONTWRITEBYTECODE": True, "pycache_existed": {"parent": True, "change": False},
    }
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert script.bytecode_record({"parent": parent, "change": change}) == {
        "PYTHONDONTWRITEBYTECODE": False, "pycache_existed": {"parent": True, "change": True},
    }
