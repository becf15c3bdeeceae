"""Tests of the scripts: the experiment scripts' end-to-end entry points,
and the benchmark pair runner's summary and run order on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

from spoofbench.baseline import best_operating_point, sweep_threshold
from spoofbench.dataset import load

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
    assert result["threshold"].accuracy == 0.9504643962848297
    assert result["threshold"].threshold_db == pytest.approx(1.45)
    # T is the training split's best, never a pick on the test rows it scores.
    train = load(tmp_path / "data" / "train.csv")
    curve = sweep_threshold(train.features, train.labels, script.T_GRID)
    assert result["threshold"].threshold_db == best_operating_point(curve).threshold_db


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
    summary = script.summarize(pairs, script.better_directions())
    assert (summary["pairs"], summary["seeds"], summary["correct"]) == (4, [1, 2, 3, 4], False)
    wall = summary["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert wall["parent"] == {"median": 1.05, "q1": 0.925, "q3": 1.175, "runs": [1.0, 1.2, 1.1, 0.9]}
    assert wall["change"]["runs"] == [0.9, 1.0, 1.1, 1.0]
    assert (wall["change_better_pairs"], wall["tied_pairs"]) == (2, 1)
    accuracy = summary["test_accuracy"]
    assert accuracy["better"] == "higher"
    assert (accuracy["change_better_pairs"], accuracy["tied_pairs"]) == (1, 2)


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
