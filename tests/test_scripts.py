"""Smoke test of the experiment scripts' end-to-end entry points."""

import importlib.util
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
