"""A `simulate` archive holds the first 2n - 2 rows of its scene's train
split, n the scene's destinations: the archived windows of a spec's
stations, through features.extract, are the first rows of `generate`'s
train.csv, features and labels bit for bit. The archive holds each
station's theoretical path loss once, and a row is spoofed exactly when
its true destination is not the reported one."""

import json

import numpy as np
import pytest

from spoofbench.cli import main as cli
from spoofbench.dataset import load
from spoofbench.features import extract
from spoofbench.spec import BS_SUBSETS, METHODS, select_bs_subset


def _init(workdir, seed, start_height, method="wd", n_bs=3):
    """`init` of method and n_bs at seed with 40/2 rows; the scene starts at
    start_height with sampled LoS unless start_height is None."""
    assert cli(["init", "--out", str(workdir), "--seed", str(seed), "--method", method, "--n-bs", str(n_bs),
                "--train-size", "40", "--test-size", "2"]) == 0
    if start_height is None:
        return
    for name in ("config.json", "spec.json"):
        path = workdir / name
        doc = json.loads(path.read_text())
        scene = doc["scenario"] if name == "spec.json" else doc
        scene["start"][2] = start_height
        scene["sampled_los"] = True
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("seed", [1, 2**31 + 5])
@pytest.mark.parametrize("start_height", [None, 50.0], ids=["default", "50m-sampled-los"])
def test_archive_rows_are_the_first_train_rows(tmp_path, seed, start_height):
    _init(tmp_path, seed, start_height)
    archive = tmp_path / "archive.json"
    assert cli(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(archive)]) == 0
    doc = json.loads(archive.read_text())
    scenarios, theoretical = doc["scenarios"], doc["theoretical_db"]
    assert len(scenarios) == 2 * 16 - 2
    labels = [s["true_destination"] != doc["reported_destination"] for s in scenarios]
    for method in METHODS:
        for n_bs in BS_SUBSETS:
            root = tmp_path / f"{method}{n_bs}"
            _init(root, seed, start_height, method, n_bs)
            assert cli(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
            train = load(root / "data" / "train.csv")
            stations = [str(i) for i in select_bs_subset(n_bs)]
            deltas = np.abs([[np.subtract(s["measured_db"][i], theoretical[i]) for i in stations] for s in scenarios])
            assert extract(deltas, method).tobytes() == train.features[: len(scenarios)].tobytes(), (method, n_bs)
            assert labels == train.labels[: len(scenarios)].tolist()
