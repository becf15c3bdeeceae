"""End-to-end runs of a low-altitude scene.

The default scene flies at 124-176 m, where every link is line-of-sight, so
it never reaches the LoS-probability height rule, the NLoS path loss or the
sampled_los draws. Starting at 50 m (destinations at 24-76 m) reaches all
three. The pinned archives hold the first 30 rows of the scene's train split,
rows whose deltas are checked against the scalar oracle here.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import split_deltas
from oracles import reference_row_plan, reference_window
from spoofbench.cli import main as cli
from spoofbench.dataset import spec_from_dict

START_HEIGHT_M = 50.0

PARENT_ARCHIVE_SHA256 = {
    False: "b3a374bed8d755fb05586c699e11a5f4864f4547fb0eeacb1de499a77fa90243",
    True: "07b1970268cf5b807f52f4a687df96352e57353b5a920beef47f65b4e1aed571",
}


def low_altitude_files(workdir, sampled_los):
    """`init` at seed 1 (box, 3 stations, 40/20 rows), lowered to 50 m."""
    assert cli(["init", "--out", str(workdir), "--seed", "1", "--method", "box",
                "--n-bs", "3", "--train-size", "40", "--test-size", "20"]) == 0
    config = json.loads((workdir / "config.json").read_text())
    spec = json.loads((workdir / "spec.json").read_text())
    for doc in (config, spec["scenario"]):
        doc["start"][2] = START_HEIGHT_M
        doc["sampled_los"] = sampled_los
    (workdir / "config.json").write_text(json.dumps(config))
    (workdir / "spec.json").write_text(json.dumps(spec))
    return spec_from_dict(spec)


@pytest.mark.parametrize("sampled_los", [False, True])
def test_low_altitude_deltas_match_scalar_oracle_and_parent_archive(tmp_path, sampled_los):
    spec = low_altitude_files(tmp_path, sampled_los)
    config = spec.scenario
    stations = [config.base_station_by_id(i) for i in (1, 2, 3)]
    nlos_draws = 0
    for split in ("train", "test"):
        for (_, dest, seed), row in zip(reference_row_plan(spec, split), split_deltas(spec, split), strict=True):
            for bs, delta in zip(stations, row):
                measured, theoretical, los = reference_window(config, dest, seed, bs, spec.channel)
                nlos_draws += los.count(False)
                assert delta.tolist() == [abs(m - t) for m, t in zip(measured, theoretical)]
    # Every LoS probability here is 0.87 or more: thresholded, every sample is
    # LoS; drawn, some are NLoS.
    assert (nlos_draws > 0) == sampled_los

    archive = tmp_path / "archive.json"
    assert cli(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(archive)]) == 0
    assert hashlib.sha256(archive.read_bytes()).hexdigest() == PARENT_ARCHIVE_SHA256[sampled_los]
    doc = json.loads(archive.read_text())
    heights = [s["true_destination"][2] for s in doc["scenarios"]]
    assert min(heights) < 30.0 and max(heights) < 100.0
