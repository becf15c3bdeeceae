"""End-to-end runs of a low-altitude scene.

The default scene flies at 124-176 m, where every link is line-of-sight, so
it never reaches the LoS-probability height rule, the NLoS path loss or the
sampled_los draws. Starting at 50 m (destinations at 24-76 m) reaches all
three. The archives' scenarios are those of the per-sample simulation that
preceded the array pipeline; their digests were re-recorded when the config
lost sample_period_s.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import reference_row_plan, reference_window
from spoofbench.cli import main as cli
from spoofbench.dataset import iter_delta_chunks, spec_from_dict

START_HEIGHT_M = 50.0

PARENT_ARCHIVE_SHA256 = {
    False: "9331bff7734cb791e88cbd7ead440c3690a45d5e828f7ca48704ad24836df2fd",
    True: "4eccaa7ce798815d08c1d88f21a82a6809291341915d430372f02f330c9c4b17",
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
        deltas = np.concatenate([d for _, d in iter_delta_chunks(spec, split)])
        for (_, dest, seed), row in zip(reference_row_plan(spec, split), deltas, strict=True):
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
