"""Golden sha256 digests of the seed-1 full-size datasets, the `init`
files, the default `simulate` archives and two trained models' outputs.

The CSV digests were recorded from the per-sample simulation that preceded
the array pipeline; the mvsk ones were re-recorded when skewness and
kurtosis became array arithmetic (sqrt, multiply and divide, no pow), which
moved some of those cells by a few ulps. They pin the exact bytes of
train.csv and test.csv for every (method, station count) pair, so a change
to the simulation, the feature arithmetic or the CSV writer that moves any
value by even one ulp fails here. Criterion 10 only replays the current code against itself.

The bytes are those of one arithmetic profile: numpy dispatching to its
AVX-512 paths (AVX512_SPR) and OpenBLAS running its SkylakeX kernel. Other
dispatch targets and kernels round some log10, exp and matrix products
differently, so every failure message names the profile of the host it ran
on.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spoofbench.channel import ChannelParams
from spoofbench.cli import main as cli
from spoofbench.dataset import DatasetSpec, generate, save
from spoofbench.scenario import default_config

GOLDEN_CSV_SHA256 = {
    ("mvsk", 1): ("4854a35ff5537535640d3ecb4ea3ddcecc6d12ec42364bf502e1bbf3aa96970c",
                  "f183ffdecb800ff9235c9c8a743dd4d8b308479778b15b148e6985b1d4819396"),
    ("mvsk", 2): ("1cbd8a02cbe01feed9bcfcdd66d9e3ed9042bf8fdb9a0dda50f653b2a92d2411",
                  "6ee8f86b0efe2aa823644a39ff2bb7efe0e00d85af7f3bd4d4a9bd69c0057a76"),
    ("mvsk", 3): ("9e319cd1d25ce4f22e9176a27c3748c452963d2b1d6025f196501638be7b7354",
                  "2c47764f9e21eaa6a439c3a0f9f73296e0b42f9c4268949055e103e05ad2db8f"),
    ("box", 1): ("98b5843e67f1761d83f3de6cfe5b341bd2d4e8268a308de20d34322ea6e8a512",
                 "58091ec4d0fcbbeab4a9abcd54c575ef6bd5be7e94faaf1b13befdef34ec7402"),
    ("box", 2): ("9445cd2f3776e0b37fa107df2fbfded29735569f6f2b27a2c951bfe90eca5acc",
                 "79507d860364a97381e7e55c49770f4d2bab91535dea7e1bdcdbd544e47d235e"),
    ("box", 3): ("e33c0e9ebfa23a8c6cbac03cee13605dde0297cf2927c83a700e9a23ed890193",
                 "de65bd36e3cae70a55d60ed3e8290e6a5e1bebdebaacfa38f3d1160091adf93f"),
    ("wd", 1): ("06834223f6617cae999269167bd7b686209d499256289800bcd3a20782db767c",
                "c2b086c008bf156bfddf993498af0a3a1595b4c0f02cc2aa2da5ba7ca0a2a126"),
    ("wd", 2): ("c2523257d32aa75f0cb1a9bc93d9c4670e607e83ea5fe22c6b345e9854d64cc9",
                "18bcaffe479c9934aac9622457f1b742d61bc7ccd309990b65e4f407e9f01b81"),
    ("wd", 3): ("c995a577ca61958fc8bf5f220d972682c041b075ee528831b05437b3b2502473",
                "b70612d043e7b45c9f7cb05130188941fb56d716978a25540bbebdee65d1e366"),
}


def _profile_note() -> str:
    """A failure message naming numpy's highest enabled dispatch target and
    the OpenBLAS core in use ("unknown" where numpy bundles no scipy-openblas
    library). Only evaluated when an assertion fails."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    core = "unknown"
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    target = (["unknown"] + umath.__cpu_baseline__ + enabled)[-1]
    return f"golden digest differs on this host (numpy dispatch {target}, OpenBLAS core {core})"


@pytest.mark.parametrize("method,n_bs", sorted(GOLDEN_CSV_SHA256))
def test_seed1_dataset_csvs_match_golden_digests(tmp_path, method, n_bs):
    spec = DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0, rng_seed=1),
        method=method,
        n_bs=n_bs,
    )
    digests = []
    for ds in generate(spec):
        path = tmp_path / f"{ds.split}.csv"
        save(ds, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == GOLDEN_CSV_SHA256[(method, n_bs)], _profile_note()


def _benchmark_golden(workload):
    """The seed-1 entry of a workload in the benchmark's goldens."""
    goldens = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text())
    (entry,) = goldens[workload]
    return entry


def test_benchmark_goldens_pin_the_wd3_csvs_pinned_here():
    """The benchmark's headline and tune-grid runs generate the seed-1 wd/3
    split: a change that moves those bytes fails here too, not only in the
    benchmark's output check."""
    for workload in ("headline", "tune-grid"):
        entry = _benchmark_golden(workload)
        outputs = (entry["outputs"]["train_csv_sha256"], entry["outputs"]["test_csv_sha256"])
        assert (entry["seed"], outputs) == (1, GOLDEN_CSV_SHA256[("wd", 3)]), workload


# `init --seed 1` writes these two files; `simulate` on the config.json of
# `init` with no --seed (1) and with --seed 7 writes the archives. Re-recorded
# when the config lost sample_period_s and the spec its second rng_seed. An
# archive holds the first 30 rows of its seed's train split (2n - 2 for the
# 16 destinations): each row's windows are those behind that train.csv row.
# The archives were re-recorded when format version 2 wrote each station's
# theoretical path loss and the reported destination once, and dropped each
# row's label and noise seed; every value they hold is unchanged.
GOLDEN_INIT_SHA256 = {
    "config.json": "466a66655c191f39d7e63231cf43df5e4b3dccbe139666134f134b50776eabf1",
    "spec.json": "636a46b3b690701f3d3fee1269df77ed0290a98060530f0c4685eb83c8de0762",
}
GOLDEN_ARCHIVE_SHA256 = {
    None: "c7465eb2fc4da9e119eb1c2ad8b113fb3f54d44422b18ddab5f24e29b57392a9",
    7: "d07c368bf4e2d7290b445dea3003457761821ebf7e76a7f62857e95ead4ddcb0",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seed1_init_files_match_golden_digests(tmp_path):
    assert cli(["init", "--out", str(tmp_path), "--seed", "1"]) == 0
    assert {name: _sha256(tmp_path / name) for name in GOLDEN_INIT_SHA256} == GOLDEN_INIT_SHA256, _profile_note()


@pytest.mark.parametrize("seed", sorted(GOLDEN_ARCHIVE_SHA256, key=str))
def test_default_simulate_archive_matches_golden_digest(tmp_path, seed):
    assert cli(["init", "--out", str(tmp_path)] + ([] if seed is None else ["--seed", str(seed)])) == 0
    archive = tmp_path / "archive.json"
    assert cli(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(archive)]) == 0
    assert _sha256(archive) == GOLDEN_ARCHIVE_SHA256[seed], _profile_note()


# Training goldens, recorded before the trainer went lockstep: the seed-1
# wd/3 preset model (weights, biases and history, digested as the benchmark's
# `model_digest` does) and a small tuner grid's `grid_report.csv`. In the
# grid, both lr 0.05 models stop early (at epochs 8 and 4) while the lr 0.001
# models run all 12 epochs.
GOLDEN_PRESET_MODEL_SHA256 = "4f59aed8e61138811abb172c07a7541cdc20a47ded861aeac452fd63eaebc447"
GOLDEN_SMALL_GRID_REPORT_SHA256 = "f68078c62b2b9922603af2a8e009eff57ce02f3e657dafe50b45fd9113245323"


def _model_digest(path):
    doc = json.loads(path.read_text())
    core = {k: doc[k] for k in ("weights", "biases", "history")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def test_seed1_wd3_preset_model_matches_golden_digest(tmp_path, wd3_data):
    assert cli(["train", str(wd3_data), "--out", str(tmp_path), "--seed", "1"]) == 0
    assert _model_digest(tmp_path / "model.json") == GOLDEN_PRESET_MODEL_SHA256, _profile_note()


def test_seed1_small_grid_report_matches_golden_digest(tmp_path, wd3_data):
    assert cli(["tune", str(wd3_data), "--out", str(tmp_path), "--seed", "1",
                "--lr-grid", "0.05,0.001", "--layers-grid", "1,2", "--neurons-grid", "8",
                "--epochs", "12", "--patience", "2"]) == 0
    assert _sha256(tmp_path / "grid_report.csv") == GOLDEN_SMALL_GRID_REPORT_SHA256, _profile_note()


def test_seed1_wd3_tune_grid_matches_the_benchmark_golden(tmp_path, wd3_data):
    """The benchmark's tune-grid step: every grid learning rate at depth 3
    and widths 16 and 32, 43 epochs with no early stop. Its models run long
    enough that a training change which moves a bit only late in a run shows
    here, where the shorter runs above can miss it."""
    entry = _benchmark_golden("tune-grid")
    assert entry["seed"] == 1
    assert cli(["tune", str(wd3_data), "--out", str(tmp_path), "--seed", "1",
                "--layers-grid", "3", "--neurons-grid", "16,32", "--jobs", "1",
                "--epochs", "43", "--patience", "43"]) == 0
    assert _sha256(tmp_path / "grid_report.csv") == entry["outputs"]["grid_report_sha256"], _profile_note()
    assert _model_digest(tmp_path / "model.json") == entry["outputs"]["model_digest"], _profile_note()
