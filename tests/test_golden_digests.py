"""Golden sha256 digests of the seed-1 full-size datasets, the `init`
files, the default `simulate` archives and two trained models' outputs.

The CSV digests were recorded from the per-sample simulation that preceded
the array pipeline. They pin the exact bytes of train.csv and test.csv for
every (method, station count) pair, so a change to the simulation, the
feature arithmetic or the CSV writer that moves any value by even one ulp
fails here. Criterion 10 only replays the current code against itself.
"""

import hashlib
import json

import pytest

from spoofbench.channel import ChannelParams
from spoofbench.cli import main as cli
from spoofbench.dataset import DatasetSpec, generate, save
from spoofbench.scenario import default_config

GOLDEN_CSV_SHA256 = {
    ("mvsk", 1): ("e93f3b9634cd010cd7db9a99ce2cb1c9a8a296a3377db86b9c9bc1fbf6298245",
                  "83c1da1685b35be3d11813100ec0d1010109471feadb5d4959896579c333eccc"),
    ("mvsk", 2): ("6726beec2675de59436af20426e5109975c56ba7f191142d3eb2f3c720432412",
                  "5c1d1d822c6879701736946aca02edd33c65e3bc5fd7e4d6f76e0ff297778406"),
    ("mvsk", 3): ("fa31d5c057266c5e66878e2ec74644c264f443866c6103a3539e9e2f8436a01a",
                  "9b170d670b98453e15ec6b948a7e6d14df9b3ddacb7ab6806ec8f160c7c38817"),
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


@pytest.mark.parametrize("method,n_bs", sorted(GOLDEN_CSV_SHA256))
def test_seed1_dataset_csvs_match_golden_digests(tmp_path, method, n_bs):
    spec = DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0, rng_seed=1),
        method=method,
        n_bs=n_bs,
        rng_seed=1,
    )
    digests = []
    for ds in generate(spec):
        path = tmp_path / f"{ds.split}.csv"
        save(ds, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == GOLDEN_CSV_SHA256[(method, n_bs)]


# `init --seed 1` writes these two files; `simulate` on that config.json
# writes the archives, with no --seed (1) and with --seed 7. Recorded before
# the scene model moved the seed and carrier frequency onto the channel.
GOLDEN_INIT_SHA256 = {
    "config.json": "a86d1ae19d2e5c4545fd87fd54f672e146fda11393708509bcdc43c3fd2c98b3",
    "spec.json": "5543259a08d03330f81c9c7c1c12cfe73f012ba93a0e27dfc315a6ded5120920",
}
GOLDEN_ARCHIVE_SHA256 = {
    None: "af407bd5c6194b6b6b98340f8b4ca27a01d0b216343cd1fa2525ddeee183de73",
    7: "50d9155574277ae6a763a58e21f7ee5fdd490c83d691c113370d759058b8181f",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seed1_init_files_match_golden_digests(tmp_path):
    assert cli(["init", "--out", str(tmp_path), "--seed", "1"]) == 0
    assert {name: _sha256(tmp_path / name) for name in GOLDEN_INIT_SHA256} == GOLDEN_INIT_SHA256


@pytest.mark.parametrize("seed", sorted(GOLDEN_ARCHIVE_SHA256, key=str))
def test_default_simulate_archive_matches_golden_digest(tmp_path, seed):
    assert cli(["init", "--out", str(tmp_path), "--seed", "1"]) == 0
    archive = tmp_path / "archive.json"
    argv = ["simulate", "--config", str(tmp_path / "config.json"), "--out", str(archive)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli(argv) == 0
    assert _sha256(archive) == GOLDEN_ARCHIVE_SHA256[seed]


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


@pytest.fixture(scope="module")
def wd3_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("wd3")
    assert cli(["init", "--out", str(root), "--seed", "1"]) == 0
    assert cli(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data"),
                "--method", "wd", "--n-bs", "3"]) == 0
    return root / "data"


def test_seed1_wd3_preset_model_matches_golden_digest(tmp_path, wd3_data):
    assert cli(["train", str(wd3_data), "--out", str(tmp_path), "--seed", "1"]) == 0
    assert _model_digest(tmp_path / "model.json") == GOLDEN_PRESET_MODEL_SHA256


def test_seed1_small_grid_report_matches_golden_digest(tmp_path, wd3_data):
    assert cli(["tune", str(wd3_data), "--out", str(tmp_path), "--seed", "1",
                "--lr-grid", "0.05,0.001", "--layers-grid", "1,2", "--neurons-grid", "8",
                "--epochs", "12", "--patience", "2"]) == 0
    assert _sha256(tmp_path / "grid_report.csv") == GOLDEN_SMALL_GRID_REPORT_SHA256
