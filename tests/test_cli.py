import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spoofbench
from spoofbench.baseline import ThresholdDetector, confusion_matrix, decide, fit
from spoofbench.cli import _train_config, build_parser, main
from spoofbench.configio import load_config
from spoofbench.dataset import load, window_means
from spoofbench.mlp import TrainConfig
from spoofbench.scenario import ChannelParams, default_config
from spoofbench.spec import DatasetSpec, load_spec, spec_to_dict

SMALL = ["--train-size", "40", "--test-size", "20"]


def _spec_without_station_2() -> str:
    doc = spec_to_dict(DatasetSpec(default_config(), ChannelParams(), "wd", 3))
    doc["scenario"]["base_stations"] = [b for b in doc["scenario"]["base_stations"] if b["id"] != 2]
    return json.dumps(doc)


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in a subprocess, so that any numpy warning reaches stderr as a
    user sees it."""
    env = {**os.environ, "PYTHONPATH": str(Path(spoofbench.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "spoofbench", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def _init(out, method, n_bs):
    """`init` of the test scene, seed 3 at 40/20 rows, for method and n_bs."""
    assert run("init", "--out", out, "--method", method, "--n-bs", n_bs, "--seed", "3", *SMALL) == 0
    return out


def _generate(root):
    """`generate` from root's spec.json into root/data."""
    assert run("generate", "--spec", root / "spec.json", "--out", root / "data") == 0
    return root / "data"


@pytest.fixture()
def workdir(tmp_path):
    return _init(tmp_path, "wd", 3)


@pytest.fixture()
def data_dir(workdir):
    return _generate(workdir)


@pytest.fixture()
def run_dir(workdir, data_dir):
    out = workdir / "run"
    assert run("train", data_dir, "--out", out, "--epochs", "40", "--seed", "3") == 0
    return out


def test_init_writes_loadable_files(workdir):
    config = json.loads((workdir / "config.json").read_text())
    assert [b["id"] for b in config["base_stations"]] == [1, 2, 3]
    assert config["window_size"] == 100
    spec = json.loads((workdir / "spec.json").read_text())
    assert spec["method"] == "wd" and spec["n_bs"] == 3


def test_simulate_archive_is_deterministic(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    assert run("simulate", "--config", workdir / "config.json", "--out", a) == 0
    assert run("simulate", "--config", workdir / "config.json", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    archive = json.loads(a.read_text())
    assert archive["base_stations"] == [1, 2, 3]
    assert archive["format_version"] == 2
    rows = archive["scenarios"]
    assert len(rows) == 30
    # Archive row k is train row k: spoofed when even, when its true
    # destination is not the one every row reports.
    spoofed = [s["true_destination"] != archive["reported_destination"] for s in rows]
    assert [(s["index"], label) for s, label in zip(rows, spoofed)] == [(k, k % 2 == 0) for k in range(30)]
    assert set(rows[0]) == {"index", "true_destination", "measured_db"}
    assert set(archive["theoretical_db"]) == set(rows[0]["measured_db"]) == {"1", "2", "3"}
    assert len(rows[0]["measured_db"]["1"]) == len(archive["theoretical_db"]["1"]) == 100


def test_simulate_seed_changes_archive(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    assert run("simulate", "--config", workdir / "config.json", "--out", a) == 0
    assert run("init", "--out", workdir / "seed99", "--seed", "99") == 0
    assert run("simulate", "--config", workdir / "seed99" / "config.json", "--out", b) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_rejects_bad_config(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text('{"start": [0, 0, 150]}')
    assert run("simulate", "--config", bad, "--out", tmp_path / "a.json") == 1
    bad.write_text('{"start": [0, 0, 150],,}')
    assert run("simulate", "--config", bad, "--out", tmp_path / "a.json") == 1


@pytest.mark.parametrize(
    "text,message",
    [
        ('"scenario method n_bs"', "spec must be an object, got 'scenario method n_bs'"),
        ('{"scenario":\n', "Expecting value: line 2 column 1"),
        ('{"method": "wd", "n_bs": 3, "scenario": {}, "train_size": 10, "test_size": 10, "train_sise": 10}',
         "spec: unknown fields ['train_sise']"),
        pytest.param(_spec_without_station_2(),
                     "invalid spec value: n_bs 3 uses base station 2, which the scenario lacks",
                     id="station-2-missing"),
    ],
)
def test_generate_names_the_spec_file_and_the_key(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run("generate", "--spec", spec, "--out", tmp_path / "data") == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: {message}")
    assert not (tmp_path / "data").exists()


def test_init_writes_nothing_when_the_spec_is_refused(tmp_path, capsys):
    out = tmp_path / "work"
    assert run("init", "--out", out, "--train-size", "1") == 1
    assert "train_size must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "simulate"])
def test_overflowing_path_loss_gives_one_error_line_and_no_output(tmp_path, command):
    _init(tmp_path, "wd", 3)
    for name in ("config.json", "spec.json"):
        doc = json.loads((tmp_path / name).read_text())
        (doc["scenario"] if name == "spec.json" else doc)["meas_noise_sigma_db"] = 1e308
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "out"
    source = ["--spec", tmp_path / "spec.json"] if command == "generate" else ["--config", tmp_path / "config.json"]
    done = run_process(command, *source, "--out", out)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: path loss values must be finite\n"
    assert not out.exists()


def test_generate_writes_datasets(data_dir):
    assert (data_dir / "train.csv").exists()
    assert (data_dir / "test.meta.json").exists()
    header = (data_dir / "train.csv").read_text().splitlines()[0]
    assert header == "label,f1,f2,f3"
    assert len((data_dir / "train.csv").read_text().splitlines()) == 41


def test_init_sets_the_method_and_stations_of_the_generated_data(tmp_path):
    root = _init(tmp_path, "box", 1)
    spec = json.loads((root / "spec.json").read_text())
    assert (spec["method"], spec["n_bs"]) == ("box", 1)
    header = (_generate(root) / "train.csv").read_text().splitlines()[0]
    assert header == "label,f1,f2,f3,f4,f5"


def test_train_writes_model_and_history(run_dir):
    assert (run_dir / "model.json").exists()
    doc = json.loads((run_dir / "model.json").read_text())
    assert doc["meta"]["method"] == "wd"
    assert doc["meta"]["n_bs"] == 3
    assert doc["train_config"]["max_epochs"] == 40
    # The history's one record: [epoch, train_mse, val_mse, val_accuracy] per epoch.
    history = doc["history"]
    assert [entry[0] for entry in history] == list(range(1, len(history) + 1))
    assert {len(entry) for entry in history} == {4}


def test_train_rejects_a_non_finite_learning_rate(workdir, data_dir, capsys):
    assert run("train", data_dir, "--out", workdir / "run", "--lr", "nan") == 1
    assert "learning_rate" in capsys.readouterr().err
    assert not (workdir / "run").exists()


TUNE_ONE_ARCHITECTURE = ["--layers-grid", "1", "--neurons-grid", "4", "--epochs", "10", "--patience", "3"]


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "1e300", "--epochs", "20", "--patience", "5"],
    ["tune", "--lr-grid", "0.01,1e300", *TUNE_ONE_ARCHITECTURE],
    ["tune", "--lr-grid", "1e300,0.01", *TUNE_ONE_ARCHITECTURE],
], ids=["train", "tune", "tune-diverging-rate-first"])
def test_a_diverging_learning_rate_gives_one_error_line_and_no_output(workdir, data_dir, argv):
    # Whatever the grid order, a run whose MSE turns nan is refused, not ranked.
    out = workdir / "out"
    done = run_process(argv[0], data_dir, "--out", out, *argv[1:])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: training at learning rate 1e+300 diverged: epoch ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert not out.exists()


def test_evaluate_names_the_sidecar_and_the_missing_key(workdir, data_dir, capsys):
    sidecar = data_dir / "test.meta.json"
    doc = json.loads(sidecar.read_text())
    del doc["split"]
    sidecar.write_text(json.dumps(doc))
    assert run("evaluate", data_dir, "--detector", "threshold", "--out", workdir / "thr.json") == 1
    assert f"{sidecar}: sidecar missing keys: split" in capsys.readouterr().err


def test_evaluate_refuses_an_edited_label(workdir, data_dir, capsys):
    csv = data_dir / "test.csv"
    lines = csv.read_text().splitlines()
    lines[2] = ("0" if lines[2].startswith("1,") else "1") + lines[2][1:]
    csv.write_text("\n".join(lines) + "\n")
    assert run("evaluate", data_dir, "--detector", "threshold", "--out", workdir / "thr.json") == 1
    assert f"{csv}: row 3, column 1: label" in capsys.readouterr().err
    assert not (workdir / "thr.json").exists()


def test_generate_names_mvsk_when_its_moments_overflow(tmp_path, capsys):
    workdir = _init(tmp_path, "mvsk", 1)
    spec = json.loads((workdir / "spec.json").read_text())
    spec["scenario"]["meas_noise_sigma_db"] = 1e120
    (workdir / "spec.json").write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy prints none of its own
        code = run("generate", "--spec", workdir / "spec.json", "--out", workdir / "data")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mvsk skewness and kurtosis overflow")
    assert not (workdir / "data").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_refuses_a_nan_threshold(workdir, data_dir, capsys, value):
    out = workdir / "thr.json"
    assert run("evaluate", data_dir, "--detector", "threshold", f"--t={value}", "--out", out) == 1
    assert f"threshold_db must be finite and >= 0, got {value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [
    ("-0.5", "-0.5"), ("-5", "-5.0"), ("-1e-3", "-0.001"), ("-2E+1", "-20.0"),
    ("-inf", "-inf"), ("-Infinity", "-inf"), ("-nan", "nan"),
])
def test_evaluate_refuses_every_bare_negative_threshold_by_its_value(workdir, data_dir, capsys, value, shown):
    """A float after `--t` is its value however it is spelt, so the one
    threshold rule refuses it, never argparse as a missing argument."""
    out = workdir / "thr.json"
    assert run("evaluate", data_dir, "--detector", "threshold", "--t", value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: threshold_db must be finite and >= 0, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("detector", ["model", "threshold"])
def test_evaluate_refuses_a_file_that_holds_another_split(workdir, data_dir, run_dir, capsys, detector):
    for suffix in (".csv", ".meta.json"):
        shutil.copyfile(data_dir / f"train{suffix}", data_dir / f"test{suffix}")
    out = workdir / "r.json"
    chosen = ["--model", run_dir / "model.json"] if detector == "model" else ["--detector", "threshold"]
    assert run("evaluate", data_dir, *chosen, "--out", out) == 1
    assert f"{data_dir / 'test.csv'} holds the train split, not the test split" in capsys.readouterr().err
    assert not out.exists()


# Every command's arguments, in declaration order: adding or dropping one is an
# edit here.
FLAGS = {
    "init": ["--out", "--seed", "--method", "--n-bs", "--train-size", "--test-size"],
    "simulate": ["--config", "--out"],
    "generate": ["--spec", "--out"],
    "train": ["data_dir", "--out", "--lr", "--layers", "--neurons", "--epochs", "--patience", "--seed"],
    "tune": ["data_dir", "--out", "--lr-grid", "--layers-grid", "--neurons-grid", "--jobs",
             "--epochs", "--patience", "--seed"],
    "evaluate": ["data_dir", "--model", "--detector", "--t", "--aggregation", "--out"],
    "report": ["run_dirs", "--out"],
}


def test_every_command_has_exactly_its_pinned_flags():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [
            s for a in sub._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings or [a.dest]
        ]
        for name, sub in commands.choices.items()
    }
    assert found == FLAGS


def _readme_commands() -> list[str]:
    """Every `spoofbench ...` line of README.md's code blocks, fenced or indented."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, fenced = [], False
    for line in readme.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif (fenced or line.startswith("    ")) and line.strip().startswith("spoofbench "):
            commands.append(line.strip())
    return commands


def test_readme_commands_parse():
    """A flag removed from the parser but still documented fails here; no
    command is run."""
    parser = build_parser()
    documented = set()
    for line in _readme_commands():
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        documented.add(argv[0])
    assert documented == set(FLAGS)


def test_commands_without_optional_flags_take_the_library_defaults(tmp_path):
    assert run("init", "--out", tmp_path) == 0
    spec = DatasetSpec(default_config(), ChannelParams(), "wd", 3)
    assert load_spec(tmp_path / "spec.json") == spec
    assert load_config(tmp_path / "config.json") == (spec.scenario, spec.channel)
    parser = build_parser()
    for command in ("train", "tune"):
        args = parser.parse_args([command, "data", "--out", "run"])
        assert _train_config(args, 0.01) == TrainConfig(0.01)
    # Unset, so that --model can refuse them; the threshold detector fits T
    # on train.csv and takes ThresholdDetector's aggregation.
    args = parser.parse_args(["evaluate", "data", "--detector", "threshold", "--out", "report.json"])
    assert (args.t, args.aggregation) == (None, None)


# Each command's argv, given a fixture getter and an output path.
COMMAND_LINES = {
    "init": lambda f, out: ["init", "--out", out, *SMALL],
    "simulate": lambda f, out: ["simulate", "--config", f("workdir") / "config.json", "--out", out],
    "generate": lambda f, out: ["generate", "--spec", f("workdir") / "spec.json", "--out", out],
    "train": lambda f, out: ["train", f("data_dir"), "--out", out, "--epochs", "3"],
    "tune": lambda f, out: ["tune", f("data_dir"), "--out", out, "--lr-grid", "0.01", "--layers-grid", "1",
                            "--neurons-grid", "2", "--epochs", "3", "--jobs", "1"],
    "evaluate": lambda f, out: ["evaluate", f("data_dir"), "--model", f("run_dir") / "model.json", "--out", out],
    "evaluate --detector threshold": lambda f, out: ["evaluate", f("data_dir"), "--detector", "threshold",
                                                     "--out", out],
    "report": lambda f, out: ["report", f("run_dir"), "--out", out],
}
WATCHED = ("multiprocessing", "concurrent.futures.process", "numpy", "spoofbench.mlp")


def _fresh_main(argv) -> list:
    """cli.main(argv) in a fresh interpreter: [its return value or exit
    code, the WATCHED modules it imported]."""
    code = ("import json, sys; from spoofbench.cli import main\n"
            "try: rc = main(json.loads(sys.argv[1]))\n"
            "except SystemExit as exc: rc = exc.code\n"
            f"print(json.dumps([rc, sorted(set({WATCHED!r}) & set(sys.modules))]))")
    env = {**os.environ, "PYTHONPATH": str(Path(spoofbench.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(list(map(str, argv)))],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_a_command_imports_no_process_pool_and_the_trainer_only_to_train_or_read_a_model(request, tmp_path, command):
    """multiprocessing and concurrent.futures.process cost 10-20 ms of import
    each on every command, numpy about 55 ms and the trainer about 13 ms
    without cached bytecode: a fork and a pipe need neither pool, init
    computes nothing, and only train, tune, evaluate --model and report
    train or read a model. Each command runs through cli.main in a fresh
    interpreter."""
    rc, imported = _fresh_main(COMMAND_LINES[command](request.getfixturevalue, tmp_path / "out"))
    assert rc == 0
    if command == "init":
        assert imported == []
    elif command in ("simulate", "generate", "evaluate --detector threshold"):
        assert imported == ["numpy"]
    else:
        assert imported == ["numpy", "spoofbench.mlp"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["init"], 2)])
def test_help_and_a_usage_error_load_no_numpy(argv, code):
    assert _fresh_main(argv) == [code, []]


def test_train_is_byte_deterministic(workdir, data_dir):
    a, b = workdir / "run_a", workdir / "run_b"
    for out in (a, b):
        assert run("train", data_dir, "--out", out, "--epochs", "25", "--seed", "5") == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_evaluate_model_report(workdir, data_dir, run_dir):
    report_path = workdir / "report.json"
    assert run("evaluate", data_dir, "--model", run_dir / "model.json",
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["format"] == "spoofbench-report"
    assert 0.0 <= report["test_accuracy"] <= 1.0
    counts = report["confusion"]
    assert counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"] == 20
    assert report["dataset_spec_hash"] == json.loads(
        (data_dir / "test.meta.json").read_text()
    )["spec_hash"]
    assert report["detector"]["kind"] == "mlp"
    assert report["detector"]["method"] == "wd"
    assert "history" not in report  # the model file, named by model_sha256, holds it
    assert report["wall_clock_s"] > 0


def test_evaluate_is_deterministic_up_to_wall_clock(workdir, data_dir, run_dir):
    a, b = workdir / "ra.json", workdir / "rb.json"
    for out in (a, b):
        assert run("evaluate", data_dir, "--model", run_dir / "model.json", "--out", out) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("wall_clock_s"), db.pop("wall_clock_s")
    assert da == db


def test_evaluate_threshold_detector(workdir, data_dir):
    report_path = workdir / "thr.json"
    assert run("evaluate", data_dir, "--detector", "threshold", "--t", "1.5",
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["detector"] == {
        "kind": "threshold", "threshold_db": 1.5, "aggregation": "mean-delta", "fitted_on_train": False,
    }
    assert "history" not in report
    counts = report["confusion"]
    assert sum(counts.values()) == 20


# The seed-1 wd/3 split's fitted T and test accuracy for each aggregation;
# mean-delta is the default, given by no flag.
FITTED = {
    "mean-delta": ([], 1.457331316210478, 0.9525283797729618),
    "majority-vote": (["--aggregation", "majority-vote"], 1.4501769656286723, 0.9050567595459237),
}


@pytest.mark.parametrize("aggregation", sorted(FITTED))
def test_evaluate_fits_the_threshold_on_the_train_split(tmp_path, wd3_data, aggregation):
    flags, t, accuracy = FITTED[aggregation]
    out = tmp_path / "thr.json"
    assert run("evaluate", wd3_data, "--detector", "threshold", *flags, "--out", out) == 0
    report = json.loads(out.read_text())
    train = load(wd3_data / "train.csv")
    assert fit(window_means(train), train.labels, aggregation).threshold_db == t
    assert report["detector"] == {
        "kind": "threshold", "threshold_db": t, "aggregation": aggregation, "fitted_on_train": True,
    }
    assert report["test_accuracy"] == accuracy
    assert report["format_version"] == 2


def test_evaluate_refuses_to_fit_on_the_train_split_of_another_spec(tmp_path, data_dir, capsys):
    other = tmp_path / "seed4"
    assert run("init", "--out", other, "--seed", "4", *SMALL) == 0
    other_data = _generate(other)
    for suffix in (".csv", ".meta.json"):
        shutil.copyfile(other_data / f"train{suffix}", data_dir / f"train{suffix}")
    out = tmp_path / "thr.json"
    assert run("evaluate", data_dir, "--detector", "threshold", "--out", out) == 1
    train_hash, test_hash = (json.loads((data_dir / f"{s}.meta.json").read_text())["spec_hash"]
                             for s in ("train", "test"))
    assert train_hash != test_hash
    err = capsys.readouterr().err
    assert f"{data_dir / 'train.csv'} is of spec {train_hash}, but {data_dir / 'test.csv'} is of spec {test_hash}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--t", "1.5"), ("--aggregation", "mean-delta")])
def test_evaluate_model_refuses_the_threshold_flags(workdir, data_dir, run_dir, capsys, flag, value):
    out = workdir / "r.json"
    assert run("evaluate", data_dir, "--model", run_dir / "model.json", flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {flag} sets the threshold detector; --model takes none\n"
    assert not out.exists()


def test_evaluate_records_a_negative_zero_threshold_as_zero(workdir, data_dir):
    reports = []
    for t in ("-0", "0"):
        out = workdir / f"thr{t}.json"
        assert run("evaluate", data_dir, "--detector", "threshold", "--t", t, "--out", out) == 0
        report = json.loads(out.read_text())
        report.pop("wall_clock_s")
        reports.append(report)
    assert reports[0] == reports[1]
    assert repr(reports[0]["detector"]["threshold_db"]) == "0.0"


def test_evaluate_threshold_majority_vote_on_a_box_split(tmp_path, data_dir):
    """A box split holds no window means, so they are re-simulated: the
    verdicts are the ones the wd/3 rows of the same scene give."""
    box = _generate(_init(tmp_path / "box", "box", 3))
    out = tmp_path / "thr.json"
    assert run("evaluate", box, "--detector", "threshold", "--t", "1.45",
               "--aggregation", "majority-vote", "--out", out) == 0
    wd = load(data_dir / "test.csv")
    verdicts = decide(ThresholdDetector(1.45, "majority-vote"), wd.features)
    expected = confusion_matrix(verdicts.astype(float), wd.labels)
    assert json.loads(out.read_text())["confusion"] == expected
    assert 0 < expected["tp"] + expected["fp"] < 20  # both verdicts occur


def test_evaluate_threshold_scores_the_rows_in_the_file(workdir, data_dir):
    csv = data_dir / "test.csv"
    header, *rows = csv.read_text().splitlines()
    zeroed = [row.split(",", 1)[0] + ",0.0,0.0,0.0" for row in rows]  # labels kept, wd/3 means 0
    csv.write_text("\n".join([header, *zeroed]) + "\n")
    out = workdir / "thr.json"
    assert run("evaluate", data_dir, "--detector", "threshold", "--t", "1.5", "--out", out) == 0
    counts = json.loads(out.read_text())["confusion"]
    assert counts["tp"] == counts["fp"] == 0
    assert sum(counts.values()) == 20


def test_evaluate_refuses_a_model_trained_on_another_feature_method(workdir, run_dir, capsys):
    for method, n_bs in (("mvsk", 3), ("wd", 1)):
        other = _generate(_init(workdir / f"{method}{n_bs}", method, n_bs))
        capsys.readouterr()
        assert run("evaluate", other, "--model", run_dir / "model.json", "--out", workdir / "r.json") == 1
        err = capsys.readouterr().err
        assert "model was trained on 'wd' features" in err
        assert f"of 3 stations, dataset is '{method}' of {n_bs}" in err
        assert not (workdir / "r.json").exists()


def test_evaluate_requires_exactly_one_detector(data_dir, tmp_path):
    out = tmp_path / "r.json"
    for detectors in ([], ["--model", "m.json", "--detector", "threshold"]):
        with pytest.raises(SystemExit) as caught:  # argparse's usage error
            run("evaluate", data_dir, *detectors, "--out", out)
        assert caught.value.code == 2
    assert not out.exists()


def test_evaluate_missing_model_fails(data_dir, tmp_path):
    assert run("evaluate", data_dir, "--model", tmp_path / "nope.json",
               "--out", tmp_path / "r.json") == 1


def test_report_merges_runs_grouped_by_scenario(workdir, data_dir, run_dir):
    out = workdir / "curves.csv"
    copy = workdir / "a_run"  # sorts before run_dir, but is given after it
    shutil.copytree(run_dir, copy)
    assert run("report", run_dir, copy, run_dir, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,method,run,epoch,accuracy,mse"
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[:2] == ["3bs", "wd"] for r in rows)
    # The runs in the order given, each run's epochs in order.
    epochs = range(1, len(json.loads((run_dir / "model.json").read_text())["history"]) + 1)
    expected = [(str(d), e) for d in (run_dir, copy, run_dir) for e in epochs]
    assert [(r[2], int(r[3])) for r in rows] == expected


def test_report_refuses_a_run_directory_its_csv_cannot_hold(tmp_path, run_dir, capsys):
    named = tmp_path / "wd,3"
    shutil.copytree(run_dir, named)
    out = tmp_path / "curves.csv"
    assert run("report", run_dir, named, "--out", out) == 1
    message = f"run directory {str(named)!r}: a CSV cell cannot hold a comma or a line break"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("method", "wd,x", "meta.method must be one of"),
    ("method", "WD", "meta.method must be one of"),
    ("n_bs", -7, "meta.n_bs must be one of"),
    ("n_bs", 4, "meta.n_bs must be one of"),
    ("method", "mvsk", "meta: mvsk features of 3 stations are 12 wide, but architecture.input_width is 3"),
])
def test_report_and_evaluate_refuse_a_model_of_an_impossible_dataset(
        workdir, data_dir, run_dir, capsys, key, value, message):
    """A model whose meta names no feature method or station count a dataset
    can have, or a dataset whose rows are not the model's input width, is
    refused, by name, before any row of a report is written."""
    model = run_dir / "model.json"
    doc = json.loads(model.read_text())
    doc["meta"][key] = value
    model.write_text(json.dumps(doc))
    for argv in (("report", run_dir), ("evaluate", data_dir, "--model", model)):
        out = workdir / "out"
        capsys.readouterr()
        assert run(*argv, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_tune_writes_grid_report(monkeypatch, forks, workdir, data_dir):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    outputs = []
    for jobs in (1, 2, 3):
        forks.clear()
        out = workdir / f"tuned_{jobs}"
        assert run("tune", data_dir, "--out", out, "--lr-grid", "0.01,0.005",
                   "--layers-grid", "1,2", "--neurons-grid", "3,4", "--epochs", "15",
                   "--seed", "3", "--jobs", jobs) == 0
        assert len(forks) == jobs - 1
        outputs.append([(out / name).read_bytes() for name in ("grid_report.csv", "model.json")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    lines = (workdir / "tuned_1" / "grid_report.csv").read_text().splitlines()
    assert len(lines) == 9  # header + 2 rates x 2 depths x 2 widths
    assert lines[0].startswith("method,learning_rate,hidden_layers")
    ranks = sorted(int(line.split(",")[-1]) for line in lines[1:])
    assert ranks == list(range(1, 9))


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--lr-grid", "0.01,1e-2"], "the learning rate grid repeats 0.01"),
        (["--layers-grid", "1,1"], "the hidden layers grid repeats 1"),
        (["--lr-grid", "0.01,,0.05,"], "--lr-grid: cannot read cell 2 ('') as float"),
        (["--layers-grid", ",1"], "--layers-grid: cannot read cell 1 ('') as int"),
        (["--neurons-grid", "4,"], "--neurons-grid: cannot read cell 2 ('') as int"),
        (["--lr-grid", "0.01,fast"], "--lr-grid: cannot read cell 2 ('fast') as float"),
        (["--neurons-grid", "4,1.5"], "--neurons-grid: cannot read cell 2 ('1.5') as int"),
    ],
)
def test_tune_refuses_a_bad_grid(capsys, workdir, data_dir, grid, message):
    out = workdir / "tuned"
    argv = ["--lr-grid", "0.01", "--layers-grid", "1", "--neurons-grid", "4", "--epochs", "3", *grid]
    assert run("tune", data_dir, "--out", out, *argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
