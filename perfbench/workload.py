"""One workload process: set up, then run timed iterations.

Every step goes through the program's user-facing interface, an argument
list for ``spoofbench.cli.main``, on config and spec files this process
writes. Output files are digested after each step so the caller can check
them against goldens and across iterations. Untraced, the process times the
host pace (``pace.py``) from its start, and reports it with the set-up and
with every iteration. Started by ``run.py``, which reads the JSON this
process writes to ``--out``.

    python3 perfbench/workload.py --workload headline --seed 1 --seconds 46 \
        --trace 0 --scale full --mode run --budget 150 --workdir W --out W/result.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from pace import Pace, since

WORKLOADS = ("headline", "tune-grid", "lowalt-sim")

# Training runs a fixed number of epochs (patience = epochs), so the amount
# of training work does not depend on the seed. With early stopping it
# varies up to fivefold: headline ran 37-179 epochs over seeds 1-20, and
# tune-grid 637 epochs at seed 2 and 1122 at seed 3. 118 epochs is where
# headline's early stopping (500 epochs, patience 15) stops at seed 1, and
# the trainer keeps the best epoch's weights, so the seed-1 model is the
# same either way.
SCALES = {
    "full": {"train_size": 2259, "test_size": 969, "train_epochs": 118, "tune_epochs": 43},
    "tiny": {"train_size": 40, "test_size": 20, "train_epochs": 5, "tune_epochs": 3},
}

TUNE_GRID = ("--layers-grid", "3", "--neurons-grid", "16,32")  # all 6 grid learning rates
LOWALT_START_HEIGHT_M = 50.0
BATCH_SIZE = 32
VAL_FRACTION = 0.2


class StepFailed(RuntimeError):
    pass


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def model_digest(path) -> str:
    """sha256 of a model's weights, biases and history, not its metadata."""
    doc = json.loads(Path(path).read_text())
    core = {k: doc[k] for k in ("weights", "biases", "history")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def train_steps(n_rows: int, epochs: int) -> int:
    """Optimizer steps for `epochs` epochs on n_rows, by the trainer's split rule."""
    n_val = max(1, int(round(VAL_FRACTION * n_rows)))
    return epochs * math.ceil((n_rows - n_val) / BATCH_SIZE)


class Run:
    """State of one workload process: paths, seed, step log and tracer."""

    def __init__(self, workdir: Path, seed: int, scale: str, pace: Pace, recorder=None):
        self.dir = workdir
        self.seed = str(seed)
        self.scale = SCALES[scale]
        self.pace = pace
        self.recorder = recorder
        self.traced = False
        self.ops: list[dict] = []
        self.steps: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self.obs: dict[str, object] = {}
        from spoofbench.cli import main  # imported here: part of set-up time

        self._main = main

    def path(self, *parts) -> str:
        return str(self.dir.joinpath(*parts))

    def cli(self, label: str, argv: list[str]) -> None:
        span = self.recorder.open(f"cli.{label}", "cli") if self.traced else None
        handler_s = self.pace.handler_s
        started = time.perf_counter()
        try:
            rc = self._main(argv)
        finally:
            seconds = time.perf_counter() - started - (self.pace.handler_s - handler_s)
            if span is not None:
                self.recorder.close(span)
        self.ops.append({"label": label, "seconds": seconds, "rc": rc})
        self.steps[label] = self.steps.get(label, 0.0) + seconds
        if rc != 0:
            raise StepFailed(f"{label} returned {rc}: {argv}")

    def add_work(self, name: str, amount) -> None:
        self.work[name] = self.work.get(name, 0) + amount

    # -- shared steps -------------------------------------------------------

    def init(self, method: str) -> None:
        self.cli("init", [
            "init", "--out", str(self.dir), "--seed", self.seed, "--method", method,
            "--n-bs", "3", "--train-size", str(self.scale["train_size"]),
            "--test-size", str(self.scale["test_size"]),
        ])

    def generate(self) -> None:
        self.cli("generate", ["generate", "--spec", self.path("spec.json"), "--out", self.path("data")])
        n_rows = 0
        for split in ("train", "test"):
            self.obs[f"{split}_csv_sha256"] = sha256_file(self.path("data", f"{split}.csv"))
            sidecar = json.loads(Path(self.path("data", f"{split}.meta.json")).read_text())
            self.obs[f"replay.{split}_spec_hash"] = sidecar["spec_hash"]
            n_rows += sidecar["n_rows"]
        self.add_work("rows_generated", n_rows)

    def evaluate_model(self, model: str) -> None:
        report = self.path("report.json")
        self.cli("evaluate", ["evaluate", self.path("data"), "--model", model, "--out", report])
        doc = json.loads(Path(report).read_text())
        self.obs["test_accuracy"] = doc["test_accuracy"]
        self.obs["replay.report_model_sha256"] = doc["detector"]["model_sha256"]
        self.obs["replay.report_spec_hash"] = doc["dataset_spec_hash"]

    def evaluate_threshold(self, t: str, aggregation: str, key: str) -> None:
        report = self.path(f"{key}.json")
        self.cli("evaluate_threshold", [
            "evaluate", self.path("data"), "--detector", "threshold", "--t", t,
            "--aggregation", aggregation, "--out", report,
        ])
        doc = json.loads(Path(report).read_text())
        self.obs[key] = doc["test_accuracy"]
        self.add_work("threshold_rows", sum(doc["confusion"].values()))

    def model_outputs(self, run_dir: str) -> dict:
        model_path = Path(run_dir, "model.json")
        doc = json.loads(model_path.read_text())
        self.obs["model_digest"] = model_digest(model_path)
        self.obs["replay.model_file_sha256"] = sha256_file(model_path)
        self.obs["replay.model_meta_spec_hash"] = doc["meta"]["dataset_spec_hash"]
        self.add_work("model_bytes", model_path.stat().st_size)
        return doc

    def train_rows(self) -> int:
        sidecar = json.loads(Path(self.path("data", "train.meta.json")).read_text())
        return sidecar["n_rows"]


# -- workloads ----------------------------------------------------------------


def setup_headline(run: Run) -> None:
    run.init("wd")


def iterate_headline(run: Run) -> None:
    """init -> generate -> train (wd/3 preset) -> evaluate -> threshold T=1.5."""
    run.generate()
    epochs = str(run.scale["train_epochs"])
    run.cli("train", [
        "train", run.path("data"), "--out", run.path("run"), "--seed", run.seed,
        "--lr", "0.0005", "--layers", "3", "--neurons", "16",
        "--epochs", epochs, "--patience", epochs,
    ])
    doc = run.model_outputs(run.path("run"))
    n_epochs = len(doc["history"])
    run.add_work("epochs", n_epochs)
    run.add_work("best_epochs", doc["best_epoch"])
    run.add_work("configs", 1)
    run.add_work("steps", train_steps(run.train_rows(), n_epochs))
    run.evaluate_model(run.path("run", "model.json"))
    run.evaluate_threshold("1.5", "mean-delta", "threshold_accuracy")


def setup_tune_grid(run: Run) -> None:
    run.init("wd")
    run.generate()


def iterate_tune_grid(run: Run) -> None:
    """tune over 6 learning rates x depth 3 x width {16, 32}, then evaluate the winner."""
    epochs = str(run.scale["tune_epochs"])
    run.cli("tune", [
        "tune", run.path("data"), "--out", run.path("tuned"), "--seed", run.seed,
        *TUNE_GRID, "--jobs", "1", "--epochs", epochs, "--patience", epochs,
    ])
    report = Path(run.path("tuned", "grid_report.csv"))
    rows = list(csv.DictReader(report.read_text().splitlines()))
    run.obs["grid_report_sha256"] = sha256_file(report)
    winners = [r for r in rows if r["rank"] == "1"]
    if len(winners) != 1:
        raise ValueError(f"grid_report.csv has {len(winners)} rank-1 rows")
    winner = winners[0]
    run.obs["winner"] = f"{winner['learning_rate']},{winner['hidden_layers']},{winner['neurons']}"
    n_epochs = sum(int(r["epochs_run"]) for r in rows)
    run.add_work("epochs", n_epochs)
    run.add_work("best_epochs", sum(int(r["best_epoch"]) for r in rows))
    run.add_work("configs", len(rows))
    run.add_work("steps", train_steps(run.train_rows(), n_epochs))
    run.model_outputs(run.path("tuned"))
    run.evaluate_model(run.path("tuned", "model.json"))


def setup_lowalt(run: Run) -> None:
    """box/3 spec on a low-altitude scene with sampled LoS."""
    run.init("box")
    config_path, spec_path = Path(run.path("config.json")), Path(run.path("spec.json"))
    config, spec = json.loads(config_path.read_text()), json.loads(spec_path.read_text())
    for doc in (config, spec["scenario"]):
        doc["start"][2] = LOWALT_START_HEIGHT_M
        doc["sampled_los"] = True
    config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    spec_path.write_text(json.dumps(spec, sort_keys=True, indent=1) + "\n")


def iterate_lowalt(run: Run) -> None:
    """generate -> simulate -> threshold T=3.0 by mean-delta and majority vote."""
    run.generate()
    archive = run.path("archive.json")
    run.cli("simulate", ["simulate", "--config", run.path("config.json"), "--out", archive])
    run.obs["replay.archive_sha256"] = sha256_file(archive)
    run.evaluate_threshold("3.0", "mean-delta", "test_accuracy")
    run.evaluate_threshold("3.0", "majority-vote", "vote_accuracy")


STEPS = {
    "headline": (setup_headline, iterate_headline),
    "tune-grid": (setup_tune_grid, iterate_tune_grid),
    "lowalt-sim": (setup_lowalt, iterate_lowalt),
}


# -- process entry --------------------------------------------------------------


def take(run: Run) -> dict:
    """Moves the step log, work counts and observations out of `run`."""
    out = {"ops": run.ops, "steps": run.steps, "work": run.work, "obs": run.obs}
    run.ops, run.steps, run.work, run.obs = [], {}, {}, {}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds this process may run")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    process_start = time.monotonic()
    pace = Pace()
    if not args.trace:
        pace.start()
    recorder = None
    if args.trace and args.mode == "run":
        import spans
        import spoofbench.cli  # noqa: F401 - the targets must exist before wrapping

        recorder = spans.Recorder()
        recorder.install()
    args.workdir.mkdir(parents=True, exist_ok=True)
    setup, iterate = STEPS[args.workload]
    result = {"setup": None, "iterations": [], "error": None}
    run = Run(args.workdir, args.seed, args.scale, pace, recorder)
    run.traced = recorder is not None
    try:
        setup(run)
        result["ready_at"] = time.monotonic()
        result["setup_pace"] = pace.snapshot()
        result["setup"] = take(run)
        if args.mode == "run":
            # With tracing, even iterations run untraced and odd ones traced,
            # so the overhead is measured in the same process. An iteration
            # starts only if, at the previous one's pace, it ends within
            # --seconds; this bounds a run's length on a slow machine.
            min_iterations = 2 if recorder else 1
            started = time.monotonic()
            i, wall = 0, 0.0
            while i < min_iterations or (
                time.monotonic() - started + wall <= args.seconds
                and time.monotonic() - process_start + wall <= args.budget
            ):
                run.traced = recorder is not None and i % 2 == 1
                if recorder is not None:
                    recorder.iteration = i
                    if run.traced:
                        recorder.install()
                    else:
                        recorder.uninstall()
                before = pace.snapshot()
                t0 = time.perf_counter()
                iterate(run)
                wall = time.perf_counter() - t0
                result["iterations"].append({
                    "wall_s": wall, "pace": since(before, pace.snapshot()), "traced": run.traced, **take(run),
                })
                i += 1
    except (StepFailed, OSError, KeyError, ValueError) as exc:
        # A failed command or an unreadable output counts as a failed check.
        result["error"] = f"{type(exc).__name__}: {exc}"
        part = take(run)
        if result["setup"] is None:
            result["setup"] = part
        else:
            result["iterations"].append({"wall_s": None, "traced": run.traced, **part})
    finally:
        pace.stop()
        if recorder is not None:
            recorder.uninstall()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["trace"] = recorder.to_json()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
