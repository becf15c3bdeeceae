#!/usr/bin/env python3
"""Headline experiment: 3-station WD detector on the default full-size
dataset (2259 train / 969 test rows), trained at the shipped reference
settings, compared against the threshold baseline at the T that `evaluate`
fits on the training split.

Usage: python scripts/run_headline.py [--seed 1] [--workdir runs/headline]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from spoofbench.cli import main as cli


def run(seed: int, workdir: Path) -> dict:
    """Runs the experiment in workdir, prints the comparison and returns it."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    assert cli(["init", "--out", str(workdir), "--method", "wd", "--n-bs", "3",
                "--seed", str(seed)]) == 0
    assert cli(["generate", "--spec", str(workdir / "spec.json"),
                "--out", str(workdir / "data")]) == 0
    # `train` reads the wd/3 reference settings from the presets.
    assert cli(["train", str(workdir / "data"), "--out", str(workdir / "run"),
                "--seed", str(seed)]) == 0
    assert cli(["evaluate", str(workdir / "data"),
                "--model", str(workdir / "run" / "model.json"),
                "--out", str(workdir / "report.json")]) == 0
    # With no --t, T is fitted on the training split, as the MLP's settings
    # are, and scored on the test split.
    assert cli(["evaluate", str(workdir / "data"), "--detector", "threshold",
                "--out", str(workdir / "threshold.json")]) == 0
    report = json.loads((workdir / "report.json").read_text())
    threshold = json.loads((workdir / "threshold.json").read_text())
    elapsed = time.perf_counter() - t0
    t = threshold["detector"]["threshold_db"]

    print(f"\nWD-MLP (3 BS) test accuracy : {report['test_accuracy']:.4f}")
    print(f"WD-MLP test MSE             : {report['test_mse']:.5f}")
    print(f"confusion                   : {report['confusion']}")
    print(f"threshold baseline          : acc {threshold['test_accuracy']:.4f} at T={t:.4f} dB (fitted on train)")
    print(f"MLP margin over baseline    : {report['test_accuracy'] - threshold['test_accuracy']:+.4f}")
    print(f"wall clock                  : {elapsed:.1f} s")
    return {"mlp_accuracy": report["test_accuracy"], "threshold_db": t,
            "threshold_accuracy": threshold["test_accuracy"]}


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workdir", type=Path, default=Path("runs/headline"))
    run(**vars(ap.parse_args()))
