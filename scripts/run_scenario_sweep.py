#!/usr/bin/env python3
"""Train all nine (feature method, station count) detectors at the shipped
reference settings and merge their training curves into one report CSV.
Each dataset has its own directory: `init --method M --n-bs K` writes its
spec.json, and `generate` makes the data from it.

Usage: python scripts/run_scenario_sweep.py [--seed 1] [--workdir runs/sweep]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from spoofbench.cli import main as cli
from spoofbench.spec import METHODS


def run(seed: int, workdir: Path) -> None:
    run_dirs = []
    results = {}
    for n_bs in (3, 2, 1):
        for method in METHODS:
            root = workdir / f"{method}_{n_bs}bs"
            assert cli(["init", "--out", str(root), "--seed", str(seed),
                        "--method", method, "--n-bs", str(n_bs)]) == 0
            data = root / "data"
            assert cli(["generate", "--spec", str(root / "spec.json"), "--out", str(data)]) == 0
            run_dir = root / "run"
            # `train` reads this scenario's reference settings from the presets.
            assert cli(["train", str(data), "--out", str(run_dir), "--seed", str(seed)]) == 0
            report = run_dir / "report.json"
            assert cli(["evaluate", str(data), "--model", str(run_dir / "model.json"),
                        "--out", str(report)]) == 0
            results[(method, n_bs)] = json.loads(report.read_text())["test_accuracy"]
            run_dirs.append(str(run_dir))
    assert cli(["report", *run_dirs, "--out", str(workdir / "curves.csv")]) == 0

    print("\ntest accuracy by scenario:")
    print(f"{'':8s}" + "".join(f"{m:>8s}" for m in METHODS))
    for n_bs in (3, 2, 1):
        print(f"{n_bs} BS    " + "".join(f"{results[(m, n_bs)]:8.4f}" for m in METHODS))
    print(f"\ncurves: {workdir / 'curves.csv'}")

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workdir", type=Path, default=Path("runs/sweep"))
    run(**vars(ap.parse_args()))
