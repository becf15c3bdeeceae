#!/usr/bin/env python3
"""Full hyperparameter search: 6 learning rates x 6 depths x 6 widths = 216
configurations per (method, station count). Long-running; restrict with
--methods/--n-bs. Each dataset has its own directory: `init --method M
--n-bs K` writes its spec.json, and `generate` makes the data from it.
tune trains architectures in one process per usable CPU; --jobs N caps
that at N processes, and the outputs do not depend on it.

Usage: python scripts/run_full_tuning.py --methods wd --n-bs 3 [--jobs N]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from spoofbench.cli import main as cli
from spoofbench.dataset import BS_SUBSETS
from spoofbench.features import METHODS


def run(seed: int, workdir: Path, methods: list[str], n_bs: list[int], jobs: int | None) -> None:
    jobs_flag = [] if jobs is None else ["--jobs", str(jobs)]
    for k in n_bs:
        for method in methods:
            root = workdir / f"{method}_{k}bs"
            assert cli(["init", "--out", str(root), "--seed", str(seed),
                        "--method", method, "--n-bs", str(k)]) == 0
            data = root / "data"
            assert cli(["generate", "--spec", str(root / "spec.json"), "--out", str(data)]) == 0
            out = root / "tuned"
            assert cli(["tune", str(data), "--out", str(out), *jobs_flag, "--seed", str(seed)]) == 0
            assert cli(["evaluate", str(data), "--model", str(out / "model.json"),
                        "--out", str(out / "report.json")]) == 0
            print(f"-> {out}/grid_report.csv")

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workdir", type=Path, default=Path("runs/tuning"))
    ap.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    ap.add_argument("--n-bs", nargs="+", type=int, choices=tuple(BS_SUBSETS), default=[3, 2, 1])
    ap.add_argument("--jobs", type=int, default=None)
    run(**vars(ap.parse_args()))
