#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark in sets of seeds and prints, for each
end-to-end metric and workload, its spread against the bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --workloads lowalt-sim

Each of two sets runs every workload once per seed for ten seeds
(workloads interleaved; seeds 1-10, then 11-20) for BENCHMARK.json's
run_seconds. The spread is the distance between the first and third
quartile of a set's values as a share of their median. A metric is
UNSTEADY when a spread exceeds its bound or the second set's median is
worse than the first's by more than the bound, and steady when every
spread is also below a third of the bound. Writes the values to
.perfbench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds per set
SETS = 2


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worsening(first: float, later: float, better: str) -> float:
    """Share by which `later` is worse than `first` (negative when better)."""
    if not first:
        return float("inf") if later != first else 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)] for w in workloads}
    failed = 0
    run_times = []
    for s in range(SETS):
        for j in range(RUNS):
            seed = 1 + s * RUNS + j
            for w in workloads:
                started = time.monotonic()
                result = run_once(w, seed, bench["run_seconds"])
                run_times.append(time.monotonic() - started)
                failed += result["failed"] + (not result["correct"])
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w}: correct={result['correct']} "
                      f"wall_s={result['metrics']['wall_s']['value']:.4g} "
                      f"setup_s={result['metrics']['setup_s']['value']:.4g} ({run_times[-1]:.0f} s)", flush=True)

    steady = failed == 0
    print(f"\n{'workload':11s} {'metric':15s} {'bound':>6s}  spreads per set   worst median shift  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = values[w]
            spreads = [spread(v[name]) if len(v[name]) > 1 else 0.0 for v in sets]
            medians = [statistics.median(v[name]) for v in sets]
            shift = max((worsening(medians[0], later, m["better"]) for later in medians[1:]), default=0.0)
            if shift > bound or any(sp > bound for sp in spreads):
                verdict = "UNSTEADY"
            elif all(sp < bound / 3 for sp in spreads):
                verdict = "steady"
            else:
                verdict = "within bound"
            steady &= verdict != "UNSTEADY"
            print(f"{w:11s} {name:15s} {bound:6.3f}  {' '.join(f'{sp:.4f}' for sp in spreads):16s}  "
                  f"{shift:+.4f}             {verdict}")
    mean_run = statistics.mean(run_times)
    print(f"\nmean run {mean_run:.1f} s; {4 + 22 * len(workloads)} runs would take {(4 + 22 * len(workloads)) * mean_run:.0f} s")
    print(f"failed operations: {failed}; {'STEADY' if steady else 'NOT STEADY'}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps({"workloads": workloads, "values": values}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
