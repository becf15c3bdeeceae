#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against a change checkout.

Runs ``python3 perfbench/run.py`` in each checkout, one pair per seed: the
parent first on odd seeds and the change first on even ones, so a drift of
the host's speed does not favour one side. Each pair's metrics are printed
as one JSON line as it finishes; the last line is the summary: per metric,
each side's runs, median and quartiles (``statistics.quantiles(n=4)``),
and the pairs the change won or tied. Which way is better comes from
``BENCHMARK.json``.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload headline
           [--seeds 1-10] [--seconds 46] [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def better_directions(path: Path = BENCHMARK) -> dict[str, str]:
    """Metric name -> "lower" or "higher", end-to-end and per-layer."""
    doc = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def run_order(seed: int) -> tuple[str, str]:
    """The sides of seed's pair in the order they run."""
    return SIDES if seed % 2 else SIDES[::-1]


def parse_seeds(text: str) -> list[int]:
    """"1-10" or "1,3,5" -> a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """run.py's result line: {correct, attempted, failed, metrics}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(runs: list[float]) -> dict:
    # statistics.quantiles needs two runs; one run is its own median and quartiles
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": runs}


def summarize(pairs: list[tuple[int, dict, dict]], better: dict[str, str]) -> dict:
    """pairs: (seed, parent result, change result) -> medians, quartiles
    and wins per metric, in BENCH_*.json's end_to_end layout."""
    summary = {
        "pairs": len(pairs),
        "seeds": [seed for seed, _, _ in pairs],
        "correct": all(r["correct"] for _, *sides in pairs for r in sides),
    }
    for name, first in pairs[0][1]["metrics"].items():
        runs = {side: [round(p[1 + k]["metrics"][name]["value"], 6) for p in pairs] for k, side in enumerate(SIDES)}
        sign = 1 if better[name] == "lower" else -1
        gaps = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
        summary[name] = {
            "unit": first["unit"],
            "better": better[name],
            **{side: _stats(runs[side]) for side in SIDES},
            "change_better_pairs": sum(g > 0 for g in gaps),
            "tied_pairs": sum(g == 0 for g in gaps),
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=46)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for seed in args.seeds:
        results = {side: run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
                   for side in run_order(seed)}
        pairs.append((seed, results["parent"], results["change"]))
        print(json.dumps({"seed": seed, "order": run_order(seed), **results}), flush=True)
    print(json.dumps(summarize(pairs, better_directions())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
