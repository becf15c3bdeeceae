#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against a change checkout.

Runs ``python3 perfbench/run.py`` in each checkout, one pair per seed: the
parent first on odd seeds and the change first on even ones, so a drift of
the host's speed does not favour one side. Each pair's metrics are printed
as one JSON line as it finishes; the last line is the summary: per metric,
each side's runs, median and quartiles (``statistics.quantiles(n=4)``),
and the pairs the change won or tied. Which way is better comes from
``BENCHMARK.json``. Each end-to-end metric also gets its verdict
``worse_by_more_than_bound``: whether the change's median is worse than the
parent's by more than the metric's ``BENCHMARK.json`` bound, as a share of
the parent's median (``perfbench/steadiness.py``'s ``worsening``). With
``--claim METRIC``, that metric gets ``claim_met``: the change won at least
nine tenths of the pairs, ties counting for neither, and its median beats
the parent's by more than the distance between the parent's quartiles.
An untraced run also reports, from run.py's record, its ``raw_wall_s``
(the median iteration's wall time less the pace handler's, before pace
scaling) and its ``pace_factor`` (the reference kernel time over the mean
measured one), as run.py prints them, and likewise its ``raw_setup_s``
(the median set-up's) and ``setup_pace_samples`` (the pace samples its
set-ups took). run.py leaves a set-up that ends before the first sample
unscaled, so when one side's set-ups take no samples and the other's do,
only the raw set-up times compare like with like. The summary's
``bytecode`` records whether ``PYTHONDONTWRITEBYTECODE`` was set for the
runs and whether each checkout's ``src/spoofbench/__pycache__`` existed
before them: a process that compiles what it imports starts slower.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload headline
           [--seeds 1-10] [--seconds 46] [--trace 0] [--claim wall_s]
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
STEADINESS = ROOT / "perfbench" / "steadiness.py"
SIDES = ("parent", "change")
# A pace factor is the host's speed, better neither way.
RAW_METRICS = {
    "raw_wall_s": ("s", "lower"), "raw_setup_s": ("s", "lower"),
    "pace_factor": ("ratio", None), "setup_pace_samples": ("count", None),
}


def better_directions(path: Path = BENCHMARK) -> dict[str, str | None]:
    """Metric name -> "lower", "higher" or None, end-to-end, per-layer and raw."""
    doc = json.loads(path.read_text())
    directions = {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}
    return {**directions, **{name: better for name, (_, better) in RAW_METRICS.items()}}


def bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """End-to-end metric name -> the share by which it may worsen."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


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
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        record = checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json"
        reference_s = runpy.run_path(str(checkout / "perfbench" / "pace.py"))["REFERENCE_S"]
        result["metrics"].update(raw_metrics(json.loads(record.read_text()), reference_s))
    return result


def raw_metrics(record: dict, reference_s: float) -> dict:
    """raw_wall_s and pace_factor of a run's complete iterations, and
    raw_setup_s and setup_pace_samples of its complete set-ups, from the
    record run.py writes, in its result line's metric layout."""
    iterations = [it for it in record["iterations"] if it["wall_s"] is not None]
    raw = statistics.median(it["wall_s"] - it["pace"]["handler_s"] for it in iterations)
    samples = sum(it["pace"]["samples"] for it in iterations)
    factor = reference_s * samples / sum(it["pace"]["kernel_s"] for it in iterations) if samples else 1.0
    setups = [s for s in record["setups"] if s["setup_s"] is not None]
    values = {
        "raw_wall_s": raw, "pace_factor": factor,
        "raw_setup_s": statistics.median(s["setup_s"] - s["setup_pace"]["handler_s"] for s in setups),
        "setup_pace_samples": sum(s["setup_pace"]["samples"] for s in setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in RAW_METRICS.items()}


def bytecode_record(checkouts: dict[str, Path]) -> dict:
    """Whether the runs write no bytecode, and whether each side's
    src/spoofbench/__pycache__ exists, checked before the first run."""
    return {
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "pycache_existed": {side: (checkouts[side] / "src" / "spoofbench" / "__pycache__").is_dir() for side in SIDES},
    }


def _stats(runs: list[float]) -> dict:
    # statistics.quantiles needs two runs; one run is its own median and quartiles
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": runs}


def summarize(pairs: list[tuple[int, dict, dict]], better: dict[str, str | None],
              bound: dict[str, float], claim: str | None = None) -> dict:
    """pairs: (seed, parent result, change result) -> medians, quartiles,
    wins and verdicts per metric, in BENCH_*.json's end_to_end layout."""
    worsening = runpy.run_path(str(STEADINESS))["worsening"]
    summary = {
        "pairs": len(pairs),
        "seeds": [seed for seed, _, _ in pairs],
        "correct": all(r["correct"] for _, *sides in pairs for r in sides),
    }
    for name, first in pairs[0][1]["metrics"].items():
        runs = {side: [round(p[1 + k]["metrics"][name]["value"], 6) for p in pairs] for k, side in enumerate(SIDES)}
        summary[name] = {
            "unit": first["unit"],
            "better": better[name],
            **{side: _stats(runs[side]) for side in SIDES},
        }
        if better[name] is not None:
            sign = 1 if better[name] == "lower" else -1
            gaps = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
            entry = summary[name]
            entry["change_better_pairs"] = sum(g > 0 for g in gaps)
            entry["tied_pairs"] = sum(g == 0 for g in gaps)
            parent, change = entry["parent"], entry["change"]
            if name in bound:
                entry["worse_by_more_than_bound"] = worsening(parent["median"], change["median"], better[name]) > bound[name]
            if name == claim:
                gap = sign * (parent["median"] - change["median"])
                entry["claim_met"] = entry["change_better_pairs"] >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"]
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=46)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", metavar="METRIC", help="the metric the change claims to improve")
    args = ap.parse_args(argv)
    better = better_directions()
    if args.claim is not None and better.get(args.claim) is None:
        ap.error(f"--claim {args.claim}: not a metric that is better one way")
    checkouts = {"parent": args.parent, "change": args.change}
    bytecode = bytecode_record(checkouts)
    pairs = []
    for seed in args.seeds:
        results = {side: run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
                   for side in run_order(seed)}
        pairs.append((seed, results["parent"], results["change"]))
        print(json.dumps({"seed": seed, "order": run_order(seed), **results}), flush=True)
    print(json.dumps({**summarize(pairs, better, bounds(), args.claim), "bytecode": bytecode}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
