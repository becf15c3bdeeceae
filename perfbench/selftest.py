#!/usr/bin/env python3
"""Benchmark self-test at tiny sizes (40/20 rows, a few epochs).

    python3 perfbench/selftest.py

Checks that every workload run.py knows emits every metric declared in
BENCHMARK.json with its unit, untraced and traced; that a run checked
against goldens it recorded itself passes; that a corrupted golden makes the run report
``correct: false`` with a failed operation (the gate gates); and that in a
directory holding only BENCHMARK.json and perfbench/ the benchmark exits
non-zero without printing a result. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "1", "--seconds", "1", "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    recorded = SCRATCH / "goldens.json"

    for workload in WORKLOADS:  # lowalt-sim too, though BENCHMARK.json does not declare it
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            rc, out = bench("--workload", workload, "--trace", trace, "--record-goldens", str(recorded))
            expect(rc == 0, f"{workload} trace {trace} exits 0")
            result = last_json(out)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace} is correct")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == {m["name"]: m["unit"] for m in declared},
                   f"{workload} trace {trace} emits every declared metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace {trace} values are numbers")

    rc, out = bench("--workload", "headline", "--goldens", str(recorded))
    passing = last_json(out)
    expect(rc == 0 and passing["correct"], "headline passes against the goldens it recorded")

    corrupted = json.loads(recorded.read_text())
    outputs = corrupted["headline"][0]["outputs"]
    outputs["train_csv_sha256"] = "0" * 64
    broken = SCRATCH / "corrupted.json"
    broken.write_text(json.dumps(corrupted))
    rc, out = bench("--workload", "headline", "--goldens", str(broken))
    failing = last_json(out)
    expect(rc == 0 and not failing["correct"] and failing["failed"] == 1,
           "a corrupted golden is reported as one failed operation")
    expect("# FAILED: golden train_csv_sha256" in out, "the failure names the corrupted golden")
    expect(failing["metrics"]["success_ratio"]["value"] < 1.0, "success_ratio drops below 1")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench("--workload", "headline", cwd=bare, script=bare / "perfbench" / "run.py")
    expect(rc != 0 and not out.strip(), "without the program the benchmark exits non-zero and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
