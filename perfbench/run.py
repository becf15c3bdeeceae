#!/usr/bin/env python3
"""spoofbench benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 46 --trace 0

Each workload runs in its own processes (``perfbench/workload.py``), started
from this one with BLAS pinned to one thread: a few set-up-only processes,
whose median time to ready is ``setup_s``, then one process that sets up and
runs timed iterations for ``--seconds``. Untraced, both timings are taken at
a fixed host pace (``perfbench/pace.py``): each set-up and each iteration is
scaled by how fast a frozen reference kernel ran during it, because on a
shared machine the same work runs up to twice as slow from one minute to
the next. Raw times are printed next to them. Outputs are checked against the
seed-1 goldens in ``perfbench/goldens.json``, against each other across
iterations and set-ups (replay), and, on ``headline``, against the 0.90
accuracy gate. ``--trace 1`` alternates untraced and traced iterations and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits non-zero
without a result when the program or a workload process cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("headline", "tune-grid", "lowalt-sim")
BLAS_THREADS = 1  # <= nproc; tiny matrices, and one thread keeps results bit-stable
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up processes per run; setup_s is their median. tune-grid generates its
# dataset in set-up (about 6 s), the others only import and write configs.
SETUPS = {"headline": 7, "tune-grid": 3, "lowalt-sim": 7}
DEADLINE_S = 170.0  # every process of a run ends within this
HEADLINE_ACCURACY_GATE = 0.90  # acceptance criterion 01

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "ratio",
    "success_ratio": "ratio",
}

# Per-command rates, reported per layer: each applies to some workloads only.
RATE_UNITS = {
    "cli.generate_rows_per_s": "1/s",
    "cli.train_epochs_per_s": "1/s",
    "cli.tune_configs_per_s": "1/s",
    "cli.threshold_rows_per_s": "1/s",
}

LAYER_UNITS = {
    "channel.windows": "count",
    "channel.self_s": "s",
    "channel.us_per_window": "us",
    "scenario.scenarios": "count",
    "scenario.self_s": "s",
    "scenario.us_per_scenario": "us",
    "features.rows": "count",
    "features.self_s": "s",
    "features.us_per_row": "us",
    "baseline.decisions": "count",
    "baseline.self_s": "s",
    "baseline.resimulated_rows": "count",
    "baseline.resim_ratio": "ratio",
    "mlp.train_s": "s",
    "mlp.epochs": "count",
    "mlp.steps": "count",
    "mlp.ms_per_epoch": "ms",
    "mlp.useful_epoch_ratio": "ratio",
    "mlp.configs": "count",
    "mlp.forward_rows": "count",
    "mlp.forward_s": "s",
    "mlp.model_io_s": "s",
    "mlp.model_bytes": "bytes",
    "dataset.self_s": "s",
    "dataset.save_s": "s",
    "dataset.load_s": "s",
    "dataset.csv_bytes": "bytes",
    "dataset.write_mb_per_s": "MB/s",
    "dataset.read_mb_per_s": "MB/s",
    "configio.calls": "count",
    "configio.self_s": "s",
    "cli.init_s": "s",
    "cli.generate_s": "s",
    "cli.train_s": "s",
    "cli.tune_s": "s",
    "cli.evaluate_s": "s",
    "cli.evaluate_threshold_s": "s",
    **RATE_UNITS,
    "trace.overhead_s": "s",
    "trace.absent_targets": "count",
}


class WorkloadError(RuntimeError):
    """A workload process could not run; no result is printed."""


# -- statistics -----------------------------------------------------------------


def high_percentile(samples):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[min(len(xs) - 1, math.ceil(len(xs) * p / 100.0) - 1)]
    return None


def describe(samples, unit: str) -> str:
    if not samples:
        return "n=0"
    text = f"median {statistics.median(samples):.6g} {unit}, n={len(samples)}"
    high = high_percentile(samples)
    if high is None:
        return text + " (too few samples for a tail percentile)"
    return text + f", p{high[0]:g} {high[1]:.6g} {unit}"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- environment ----------------------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "spoofbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, numpy_info: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_info.get("numpy"),
        "blas": numpy_info.get("blas"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "setups": SETUPS[args.workload],
        "pace_reference_s": pace.REFERENCE_S,
        "pace_interval_s": pace.INTERVAL_S,
    }


NUMPY_PROBE = (
    "import json, numpy\n"
    "blas = 'unknown'\n"
    "try:\n"
    "    info = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "    blas = f\"{info.get('name')} {info.get('version')}\"\n"
    "except Exception:\n"
    "    pass\n"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n"
)


# -- processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> subprocess.CompletedProcess:
    with log.open("ab") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkloadError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from None
    return proc


def workload_process(args, mode: str, workdir: Path, deadline: float) -> dict:
    """Runs one workload process; returns its result with setup_s filled in."""
    out = workdir / "result.json"
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--mode", mode,
        "--budget", str(max(1.0, deadline - time.monotonic() - 5.0)),
        "--workdir", str(workdir), "--out", str(out),
    ]
    started = time.monotonic()
    proc = run_child(argv, workdir.parent / f"{workdir.name}.log", deadline)
    if proc.returncode != 0 or not out.is_file():
        tail = (workdir.parent / f"{workdir.name}.log").read_text(errors="replace")[-2000:]
        raise WorkloadError(f"{mode} process exited with {proc.returncode}:\n{tail}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_at"] - started if "ready_at" in result else None
    result["setup_adj_s"] = pace.adjusted(result["setup_s"], result["setup_pace"]) if "ready_at" in result else None
    for it in result["iterations"]:
        it["adj_s"] = pace.adjusted(it["wall_s"], it["pace"]) if it["wall_s"] is not None else None
    return result


# -- checks -----------------------------------------------------------------------


class Checks:
    """Counts operations attempted and failed; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def ops(self, ops: list[dict], where: str) -> None:
        for op in ops:
            self.check(op["rc"] == 0, f"{where}: {op['label']} returned {op['rc']}")


def golden_entry(path: Path, workload: str, seed: int, scale: str) -> dict | None:
    if not path.is_file():
        return None
    for entry in json.loads(path.read_text()).get(workload, []):
        if entry["seed"] == seed and entry["scale"] == scale:
            return entry["outputs"]
    return None


def check_outputs(args, setups: list[dict], main: dict, checks: Checks) -> dict:
    """Replay, golden and accuracy checks; returns the first complete outputs."""
    for i, s in enumerate(setups):
        checks.ops(s["setup"]["ops"] if s["setup"] else [], f"set-up {i}")
        if s.get("error"):
            checks.check(False, f"set-up {i}: {s['error']}")
    iterations = main["iterations"]
    for i, it in enumerate(iterations):
        checks.ops(it["ops"], f"iteration {i}")
    if main.get("error"):
        checks.check(False, main["error"])
    complete = [it for it in iterations if it["wall_s"] is not None]
    checks.check(bool(complete), "no iteration completed")
    if not complete:
        return {}

    # One replay check per set-up and per iteration, so the number of checks
    # grows with iterations only, not with the outputs compared.
    setup_obs = [s["setup"]["obs"] for s in setups if s["setup"]]
    for i, obs in enumerate(setup_obs[1:], start=1):
        differ = [key for key, value in setup_obs[0].items() if obs.get(key) != value]
        checks.check(not differ, f"set-up {i}: {', '.join(differ)} differ from set-up 0 (replay)")
    first = complete[0]["obs"]
    for i, it in enumerate(complete[1:], start=1):
        differ = [key for key, value in first.items() if it["obs"].get(key) != value]
        checks.check(not differ, f"iteration {i}: {', '.join(differ)} differ from iteration 0 (replay)")
    outputs = {**(setup_obs[0] if setup_obs else {}), **first}

    goldens = golden_entry(Path(args.goldens), args.workload, args.seed, args.scale)
    if goldens is not None:
        for key, value in goldens.items():
            checks.check(outputs.get(key) == value, f"golden {key}: expected {value!r}, got {outputs.get(key)!r}")
    if args.workload == "headline" and args.scale == "full":
        for i, it in enumerate(complete):
            acc = it["obs"].get("test_accuracy", 0.0)
            checks.check(acc >= HEADLINE_ACCURACY_GATE, f"iteration {i}: accuracy {acc} below {HEADLINE_ACCURACY_GATE}")
    if args.record_goldens:
        record_goldens(Path(args.record_goldens), args, outputs)
    return outputs


def record_goldens(path: Path, args, outputs: dict) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    entries = [e for e in doc.get(args.workload, []) if (e["seed"], e["scale"]) != (args.seed, args.scale)]
    kept = {k: v for k, v in sorted(outputs.items()) if not k.startswith("replay.")}
    entries.append({"seed": args.seed, "scale": args.scale, "outputs": kept})
    doc[args.workload] = sorted(entries, key=lambda e: (e["scale"], e["seed"]))
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


# -- metrics ----------------------------------------------------------------------


def command_rates(iterations: list[dict]) -> dict[str, list[float]]:
    """Per-iteration work per second of each command, over complete iterations."""
    rates = {name: [] for name in RATE_UNITS}
    for it in iterations:
        if it["wall_s"] is None:
            continue
        steps, work = it["steps"], it["work"]
        if steps.get("generate"):
            rates["cli.generate_rows_per_s"].append(work["rows_generated"] / steps["generate"])
        train_s = steps.get("train", 0.0) + steps.get("tune", 0.0)
        if train_s:
            rates["cli.train_epochs_per_s"].append(work["epochs"] / train_s)
        if steps.get("tune"):
            rates["cli.tune_configs_per_s"].append(work["configs"] / steps["tune"])
        if steps.get("evaluate_threshold"):
            rates["cli.threshold_rows_per_s"].append(work["threshold_rows"] / steps["evaluate_threshold"])
    return rates


def end_to_end(setups: list[dict], main: dict, outputs: dict, checks: Checks) -> dict:
    walls = [it["adj_s"] for it in main["iterations"] if it["adj_s"] is not None]
    setup_times = [s["setup_adj_s"] for s in setups if s["setup_adj_s"] is not None]
    return {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "wall_s": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "test_accuracy": float(outputs.get("test_accuracy", 0.0)),
        "success_ratio": 1.0 - len(checks.failures) / checks.attempted,
    }


def per_layer(main: dict) -> dict:
    """Layer metrics for one pass: set-up once plus the mean traced iteration."""
    trace = main["trace"]
    traced_ids = [i for i, it in enumerate(main["iterations"]) if it["traced"] and it["wall_s"] is not None]
    scope = ["setup", *traced_ids]

    def per_pass(values: dict) -> float:
        if not traced_ids:
            return values.get("setup", 0.0)
        return values.get("setup", 0.0) + sum(values.get(i, 0.0) for i in traced_ids) / len(traced_ids)

    spans = trace["spans"]
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    sums: dict[str, dict] = {}

    def add(key, iteration, value):
        bucket = sums.setdefault(key, {})
        bucket[iteration] = bucket.get(iteration, 0.0) + value

    training = {"mlp.train", "mlp.tune"}
    for s, self_time in zip(spans, own):
        if s["iteration"] not in scope:
            continue
        duration = s["end"] - s["start"]
        add(f"{s['layer']}.self_s", s["iteration"], self_time)
        add(f"span:{s['name']}", s["iteration"], duration)
        add(f"self:{s['name']}", s["iteration"], self_time)
        if s["name"] in training and (s["parent"] is None or spans[s["parent"]]["name"] not in training):
            add("mlp.train_s", s["iteration"], duration)
    for c in trace["counts"]:
        if c["iteration"] in scope:
            add(c["name"], c["iteration"], c["value"])
    for i in traced_ids:
        for key, value in main["iterations"][i]["work"].items():
            add(f"work:{key}", i, value)

    def v(key):
        return per_pass(sums.get(key, {}))

    m = {name: v(name) for name in (
        "channel.windows", "channel.self_s", "scenario.scenarios", "scenario.self_s",
        "features.rows", "features.self_s", "baseline.decisions", "baseline.self_s",
        "baseline.resimulated_rows", "mlp.train_s", "mlp.forward_rows",
        "dataset.self_s", "dataset.csv_bytes", "configio.calls", "configio.self_s",
    )}
    m["channel.us_per_window"] = 1e6 * ratio(m["channel.self_s"], m["channel.windows"])
    m["scenario.us_per_scenario"] = 1e6 * ratio(m["scenario.self_s"], m["scenario.scenarios"])
    m["features.us_per_row"] = 1e6 * ratio(v("self:features.extract"), m["features.rows"])
    m["baseline.resim_ratio"] = ratio(m["baseline.resimulated_rows"], m["baseline.decisions"])
    m["mlp.epochs"] = v("work:epochs")
    m["mlp.steps"] = v("work:steps")
    m["mlp.ms_per_epoch"] = 1e3 * ratio(m["mlp.train_s"], m["mlp.epochs"])
    m["mlp.useful_epoch_ratio"] = ratio(v("work:best_epochs"), m["mlp.epochs"])
    m["mlp.configs"] = v("work:configs")
    m["mlp.forward_s"] = v("span:mlp.forward_batch")
    m["mlp.model_io_s"] = v("span:mlp.save_model") + v("span:mlp.load_model") + v("span:mlp.write_history_csv")
    m["mlp.model_bytes"] = v("work:model_bytes")
    m["dataset.save_s"] = v("span:dataset.save")
    m["dataset.load_s"] = v("span:dataset.load")
    m["dataset.write_mb_per_s"] = ratio(m["dataset.csv_bytes"] / 1e6, m["dataset.save_s"])
    m["dataset.read_mb_per_s"] = ratio(v("dataset.read_bytes") / 1e6, m["dataset.load_s"])
    for command in ("init", "generate", "train", "tune", "evaluate", "evaluate_threshold"):
        m[f"cli.{command}_s"] = v(f"span:cli.{command}")

    untraced = [it for it in main["iterations"] if not it["traced"] and it["wall_s"] is not None]
    for name, samples in command_rates(untraced).items():
        m[name] = statistics.median(samples) if samples else 0.0
    traced_walls = [main["iterations"][i]["wall_s"] for i in traced_ids]
    untraced_walls = [it["wall_s"] for it in untraced]
    m["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
        if traced_walls and untraced_walls else 0.0
    )
    m["trace.absent_targets"] = len(trace["absent"])
    return m


# -- report -----------------------------------------------------------------------


def print_report(args, env, setups, main, metrics, checks) -> None:
    print(f"# spoofbench benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    walls = [it["wall_s"] for it in main["iterations"] if it["wall_s"] is not None]
    if args.trace:
        traced = [it["wall_s"] for it in main["iterations"] if it["traced"] and it["wall_s"] is not None]
        untraced = [it["wall_s"] for it in main["iterations"] if not it["traced"] and it["wall_s"] is not None]
        print(f"# wall_s untraced: {describe(untraced, 's')}")
        print(f"# wall_s traced:   {describe(traced, 's')}")
        spans = main["trace"]["spans"]
        by_name: dict[str, list[float]] = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(1e6 * (s["end"] - s["start"]))
        for name in sorted(by_name):
            print(f"#   span {name:28s} {describe(by_name[name], 'us')}")
        if main["trace"]["absent"]:
            print("# absent (layer not measured): " + ", ".join(main["trace"]["absent"]))
    else:
        def pace_factor(stretches):
            n = sum(p["samples"] for p in stretches)
            return pace.REFERENCE_S * n / sum(p["kernel_s"] for p in stretches) if n else 1.0

        complete = [it for it in main["iterations"] if it["wall_s"] is not None]
        ready = [s for s in setups if s["setup_s"] is not None]
        print(f"# wall_s at reference pace: {describe([it['adj_s'] for it in complete], 's')}")
        print(f"# wall_s raw:               {describe([it['wall_s'] - it['pace']['handler_s'] for it in complete], 's')}"
              f" (pace factor {pace_factor([it['pace'] for it in complete]):.4g})")
        print(f"# setup_s at reference pace: {describe([s['setup_adj_s'] for s in ready], 's')}")
        print(f"# setup_s raw:               {describe([s['setup_s'] - s['setup_pace']['handler_s'] for s in ready], 's')}"
              f" (pace factor {pace_factor([s['setup_pace'] for s in ready]):.4g})")
        for name, samples in command_rates(main["iterations"]).items():
            print(f"# {name}: {describe(samples, RATE_UNITS[name]) if samples else 'n/a (command not in this workload)'}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {END_TO_END_UNITS.get(name) or LAYER_UNITS[name]}")
    print(f"# operations: {checks.attempted} attempted, {len(checks.failures)} failed"
          f" (failed_ratio {len(checks.failures) / checks.attempted:.6g})")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    ap.add_argument("--goldens", default=str(HERE / "goldens.json"))
    ap.add_argument("--record-goldens", default=None, help="write this run's outputs as goldens")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spoofbench" / "__init__.py").is_file():
        print(f"error: no spoofbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        probe = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        numpy_info = json.loads(probe.stdout) if probe.returncode == 0 else {}
        extra = 0 if args.trace else SETUPS[args.workload] - 1  # setup_s is not reported when tracing
        setups = [workload_process(args, "setup", work / f"setup{i}", deadline) for i in range(extra)]
        main_result = workload_process(args, "run", work / "run", deadline)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(main_result)

    checks = Checks()
    outputs = check_outputs(args, setups, main_result, checks)
    if args.trace:
        metrics = per_layer(main_result)
    else:
        metrics = end_to_end(setups, main_result, outputs, checks)
    env = environment(args, numpy_info)
    print_report(args, env, setups, main_result, metrics, checks)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {**result, "environment": env, "failures": checks.failures,
              "iterations": [{k: it.get(k) for k in ("wall_s", "adj_s", "pace", "traced", "steps", "work")}
                             for it in main_result["iterations"]],
              "setups": [{k: s.get(k) for k in ("setup_s", "setup_adj_s", "setup_pace")} for s in setups]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(main_result["trace"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
