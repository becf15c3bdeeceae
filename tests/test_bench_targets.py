"""The traced benchmark run wraps spoofbench callables by name
(perfbench/spans.py). A target that a refactor renames away stops being
measured without any error, so the set of absent targets is pinned here."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets of code paths removed before the tracer was last updated.
STALE = {
    "spoofbench.cli.build_scenarios",
    "spoofbench.dataset.SpoofingScenario",
    "spoofbench.dataset.flight_to",
    "spoofbench.cli.sample_window",
    "spoofbench.dataset.sample_window",
    "spoofbench.dataset.extract",
    "spoofbench.dataset.delta_series",
    "spoofbench.dataset.iter_delta_rows",
    "spoofbench.mlp.write_history_csv",
    # The spec document's calls, now made by spoofbench.spec.
    "spoofbench.dataset.config_to_dict",
    "spoofbench.dataset.config_from_dict",
}


def load_spans():
    """perfbench/spans.py as a module, executed from its source so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_no_tracer_target_goes_missing_beyond_the_known_stale_ones():
    recorder = load_spans().Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert set(recorder.absent) <= STALE
