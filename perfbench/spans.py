"""In-memory span recorder for the traced benchmark run.

Each target is a public spoofbench callable, wrapped at the module
attribute its caller looks up (``spoofbench.dataset.sample_window`` is the
name ``dataset.iter_windows`` resolves at call time). A wrapped call
records one span: name, start, end, parent span and the iteration it ran
in. Counters are recorded at the same boundaries. Nothing inside ``src/``
is changed; ``uninstall`` puts the original attributes back.

Spans nest through a stack, so the recorder assumes one thread (the
benchmark tunes with ``--jobs 1``).
"""

from __future__ import annotations

import importlib
import os
import time


def _one(*_):
    return 1


def _file_size(path):
    return os.path.getsize(path)


# (span name, layer, module, attribute, counter name or None, counter fn).
# The counter fn gets (args, kwargs, result) and returns the increment.
TARGETS = (
    ("configio.load_config", "configio", "spoofbench.cli", "load_config", "configio.calls", _one),
    ("configio.save_config", "configio", "spoofbench.cli", "save_config", "configio.calls", _one),
    ("configio.config_to_dict", "configio", "spoofbench.cli", "config_to_dict", "configio.calls", _one),
    ("configio.config_to_dict", "configio", "spoofbench.dataset", "config_to_dict", "configio.calls", _one),
    ("configio.config_from_dict", "configio", "spoofbench.dataset", "config_from_dict", "configio.calls", _one),
    ("scenario.default_config", "scenario", "spoofbench.cli", "default_config", None, None),
    ("scenario.build_scenarios", "scenario", "spoofbench.cli", "build_scenarios",
     "scenario.scenarios", lambda a, k, r: len(r)),
    ("scenario.SpoofingScenario", "scenario", "spoofbench.dataset", "SpoofingScenario",
     "scenario.scenarios", _one),
    ("scenario.flight_to", "scenario", "spoofbench.dataset", "flight_to", None, None),
    ("scenario.destination_grid", "scenario", "spoofbench.dataset", "destination_grid", None, None),
    ("channel.sample_window", "channel", "spoofbench.cli", "sample_window", "channel.windows", _one),
    ("channel.sample_window", "channel", "spoofbench.dataset", "sample_window", "channel.windows", _one),
    ("features.extract", "features", "spoofbench.dataset", "extract", "features.rows", _one),
    ("features.delta_series", "features", "spoofbench.dataset", "delta_series", None, None),
    ("dataset.generate", "dataset", "spoofbench.dataset", "generate", None, None),
    ("dataset.save", "dataset", "spoofbench.dataset", "save",
     "dataset.csv_bytes", lambda a, k, r: _file_size(a[1] if len(a) > 1 else k["path"])),
    ("dataset.load", "dataset", "spoofbench.dataset", "load",
     "dataset.read_bytes", lambda a, k, r: _file_size(a[0] if a else k["path"])),
    ("baseline.decide", "baseline", "spoofbench.baseline", "decide", "baseline.decisions", _one),
    ("mlp.train", "mlp", "spoofbench.mlp", "train", None, None),
    ("mlp.tune", "mlp", "spoofbench.mlp", "tune", None, None),
    ("mlp.forward_batch", "mlp", "spoofbench.mlp", "forward_batch",
     "mlp.forward_rows", lambda a, k, r: len(r)),
    ("mlp.save_model", "mlp", "spoofbench.mlp", "save_model", None, None),
    ("mlp.load_model", "mlp", "spoofbench.mlp", "load_model", None, None),
    ("mlp.write_history_csv", "mlp", "spoofbench.mlp", "write_history_csv", None, None),
)

# Generator functions: the rows they yield are counted, no span is opened
# (the consumer's span stays the parent of the work done per row).
GENERATOR_TARGETS = (
    ("dataset.iter_delta_rows", "spoofbench.dataset", "iter_delta_rows", "baseline.resimulated_rows"),
)


class Recorder:
    """Holds spans as [name, layer, start, end, parent, iteration] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = {}
        self.iteration = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount) -> None:
        key = (self.iteration, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name, layer, counter, counter_fn):
        def wrapper(*args, **kwargs):
            span_id = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span_id)
            if counter is not None:
                self.count(counter, counter_fn(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, counter):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(counter, 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the missing ones as absent."""
        if self._saved:
            return
        self.absent = []
        for name, layer, module_name, attr, counter, counter_fn in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer, counter, counter_fn))
        for _name, module_name, attr, counter in GENERATOR_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_generator(fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    # -- reduction ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "iteration": s[5]}
                for s in self.spans
            ],
            "counts": [
                {"iteration": it, "name": name, "value": value}
                for (it, name), value in sorted(self.counts.items(), key=str)
            ],
            "absent": self.absent,
        }
