"""Host pace: a fixed reference kernel, timed every few tens of milliseconds
while a workload runs, so timings can be scaled to one host speed.

On a shared machine the same work runs up to twice as slow from one minute
to the next, and process CPU time slows with it, so neither wall time nor
CPU time is steady from run to run. ``Pace`` interrupts the process with
SIGALRM every ``INTERVAL_S`` and times a frozen kernel that builds and
reads ``N_OBJECTS`` small Python objects, the kind of work that dominates
the program (the channel builds one object per path-loss sample). The
kernel never changes, so its mean time over a stretch measures how fast the
host ran in that stretch. ``adjusted`` turns a timed stretch into seconds at
the pace where the kernel takes ``REFERENCE_S``:

    (wall - time spent in the handler) * REFERENCE_S / mean kernel time

The handler's own time is taken out of the stretch, and the garbage
collector is off while it runs, so the kernel's cost does not depend on the
program's heap. Signals reach Python code only between bytecodes, so the
kernel never runs inside a C call of the program.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.04
# About the kernel's median time in the handler on a 2-vCPU Intel Xeon VM.
# A constant, never measured per run: adjusted seconds are seconds at this pace.
REFERENCE_S = 0.0012
N_OBJECTS = 1600


class _Sample:
    __slots__ = ("x", "y", "pair")

    def __init__(self, x, y, pair):
        self.x, self.y, self.pair = x, y, pair


def _kernel(n: int) -> float:
    samples = [_Sample(i * 0.5, i * 1.5, (i, i + 1)) for i in range(n)]
    return sum(s.x + s.y for s in samples)


class Pace:
    """Times the reference kernel on every SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0
        self.handler_s = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        gc_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            _kernel(N_OBJECTS // 8)  # untimed, so the timed pass starts warm
            t0 = time.perf_counter()
            _kernel(N_OBJECTS)
            t1 = time.perf_counter()
        finally:
            if gc_enabled:
                gc.enable()
            self._busy = False
        self.samples += 1
        self.kernel_s += t1 - t0
        self.handler_s += time.perf_counter() - started

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def snapshot(self) -> dict:
        return {"samples": self.samples, "kernel_s": self.kernel_s, "handler_s": self.handler_s}


def since(before: dict, after: dict) -> dict:
    """Samples taken between two snapshots."""
    return {key: after[key] - before[key] for key in after}


def adjusted(wall_s: float, pace: dict) -> float:
    """Seconds of `wall_s` at the reference pace; `pace` is since() over the same stretch.

    A stretch with no sample (shorter than INTERVAL_S) is returned unscaled,
    less the handler time.
    """
    own = wall_s - pace["handler_s"]
    if not pace["samples"]:
        return own
    return own * REFERENCE_S / (pace["kernel_s"] / pace["samples"])
