"""Independent work on every usable CPU: one forked process per item. Only
results are pickled, and nothing imports multiprocessing, which costs
every command 10-20 ms of import."""

import os
import pickle
import signal
import threading
import traceback


def workers(limit: int | None = None) -> int:
    """The usable CPUs, at most limit and at least one. One where the usable
    CPUs are unknown, or where another thread runs, since a fork copies only
    the calling thread."""
    cpus = 1
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        cpus = len(os.sched_getaffinity(0))
    return max(1, cpus if limit is None else min(cpus, limit))


def _fork(fn, item):
    """Runs fn(item) in a forked child; returns its pid and the read end of a
    pipe that carries the pickled (result, None) or (error, its traceback)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child leaves only through os._exit, so none of the parent's
        # exit handlers or cleanups (atexit, a test runner's) runs twice.
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = fn(item), None
            except Exception as exc:
                outcome = exc, traceback.format_exc()
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(fn, items: list) -> list:
    """[fn(item) for item in items]: items[0] in this process, every other in
    a forked child that pickles its result back. The error raised is that of
    the lowest failing item, as in the loop; a child's is raised from a
    RuntimeError that holds the child's pid and traceback. No child outlives
    the call."""
    live: list = []  # (pid, pipe) of every child not yet reaped, in item order
    try:
        for item in items[1:]:
            live.append(_fork(fn, item))
        results = [fn(items[0])]
        while live:
            pid, pipe = live[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del live[0]
            if status != 0:  # the child sets 0 only once it has sent the whole result
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"forked process {pid} exited with status {code} and sent no result")
            result, trace = pickle.loads(data)
            if trace is not None:  # a pickled error has lost its traceback
                raise result from RuntimeError(f"in forked process {pid}:\n{trace}")
            results.append(result)
    finally:
        for pid, pipe in live:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
