"""Independent work on every usable CPU: forked processes that take items
from one shared queue. Only results are pickled, and nothing imports
multiprocessing, which costs every command 10-20 ms of import."""

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


def _run(fn, items: list, i: int, queue: int):
    """fn on items[i], then on each index taken from queue, a count in a file
    the processes share, until it reaches len(items); a failure moves it
    there. A record lock makes a take atomic, as a shared offset is not.
    Returns the (index, result) pairs and None or (index, error, traceback)."""
    done, failure = [], None
    while i < len(items):
        try:
            done.append((i, fn(items[i])))
        except Exception as exc:
            failure = i, exc, traceback.format_exc()
        os.lockf(queue, os.F_LOCK, 0)
        i = len(items) if failure else int.from_bytes(os.pread(queue, 8, 0), "little")
        os.pwrite(queue, (i + 1).to_bytes(8, "little"), 0)
        os.lockf(queue, os.F_ULOCK, 0)
    return done, failure


def fork_map(fn, items: list, processes: int) -> list:
    """[fn(item) for item in items] on at most `processes` processes; one is
    the loop itself. This process runs items[0] and forked child j items[j],
    then each the next item that no process has taken. The error raised is
    the lowest failing item's, as in the loop; a child's is raised from a
    RuntimeError with its pid and traceback. No child outlives the call."""
    k = min(processes, len(items))
    if k <= 1:
        return [fn(item) for item in items]
    queue = os.memfd_create("fork_map")
    os.pwrite(queue, k.to_bytes(8, "little"), 0)
    live: list = []  # (pid, pipe) of every child not yet reaped, in item order
    try:
        for j in range(1, k):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child leaves only through os._exit, so none of the parent's
                # exit handlers or cleanups (atexit, a test runner's) runs twice.
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_run(fn, items, j, queue), pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            live.append((pid, open(read_fd, "rb")))
        done, failed = _run(fn, items, 0, queue)
        # Child j's items are j or above, so none fails below a failure under j.
        while live and not (failed and failed[0] < k - len(live)):
            pid, pipe = live[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del live[0]
            if status != 0:  # the child sets 0 only once it has sent the whole result
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"forked process {pid} exited with status {code} and sent no result")
            theirs, failure = pickle.loads(data)
            done += theirs
            if failure and (not failed or failure[0] < failed[0]):
                failed = failure  # a pickled error has lost its traceback
                failed[1].__cause__ = RuntimeError(f"in forked process {pid}:\n{failed[2]}")
        if failed:
            raise failed[1]
    finally:
        os.close(queue)
        for pid, pipe in live:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [result for _, result in sorted(done, key=lambda pair: pair[0])]
