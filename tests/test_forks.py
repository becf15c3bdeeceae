"""fork_map on its own: where each item runs, that each runs once, and which
error a failure raises. `tests/test_dataset_parts.py` and the tune tests in
`tests/test_mlp.py` run it through its callers."""

import os
import time

import pytest

from spoofbench.forks import fork_map


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Log:
    """A file that each call, in whatever process, appends its (pid, item)
    to; appends are atomic, and a file, unlike a pipe, never fills."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def add(self, item: int) -> None:
        os.write(self.fd, f"{os.getpid()} {item}\n".encode())

    def calls(self) -> list[tuple[int, int]]:
        os.close(self.fd)
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]


@pytest.fixture
def log(tmp_path):
    return Log(tmp_path / "calls")


def test_one_process_is_the_loop_without_fork_or_queue(monkeypatch):
    def refused(*args):
        raise AssertionError("fork_map needed os.fork or os.memfd_create")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "memfd_create", refused)
    ran = []

    def fn(item):
        ran.append(item)
        if item in (2, 3):
            raise ValueError(f"item {item} fails")
        return item * 10

    assert fork_map(fn, [0, 1], 1) == [0, 10]
    assert fork_map(fn, [4], 3) == [40]  # one item is one process
    assert fork_map(fn, [], 3) == []
    ran.clear()
    with pytest.raises(ValueError, match="^item 2 fails$") as error:
        fork_map(fn, [0, 1, 2, 3, 4], 1)
    assert ran == [0, 1, 2] and error.value.__cause__ is None


def test_each_process_starts_at_its_own_item(forks, log):
    def fn(item):
        log.add(item)
        return item

    assert fork_map(fn, list(range(3)), 3) == [0, 1, 2]
    assert sorted((item, pid) for pid, item in log.calls()) == [(0, os.getpid()), (1, forks[0]), (2, forks[1])]


def test_every_item_runs_once_in_item_order_past_a_pipes_capacity(forks, log):
    # More processes than CPUs, and more items than a pipe holds as 4-byte
    # indices (16384). Each take is atomic, so no two processes run one item.
    items, processes = list(range(20000)), min(len(os.sched_getaffinity(0)) + 1, 16)
    started = time.monotonic()

    def fn(item):
        log.add(item)
        return -item

    assert fork_map(fn, items, processes) == [-item for item in items]
    assert sorted(item for _, item in log.calls()) == items
    assert len(forks) == processes - 1 and time.monotonic() - started < 60


def test_a_failure_empties_the_queue(forks, log):
    def fn(item):
        log.add(item)
        if item == 1:
            raise ValueError("item 1 fails")
        if item == 0:  # the caller waits until the child has failed and left
            deadline = time.monotonic() + 30
            while os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
                assert time.monotonic() < deadline, "the failing child did not leave"
                time.sleep(0.01)
        return item

    with pytest.raises(ValueError, match="^item 1 fails$") as error:
        fork_map(fn, list(range(6)), 2)
    assert str(error.value.__cause__).startswith(f"in forked process {forks[0]}:")
    assert sorted(log.calls()) == sorted([(os.getpid(), 0), (forks[0], 1)])


def test_the_lowest_failing_item_raises_wherever_it_ran(forks):
    def fn(item):
        if item == 1:  # the child's first item fails after the caller's later one
            time.sleep(0.3)
            raise ValueError("item 1 fails")
        if item == 2:
            raise ValueError("item 2 fails")
        return item

    with pytest.raises(ValueError, match="^item 1 fails$") as error:
        fork_map(fn, list(range(6)), 2)
    assert str(error.value.__cause__).startswith(f"in forked process {forks[0]}:")
