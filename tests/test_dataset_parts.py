"""Datasets simulated in forked parts: the bytes and the errors of one part.

`dataset.generate`, and `window_means` on a box split, cut the rows into
one part per usable CPU. These tests set the CPU count and PART_MIN_ROWS
to fix the number of parts, compare every result with the one-part run's,
check that the scene's links are built once, in the caller, and that no
forked process outlives a call, whether it returns or raises.
"""

import atexit
import os
import threading
import time
from dataclasses import replace

import pytest

from spoofbench import dataset, features
from spoofbench.channel import ChannelParams, Link
from spoofbench.dataset import CHUNK_ROWS, PART_MIN_ROWS, SPLITS, DatasetSpec, generate, row_plan, window_means
from spoofbench.scenario import default_config

# 300 + 200 rows make 9 chunks: 64, 64, 64, 64, 44 and 64, 64, 64, 8.
TRAIN, TEST, CHUNKS = 300, 200, 9


def spec_of(scene: str) -> DatasetSpec:
    """A 3-station spec of 300/200 rows; "nlos" flies from 50 m with the LoS
    branch drawn, so some samples take the NLoS path loss."""
    if scene == "nlos":
        config = default_config()
        config = replace(config, start=(*config.start[:2], 50.0))
        return DatasetSpec(config, ChannelParams(sampled_los=True), "box", 3, TRAIN, TEST)
    return DatasetSpec(default_config(), ChannelParams(rng_seed=3), scene, 3, TRAIN, TEST)


def set_cpus(monkeypatch, cpus: int, part_min_rows: int = 1) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(dataset, "PART_MIN_ROWS", part_min_rows)


def refuse_fork(monkeypatch) -> None:
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_part(monkeypatch, spec):
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        refuse_fork(m)
        return generate(spec)


@pytest.mark.parametrize("scene", ["wd", "mvsk", "box", "nlos"])
def test_features_do_not_depend_on_the_part_count(monkeypatch, forks, scene):
    spec = spec_of(scene)
    expected = one_part(monkeypatch, spec)
    # More parts than this host's CPUs, and more than the 9 chunks.
    for cpus in (2, 3, len(os.sched_getaffinity(0)) + 1, CHUNKS + 3):
        forks.clear()
        set_cpus(monkeypatch, cpus)
        got = generate(spec)
        assert len(forks) == min(cpus, CHUNKS) - 1
        for ds, want in zip(got, expected, strict=True):
            assert ds.features.tobytes() == want.features.tobytes()
            assert (ds.split, ds.spec) == (want.split, want.spec)
        if scene == "box":
            for ds, want in zip(got, expected):
                assert window_means(ds).tobytes() == window_means(want).tobytes()
    if scene == "nlos":  # the NLoS shadow sigma moves the features
        set_cpus(monkeypatch, 3)
        nlos = replace(spec, channel=replace(spec.channel, nlos_shadow_sigma=7.0))
        assert generate(nlos)[0].features.tobytes() != expected[0].features.tobytes()


def test_parts_cut_the_chunks_of_both_splits_in_row_order(monkeypatch):
    spec, parts, fork_map = spec_of("wd"), [], dataset.forks.fork_map

    def captured(fn, items):
        parts.extend(items)
        return fork_map(fn, items)

    monkeypatch.setattr(dataset.forks, "fork_map", captured)
    set_cpus(monkeypatch, 3)
    generate(spec)
    plans = {split: row_plan(spec, split) for split in SPLITS}

    def split_rows(chunk):
        """The split and the row range of a (destinations, noise seeds) chunk."""
        dests, seeds = chunk
        for split, (plan, first_seed) in plans.items():
            if first_seed <= seeds.start < first_seed + len(plan):
                rows = range(seeds.start - first_seed, seeds.stop - first_seed)
                assert dests.tolist() == plan[rows.start : rows.stop].tolist()
                return split, rows
        raise AssertionError(f"noise seeds {seeds} are in neither split")

    layout = [[split_rows(chunk) for chunk in part] for part in parts]
    chunks = [chunk for part in layout for chunk in part]
    assert all(len(rows) <= CHUNK_ROWS and rows.start % CHUNK_ROWS == 0 for _, rows in chunks)
    assert [(split, k) for split, rows in chunks for k in rows] == [
        (split, k) for split in SPLITS for k in range(len(plans[split][0]))
    ]
    assert [[(split, rows.start) for split, rows in part] for part in layout] == [
        [("train", 0), ("train", 64), ("train", 128)],
        [("train", 192), ("train", 256), ("test", 0)],
        [("test", 64), ("test", 128), ("test", 192)],
    ]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_links_are_built_once_per_call_in_the_caller(monkeypatch, forks, cpus):
    caller, along, builds = os.getpid(), Link.along.__func__, []

    def counted(cls, *args):
        if os.getpid() != caller:
            raise AssertionError("Link.along called in a forked process")
        builds.append(args)
        return along(cls, *args)

    monkeypatch.setattr(Link, "along", classmethod(counted))
    set_cpus(monkeypatch, cpus)
    train, _ = generate(spec_of("box"))
    assert len(builds) == 1 and len(forks) == cpus - 1
    window_means(train)  # a box split is re-simulated
    assert len(builds) == 2 and len(forks) == 2 * (cpus - 1)


def test_rows_below_two_parts_fork_nothing(monkeypatch):
    set_cpus(monkeypatch, 4, PART_MIN_ROWS)
    refuse_fork(monkeypatch)
    box = DatasetSpec(default_config(), ChannelParams(), "box", 1, PART_MIN_ROWS - 1, PART_MIN_ROWS)
    train, _ = generate(box)
    assert len(window_means(train)) == PART_MIN_ROWS - 1


def test_a_running_thread_keeps_one_part(monkeypatch):
    set_cpus(monkeypatch, 3)
    refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        generate(spec_of("wd"))
    finally:
        release.set()
        thread.join()


def overflow_test_rows_from(monkeypatch, spec, first_row: int) -> None:
    """Scales the measured path loss of spec's test rows from first_row on
    by 1e120, so their mvsk moments overflow there and nowhere else."""
    first_seed = row_plan(spec, "test")[1] + first_row  # train seeds are all lower
    measured_windows = dataset.measured_windows

    def scaled(links, dests, params, noise_seeds, bs_ids):
        measured = measured_windows(links, dests, params, noise_seeds, bs_ids)
        measured[[seed >= first_seed for seed in noise_seeds]] *= 1e120
        return measured

    monkeypatch.setattr(dataset, "measured_windows", scaled)


def one_part_error(monkeypatch, spec, first_row: int) -> str:
    with monkeypatch.context() as m:
        overflow_test_rows_from(m, spec, first_row)
        with pytest.raises(ValueError, match="mvsk skewness and kurtosis overflow") as error:
            one_part(m, spec)
    return str(error.value)


def test_a_failing_child_part_raises_its_error_in_the_caller(monkeypatch, forks):
    spec = spec_of("mvsk")
    message = one_part_error(monkeypatch, spec, 0)
    overflow_test_rows_from(monkeypatch, spec, 0)
    set_cpus(monkeypatch, 2)  # part 0 is train rows 0-255, part 1 the rest
    with pytest.raises(ValueError) as error:
        generate(spec)
    assert type(error.value) is ValueError
    assert str(error.value) == message and len(forks) == 1
    # The pickled error lost its traceback; its cause carries the child's.
    cause = str(error.value.__cause__)
    assert cause.startswith(f"in forked process {forks[0]}:")
    assert "in _mvsk_lanes" in cause and message in cause


def test_of_several_failing_parts_the_lowest_one_raises(monkeypatch, forks):
    spec = spec_of("mvsk")
    message = one_part_error(monkeypatch, spec, 0)
    # Part 2's first failing chunk, test row 64, has another message.
    assert one_part_error(monkeypatch, spec, 64) != message
    overflow_test_rows_from(monkeypatch, spec, 0)
    set_cpus(monkeypatch, 3)  # test rows 0-63 are in part 1, the others in part 2
    with pytest.raises(ValueError) as error:
        generate(spec)
    assert str(error.value) == message and len(forks) == 2


def test_a_child_that_sends_no_result_is_named_with_its_exit_status(monkeypatch, forks):
    caller, extract = os.getpid(), features.extract

    def exit_in_children(deltas, method):
        if os.getpid() != caller:
            os._exit(3)
        return extract(deltas, method)

    monkeypatch.setattr(features, "extract", exit_in_children)
    set_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=r"forked process \d+ exited with status 3 and sent no result"):
        generate(spec_of("wd"))
    assert len(forks) == 2


def test_a_failure_in_the_callers_part_kills_every_child(monkeypatch, forks):
    caller = os.getpid()

    def fail_here_stall_there(deltas, method):
        if os.getpid() == caller:
            raise ValueError("the caller's part fails")
        time.sleep(60)  # a child that is waited for, not killed, takes this long
        os._exit(0)

    monkeypatch.setattr(features, "extract", fail_here_stall_there)
    set_cpus(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(ValueError, match="the caller's part fails"):
        generate(spec_of("wd"))
    assert time.monotonic() - started < 30 and len(forks) == 2


def test_a_child_leaves_only_through_os_exit(monkeypatch, forks, tmp_path):
    # An exit handler the children inherit: it would run if a child left
    # through SystemExit or returned into the test runner.
    marker = tmp_path / "exit-handler-ran"
    ran = lambda: marker.write_text(str(os.getpid()))  # noqa: E731
    caller, extract = os.getpid(), features.extract

    def exit_in_children(deltas, method):
        if os.getpid() != caller:
            raise SystemExit(0)
        return extract(deltas, method)

    set_cpus(monkeypatch, 2)
    atexit.register(ran)
    try:
        generate(spec_of("wd"))  # the children return a result
        with monkeypatch.context() as m:
            m.setattr(features, "extract", exit_in_children)
            with pytest.raises(RuntimeError, match="exited with status 1"):
                generate(spec_of("wd"))
    finally:
        atexit.unregister(ran)
    assert len(forks) == 2 and not marker.exists()

