"""Fixtures shared across test modules: the seed-1 wd/3 dataset, and the
pids forked during a test; and split_deltas, a whole split's deltas."""

import os

# One BLAS thread a process, set before numpy loads its BLAS. The suite
# forks (tune, generate and the acceptance fixture), and forked processes
# that each run a pool of BLAS threads on the same CPUs wait on each other:
# the acceptance fixture's two training processes took longer than one.
# perfbench/run.py runs with one thread too.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from spoofbench.channel import measured_windows, window_states
from spoofbench.cli import main as cli
from spoofbench.dataset import row_plan, scene_links
from spoofbench.spec import select_bs_subset


def split_deltas(spec, split: str) -> np.ndarray:
    """The (rows, stations, samples) |measured - theoretical| path loss of
    every row of a split, simulated in one batch."""
    dests, first_seed = row_plan(spec, split)
    bs_ids = select_bs_subset(spec.n_bs)
    links, theoretical = scene_links(spec.scenario, spec.channel, bs_ids)
    states = window_states(spec.channel.rng_seed, range(first_seed, first_seed + len(dests)), bs_ids)
    measured = measured_windows(links, dests, spec.channel, states)
    return np.abs(measured - theoretical)


@pytest.fixture(scope="session")
def wd3_data(tmp_path_factory):
    """The data directory of the seed-1 full-size wd/3 dataset; tests only
    read it."""
    root = tmp_path_factory.mktemp("wd3")
    assert cli(["init", "--out", str(root), "--seed", "1", "--method", "wd", "--n-bs", "3"]) == 0
    assert cli(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked during the test."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
