"""Fixtures shared across test modules: the seed-1 wd/3 dataset, and the
pids forked during a test; and split_deltas, a whole split's deltas."""

import os

import numpy as np
import pytest

from spoofbench.channel import measured_windows
from spoofbench.cli import main as cli
from spoofbench.dataset import row_plan, scene_links, select_bs_subset


def split_deltas(spec, split: str) -> np.ndarray:
    """The (rows, stations, samples) |measured - theoretical| path loss of
    every row of a split, simulated in one batch."""
    dests, first_seed = row_plan(spec, split)
    bs_ids = select_bs_subset(spec.n_bs)
    links, theoretical = scene_links(spec.scenario, spec.channel, bs_ids)
    measured = measured_windows(links, dests, spec.channel, range(first_seed, first_seed + len(dests)), bs_ids)
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
