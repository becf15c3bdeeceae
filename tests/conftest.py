"""Fixtures shared across test modules: the seed-1 wd/3 dataset, and the
pids forked during a test."""

import os

import pytest

from spoofbench.cli import main as cli


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
