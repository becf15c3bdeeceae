"""Fixtures shared by the tests of work done in forked processes."""

import os

import pytest


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
