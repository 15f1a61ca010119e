"""The environment ``local_cluster`` hands its site and aggregator processes.

A cluster's parallelism is its process count, so every child process runs
one BLAS thread (``OPENBLAS_NUM_THREADS=1``) unless the caller chose a
value, which the child then keeps.  The assertions read the ``env`` handed
to ``Popen``; no process is started.
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro.service.client import local_cluster
from repro.service.messages import ServiceError


class _ExitedProcess:
    """A child that exited at once: ``local_cluster`` gives up and reaps it."""

    returncode = 1

    def __init__(self, args, env=None, **_):
        self.args = args
        self.env = env

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode


def _spawned(monkeypatch):
    spawned = []

    def popen(args, **kwargs):
        spawned.append(_ExitedProcess(args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    a = np.ones((8, 4), dtype=np.int64)
    with pytest.raises(ServiceError, match="before registering"):
        with local_cluster(
            np.array_split(a, 4), np.ones((4, 3), dtype=np.int64), tree=2,
            ready_timeout=0.05,
        ):
            pass
    roles = sorted({process.args[3] for process in spawned})
    assert roles == ["aggregate", "site"]
    return spawned


def test_children_run_one_blas_thread_by_default(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    for process in _spawned(monkeypatch):
        assert process.env["OPENBLAS_NUM_THREADS"] == "1", process.args


def test_children_keep_the_callers_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    for process in _spawned(monkeypatch):
        assert process.env["OPENBLAS_NUM_THREADS"] == "3", process.args
