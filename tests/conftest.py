"""Shared test settings and fixtures.

Hypothesis runs derandomized (the same examples on every run) and without a
per-example deadline, since one paper-degree kernel call plus its oracle
takes tens of milliseconds.
"""

import os
from types import SimpleNamespace

import pytest
from hypothesis import settings

from doamap import bench

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def patch_serial_pools(monkeypatch):
    """Make every pool run_sweep opens run its tasks in this process, so
    no worker starts; returns what each pool was opened with, in order:
    `workers`, its max_workers, and `blas_pinned`, whether every BLAS
    thread variable read 1 (what a spawned worker would start with)."""
    opened = SimpleNamespace(workers=[], blas_pinned=[])

    class SerialPool:
        def __init__(self, max_workers, **kwargs):
            opened.workers.append(max_workers)
            opened.blas_pinned.append(all(
                os.environ.get(var) == "1" for var in bench.BLAS_THREAD_VARS))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    return opened


@pytest.fixture
def serial_pools(monkeypatch):
    """patch_serial_pools for one test; for a test that checks records or
    exit codes, not processes."""
    return patch_serial_pools(monkeypatch)
