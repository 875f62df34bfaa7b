"""Replay of recorded draws against the benchmark's golden records.

The pools, the op, the golden-comparable record and the comparison are
the benchmark's own (`perfbench/workloads.py`, loaded from its file): each
replayed task is one `run_single` draw with the scenario and RNG substream
that task (grid index, run index) of `doamap sweep` uses.  `k_hat` must
match exactly and every float column to the benchmark's relative bound.

Desk draws replay the whole desk-sweep pool (desk defaults with overlap
{0, 0.999}, every grid point, runs 0-9), ~2 s.  Its high-SNR draws, such as
23:1, 24:6 and 24:9, have an `rmse_sigma` = |sqrt(sigma2) - sigma| that
cancels about four digits, so they catch a few-ulp drift in the captured
energies.

Paper draws replay the whole paper-draws pool (SNR {-20, 0, 20} dB, runs
0-3) at paper shape, where the incomplete-beta sums run to ~4e5 terms.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_workloads():
    """perfbench/workloads.py, loaded from its file without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DESK = workloads.make("desk-sweep")
PAPER = workloads.make("paper-draws")


def _ids(wl):
    return [wl.key(task) for task in wl.pool()]


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden(DESK.name)


@pytest.fixture(scope="module")
def paper_golden():
    return workloads.load_golden(PAPER.name)


def _check(wl, task, want):
    got = wl.record(wl.run(task))
    assert list(got) == list(want)  # the methods, in their order
    assert not workloads.mismatches(want, got, wl.key(task))


def test_desk_pool_is_replayed_whole(golden):
    assert sorted(golden) == sorted(_ids(DESK))


def test_paper_pool_is_replayed_whole(paper_golden):
    assert sorted(paper_golden) == sorted(_ids(PAPER))


@pytest.mark.parametrize("task", DESK.pool(), ids=_ids(DESK))
def test_draw_matches_golden(golden, task):
    _check(DESK, task, golden[DESK.key(task)])


@pytest.mark.parametrize("task", PAPER.pool(), ids=_ids(PAPER))
def test_paper_draw_matches_golden(paper_golden, task):
    _check(PAPER, task, paper_golden[PAPER.key(task)])
