"""Replay of recorded draws against the benchmark's golden records.

Each replayed task is one `run_single` draw with the scenario and RNG
substream that task (grid index, run index) of `doamap sweep` uses.  `k_hat`
must match exactly and every float column to 1e-10 relative, the bound the
benchmark checks.

Desk draws replay the whole desk-sweep pool (desk defaults with overlap
{0, 0.999}, every grid point, runs 0-9), ~2 s.  Its high-SNR draws, such as
23:1, 24:6 and 24:9, have an `rmse_sigma` = |sqrt(sigma2) - sigma| that
cancels about four digits, so they catch a few-ulp drift in the captured
energies.

Paper draws replay the whole paper-draws pool (SNR {-20, 0, 20} dB, runs
0-3) at paper shape, where the incomplete-beta sums run to ~4e5 terms.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from doamap.bench import ExperimentConfig, run_single

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
REL_TOL = 1e-10
FLOAT_FIELDS = ("err_doa", "rmse_a0", "rmse_a_shrunk", "rmse_sigma", "tau_mean")
CONFIG = ExperimentConfig(overlap=(0.0, 0.999))
TASKS = [(gi, ri) for gi in range(len(CONFIG.grid_points())) for ri in range(10)]
PAPER_CONFIG = ExperimentConfig.paper_scale(snr_grid_db=(-20.0, 0.0, 20.0))
PAPER_TASKS = [(gi, ri) for gi in range(len(PAPER_CONFIG.grid_points())) for ri in range(4)]


def _load(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())["outputs"]


@pytest.fixture(scope="module")
def golden():
    return _load("desk-sweep")


@pytest.fixture(scope="module")
def paper_golden():
    return _load("paper-draws")


def _replay(gi, ri, config=CONFIG):
    rng = np.random.default_rng([config.master_seed, gi, ri])
    return run_single(config.scenarios()[gi], config.k_max,
                      config.grid_step_deg, config.methods, rng=rng)


def _close(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * max(abs(want), abs(got))


def _check(rows, want):
    assert [row["method"] for row in rows] == list(want)
    for row in rows:
        expect = want[row["method"]]
        assert row["k_hat"] == expect["k_hat"], row["method"]
        for f in FLOAT_FIELDS:
            assert _close(float(row[f]), expect[f]), (row["method"], f, row[f], expect[f])


def test_desk_pool_is_replayed_whole(golden):
    assert sorted(golden) == sorted(f"{gi}:{ri}" for gi, ri in TASKS)


@pytest.mark.parametrize("gi,ri", TASKS, ids=[f"{gi}:{ri}" for gi, ri in TASKS])
def test_draw_matches_golden(golden, gi, ri):
    _check(_replay(gi, ri), golden[f"{gi}:{ri}"])


@pytest.mark.parametrize("gi,ri", PAPER_TASKS, ids=[f"{gi}:{ri}" for gi, ri in PAPER_TASKS])
def test_paper_draw_matches_golden(paper_golden, gi, ri):
    _check(_replay(gi, ri, PAPER_CONFIG), paper_golden[f"{gi}:{ri}"])
