"""Replay of recorded desk-scale draws against the benchmark's golden record.

Each replayed task is one `run_single` draw with the scenario and RNG
substream that task (grid index, run index) of `doamap sweep` uses at the
desk defaults with overlap {0, 0.999}.  `k_hat` must match exactly and every
float column to 1e-10 relative, the bound the benchmark checks.  Run 0 of
every grid point covers all SNRs and overlaps; 23:1, 24:6 and 24:9 are
high-SNR draws whose `rmse_sigma` = |sqrt(sigma2) - sigma| cancels about
four digits, so they catch a few-ulp drift in the captured energies.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from doamap.bench import ExperimentConfig, run_single

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "desk-sweep.json"
REL_TOL = 1e-10
FLOAT_FIELDS = ("err_doa", "rmse_a0", "rmse_a_shrunk", "rmse_sigma", "tau_mean")
CONFIG = ExperimentConfig(overlap=(0.0, 0.999))
TASKS = [(gi, 0) for gi in range(len(CONFIG.grid_points()))] + [(23, 1), (24, 6), (24, 9)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["outputs"]


def _replay(gi, ri):
    rng = np.random.default_rng([CONFIG.master_seed, gi, ri])
    return run_single(CONFIG.scenario(gi), CONFIG.k_max, CONFIG.grid_step_deg,
                      CONFIG.methods, rng=rng)


def _close(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * max(abs(want), abs(got))


@pytest.mark.parametrize("gi,ri", TASKS, ids=[f"{gi}:{ri}" for gi, ri in TASKS])
def test_draw_matches_golden(golden, gi, ri):
    want = golden[f"{gi}:{ri}"]
    rows = _replay(gi, ri)
    assert [row["method"] for row in rows] == list(want)
    for row in rows:
        expect = want[row["method"]]
        assert row["k_hat"] == expect["k_hat"], row["method"]
        for f in FLOAT_FIELDS:
            assert _close(float(row[f]), expect[f]), (row["method"], f, row[f], expect[f])
