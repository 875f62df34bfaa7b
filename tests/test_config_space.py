"""A config that loads runs a clean draw: a property over the config space.

A bad config must fail at load with a ConfigError, never later inside a
worker.  So every config hypothesis draws either raises ConfigError, or
runs one draw per grid point with every warning an error, and each draw's
float fields are finite, or NaN where the schema puts it (PCA's DOA
fields).  The shapes are small (D 2-8, M 2-16), so a grid point is a few
milliseconds; they reach the spectra's edge shapes: D = 2, a one-column
noise subspace (k_max = D - 1) and one- or two-point grids.

The same space, written to a config file, drives `doamap sweep`: it exits
1 exactly where the config raises ConfigError, else 0, and never 2.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doamap import cli
from doamap.bench import (
    KNOWN_METHODS,
    METRICS,
    ConfigError,
    ExperimentConfig,
    run_single,
)
from conftest import patch_serial_pools

DEFAULT_METHODS = ExperimentConfig().methods
# the RunRecord fields PCA leaves NaN: eigenvector bases carry no DOAs
PCA_NAN = {"err_doa", "rmse_a0", "rmse_a_shrunk"}

unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
snr = st.one_of(st.floats(-3000.0, 200.0), st.just(math.inf))
# uniform steps up to 180 (a ConfigError) and 180/n, whose last point can
# round to 180 degrees
step = st.one_of(st.floats(0.1, 180.0),
                 st.integers(1, 1800).map(lambda n: 180.0 / n))


@st.composite
def configs(draw):
    """The fields of a small ExperimentConfig."""
    d = draw(st.integers(2, 8))
    k_true = draw(st.integers(1, 3))
    m = draw(st.integers(2, 16))
    angle = st.floats(0.0, 180.0, exclude_max=True)
    doas = draw(st.one_of(
        st.just(()),
        st.lists(angle, min_size=k_true, max_size=k_true).map(tuple),
        angle.map(lambda a: (a,) * k_true)))  # coincident sources
    return dict(
        d=d, k_true=k_true, m=m, n=m + draw(st.integers(0, 16)),
        k_max=draw(st.integers(1, d - 1)), doa_deg=doas,
        snr_grid_db=tuple(draw(st.lists(snr, min_size=1, max_size=2,
                                        unique=True))),
        overlap=(draw(unit),), decay=(draw(unit),),
        grid_step_deg=draw(step),
        methods=draw(st.sampled_from([KNOWN_METHODS, DEFAULT_METHODS])),
        master_seed=draw(st.integers(0, 2**32)))


def _small(snr_db, **fields):
    base = dict(d=8, k_true=3, m=16, n=16, k_max=7, doa_deg=(),
                overlap=(0.0,), decay=(0.0,), grid_step_deg=0.5,
                methods=KNOWN_METHODS, master_seed=0)
    base.update(fields, snr_grid_db=(snr_db,))
    return base


@settings(max_examples=200)
@given(fields=configs())
# SNRs where random configs of this space once overflowed in a draw: the
# amplitude RMSE squared differences past the float range
@example(fields=_small(-2997.0))
@example(fields=_small(-2000.0, grid_step_deg=0.1))
@example(fields=_small(-1527.0, k_true=1, k_max=1))
# just above the load floor, where 16 (2D+1) |Y|^2 nears the float range:
# -3028.10 dB at D = 8, M = 16 and -3054.49 dB at D = 2, M = 2
@example(fields=_small(-3028.0))
@example(fields=_small(-3054.4, d=2, k_true=1, m=2, n=2, k_max=1))
# the edge shapes: D = 2 with a one-column noise subspace, a one-point
# and a two-point grid
@example(fields=_small(200.0, d=2, k_true=1, k_max=1, grid_step_deg=0.01))
@example(fields=_small(math.inf, d=3, k_true=2, k_max=2, grid_step_deg=179.0))
@example(fields=_small(math.inf, d=2, k_true=1, k_max=1, grid_step_deg=90.0))
def test_config_loads_and_runs_clean_or_is_rejected(fields):
    try:
        config = ExperimentConfig(**fields)
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gi, scenario in enumerate(config.scenarios()):
            rows = run_single(scenario, config.k_max, config.grid_step_deg,
                              config.methods,
                              rng=np.random.default_rng([config.master_seed, gi, 0]))
            assert [row["method"] for row in rows] == list(config.methods)
            for row in rows:
                for f in METRICS:
                    value = row[f]
                    if row["method"].startswith("pca") and f in PCA_NAN:
                        assert math.isnan(value), (row["method"], f)
                    else:
                        assert math.isfinite(value), (row["method"], f, value)


def _config_text(fields):
    """The fields as a flat key = value config file; tuple entries are
    comma separated, floats printed by repr, which reads back exactly."""
    lines = []
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = ", ".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=30)
@given(fields=configs())
# an empty DOA list and an infinite SNR read back from the file; k_max = D
# is a config error
@example(fields=_small(math.inf, d=2, k_true=1, k_max=1, grid_step_deg=90.0))
@example(fields=_small(10.0, k_max=8))
def test_sweep_on_a_written_config_exits_clean_or_config_error(fields):
    try:
        ExperimentConfig(**fields)
        expected = cli.EXIT_OK
    except ConfigError:
        expected = cli.EXIT_CONFIG
    # the pools run in this process: the property is about exit codes, and
    # hypothesis takes no function-scoped fixture
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        patch_serial_pools(mp)
        path = Path(tmp) / "sweep.cfg"
        path.write_text(_config_text(fields))
        status = cli.main(["sweep", "--config", str(path), "--runs", "1",
                           "--out", str(Path(tmp) / "r.csv")])
    assert status == expected
