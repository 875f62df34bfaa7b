"""Metamorphic checks: transformations of the data Y that leave the estimate unchanged.

Each task is one `run_single` draw of the desk-sweep pool (desk defaults
with overlap {0, 0.999}, every grid point, runs 0 and 7), with all six
methods.  `bench.synth_freq` is wrapped so that the draw's Y is transformed
before any stage reads it, and each row is compared with the untransformed
draw's.  No recorded number is involved, so these checks still pin `k_hat`
when the golden files are re-recorded.

- Y -> 4Y and Y -> Y/4 scale every energy by a power of two, exactly in
  floating point, and the order scores, peaks and tau read only ratios of
  them: `k_hat`, `err_doa` and `tau_mean` are `==`.
- Y -> e^{0.7i} Y (a global phase) and a fixed permutation of the M tones
  leave R = Y Y^H unchanged in exact arithmetic but not in rounding:
  `k_hat` and `err_doa` are `==`, and tau agrees within TAU_REL.  Over
  these tasks tau moved by up to 4.6e-13 relative under the phase and
  9.1e-13 under the permutation (4:0 dtft-map, K = 6), the same at the
  default BLAS thread count and at one thread; the bound was fixed above
  both.

The amplitude and noise errors are left out: they compare with the true,
untransformed amplitudes and noise level.
"""

import math

import numpy as np
import pytest

from doamap import bench
from doamap.bench import ExperimentConfig, run_single

CONFIG = ExperimentConfig(overlap=(0.0, 0.999), methods=bench.KNOWN_METHODS)
TASKS = [(gi, ri) for gi in range(len(CONFIG.grid_points())) for ri in (0, 7)]
PERM = np.random.default_rng(2024).permutation(CONFIG.m)
TAU_REL = 2e-12

EXACT = {"scale-4": lambda y: 4.0 * y, "scale-1/4": lambda y: y / 4.0}
ROUNDED = {"phase": lambda y: np.exp(0.7j) * y, "permute-tones": lambda y: y[:, PERM]}


def _rows():
    """{(gi, ri, method): row} over TASKS, from bench.synth_freq's Y."""
    out = {}
    scenarios = CONFIG.scenarios()
    for gi, ri in TASKS:
        rng = np.random.default_rng([CONFIG.master_seed, gi, ri])
        for row in run_single(scenarios[gi], CONFIG.k_max,
                              CONFIG.grid_step_deg, CONFIG.methods, rng=rng):
            out[gi, ri, row["method"]] = row
    return out


@pytest.fixture(scope="module")
def plain():
    return _rows()


@pytest.fixture
def transformed(monkeypatch, request):
    synth = bench.synth_freq
    transform = {**EXACT, **ROUNDED}[request.param]
    monkeypatch.setattr(bench, "synth_freq",
                        lambda scenario, rng=None: transform(synth(scenario, rng=rng)))
    return _rows()


def _same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


def test_pool_covers_every_grid_point_and_method(plain):
    assert len(TASKS) == 52
    assert len(plain) == 52 * 6


@pytest.mark.parametrize("transformed", list(EXACT), indirect=True)
def test_exact_scaling_keeps_every_bit(plain, transformed):
    for key, want in plain.items():
        got = transformed[key]
        assert got["k_hat"] == want["k_hat"], key
        for field in ("err_doa", "tau_mean"):
            assert _same(got[field], want[field]), (key, field)


@pytest.mark.parametrize("transformed", list(ROUNDED), indirect=True)
def test_phase_and_tone_order_keep_the_estimate(plain, transformed):
    for key, want in plain.items():
        got = transformed[key]
        assert got["k_hat"] == want["k_hat"], key
        assert _same(got["err_doa"], want["err_doa"]), key
        assert abs(got["tau_mean"] - want["tau_mean"]) <= TAU_REL * abs(want["tau_mean"]), key
