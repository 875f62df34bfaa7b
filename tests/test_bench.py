"""Tests for the sweep configuration, Monte Carlo harness, CSV I/O, and CLI."""

import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import doamap
from doamap import bench, cli
from doamap.bench import (
    CSV_HEADER,
    METRICS,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    aggregate,
    emit_curves,
    read_results,
    run_single,
    run_sweep,
    validate_distributions,
    write_aggregates,
    write_results,
)
from doamap.cli import main as cli_main
from doamap.metrics import err_doa, rmse_amplitude
from doamap.ordermap import (
    ProjectionStats,
    map_order_pca,
    map_order_scan,
    posterior_variances,
)
from doamap.subspace import (
    eigendecompose,
    prefix_energies,
    projection_stats,
    sample_covariance,
)
from scenarios import default_scenario, order_splits, y_split

FAST = dict(d=16, k_true=2, m=64, n=64, k_max=5, n_runs=2,
            snr_grid_db=(20.0,), grid_step_deg=2.0)

# a valid value other than the default for every ExperimentConfig field
NON_DEFAULT = dict(
    d=40, k_true=2, m=256, n=1024, overlap=(0.0, 0.5), decay=(0.25,),
    doa_deg=(20.0, 80.0, 140.0), snr_grid_db=(-5.0, 5.0), k_max=6,
    grid_step_deg=1.0, n_runs=7, master_seed=11,
    methods=("dtft-map", "music-known-k"), output_path="out/r.csv")


def _config_text(settings):
    return "".join(
        f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in settings.items())


class TestConfig:
    def test_desk_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.d, cfg.k_true, cfg.m, cfg.n) == (32, 3, 512, 512)
        assert cfg.k_max == 10 and cfg.n_runs == 100
        assert cfg.grid_step_deg == 0.5
        assert len(cfg.snr_grid_db) == 13

    def test_paper_scale(self):
        cfg = ExperimentConfig.paper_scale()
        assert (cfg.d, cfg.k_true, cfg.m, cfg.n) == (100, 5, 4096, 4096)
        assert cfg.n_runs == 1000 and cfg.grid_step_deg == 0.1

    def test_resolved_doas_default(self):
        assert ExperimentConfig().resolved_doas() == (10.0, 66.0, 122.0)

    def test_resolved_doas_explicit(self):
        cfg = ExperimentConfig(k_true=2, doa_deg=(33.0, 99.0))
        assert cfg.resolved_doas() == (33.0, 99.0)

    def test_grid_points_order(self):
        cfg = ExperimentConfig(snr_grid_db=(0.0, 10.0), overlap=(0.0, 0.5))
        assert cfg.grid_points() == [
            (0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (10.0, 0.0, 0.0), (10.0, 0.5, 0.0)
        ]

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_max=32)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(m=600, n=512)
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("music-map", "esprit"))
        with pytest.raises(ConfigError):
            ExperimentConfig(doa_deg=(10.0,))

    def test_scenario_per_grid_point(self):
        cfg = ExperimentConfig(snr_grid_db=(0.0, math.inf), decay=(0.0, 0.5))
        scenarios = cfg.scenarios()
        assert [(sc.snr_db, sc.overlap, sc.decay)
                for sc in scenarios] == cfg.grid_points()
        sc = scenarios[3]
        assert (sc.snr_db, sc.overlap, sc.decay) == cfg.grid_points()[3]
        assert (sc.d, sc.k_true, sc.m, sc.n) == (32, 3, 512, 512)
        assert sc.doa_deg == cfg.resolved_doas() and sc.seed == cfg.master_seed

    def test_bad_grid_point_named(self):
        with pytest.raises(ConfigError, match=r"grid point \(-inf, 0\.0, 0\.0\)"):
            ExperimentConfig(snr_grid_db=(0.0, -math.inf))

    def test_load_and_sweep_are_linear_in_the_grid(self, monkeypatch,
                                                   serial_pools):
        # one pass over the grid at load and one scenario per grid point in
        # the sweep, however many runs share it
        grid_calls, built = [], []
        grid_points = ExperimentConfig.grid_points
        monkeypatch.setattr(ExperimentConfig, "grid_points",
                            lambda self: grid_calls.append(1) or grid_points(self))
        cfg = ExperimentConfig(**dict(FAST, n_runs=3, methods=("music-map",),
                                      snr_grid_db=(0.0, 20.0),
                                      overlap=(0.0, 0.5), decay=(0.0, 0.5)))
        g = len(grid_points(cfg))
        assert (g, len(grid_calls)) == (8, 1)
        scenario = bench.ArrayScenario
        monkeypatch.setattr(bench, "ArrayScenario",
                            lambda **kw: built.append(1) or scenario(**kw))
        records = run_sweep(cfg)
        assert len(built) == g
        assert len(records) == 3 * g

    @pytest.mark.parametrize("fields", [
        dict(grid_step_deg=0.0),
        dict(grid_step_deg=math.inf),
        dict(grid_step_deg=180.0),
        dict(grid_step_deg=1e-300),
        dict(overlap=(0.0, 1.5)),
        dict(decay=(-1.0,)),
        dict(doa_deg=(10.0, 200.0, 30.0)),
        dict(m=1, n=1),
        dict(snr_grid_db=()),
        dict(k_true=0),
        dict(k_max=0),
        dict(master_seed=-1),
        dict(snr_grid_db=(0.0, math.nan)),
        dict(snr_grid_db=(-math.inf,)),
        # noise energy past the float range: 10**400 overflows in the draw
        dict(snr_grid_db=(-4000.0,)),
        # sigma^2 = inf at this shape, and eigh fails to converge
        dict(d=8, k_true=2, m=8, n=8, k_max=5, snr_grid_db=(-3080.0,)),
        # a finite noise energy whose DTFT spectrum, up to (2D+1)|Y|^2,
        # overflowed in task 0:0 of a dtft-map sweep on a 1-degree grid
        dict(d=16, k_true=2, m=4, n=4, k_max=2, snr_grid_db=(-3050.0,)),
        dict(methods=("pca-map", "music-map", "pca-map")),
        dict(snr_grid_db=(0.0, 10.0, 0.0)),
        dict(overlap=(0.5, 0.5)),
        dict(decay=(0.0, 0.0)),
        dict(snr_grid_db=(0.0, -0.0)),
        # distinct values that the CSVs print alike ("%g")
        dict(snr_grid_db=(10.0, 10.0000001)),
        dict(overlap=(0.5, 0.5000001)),
        dict(decay=(0.25, 0.2500001)),
        dict(d=8, k_true=5, k_max=3, methods=("music-known-k",)),
    ], ids=["grid-step-0", "grid-step-inf", "grid-step-180", "grid-step-tiny",
            "overlap-1.5", "decay-neg", "doa-200", "m-1", "empty-snr",
            "k-true-0", "k-max-0",
            "seed-neg", "snr-nan", "snr-neg-inf", "snr-minus-4000",
            "snr-minus-3080", "snr-dtft-overflow", "dup-method", "dup-snr",
            "dup-overlap", "dup-decay", "dup-signed-zero", "snr-prints-alike",
            "overlap-prints-alike", "decay-prints-alike",
            "known-k-past-k-max"])
    def test_rejects_values_that_fail_in_a_worker(self, fields, tmp_path, capsys):
        with pytest.raises(ConfigError):
            ExperimentConfig(**fields)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(_config_text(fields))
        assert cli_main(["sweep", "--config", str(cfg_file)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_k_true_past_k_max_without_known_k(self):
        # only known-k reads k_true as an order; the other rules scan to k_max
        cfg = ExperimentConfig(d=8, k_true=5, k_max=3,
                               methods=("music-map", "pca-map", "music-aic"))
        assert cfg.k_true > cfg.k_max

    def test_negative_seed_flag_exit_code(self, capsys):
        assert cli_main(["sweep", "--seed", "-1"]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_from_file(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "d = 16\n"
            "k_true = 2\n"
            "m = 64\n"
            "n = 64\n"
            "k_max = 5\n"
            "snr_grid_db = -10, 0, 10\n"
            "methods = music-map, dtft-map\n"
            "n_runs = 3\n"
        )
        cfg = ExperimentConfig(**ExperimentConfig.parse_file(cfg_file))
        assert cfg.d == 16 and cfg.snr_grid_db == (-10.0, 0.0, 10.0)
        assert cfg.methods == ("music-map", "dtft-map")

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                             ids=lambda f: f.name)
    def test_config_file_round_trips_every_field(self, field, tmp_path):
        value = NON_DEFAULT[field.name]
        assert value != field.default
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(_config_text({field.name: value}))
        settings = ExperimentConfig.parse_file(cfg_file)
        assert settings == {field.name: value}
        got = getattr(ExperimentConfig(**settings), field.name)
        assert repr(got) == repr(value)  # types too: 7 != 7.0, () != []

    def test_every_field_has_a_round_trip_value(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert names == list(NON_DEFAULT) and len(names) == 14

    def test_from_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("dd = 16\n")
        with pytest.raises(ConfigError, match="'dd'"):
            ExperimentConfig.parse_file(cfg_file)

    def test_config_file_bad_value(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("d = 16\nsnr_grid_db = 0, ten\n")
        with pytest.raises(ConfigError, match=":2: bad value for snr_grid_db"):
            ExperimentConfig.parse_file(cfg_file)

    def test_from_file_duplicate_key(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("d = 16\nn_runs = 1\n# again\nn_runs = 2\n")
        with pytest.raises(ConfigError, match=r":4: 'n_runs' .* line 2"):
            ExperimentConfig.parse_file(cfg_file)

    def test_from_file_bad_syntax(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("just some text\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.parse_file(cfg_file)

    def test_from_file_missing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse_file("/nonexistent/path.cfg")


class TestRunSingle:
    def test_row_per_method(self):
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=0)
        rows = run_single(sc, k_max=5, grid_step_deg=2.0,
                          methods=("pca-map", "music-map", "dtft-map",
                                   "music-aic", "music-known-k", "dtft-known-k"),
                          rng=np.random.default_rng(0))
        assert [r["method"] for r in rows] == [
            "pca-map", "music-map", "dtft-map", "music-aic",
            "music-known-k", "dtft-known-k",
        ]
        for row in rows:
            assert list(row) == ["method", "k_hat", *METRICS]
            assert 0 <= row["k_hat"] <= 5
            assert row["rmse_sigma"] >= 0.0
            if row["method"] == "pca-map":
                assert math.isnan(row["err_doa"])
            else:
                assert 0.0 <= row["err_doa"] <= 1.0

    # All six methods on three FAST-shape draws, recorded at commit 02dc1d9
    # (k_hat exact, floats to 1e-10 relative, the golden bound); the golden
    # record holds only the four default methods.  The -10 dB draw has AIC
    # at K = 0; the K = 6 draw has k_true > k_max, so known-K reads 5 peaks.
    # Rows: method, k_hat, err_doa, rmse_a0, rmse_a_shrunk, rmse_sigma, tau_mean.
    RECORDED = [
        (dict(d=16, k=2, m=64, n=64, snr_db=20.0), 10, [
            ("pca-map", 2, math.nan, math.nan, math.nan,
             0.008400966340256888, 0.009383479755693546),
            ("music-map", 2, 0.002777777777777778, 1.3824691618138392,
             1.4166695918822043, 0.05655521409063413, 0.014772903592881996),
            ("dtft-map", 3, 0.15555555555555556, 4.92154103001855,
             4.604259700475151, 0.0530955800799458, 0.02157026159907376),
            ("music-aic", 2, 0.002777777777777778, 1.3824691618138392,
             1.4166695918822043, 0.05655521409063413, 0.014772903592881996),
            ("music-known-k", 2, 0.002777777777777778, 1.3824691618138392,
             1.4166695918822043, 0.05655521409063413, 0.014772903592881996),
            ("dtft-known-k", 2, 0.23055555555555557, 7.567813735212293,
             7.113773892120512, 0.5167468936080057, 0.15109374671722056),
        ]),
        (dict(d=16, k=2, m=64, n=64, snr_db=-10.0), 11, [
            ("pca-map", 0, math.nan, math.nan, math.nan,
             0.09086406916343925, 1.0),
            ("music-map", 0, 1.0, 11.52443057161611, 11.52443057161611,
             0.09086406916343925, 1.0),
            ("dtft-map", 0, 1.0, 11.52443057161611, 11.52443057161611,
             0.09086406916343925, 1.0),
            ("music-aic", 0, 1.0, 11.52443057161611, 11.52443057161611,
             0.09086406916343925, 1.0),
            ("music-known-k", 2, 0.16666666666666666, 117.48639879855583,
             9.64256636207011, 0.0187327228226426, 0.8306731945562238),
            ("dtft-known-k", 2, 0.09722222222222222, 131.03588786140523,
             8.311238082882015, 0.04578741706853684, 0.7978810672970702),
        ]),
        (dict(d=16, k=6, m=64, n=64, snr_db=10.0), 12, [
            ("pca-map", 5, math.nan, math.nan, math.nan,
             0.1269640124519521, 0.13929874614748297),
            ("music-map", 5, 0.0022222222222222222, 5.212033392169584,
             6.1151333933294705, 0.18504811432155122, 0.1752734337308434),
            ("dtft-map", 5, 0.0022222222222222222, 3.4173796969930397,
             4.681539003770874, 0.18427988801894624, 0.17474795064825063),
            ("music-aic", 5, 0.0022222222222222222, 5.212033392169584,
             6.1151333933294705, 0.18504811432155122, 0.1752734337308434),
            ("music-known-k", 6, 0.0022222222222222222, 5.212033392169584,
             6.1151333933294705, 0.18504811432155122, 0.1752734337308434),
            ("dtft-known-k", 6, 0.0022222222222222222, 3.4173796969930397,
             4.681539003770874, 0.18427988801894624, 0.17474795064825063),
        ]),
    ]

    @pytest.mark.parametrize("shape,rng_seed,want", RECORDED,
                             ids=["fast-20dB", "fast-minus10dB", "k6-kmax5"])
    def test_all_methods_match_recorded(self, shape, rng_seed, want):
        rows = run_single(default_scenario(**shape), 5, 2.0,
                          [w[0] for w in want],
                          rng=np.random.default_rng(rng_seed))
        fields = ("err_doa", "rmse_a0", "rmse_a_shrunk", "rmse_sigma", "tau_mean")
        for row, (method, k_hat, *floats) in zip(rows, want, strict=True):
            assert (row["method"], row["k_hat"]) == (method, k_hat)
            for f, expect in zip(fields, floats):
                got = float(row[f])
                assert (math.isnan(got) if math.isnan(expect) else
                        abs(got - expect) <= 1e-10 * max(abs(got), abs(expect))
                        ), (method, f, got, expect)

    def test_known_k_uses_truth(self):
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=1)
        rows = run_single(sc, 5, 2.0, ("music-known-k", "dtft-known-k"),
                          rng=np.random.default_rng(1))
        assert all(r["k_hat"] == 2 for r in rows)

    @pytest.mark.parametrize("doas", [(20.0, 80.0, 140.0), (140.0, 20.0, 80.0)])
    def test_known_k_fit_is_exact_in_any_doa_order(self, doas):
        # noiseless on-grid draw: the i-th DOA carries band i and amplitude
        # 1 - decay*i/K in whatever order doa_deg lists it, and the peak
        # fit keeps each amplitude row with its own angle
        from doamap.arraysim import ArrayScenario

        sc = ArrayScenario(d=16, k_true=3, m=64, n=64, doa_deg=doas,
                           decay=0.5, snr_db=math.inf)
        rows = run_single(sc, 5, 1.0, ("music-known-k", "dtft-known-k"),
                          rng=np.random.default_rng(0))
        for row in rows:
            assert row["k_hat"] == 3
            assert row["err_doa"] == 0.0
            assert row["rmse_a0"] < 1e-12, row

    def test_far_below_the_noise_floor_runs_clean(self):
        # desk task 0:1 at -2000 dB: dtft-map picks K = 6, and its amplitude
        # differences (~1e201) overflowed when squared, so the RMSE read inf
        cfg = ExperimentConfig(snr_grid_db=(-2000.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_single(cfg.scenarios()[0], cfg.k_max, cfg.grid_step_deg,
                              cfg.methods, rng=np.random.default_rng([0, 0, 1]))
        (dtft,) = [row for row in rows if row["method"] == "dtft-map"]
        assert dtft["k_hat"] == 6
        assert all(math.isfinite(dtft[f]) for f in METRICS)
        assert dtft["rmse_a0"] > 1e200

    @pytest.mark.parametrize("n", [227, 161])
    def test_grid_holds_each_direction_once(self, n, monkeypatch):
        # a step of 180/227 rounds so that the last grid point is 180.0, and
        # 180/161 so that the last point's cosine rounds to -1: both are the
        # direction of 0 degrees.  At 180/227 this draw (task 0:6 of a sweep
        # at its first grid point) picked the 180.0 peak, and its DOA
        # metric raised
        from doamap.arraysim import ArrayScenario, spatial_frequency

        grids = []
        monkeypatch.setattr(bench, "spatial_frequency", lambda doa_deg: (
            grids.append(doa_deg) or spatial_frequency(doa_deg)))
        sc = ArrayScenario(d=8, k_true=2, m=16, n=16, doa_deg=(40.0, 120.0),
                           snr_db=-10.0)
        rows = run_single(sc, 5, 180.0 / n, bench.KNOWN_METHODS,
                          rng=np.random.default_rng([0, 0, 6]))
        assert len(rows) == len(bench.KNOWN_METHODS)
        (grid,) = grids
        assert grid.size == n and grid.max() < 180.0
        omegas = np.pi * np.cos(np.deg2rad(grid))
        omegas = np.where(omegas >= np.pi, omegas - 2 * np.pi, omegas)
        assert np.unique(omegas).size == n

    def test_coincident_peaks(self, monkeypatch):
        # both spectra's two peaks coincide, so each scan ends at the
        # full-rank prefix K = 1 and flags K = 2; map picks K = 0, and aic
        # and known-k at K = 2 read the posterior of K = 1 and fit its one
        # peak
        from doamap.arraysim import amplitude_matrix, synth_freq

        # grid index 25 of the 2-degree grid is 50 degrees
        monkeypatch.setattr(bench, "pick_peaks",
                            lambda values, count: np.array([25, 25]))
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=0)
        rows, peaks, posts = self._spied_draw(monkeypatch, sc, 5, 2.0, 0)
        assert [row["method"] for row in rows] == list(bench.KNOWN_METHODS)
        assert [post.rank_deficient_k for post in posts.values()] == [(2,), (2,)]
        assert [post.k_map for post in posts.values()] == [0, 0]
        k_hat = {row["method"]: row["k_hat"] for row in rows}
        assert k_hat == {"pca-map": 2, "music-map": 0, "dtft-map": 0,
                         "music-aic": 2, "music-known-k": 2,
                         "dtft-known-k": 2}
        y = synth_freq(sc, rng=np.random.default_rng(0))
        norm2_y = float(np.sum(np.abs(y) ** 2))
        for row in rows[3:]:
            angles, steer = peaks[row["method"].split("-")[0]]
            s, a0 = projection_stats(y, steer[:1].T)
            assert a0.shape == (1, sc.m)
            split = ProjectionStats.from_energy(s, norm2_y, 1, sc.d, sc.m)
            tau = posterior_variances(split, sc.d).tau_mean
            assert row["tau_mean"] == tau, row["method"]
            fit = (err_doa(angles[:1], sc.doa_deg), *rmse_amplitude(
                np.stack((a0, (1.0 - tau) * a0)), angles[:1],
                amplitude_matrix(sc), sc.doa_deg))
            assert (row["err_doa"], row["rmse_a0"], row["rmse_a_shrunk"]) \
                == fit, row["method"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_rule_through_a_draw(self, seed, monkeypatch):
        """The scan's rank rule, reached by run_single on a product config.

        D = 3, DOAs 0 and 0.0002 degrees on a 4e-4 degree grid at 300 dB:
        MUSIC's two peaks are 0 and 179.9996 degrees, which the grid wrap
        gives one steering vector (omega = pi cos phi, and pi and -pi are
        one direction), so the music scan scores K = 0, 1 and flags K = 2.
        The config reaches the rule only through that grid-wrap duplicate:
        a fix that makes the two grid ends neighbours removes the 179.9996
        peak, and this test then needs another config.  Every row is
        written, and music-known-k keeps k_hat 2 while it reads prefix 1's
        posterior and fits its one peak."""
        from doamap.arraysim import ArrayScenario, amplitude_matrix, synth_freq

        sc = ArrayScenario(d=3, k_true=2, m=16, n=16, doa_deg=(0.0, 0.0002),
                           snr_db=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, peaks, posts = self._spied_draw(monkeypatch, sc, 2, 4e-4,
                                                  seed)
        assert [row["method"] for row in rows] == list(bench.KNOWN_METHODS)
        # the two ends of the grid, 0 and 179.9996 degrees
        grid = np.arange(0.0, 180.0, 4e-4)
        np.testing.assert_array_equal(peaks["music"][0], grid[[0, -1]])
        assert posts["music"].rank_deficient_k == (2,)
        assert len(posts["music"].s) == 2
        (row,) = [row for row in rows if row["method"] == "music-known-k"]
        assert row["k_hat"] == 2
        y = synth_freq(sc, rng=np.random.default_rng(seed))
        norm2_y = float(np.sum(np.abs(y) ** 2))
        angles, steer = peaks["music"]
        s, a0 = projection_stats(y, steer[:1].T)
        split = ProjectionStats.from_energy(s, norm2_y, 1, sc.d, sc.m)
        tau = posterior_variances(split, sc.d).tau_mean
        fit = (err_doa(angles[:1], sc.doa_deg), *rmse_amplitude(
            np.stack((a0, (1.0 - tau) * a0)), angles[:1],
            amplitude_matrix(sc), sc.doa_deg))
        assert row["tau_mean"] == tau
        assert (row["err_doa"], row["rmse_a0"], row["rmse_a_shrunk"]) == fit

    @staticmethod
    def _spied_draw(monkeypatch, sc, k_max, step, seed):
        """run_single's rows on one draw with every method, its
        {source: (angles, peak rows)} and its {source: OrderPosterior}."""
        scans, peaks = [], []

        def spy(*args):
            scans.append(map_order_scan(*args))
            return scans[-1]

        def peaks_spy(*args, real=bench.spectrum_peaks):
            peaks.append(real(*args))
            return peaks[-1]

        monkeypatch.setattr(bench, "map_order_scan", spy)
        monkeypatch.setattr(bench, "spectrum_peaks", peaks_spy)
        rows = run_single(sc, k_max, step, bench.KNOWN_METHODS,
                          rng=np.random.default_rng(seed))
        (peaks,) = peaks
        return rows, peaks, dict(zip(peaks, scans))  # scans run in peaks' order

    @pytest.mark.parametrize("coincident", [False, True])
    def test_spectrum_posterior_splits_y_on_the_prefix(self, coincident,
                                                       monkeypatch):
        # a spectrum scan scores the partial sums of prefix_energies (R's
        # splits); the row of the order a rule picks takes its posterior
        # from Y's split on that prefix of the peak rows.  The coincident
        # draw is test_coincident_peaks', whose scans end at K = 1
        from doamap.arraysim import (
            amplitude_matrix,
            noise_variances,
            synth_freq,
        )

        if coincident:
            monkeypatch.setattr(bench, "pick_peaks",
                                lambda values, count: np.array([25, 25]))
            sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=0)
            k_max, step, seed = 5, 2.0, 0
        else:
            sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=-5.0,
                                  seed=0)
            k_max, step, seed = 10, 0.5, 3
        rows, peaks, posts = self._spied_draw(monkeypatch, sc, k_max, step,
                                              seed)
        y = synth_freq(sc, rng=np.random.default_rng(seed))
        cov = sample_covariance(y)
        norm2_y = float(np.sum(np.abs(y) ** 2))
        sigma_true = math.sqrt(noise_variances(sc, amplitude_matrix(sc)))
        for source, (_angles, steer) in peaks.items():
            post = posts[source]
            energies = prefix_energies(steer[:k_max].T, cov)
            partial = np.cumsum(energies)
            assert len(post.s) == len(energies) + 1
            assert order_splits(post, norm2_y, sc.d, sc.m) == [
                ProjectionStats.from_energy(float(partial[k - 1]) if k else 0.0,
                                            norm2_y, k, sc.d, sc.m)
                for k in range(len(post.s))]
        spectrum_rows = [row for row in rows
                         if not row["method"].startswith("pca")]
        assert len(spectrum_rows) == 5
        for row in spectrum_rows:
            source = row["method"].split("-")[0]
            k = min(row["k_hat"], len(posts[source].s) - 1)
            pv = posterior_variances(y_split(y, peaks[source][1][:k].T, sc.m),
                                     sc.d)
            assert row["tau_mean"] == pv.tau_mean, row["method"]
            assert row["rmse_sigma"] == abs(
                math.sqrt(pv.sigma2_mean) - sigma_true), row["method"]

    def test_all_zero_data_is_rejected(self):
        # Y = 0 has no energy split (q = 0/0): a pure-noise scenario at
        # +inf dB, which always draws it, or at an SNR whose noise
        # variance underflows, is rejected up front, and the scans name
        # the cause; k_true = 0 at a finite SNR below that still runs
        from doamap.arraysim import ArrayScenario, steering_matrix

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr_db in (math.inf, 3300.0):
                with pytest.raises(ValueError, match="pure-noise"):
                    ArrayScenario(d=4, k_true=0, m=8, n=8, doa_deg=(),
                                  snr_db=snr_db)
            cov = sample_covariance(np.zeros((4, 8), dtype=complex))
            with pytest.raises(ValueError, match="all-zero"):
                map_order_pca(eigendecompose(cov), 0.0, 2, 8)
            with pytest.raises(ValueError, match="all-zero"):
                map_order_scan(cov, steering_matrix([50.0], 4).T, 2, 8, 0.0)
            for snr_db in (0.0, 3000.0):
                sc = ArrayScenario(d=4, k_true=0, m=8, n=8, doa_deg=(),
                                   snr_db=snr_db)
                (row,) = run_single(sc, 2, 2.0, ("pca-map",),
                                    rng=np.random.default_rng(0))
                assert 0 <= row["k_hat"] <= 2
                assert math.isfinite(row["rmse_sigma"])
                assert 0.0 < row["tau_mean"] <= 1.0


def _load_tracing():
    """perfbench/tracing.py, loaded from its file without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """perfbench/run.py --trace 1 wraps the functions named in its TRACED
    table and binds their arguments in count functions; a rename, removal
    or signature change in the package must fail here, not in the benchmark."""

    # TRACED layers that one run_single draw does not reach
    NOT_IN_DRAW = {"bench.write_results", "bench.write_aggregates",
                   "bench.validate_distributions"}
    METHODS = ("pca-map", "music-map", "dtft-map", "music-aic",
               "music-known-k", "dtft-known-k")

    def test_traced_functions_resolve(self):
        tracing = _load_tracing()
        for mod_name, fn_name in tracing.TRACED:
            module = importlib.import_module(f"doamap.{mod_name}")
            assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)

    def test_traced_draw(self):
        tracing = _load_tracing()
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=0)
        untraced = run_single(sc, 5, 2.0, self.METHODS,
                              rng=np.random.default_rng(0))
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            # through the module attribute, which instrument() patches
            traced = bench.run_single(sc, 5, 2.0, self.METHODS,
                                      rng=np.random.default_rng(0))
        # a count function that raised inside a caught call would change
        # rows; repr compares the nan cells too
        assert repr(traced) == repr(untraced)
        for mod_name, fn_name in tracing.TRACED:
            name = f"{mod_name}.{fn_name}"
            if name not in self.NOT_IN_DRAW:
                assert tracer.counts[name, "calls"] > 0, name
        layers = tracing.layer_metrics([tracer], [1], 1)
        assert layers["ordermap.candidates_scored"] > 0
        assert layers["specfun.log_q_sum.terms"] > 0
        assert layers["specfun.log_reg_inc_beta.terms"] > 0
        assert layers["subspace.dtft_spectrum.gflop_computed"] > 0

    def _traced_six_method_draw(self, snr_db=20.0, rng_seed=0):
        """(tracing module, tracer, rows) of one traced FAST-shape draw."""
        tracing = _load_tracing()
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=snr_db, seed=0)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            rows = bench.run_single(sc, 5, 2.0, self.METHODS,
                                    rng=np.random.default_rng(rng_seed))
        return tracing, tracer, rows

    @staticmethod
    def _source_and_k(row):
        return row["method"].split("-", 1)[0], row["k_hat"]

    def test_one_scan_per_source(self, monkeypatch):
        # every rule reads its source's one scan, which splits only R, and
        # Y is split and fitted once per (source, K) that a rule picks:
        # music K = 2 (map, aic and known-k pick it), dtft K = 3 (map) and
        # K = 2 (known-k).  The steering matrices are synthesis and the one
        # set of peak rows (MUSIC's candidates and their neighbours with
        # the DTFT peaks) that MUSIC's ranking, both scans and every
        # amplitude fit read
        fits = []

        def fit_spy(y, v, real=bench.projection_stats):
            fits.append(v.shape[1])
            return real(y, v)

        monkeypatch.setattr(bench, "projection_stats", fit_spy)
        _tracing, tracer, rows = self._traced_six_method_draw()
        counts = tracer.counts
        scored = counts["ordermap.map_order_scan", "candidates_scored"]
        assert [row["k_hat"] for row in rows[1:]] == [2, 3, 2, 2, 2]
        assert counts["ordermap.map_order_scan", "calls"] == 2
        assert fits == [2, 3, 2]
        assert scored == 12
        assert counts["arraysim.steering_matrix", "calls"] == 2

    def test_scan_reads_peak_rows(self, monkeypatch):
        # the tracer counts len() of the scan's second argument as the peak
        # count, so the scan gets the peaks' steering rows, P x D, highest
        # peak first.  The 30-degree grid has fewer peaks than k_max = 5,
        # where a D x P argument would count min(k_max, D) = 5 peaks.
        from doamap.arraysim import steering_matrix

        tracing = _load_tracing()
        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=0)
        tracer = tracing.Tracer()
        picked, scanned = [], []
        with tracing.instrument(tracer), monkeypatch.context() as mp:
            traced_pick, traced_scan = bench.pick_peaks, bench.map_order_scan

            def pick_spy(values, count):
                picked.append(traced_pick(values, count))
                return picked[-1]

            def scan_spy(cov, steer_rows, *rest):
                scanned.append(steer_rows)
                return traced_scan(cov, steer_rows, *rest)

            mp.setattr(bench, "pick_peaks", pick_spy)
            mp.setattr(bench, "map_order_scan", scan_spy)
            grids = []
            for step in (2.0, 30.0):
                bench.run_single(sc, 5, step, ("music-map", "dtft-map"),
                                 rng=np.random.default_rng(0))
                grids += [np.arange(0.0, 180.0, step)] * 2
        assert [rows.shape for rows in scanned] == [
            (idx.size, sc.d) for idx in picked]
        assert min(idx.size for idx in picked) < 5
        for grid, idx, rows in zip(grids, picked, scanned, strict=True):
            np.testing.assert_allclose(
                rows, steering_matrix(grid[idx], sc.d).T, rtol=1e-12)
        assert tracer.counts["ordermap.map_order_scan", "candidates_scored"] == (
            sum(idx.size + 1 for idx in picked))

    def _fits(self, snr_db, rng_seed):
        """(source, K) -> the traced draw's rows picking it, and the number
        of posterior_variances calls the draw made."""
        _tracing, tracer, rows = self._traced_six_method_draw(snr_db, rng_seed)
        groups = {}
        for row in rows:
            rest = {f: v for f, v in row.items() if f != "method"}
            groups.setdefault(self._source_and_k(row), []).append(repr(rest))
        return groups, tracer.counts["ordermap.posterior_variances", "calls"]

    def test_one_posterior_per_source_and_order(self):
        # rules only pick K: the methods that pick the same (source, K) share
        # one posterior and one fit, so their rows differ only in the method
        groups, calls = self._fits(20.0, 0)
        assert len(groups["music", 2]) == 3  # map, aic and known-k agree here
        for reprs in groups.values():
            assert len(set(reprs)) == 1
        assert calls == len(groups) == 4

    def test_one_posterior_per_fit_at_k0(self):
        # a fit at K = 0 reads posterior_variances like any other order:
        # at -10 dB three of the draw's five fits are at K = 0
        groups, calls = self._fits(-10.0, 11)
        for reprs in groups.values():
            assert len(set(reprs)) == 1
        assert sum(1 for _source, k in groups if k == 0) == 3
        assert calls == len(groups) == 5

    def test_dtft_counts_read_the_grid_table(self, monkeypatch):
        # _dtft_counts multiplies the first argument's two dimensions by
        # len() of the second: R (D x D) and the G spatial frequencies of
        # the grid count 8*G*D^2
        from doamap import subspace

        tables = []

        def spy(cov, omega):
            tables.append((np.shape(cov), len(omega)))
            return subspace.dtft_spectrum(cov, omega)  # traced under instrument

        monkeypatch.setattr(bench, "dtft_spectrum", spy)
        tracing, tracer, _rows = self._traced_six_method_draw()
        assert tables == [((16, 16), 90)]
        layers = tracing.layer_metrics([tracer], [1], 1)
        assert layers["subspace.dtft_spectrum.gflop_computed"] == (
            8 * 90 * 16**2 / 1e9)


class TestSweep:
    def test_pool_capped_at_task_count(self, serial_pools, monkeypatch):
        # two tasks take two workers, whatever --jobs asks for; the default
        # jobs = 1 opens a pool of one, and every pool is opened with one
        # BLAS thread set for its workers
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = ExperimentConfig(**FAST, methods=("music-map",))
        serial = [r.csv_row() for r in run_sweep(cfg)]
        assert [r.csv_row() for r in run_sweep(cfg, jobs=64)] == serial
        assert serial_pools.workers == [1, 2]
        assert serial_pools.blas_pinned == [True, True]

    def test_pool_capped_at_core_count(self, serial_pools, monkeypatch):
        # four tasks on three cores take three workers, whatever --jobs
        # asks for
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cfg = ExperimentConfig(**{**FAST, "n_runs": 4}, methods=("music-map",))
        serial = [r.csv_row() for r in run_sweep(cfg)]
        assert [r.csv_row() for r in run_sweep(cfg, jobs=10**6)] == serial
        assert serial_pools.workers == [1, 3]

    def test_zero_jobs_is_a_config_error(self, monkeypatch):
        # raised before any task is built
        def no_scenarios(self):
            raise AssertionError("tasks built for jobs = 0")

        cfg = ExperimentConfig(**FAST)
        monkeypatch.setattr(ExperimentConfig, "scenarios", no_scenarios)
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep(cfg, jobs=0)

    def test_record_count_and_order(self, serial_pools):
        cfg = ExperimentConfig(**FAST, methods=("music-map", "dtft-map"))
        records = run_sweep(cfg)
        assert len(records) == 2 * 2  # runs x methods, one grid point
        assert [(r.run, r.method) for r in records] == [
            (0, "music-map"), (0, "dtft-map"), (1, "music-map"), (1, "dtft-map")
        ]

    def test_deterministic_across_workers(self, tmp_path):
        cfg = ExperimentConfig(**FAST, methods=("music-map",))
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(serial, p1)
        write_results(parallel, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jobs_leave_the_callers_environment(self, tmp_path, monkeypatch):
        # workers start with one BLAS thread each; the caller's variables,
        # set or unset, are as they were after the sweep
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with bench._worker_blas_env():
            assert all(os.environ[var] == "1" for var in bench.BLAS_THREAD_VARS)
        assert dict(os.environ) == before
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("d = 16\nk_true = 2\nm = 64\nn = 64\nk_max = 5\n"
                       "snr_grid_db = 20\ngrid_step_deg = 2.0\n")
        assert cli_main(["sweep", "--config", str(cfg), "--runs", "2",
                         "--jobs", "2", "--out", str(tmp_path / "r.csv")]) == 0
        assert dict(os.environ) == before

    def test_seed_changes_data(self, serial_pools):
        cfg = ExperimentConfig(**FAST, methods=("music-map",))
        base = run_sweep(cfg)
        other = run_sweep(ExperimentConfig(**FAST, methods=("music-map",),
                                           master_seed=99))
        assert any(a.rmse_a0 != b.rmse_a0 for a, b in zip(base, other))

    def test_csv_round_trip(self, tmp_path, serial_pools):
        cfg = ExperimentConfig(**FAST)
        records = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_results(records, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("#")
        assert text[1] == CSV_HEADER
        back = read_results(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.method == b.method and a.k_hat == b.k_hat
            assert b.rmse_a0 == pytest.approx(a.rmse_a0, rel=1e-9, nan_ok=True)


    def test_read_results_skips_blank_lines(self, tmp_path):
        records = [RunRecord(
            method="music-map", snr_db=0.0, overlap=0.0, decay=0.0, run=run,
            k_hat=2, err_doa=0.1, rmse_a0=1.0, rmse_a_shrunk=0.5,
            rmse_sigma=0.2, tau_mean=0.3) for run in (0, 1)]
        path = tmp_path / "out.csv"
        write_results(records, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:] + [""]))
        assert read_results(path) == records


class TestAggregation:
    def _records(self):
        rows = []
        for snr in (0.0, 10.0):
            for run, k in enumerate((2, 3)):
                rows.append(RunRecord(
                    method="music-map", snr_db=snr, overlap=0.0, decay=0.0,
                    run=run, k_hat=k, err_doa=0.1 * (run + 1), rmse_a0=1.0,
                    rmse_a_shrunk=0.5, rmse_sigma=0.2, tau_mean=0.3,
                ))
        return rows

    def test_aggregate_means(self):
        agg = aggregate(self._records())
        assert len(agg) == 2
        (key, n, means) = agg[0]
        assert key == ("music-map", 0.0, 0.0, 0.0) and n == 2
        assert means["err_doa"] == pytest.approx(0.15)
        assert means["k_hat_mean"] == pytest.approx(2.5)

    def test_aggregate_skips_nan(self):
        rows = self._records()
        rows[0] = RunRecord(**{**rows[0].__dict__, "err_doa": math.nan})
        agg = aggregate(rows)
        assert agg[0][2]["err_doa"] == pytest.approx(0.2)

    def test_write_aggregates_bytes(self, tmp_path):
        rows = self._records() + [RunRecord(
            method="pca-map", snr_db=0.0, overlap=0.0, decay=0.0, run=0,
            k_hat=3, err_doa=math.nan, rmse_a0=math.nan,
            rmse_a_shrunk=math.nan, rmse_sigma=0.25, tau_mean=0.5,
        )]
        path = tmp_path / "res_agg.csv"
        write_aggregates(rows, path, k_true=3)
        assert path.read_bytes() == (
            b"# doamap-results v2 (aggregated)\n"
            b"method,snr_db,overlap,decay,n_runs,k_hat_mean,k_correct_rate,"
            b"err_doa,rmse_a0,rmse_a_shrunk,rmse_sigma,tau_mean\n"
            b"music-map,0,0,0,2,2.5,0.5,0.15,1,0.5,0.2,0.3\n"
            b"music-map,10,0,0,2,2.5,0.5,0.15,1,0.5,0.2,0.3\n"
            b"pca-map,0,0,0,1,3,1,nan,nan,nan,0.25,0.5\n"
        )
        assert all(means["k_correct_rate"] == 0.5
                   for _key, _n, means in aggregate(self._records(), k_true=3))
        assert all(math.isnan(means["k_correct_rate"])
                   for _key, _n, means in aggregate(self._records()))

    def test_emit_curves(self, tmp_path):
        paths = emit_curves(self._records(), "err_doa", tmp_path / "curves")
        assert len(paths) == 1
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "snr_db,mean_err_doa"
        assert lines[1] == "0,0.15"
        assert lines[2] == "10,0.15"

    def test_emit_curves_per_decay(self, tmp_path):
        rows = [RunRecord(
            method="music-map", snr_db=snr, overlap=0.0, decay=decay, run=0,
            k_hat=k, err_doa=err, rmse_a0=1.0, rmse_a_shrunk=0.5,
            rmse_sigma=0.2, tau_mean=0.3,
        ) for snr in (0.0, 10.0) for decay, err, k in ((0.0, 0.1, 2), (0.5, 0.9, 3))]
        paths = emit_curves(rows, "err_doa", tmp_path)
        assert [p.name for p in paths] == [
            "curve_err_doa_music-map_overlap0_decay0.csv",
            "curve_err_doa_music-map_overlap0_decay0.5.csv",
        ]
        assert paths[0].read_text() == "snr_db,mean_err_doa\n0,0.1\n10,0.1\n"
        assert paths[1].read_text() == "snr_db,mean_err_doa\n0,0.9\n10,0.9\n"
        paths = emit_curves(rows, "k_hat", tmp_path)
        assert [p.read_text().splitlines()[1] for p in paths] == ["0,2", "0,3"]

    def test_emit_curves_rejects_unknown_quantity(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves(self._records(), "nonsense", tmp_path)

    def test_emit_curves_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves([], "err_doa", tmp_path)


class TestValidateDistributions:
    def test_suite_passes(self):
        passed, checks = validate_distributions(n_mc=5000)
        assert passed, checks
        names = [c[0] for c in checks]
        assert "complement_identity" in names
        assert "dominance_sum_cross_form" in names
        assert all(len(c) == 4 for c in checks)

    def test_perturbation_fails(self, monkeypatch):
        import doamap.specfun as sf

        exact = sf.reg_inc_beta
        monkeypatch.setattr(sf, "reg_inc_beta",
                            lambda p, n, m: exact(p, n, m) + 1e-6)
        passed, checks = validate_distributions(n_mc=2000)
        assert not passed
        failed = {name for name, *_rest, ok in checks if not ok}
        assert "complement_identity" in failed

    def test_check_result_types(self):
        passed, checks = validate_distributions(n_mc=2000)
        assert type(passed) is bool
        for name, err, _tol, ok in checks:
            assert type(err) is float, name
            assert type(ok) is bool, name

    def test_integrates_only_what_the_checks_read(self, monkeypatch):
        import scipy.integrate

        import doamap.specfun as sf

        counts = {"integrals": 0, "evaluations": 0}
        real_quad = scipy.integrate.quad

        def counting_quad(fn, *args, **kwargs):
            counts["integrals"] += 1

            def counted(x):
                counts["evaluations"] += 1
                return fn(x)
            return real_quad(counted, *args, **kwargs)

        undefined = []
        real_moment = sf.double_moment

        def recording_moment(pair, k, family, which):
            try:
                return real_moment(pair, k, family, which)
            except ValueError:
                undefined.append(((pair.alpha, pair.beta), family, which))
                raise

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        monkeypatch.setattr(sf, "double_moment", recording_moment)
        passed, _checks = validate_distributions(n_mc=2000)
        assert passed
        # 12 pdf normalizations and 11 moments: the shape-1 inverse-gamma X
        # of pair (1, 4) has no mean, so its divergent x*pdf integral is skipped
        assert undefined == [((1, 4), "invgamma", "x")]
        assert counts == {"integrals": 23, "evaluations": 3135}


class TestImportCost:
    def test_import_loads_no_linalg_or_integrate(self):
        # every benchmark setup imports the package; importing scipy.linalg
        # after it takes ~66 ms more on a 2-core Xeon, against a desk or
        # paper setup of ~0.25 s.  validate_distributions imports
        # scipy.integrate where it uses it.
        src = str(Path(doamap.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = ("import sys, doamap; print(sorted(name for name in "
                "('scipy.linalg', 'scipy.integrate') if name in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"


class TestCli:
    def test_sweep_writes_outputs(self, tmp_path, capsys, serial_pools):
        cfg_file = tmp_path / "fast.cfg"
        cfg_file.write_text(
            "d = 16\nk_true = 2\nm = 64\nn = 64\nk_max = 5\n"
            "snr_grid_db = 20\nn_runs = 2\ngrid_step_deg = 2.0\n"
            "methods = music-map\n"
            f"output_path = {tmp_path / 'res.csv'}\n"
        )
        assert cli_main(["sweep", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "res.csv").exists()
        assert (tmp_path / "res_agg.csv").exists()

    def test_sweep_precedence(self, tmp_path, monkeypatch, capsys):
        # defaults < --paper-scale preset < --config file < flags
        monkeypatch.chdir(tmp_path)
        swept = []
        monkeypatch.setattr(cli, "run_sweep",
                            lambda config, jobs: swept.append(config) or [])
        file_keys = dict(k_true=2, m=64, n=64, n_runs=3, master_seed=5,
                         output_path=str(tmp_path / "file.csv"))
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text(_config_text(file_keys))
        flag_keys = dict(master_seed=9, n_runs=1,
                         output_path=str(tmp_path / "flag.csv"))
        flags = ["--seed", "9", "--runs", "1", "--out", flag_keys["output_path"]]
        paper = ExperimentConfig.paper_scale
        cases = [
            ([], ExperimentConfig()),
            (["--paper-scale"], paper()),
            (["--config", str(cfg_file)], ExperimentConfig(**file_keys)),
            (["--paper-scale", "--config", str(cfg_file)], paper(**file_keys)),
            (["--config", str(cfg_file)] + flags,
             ExperimentConfig(**{**file_keys, **flag_keys})),
            (["--paper-scale", "--config", str(cfg_file)] + flags,
             paper(**{**file_keys, **flag_keys})),
        ]
        for argv, _want in cases:
            assert cli_main(["sweep"] + argv) == 0
        assert swept == [want for _argv, want in cases]
        both = swept[3]
        assert (both.d, both.grid_step_deg) == (100, 0.1)
        assert (both.k_true, both.m, both.n, both.n_runs) == (2, 64, 64, 3)
        assert "ignored" not in capsys.readouterr().err

    def test_sweep_bad_config_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("garbage\n")
        assert cli_main(["sweep", "--config", str(cfg_file)]) == 1

    def test_sweep_missing_config_exit_code(self, capsys):
        assert cli_main(["sweep", "--config", "/no/such/file.cfg"]) == 1

    def test_validate_dist_exit_code(self, capsys):
        assert cli_main(["validate-dist"]) == 0
        out = capsys.readouterr().out
        assert "complement_identity" in out

    def test_curves_round_trip(self, tmp_path, capsys):
        res = tmp_path / "res.csv"
        write_results([RunRecord(
            method="music-map", snr_db=0.0, overlap=0.0, decay=0.0, run=0,
            k_hat=2, err_doa=0.1, rmse_a0=1.0, rmse_a_shrunk=0.5,
            rmse_sigma=0.2, tau_mean=0.3,
        )], res)
        out_dir = tmp_path / "curves"
        assert cli_main(["curves", "--in", str(res), "--quantity", "err_doa",
                         "--out-dir", str(out_dir)]) == 0
        assert list(out_dir.glob("curve_err_doa_*.csv"))

    def test_curves_missing_input_exit_code(self, capsys):
        assert cli_main(["curves", "--in", "/no/such.csv",
                         "--quantity", "err_doa"]) == 1

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:2] + [lines[2].replace(",0.1,", ",zero,")],
        lambda lines: lines[:2] + [lines[2] + ",7"],
        lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]],
        lambda lines: ["# doamap-results v0"] + lines[1:],
        lambda lines: lines[:1] + [lines[1].replace("k_hat,", "khat,")] + lines[2:],
        lambda lines: lines[1:],
        lambda lines: lines[:2] + [lines[2].replace("music", "m\udcfcsic")],
    ], ids=["bad-float", "extra-field", "missing-field", "schema",
            "header", "no-schema-line", "non-utf8"])
    def test_curves_malformed_input_exit_code(self, edit, tmp_path, capsys):
        res = tmp_path / "res.csv"
        write_results([RunRecord(
            method="music-map", snr_db=0.0, overlap=0.0, decay=0.0, run=0,
            k_hat=2, err_doa=0.1, rmse_a0=1.0, rmse_a_shrunk=0.5,
            rmse_sigma=0.2, tau_mean=0.3,
        )], res)
        # surrogateescape writes a lone surrogate as the raw byte it stands for
        text = "\n".join(edit(res.read_text().splitlines())) + "\n"
        res.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert cli_main(["curves", "--in", str(res), "--quantity", "err_doa",
                         "--out-dir", str(tmp_path / "curves")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_curves_bad_quantity_exit_code(self, tmp_path, capsys):
        res = tmp_path / "res.csv"
        write_results([RunRecord(
            method="music-map", snr_db=0.0, overlap=0.0, decay=0.0, run=0,
            k_hat=2, err_doa=0.1, rmse_a0=1.0, rmse_a_shrunk=0.5,
            rmse_sigma=0.2, tau_mean=0.3,
        )], res)
        assert cli_main(["curves", "--in", str(res), "--quantity", "nonsense",
                         "--out-dir", str(tmp_path / "curves")]) == 1
        assert "unknown quantity" in capsys.readouterr().err

    def test_sweep_missing_out_dir_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called before the output check")

        monkeypatch.setattr("doamap.cli.run_sweep", no_sweep)
        out = tmp_path / "missing_dir" / "res.csv"
        assert cli_main(["sweep", "--runs", "1", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("taken", ["res.csv", "res_agg.csv"])
    def test_sweep_out_is_directory_exit_code(self, taken, tmp_path, capsys,
                                              monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called before the output check")

        monkeypatch.setattr("doamap.cli.run_sweep", no_sweep)
        (tmp_path / taken).mkdir()
        assert cli_main(["sweep", "--runs", "1",
                         "--out", str(tmp_path / "res.csv")]) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_sweep_write_failure_exit_code(self, tmp_path, capsys,
                                           monkeypatch):
        # the results are written, then the aggregates hit a full disk
        def full_disk(records, path, k_true=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "run_sweep", lambda config, jobs: [])
        monkeypatch.setattr(cli, "write_aggregates", full_disk)
        out = tmp_path / "res.csv"
        assert cli_main(["sweep", "--runs", "1", "--out", str(out)]) == 2
        assert out.is_file()
        assert "partial output" in capsys.readouterr().err

    def test_sweep_runtime_failure_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(config, jobs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(cli, "run_sweep", broken)
        assert cli_main(["sweep", "--runs", "1",
                         "--out", str(tmp_path / "res.csv")]) == 2
        assert "runtime failure: worker died" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_bad_jobs_exit_code(self, jobs, tmp_path, capsys, monkeypatch):
        # run_sweep rejects it before any pool opens or output is written
        def no_pool(*args, **kwargs):
            raise AssertionError("pool opened for a bad --jobs")

        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        assert cli_main(["sweep", "--runs", "1", "--jobs", jobs,
                         "--out", str(tmp_path / "res.csv")]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
