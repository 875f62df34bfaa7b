"""Tests for the sweep configuration, Monte Carlo harness, CSV I/O, and CLI."""

import math

import numpy as np
import pytest

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

FAST = dict(d=16, k_true=2, m=64, n=64, k_max=5, n_runs=2,
            snr_grid_db=(20.0,), grid_step_deg=2.0)


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

    def test_resolved_doas_spacing_override(self):
        cfg = ExperimentConfig(doa_spacing_deg=5.0)
        assert cfg.resolved_doas() == (10.0, 15.0, 20.0)

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
        with pytest.raises(ConfigError):
            ExperimentConfig(doa_spacing_deg=-5.0)

    def test_scenario_per_grid_point(self):
        cfg = ExperimentConfig(snr_grid_db=(0.0, math.inf), decay=(0.0, 0.5))
        sc = cfg.scenario(3)
        assert (sc.snr_db, sc.overlap, sc.decay) == cfg.grid_points()[3]
        assert (sc.d, sc.k_true, sc.m, sc.n) == (32, 3, 512, 512)
        assert sc.doa_deg == cfg.resolved_doas() and sc.seed == cfg.master_seed

    @pytest.mark.parametrize("fields", [
        dict(grid_step_deg=0.0),
        dict(overlap=(0.0, 1.5)),
        dict(decay=(-1.0,)),
        dict(doa_deg=(10.0, 200.0, 30.0)),
        dict(doa_spacing_deg=90.0),
        dict(m=1, n=1),
        dict(snr_grid_db=()),
        dict(k_true=0),
        dict(k_max=0),
        dict(master_seed=-1),
        dict(snr_grid_db=(0.0, math.nan)),
        dict(snr_grid_db=(-math.inf,)),
        dict(methods=("pca-map", "music-map", "pca-map")),
        dict(snr_grid_db=(0.0, 10.0, 0.0)),
        dict(overlap=(0.5, 0.5)),
        dict(decay=(0.0, 0.0)),
    ], ids=["grid-step-0", "overlap-1.5", "decay-neg", "doa-200",
            "spacing-past-180", "m-1", "empty-snr", "k-true-0", "k-max-0",
            "seed-neg", "snr-nan", "snr-neg-inf", "dup-method", "dup-snr",
            "dup-overlap", "dup-decay"])
    def test_rejects_values_that_fail_in_a_worker(self, fields, tmp_path, capsys):
        with pytest.raises(ConfigError):
            ExperimentConfig(**fields)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("".join(
            f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for k, v in fields.items()))
        assert cli_main(["sweep", "--config", str(cfg_file)]) == 1
        assert "config error" in capsys.readouterr().err

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
        cfg = ExperimentConfig.from_file(cfg_file)
        assert cfg.d == 16 and cfg.snr_grid_db == (-10.0, 0.0, 10.0)
        assert cfg.methods == ("music-map", "dtft-map")

    def test_from_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("dd = 16\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(cfg_file)

    def test_from_file_bad_syntax(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("just some text\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(cfg_file)

    def test_from_file_missing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file("/nonexistent/path.cfg")


class TestRunSingle:
    def test_row_per_method(self):
        from doamap.arraysim import default_scenario

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
        from doamap.arraysim import default_scenario

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
        from doamap.arraysim import default_scenario

        sc = default_scenario(d=16, k=2, m=64, n=64, snr_db=20.0, seed=1)
        rows = run_single(sc, 5, 2.0, ("music-known-k", "dtft-known-k"),
                          rng=np.random.default_rng(1))
        assert all(r["k_hat"] == 2 for r in rows)


class TestSweep:
    def test_record_count_and_order(self):
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

    def test_seed_changes_data(self):
        cfg = ExperimentConfig(**FAST, methods=("music-map",))
        base = run_sweep(cfg)
        other = run_sweep(ExperimentConfig(**FAST, methods=("music-map",),
                                           master_seed=99))
        assert any(a.rmse_a0 != b.rmse_a0 for a, b in zip(base, other))

    def test_csv_round_trip(self, tmp_path):
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


class TestCli:
    def test_sweep_writes_outputs(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_bad_jobs_exit_code(self, jobs, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called with a bad --jobs")

        monkeypatch.setattr("doamap.cli.run_sweep", no_sweep)
        assert cli_main(["sweep", "--runs", "1", "--jobs", jobs,
                         "--out", str(tmp_path / "res.csv")]) == 1
        assert "--jobs" in capsys.readouterr().err
