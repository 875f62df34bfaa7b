"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criteria 1-5 are exact mathematical identities checked against independent
oracles; 6-8 are scaled directional reproductions of the benchmark behavior
(D=32, K=3, M=N=512); 9-10 are sanity fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp
from scipy.stats import spearmanr

from doamap.arraysim import amplitude_matrix, synth_freq
from doamap.bench import run_single
from doamap.metrics import err_doa, rmse_amplitude
from doamap.ordermap import ProjectionStats, posterior_variances
from doamap.specfun import (
    DominancePair,
    dominance_frequency,
    double_moment,
    double_pdf,
    log_q_sum,
    prob_dominance,
    reg_inc_beta,
)
from doamap.subspace import (
    eigendecompose,
    projection_stats,
    sample_covariance,
)
from scenarios import default_scenario


def _report(num, ok, detail):
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --- shared desk-scale Monte Carlo sweeps (computed once, reused) -----------

DESK = dict(d=32, k=3, m=512, n=512)
METHODS_6 = ("pca-map", "music-map", "dtft-map", "music-aic")


def _mc_rows(snr_db, overlap, n_runs, methods, seed_tag):
    """n_runs independent draws at one grid point; per-run method dicts."""
    rows = []
    for run in range(n_runs):
        sc = default_scenario(**DESK, overlap=overlap, snr_db=snr_db)
        rng = np.random.default_rng([seed_tag, run])
        rows.append(run_single(sc, k_max=10, grid_step_deg=0.5,
                               methods=methods, rng=rng))
    return rows


def _rate(rows, method, k_true=3):
    hits = [r["k_hat"] == k_true for row in rows for r in row
            if r["method"] == method]
    return float(np.mean(hits))


@pytest.fixture(scope="module")
def desk_easy():
    return _mc_rows(10.0, 0.0, 100, METHODS_6, seed_tag=600)


@pytest.fixture(scope="module")
def desk_hard():
    return _mc_rows(0.0, 0.999, 100, METHODS_6, seed_tag=601)


class TestCriterion1:
    def test_criterion_01_dominance_identity_monte_carlo(self):
        t0 = time.perf_counter()
        combos = list(itertools.product((1, 2, 3, 5, 8), (1, 2, 3, 5, 8)))
        scales = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (1.0, 2.0), (2.0, 2.0)]
        sets = [(n, m, s, t)
                for (n, m), (s, t) in zip(combos[:10], itertools.cycle(scales))]
        assert len(sets) == 10
        worst = 0.0
        for n, m, s, t in sets:
            pair = DominancePair(alpha=n, beta=m, s_x=s, s_y=t)
            rng = np.random.default_rng([100, n, m])
            freq = dominance_frequency(pair, 100_000, rng)
            ip = prob_dominance(pair)
            se = math.sqrt(max(ip * (1 - ip), 1e-12) / 100_000)
            worst = max(worst, abs(freq - ip) / (3 * se))
        elapsed = time.perf_counter() - t0
        _report(1, worst <= 1.0 and elapsed < 30.0,
                f"max |freq - I_p| = {worst:.3f} of 3 SE over 10 sets, "
                f"{elapsed:.1f} s")


class TestCriterion2:
    def test_criterion_02_dominance_sum_cross_form(self):
        # log_q_sum (the cross form I_p / (p q B_p)) against the dominance
        # sum Q = sum_{i<beta} G(beta) G(alpha+i) / (G(i+1) G(alpha+beta))
        # q^-(beta-i) summed term by term, so no incomplete-beta kernel runs
        worst = 0.0
        for a in range(1, 31):
            for b in range(1, 31):
                i = np.arange(b)
                log_coef = gammaln(b) + gammaln(a + i) - gammaln(i + 1) - gammaln(a + b)
                for p in np.arange(0.1, 0.95, 0.1):
                    q = 1.0 - float(p)
                    direct = float(logsumexp(log_coef - (b - i) * math.log(q)))
                    worst = max(worst, abs(math.expm1(log_q_sum(a, b, q)[0] - direct)))
        _report(2, worst <= 1e-8,
                f"max relative gap {worst:.2e} over alpha,beta <= 30, "
                f"p in 0.1..0.9 (tol 1e-8)")


class TestCriterion3:
    SETS = [
        (2, 3, 1.0, 1.0),
        (3, 2, 0.5, 2.0),
        (5, 4, 2.0, 1.0),
        (4, 6, 1.0, 0.5),
        (8, 3, 1.5, 1.5),
        (6, 8, 0.7, 1.3),
    ]

    def test_criterion_03_moments_match_quadrature(self):
        worst = 0.0
        for a, b, s, t in self.SETS:
            pair = DominancePair(alpha=a, beta=b, s_x=s, s_y=t)
            for family, which in itertools.product(("gamma", "invgamma"),
                                                   ("x", "y")):
                try:
                    mom = double_moment(pair, 1, family, which)
                except ValueError:
                    continue  # inverse moment undefined for shape - 1 < 1
                ref, _ = quad(lambda x: x * double_pdf(x, pair, family, which),
                              0.0, np.inf, limit=400)
                worst = max(worst, abs(mom - ref) / abs(ref))
        _report(3, worst <= 1e-6,
                f"max relative moment error {worst:.2e} over 6 parameter "
                f"sets (tol 1e-6)")


class TestCriterion4:
    def test_criterion_04_pythagorean_decomposition(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(3, 16))
            k = int(rng.integers(1, d))
            m = int(rng.integers(k, 24))
            v = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            y = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            norm2 = float(np.sum(np.abs(y) ** 2))
            st = ProjectionStats.from_energy(projection_stats(y, v)[0], norm2,
                                             k, d, m)
            worst = max(worst, abs(st.s + st.t - norm2) / norm2)
        _report(4, worst <= 1e-8,
                f"max relative residual {worst:.2e} over 100 instances "
                f"(tol 1e-8)")


class TestCriterion5:
    def test_criterion_05_pca_is_map_optimal_basis(self):
        rng = np.random.default_rng(55)
        d, m = 16, 40
        y = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        basis = eigendecompose(sample_covariance(y))
        worst = -np.inf
        for k in (1, 3, 5):
            s_pca = projection_stats(y, basis.eigvecs[:, :k])[0]
            for _ in range(34 if k == 1 else 33):
                g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                q, _ = np.linalg.qr(g)
                s = projection_stats(y, q)[0]
                excess = (s - s_pca) / s_pca
                worst = max(worst, excess)
        _report(5, worst <= 1e-8,
                f"max captured-energy excess of 100 random frames over the "
                f"eigenvector basis: {worst:.2e} (tol 1e-8)")


class TestCriterion6:
    def test_criterion_06_order_selection_rates(self, desk_easy, desk_hard):
        t0 = time.perf_counter()
        music_easy = _rate(desk_easy, "music-map")
        pca_easy = _rate(desk_easy, "pca-map")
        music_hard = _rate(desk_hard, "music-map")
        dtft_hard = _rate(desk_hard, "dtft-map")
        aic_hard = _rate(desk_hard, "music-aic")
        margin = max(music_hard, dtft_hard) - aic_hard
        ok = (music_easy >= 0.90 and pca_easy >= 0.90 and margin >= 0.30)
        elapsed = time.perf_counter() - t0
        _report(6, ok,
                f"easy (SNR 10, overlap 0): music {music_easy:.2f}, pca "
                f"{pca_easy:.2f} (need >= 0.90); hard (SNR 0, overlap 0.999): "
                f"MAP {max(music_hard, dtft_hard):.2f} vs AIC {aic_hard:.2f}, "
                f"margin {margin:.2f} (need >= 0.30); rates in {elapsed:.0f} s")


class TestCriterion7:
    SNRS = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0)

    def test_criterion_07_noise_percentage_tracks_snr(self):
        means = []
        for j, snr in enumerate(self.SNRS):
            taus = []
            for run in range(30):
                sc = default_scenario(**DESK, snr_db=snr)
                rng = np.random.default_rng([700, j, run])
                row = run_single(sc, k_max=10, grid_step_deg=0.5,
                                 methods=("music-map",), rng=rng)[0]
                taus.append(row["tau_mean"])
            means.append(float(np.mean(taus)))
        at_minus10 = means[self.SNRS.index(-10.0)]
        rho = spearmanr(self.SNRS, means).statistic
        ok = (0.75 <= at_minus10 <= 0.98) and rho <= -0.9
        _report(7, ok,
                f"mean tau at -10 dB = {at_minus10:.3f} (need [0.75, 0.98]); "
                f"Spearman rho vs SNR = {rho:.3f} (need <= -0.9); "
                f"curve {['%.3f' % m for m in means]}")


class TestCriterion8:
    def _mean_rmse(self, snr_db, seed_tag, n_runs=40):
        r0s, rss = [], []
        for run in range(n_runs):
            sc = default_scenario(**DESK, snr_db=snr_db)
            rng = np.random.default_rng([seed_tag, run])
            row = run_single(sc, k_max=10, grid_step_deg=0.5,
                             methods=("music-map",), rng=rng)[0]
            r0s.append(row["rmse_a0"])
            rss.append(row["rmse_a_shrunk"])
        return float(np.mean(r0s)), float(np.mean(rss))

    def test_criterion_08_shrinkage_rmse(self):
        r0_low, rs_low = self._mean_rmse(-20.0, 800)
        r0_high, rs_high = self._mean_rmse(20.0, 801)
        gap_high = abs(rs_high - r0_high) / r0_high
        ok = (rs_low <= r0_low) and gap_high <= 0.05
        _report(8, ok,
                f"-20 dB: RMSE shrunk {rs_low:.2f} <= raw {r0_low:.2f}; "
                f"+20 dB: relative gap {gap_high:.3f} (need <= 0.05)")


class TestCriterion9:
    def test_criterion_09_noiseless_recovery(self):
        hits = 0
        worst_err = 0.0
        for run in range(100):
            sc = default_scenario(**DESK, snr_db=240.0)
            rng = np.random.default_rng([900, run])
            rows = run_single(sc, k_max=10, grid_step_deg=0.5,
                              methods=("music-map", "dtft-map"), rng=rng)
            ok_run = all(r["k_hat"] == 3 for r in rows)
            # err_doa <= one grid step / 180 means every DOA is within 0.5 deg
            worst_err = max(worst_err, max(r["err_doa"] for r in rows))
            hits += ok_run and all(r["err_doa"] <= 0.5 / 180.0 for r in rows)
        _report(9, hits == 100,
                f"noiseless on-grid: {hits}/100 runs with correct K and all "
                f"DOAs within one 0.5-degree grid step (worst mean error "
                f"{worst_err * 180.0:.3f} deg)")


class TestCriterion10:
    def test_criterion_10_metric_fixtures(self):
        e = err_doa((50.0,), (40.0,))
        r_shift = rmse_amplitude(np.array([[1.0]]), (90.0,),
                                 np.array([[1.0]]), (80.0,))
        r_miss = rmse_amplitude(np.empty((0, 1)), (), np.array([[1.0]]), (90.0,))
        errs = (
            abs(e - 10.0 / 180.0),
            abs(r_shift - math.sqrt(10.0)),
            abs(r_miss - math.sqrt(90.0)),
        )
        _report(10, max(errs) <= 1e-12,
                f"err_doa=10/180, rmse=sqrt(10), sqrt(90) fixtures; max "
                f"deviation {max(errs):.2e} (tol 1e-12)")
