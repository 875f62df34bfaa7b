"""Tests for MAP model-order selection, posterior variances, and AIC."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from doamap.arraysim import (
    ArrayScenario,
    amplitude_matrix,
    noise_variances,
    steering_matrix,
    synth_freq,
)
from doamap import ordermap, specfun
from doamap.bench import spectrum_peaks
from doamap.ordermap import (
    ProjectionStats,
    aic_order,
    clamp_split,
    log_stiefel_volume,
    map_order_pca,
    map_order_scan,
    posterior_variances,
)
from doamap.specfun import log_q_sum
from doamap.subspace import (
    EigenBasis,
    eigendecompose,
    prefix_energies,
    projection_stats,
    sample_covariance,
)
from scenarios import default_scenario, order_splits, y_split

GRID = np.arange(0.0, 180.0, 0.5)


class TestStiefelVolume:
    def test_unit_circle(self):
        # D = K = 1, R = sqrt(D) = 1: the set is the unit circle in C, volume 2*pi
        assert log_stiefel_volume(1, 1) == pytest.approx(
            math.log(2 * math.pi), rel=1e-14
        )

    def test_empty_frame(self):
        assert log_stiefel_volume(7, 0) == 0.0

    def test_product_form(self):
        # direct product oracle: prod_{k=D-K+1}^{D} 2 (pi R^2)^k / (Gamma(k) R)
        d, k, r = 4, 2, 2.0  # R = sqrt(D)
        expect = 1.0
        for i in range(d - k + 1, d + 1):
            expect *= 2.0 * (math.pi * r * r) ** i / (math.gamma(i) * r)
        assert log_stiefel_volume(d, k) == pytest.approx(
            math.log(expect), rel=1e-12
        )

    def test_monotone_in_k(self):
        vols = [log_stiefel_volume(32, k) for k in range(0, 11)]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            log_stiefel_volume(4, 5)


class TestProjectionStats:
    """The one split a posterior reads: from_energy on the energy a basis
    captures, clamped, with its degree counts."""

    def test_k0_convention(self):
        y = np.ones((4, 3), dtype=complex)
        st = y_split(y, np.empty((4, 0), dtype=complex), 3)
        assert st.s == 0.0 and st.t == pytest.approx(12.0)
        assert st.alpha == 0 and st.beta == 12
        assert st.q == 1.0

    def test_in_span_residual_clamped(self):
        rng = np.random.default_rng(4)
        # an orthonormal frame, from a QR of a Gaussian matrix
        v = np.linalg.qr(rng.standard_normal((6, 2))
                         + 1j * rng.standard_normal((6, 2)))[0]
        a = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        y = v @ a
        norm2 = _norm2(y)
        st = y_split(y, v, 10)
        assert st.t == pytest.approx(1e-12 * norm2)
        assert st.s == pytest.approx(norm2, rel=1e-10)

    def test_pythagorean_split(self):
        # |Y|^2 = s + t for 100 random well-conditioned instances
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, d))
            m = int(rng.integers(k, 20))
            v = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            y = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            norm2 = _norm2(y)
            st = y_split(y, v, m)
            assert abs(st.s + st.t - norm2) <= 1e-8 * norm2
            assert st.alpha == k * m and st.beta == (d - k) * m

    def test_array_clamp_is_the_scalar_clamp(self):
        # a scan's one array pass and from_energy's scalar call clamp alike,
        # as the np.where form did (s floored only at K >= 1), and clamping
        # a clamped s changes nothing, so a fit that rebuilds order K's
        # split from the scan's s[K] has the scan's split bit for bit
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            norm2 = float(rng.uniform(1e-3, 1e6))
            scale = norm2 * rng.choice((1e-14, 0.5, 1.0, 2.0)) / n
            energies = scale * rng.uniform(0.0, 1.0, n - 1) * (
                rng.uniform(size=n - 1) < 0.8)
            partial = np.concatenate(([0.0], np.cumsum(energies)))
            ks = np.arange(n)
            s, t = clamp_split(partial, norm2, ks)
            floor = 1e-12 * norm2
            want = np.where(ks > 0, np.maximum(partial, floor), partial)
            np.testing.assert_array_equal(s, want)
            np.testing.assert_array_equal(t, np.maximum(norm2 - want, floor))
            np.testing.assert_array_equal(clamp_split(s, norm2, ks)[0], s)
            for k in range(n):
                st = ProjectionStats.from_energy(float(partial[k]), norm2, k,
                                                 16, 4)
                assert (st.s, st.t) == (s[k], t[k]), k
                assert ProjectionStats.from_energy(s[k], norm2, k, 16, 4) == st


class TestPosteriorVariances:
    def test_large_degree_matches_approximation(self):
        st = ProjectionStats(s=500.0, t=300.0, alpha=2000, beta=6000)
        pv = posterior_variances(st, d=8)
        # large-degree approximations (s/D)/(K*M) and t/((D-K)*M)
        assert pv.ra_mean == pytest.approx((st.s / 8) / st.alpha, rel=0.01)
        assert pv.sigma2_mean == pytest.approx(st.t / st.beta, rel=0.01)
        assert pv.tau_mean == pytest.approx(pv.sigma2_mean / 8.0 / pv.ra_mean,
                                            rel=1e-12)

    def test_tau_below_one_on_signal_data(self):
        # whenever the per-dimension signal energy exceeds the per-dimension
        # noise energy, the noise-to-signal percentage stays below 1
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(4, 32))
            k = int(rng.integers(1, d // 2 + 1))
            m = int(rng.integers(8, 64))
            t = float(rng.uniform(0.1, 5.0)) * (d - k) * m
            s = float(rng.uniform(1.5, 50.0)) * t * k / (d - k)
            pv = posterior_variances(
                ProjectionStats(s=s, t=t, alpha=k * m, beta=(d - k) * m), d
            )
            assert 0.0 < pv.tau_mean < 1.0

    def test_rejects_degenerate_degrees(self):
        # with or without a scan's log I_p
        for log_ip in (math.nan, -0.5):
            with pytest.raises(ValueError):
                posterior_variances(
                    ProjectionStats(s=1.0, t=1.0, alpha=1, beta=9), 3, log_ip)
            with pytest.raises(ValueError):
                posterior_variances(
                    ProjectionStats(s=1.0, t=1.0, alpha=9, beta=1), 3, log_ip)

    def test_scored_orders_reuse_the_scan_normaliser(self, monkeypatch):
        # at an order the PCA scan scored, the fit takes log I_p(alpha,
        # beta) from the scan and calls the kernel only for the two
        # moments; a pruned order computes it.  A spectrum scan scores its
        # splits of R, not the posterior's split of Y, so it hands on no
        # log I_p and its posteriors compute it.  Either way the result is
        # the bits of the fit that computes everything itself
        kernel = ordermap.log_reg_inc_beta
        calls = []

        def counting(p, n, m):
            calls.append((n, m))
            return kernel(p, n, m)

        scored = 0
        for seed, snr_db in enumerate((-5.0, 0.0, 10.0, 30.0)):
            sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=snr_db,
                                  seed=seed)
            y = synth_freq(sc, rng=np.random.default_rng(seed))
            cov = sample_covariance(y)
            basis = eigendecompose(cov)
            _angles, rows = spectrum_peaks(cov, basis, GRID, 10, {"music"})["music"]
            pca = map_order_pca(basis, _norm2(y), 10, sc.m)
            scan = map_order_scan(*_data(y, rows, 10, sc.m))
            # a spectrum posterior splits Y on the prefix, with no log I_p
            y_splits = [(y_split(y, rows[:k].T, sc.m), math.nan)
                        for k in range(len(scan.log_scores))]
            pca_splits = order_splits(pca, _norm2(y), sc.d, sc.m)
            for post, splits, reuses in (
                    (pca, list(zip(pca_splits, pca.log_ip)), True),
                    (scan, y_splits, False)):
                for k in range(1, len(post.log_scores)):
                    st, log_ip = splits[k]
                    want = posterior_variances(st, sc.d)
                    is_scored = reuses and not math.isnan(post.log_scores[k])
                    assert math.isnan(log_ip) != is_scored, k
                    calls.clear()
                    with monkeypatch.context() as mp:
                        mp.setattr(ordermap, "log_reg_inc_beta", counting)
                        got = posterior_variances(st, sc.d, log_ip)
                    assert got == want, k
                    moments = [(st.alpha - 1, st.beta), (st.alpha, st.beta - 1)]
                    assert calls == (moments if is_scored
                                     else [(st.alpha, st.beta)] + moments), k
                    scored += is_scored
        assert scored > 0

    def test_recovers_true_noise_variance(self):
        # K known, high degrees: sigma2_mean estimates the true noise power
        sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=10.0, seed=77)
        y = synth_freq(sc)
        v = steering_matrix(sc.doa_deg, sc.d)
        pv = posterior_variances(y_split(y, v, sc.m), sc.d)
        assert pv.sigma2_mean == pytest.approx(
            noise_variances(sc, amplitude_matrix(sc)), rel=0.05)


def _norm2(y):
    """|Y|^2, the energy the MAP scans take from their caller."""
    return float(np.sum(np.abs(y) ** 2))


def _data(y, rows, k_max, m):
    """map_order_scan's arguments on Y's peak rows, as run_single makes
    them."""
    return sample_covariance(y), rows, k_max, m, _norm2(y)


class TestMapOrderPca:
    def test_recovers_k_on_clean_data(self):
        sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=20.0, seed=0)
        y = synth_freq(sc)
        basis = eigendecompose(sample_covariance(y))
        post = map_order_pca(basis, _norm2(y), k_max=10, m=sc.m)
        assert post.k_map == 3
        assert len(post.log_scores) == 11
        pv = posterior_variances(
            order_splits(post, _norm2(y), sc.d, sc.m)[post.k_map], sc.d)
        assert 0.0 < pv.tau_mean < 1.0

    def test_pure_noise_stays_low_order(self):
        # regression fixture: seeded noise-only draws should not inflate K
        hats = []
        for seed in range(10):
            sc = default_scenario(d=32, k=0, m=512, n=512, snr_db=0.0, seed=seed)
            y = synth_freq(sc)
            basis = eigendecompose(sample_covariance(y))
            post = map_order_pca(basis, _norm2(y), k_max=10, m=sc.m)
            hats.append(post.k_map)
        assert max(hats) <= 1

    def test_k0_posterior_conventions(self):
        sc = default_scenario(d=16, k=0, m=256, n=256, snr_db=0.0, seed=1)
        y = synth_freq(sc)
        basis = eigendecompose(sample_covariance(y))
        post = map_order_pca(basis, _norm2(y), k_max=5, m=sc.m)
        if post.k_map == 0:
            pv = posterior_variances(
                order_splits(post, _norm2(y), sc.d, sc.m)[0], sc.d)
            assert math.isnan(pv.ra_mean)
            assert pv.tau_mean == 1.0
            norm2 = float(np.sum(np.abs(y) ** 2))
            assert pv.sigma2_mean == pytest.approx(norm2 / (16 * 256 - 1))

    def test_rejects_k_max_ge_d(self):
        basis = eigendecompose(np.eye(4))
        with pytest.raises(ValueError):
            map_order_pca(basis, 8.0, k_max=4, m=2)

    def test_score_monotone_in_signal_fraction(self):
        # at fixed degrees, the dominance score grows with the signal share p
        for a, b in ((64, 448), (512, 1536)):
            vals = [log_q_sum(a, b, 1.0 - p)[0]
                    for p in np.linspace(0.05, 0.95, 19)]
            assert all(y > x for x, y in zip(vals, vals[1:]))


class TestMapOrderScan:
    def _peaks(self, y, kind, k_max=10):
        """Angles of the spectrum's peaks and their steering rows."""
        cov = sample_covariance(y)
        return spectrum_peaks(cov, eigendecompose(cov), GRID, k_max, {kind})[kind]

    def test_k0_score_is_zero(self):
        sc = default_scenario(d=16, k=1, m=128, n=128, snr_db=10.0, seed=2)
        y = synth_freq(sc)
        post = map_order_scan(*_data(y, self._peaks(y, "dtft")[1], 5, sc.m))
        assert post.log_scores[0] == 0.0

    def test_single_source_selected(self):
        sc = default_scenario(d=32, k=1, m=256, n=256, snr_db=15.0, seed=3)
        y = synth_freq(sc)
        for kind in ("music", "dtft"):
            post = map_order_scan(*_data(y, self._peaks(y, kind)[1], 8, sc.m))
            assert post.k_map == 1
            assert post.log_scores[1] > post.log_scores[0]

    def test_k_max_capped_by_peak_count(self):
        sc = default_scenario(d=16, k=1, m=64, n=64, snr_db=240.0, seed=5)
        y = synth_freq(sc)
        post = map_order_scan(*_data(y, steering_matrix(sc.doa_deg, sc.d).T,
                                     10, sc.m))
        assert len(post.log_scores) == 2  # K in {0, 1} only

    def test_coincident_peaks_flagged(self):
        # the prefixes end at K = 1: K = 2 is flagged and never scored
        sc = default_scenario(d=16, k=1, m=64, n=64, snr_db=20.0, seed=6)
        y = synth_freq(sc)
        rows = steering_matrix([50.0, 50.0], sc.d).T
        post = map_order_scan(*_data(y, rows, 2, sc.m))
        assert post.rank_deficient_k == (2,)
        assert (len(post.log_scores) == len(post.log_score_bounds)
                == len(post.s) == 2)
        with pytest.raises(IndexError):
            post.s[2]
        assert post.k_map in (0, 1)

    def test_empty_peaks_score_k0_alone(self):
        y = np.ones((4, 2), dtype=complex)
        post = map_order_scan(sample_covariance(y),
                              np.empty((0, 4), dtype=complex), 3, 2, 8.0)
        assert post.k_map == 0
        assert len(post.log_scores) == 1 and post.log_scores[0] == 0.0
        pv = posterior_variances(order_splits(post, 8.0, 4, 2)[0], 4)
        assert pv.tau_mean == 1.0
        assert pv.sigma2_mean == pytest.approx(8.0 / (4 * 2 - 1))

    def test_prefix_orthogonal_to_the_data_scores(self):
        # noiseless rank-1 Y = v(w0) a^T and one steering row at
        # w0 + 2 pi 3 / D, orthogonal to v(w0) on the ULA: the prefix
        # captures only rounding error of |Y|^2, which the split floors at
        # 1e-12 |Y|^2 as it does the residual, so q < 1 and order 1 is
        # scored (its bound beats K = 0's); its posterior's split is valid
        # too
        d, m = 16, 8
        sensors = np.arange(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(50):
                rng = np.random.default_rng(seed)
                w0 = rng.uniform(-math.pi, math.pi)
                a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                y = np.outer(np.exp(1j * w0 * sensors), a)
                row = np.exp(1j * (w0 + 2.0 * math.pi * 3 / d) * sensors)
                post = map_order_scan(*_data(y, row[None, :], 1, m))
                assert post.k_map == 0
                assert math.isfinite(post.log_score_bounds[1])
                assert post.log_scores[1] <= post.log_score_bounds[1]
                for st in (order_splits(post, _norm2(y), d, m)[1],
                           y_split(y, row[:, None], m)):
                    assert 0.0 < st.q < 1.0
                    pv = posterior_variances(st, d)
                    assert math.isfinite(pv.ra_mean) and 0.0 < pv.tau_mean

    def test_prefixes_are_slices_of_one_matrix(self):
        # each prefix's splits equal those of its own steering matrix, bit
        # for bit
        sc = default_scenario(d=16, k=3, m=64, n=64, snr_db=5.0, seed=7)
        y = synth_freq(sc)
        angles, rows = self._peaks(y, "music", k_max=5)
        args = _data(y, rows, 5, sc.m)
        post = map_order_scan(*args)
        splits = order_splits(post, _norm2(y), sc.d, sc.m)
        for k in range(1, len(post.log_scores)):
            v = steering_matrix(angles[:k], sc.d)
            assert splits[k] == _r_splits(args[0], v.T, 5, sc.m, _norm2(y))[k]
            assert (projection_stats(y, rows[:k].T)[0]
                    == projection_stats(y, v)[0])


def _pca_prior(d):
    return lambda k: -log_stiefel_volume(d, k)


def _scan_prior(k):
    return -k * math.log(2.0 * math.pi)


def _exact_scan(energies, norm2_y, d, m, log_prior):
    """The branch and bound over the partial sums of energies, as
    map_order_pca runs it."""
    return ordermap._map_order(
        energies, norm2_y, d, m,
        [log_prior(k) for k in range(len(energies) + 1)])


def _energy_splits(energies, norm2_y, d, m):
    """ProjectionStats.from_energy of every order K = 0..len(energies) on
    the partial sum of energies[:K]."""
    partial = np.concatenate(([0.0], np.cumsum(energies)))
    return [ProjectionStats.from_energy(float(s), norm2_y, k, d, m)
            for k, s in enumerate(partial)]


def _r_splits(cov, rows, k_max, m, norm2_y):
    """The splits a spectrum scan scores: the partial sums of the energies
    of R = cov on its prefixes."""
    v = rows[:k_max].T
    return _energy_splits(prefix_energies(v, cov), norm2_y, v.shape[0], m)


def _bound_tied(c, target):
    """A prior p with c + p == target exactly, or None: p = target - c
    nudged by an ulp at a time."""
    p = target - c
    for _ in range(4):
        if c + p == target:
            return p
        p = math.nextafter(p, math.inf if c + p < target else -math.inf)
    return None


def _tied_priors(energies, norm2_y, d, m, i, j, log_prior=lambda k: 0.0):
    """log_prior's priors of the orders 0..len(energies), with order j's
    set so that its bound U_j equals order i's bit for bit (None if no
    prior does)."""
    priors = [log_prior(k) for k in range(len(energies) + 1)]
    closed = [0.0 if st.alpha == 0
              else specfun._log_q_from(0.0, st.alpha, st.beta, st.q)
              for st in _energy_splits(energies, norm2_y, d, m)]
    priors[j] = _bound_tied(closed[j], closed[i] + priors[i])
    return None if priors[j] is None else priors.__getitem__


def _check_pruned(post, log_prior, stats):
    """The pruned scan against every order's exact score (the oracle) on
    the splits it scored; K = 0 is the empty-subspace convention
    log Q = 0."""
    exact = np.array([
        (0.0 if st.alpha == 0 else log_q_sum(st.alpha, st.beta, st.q)[0])
        + log_prior(k)
        for k, st in enumerate(stats)])
    assert post.k_map == int(np.argmax(exact))
    for k, (got, bound, want) in enumerate(
            zip(post.log_scores, post.log_score_bounds, exact)):
        assert bound >= want, k
        if math.isnan(got):
            assert bound < exact.max(), k
        else:
            assert got == want, k
    return int(np.isnan(post.log_scores).sum())


class TestPrunedScan:
    """The branch and bound over K against the full scan's np.argmax."""

    def test_matches_full_scan_on_desk_draws(self):
        pruned = 0
        for seed, snr_db in enumerate((-30.0, -15.0, -5.0, 0.0, 10.0, 30.0)):
            sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=snr_db,
                                  seed=seed)
            y = synth_freq(sc, rng=np.random.default_rng(seed))
            cov = sample_covariance(y)
            basis = eigendecompose(cov)
            pca = map_order_pca(basis, _norm2(y), 10, sc.m)
            pruned += _check_pruned(pca, _pca_prior(sc.d),
                                    order_splits(pca, _norm2(y), sc.d, sc.m))
            peaks = spectrum_peaks(cov, basis, GRID, 10, {"music", "dtft"})
            for _angles, rows in peaks.values():
                args = _data(y, rows, 10, sc.m)
                pruned += _check_pruned(map_order_scan(*args), _scan_prior,
                                        _r_splits(*args))
        assert pruned > 0  # the bound did cut kernel calls

    def test_kernel_runs_only_for_scored_orders(self, monkeypatch):
        calls = []

        def counting(alpha, beta, q):
            calls.append(alpha)
            return log_q_sum(alpha, beta, q)

        monkeypatch.setattr(ordermap, "log_q_sum", counting)
        sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=10.0, seed=4)
        y = synth_freq(sc)
        post = map_order_pca(eigendecompose(sample_covariance(y)),
                             _norm2(y), 10, sc.m)
        scored = [k for k in range(1, 11) if not math.isnan(post.log_scores[k])]
        assert sorted(calls) == [k * sc.m for k in scored]
        assert post.k_map in scored and len(scored) < 10

    def test_tied_bounds_pick_smaller_k(self):
        # order 3 adds no energy to order 2's strong split; its prior ties
        # its bound to order 2's, and with more signal degrees on the same
        # split its exact score is lower
        energies, d, m = [10.0, 890.0, 0.0, 10.0], 16, 64
        log_prior = _tied_priors(energies, 1000.0, d, m, 2, 3)
        post = _exact_scan(energies, 1000.0, d, m, log_prior)
        assert post.log_score_bounds[2] == post.log_score_bounds[3]
        assert post.k_map == 2
        _check_pruned(post, log_prior, order_splits(post, 1000.0, d, m))

    def test_late_exact_tie_picks_smaller_k(self):
        # K = 1's higher bound visits it first; K = 0's prior is K = 1's
        # exact score, so K = 0, visited next, ties it and wins as the
        # smaller K, as an argmax over the scores picks the first
        st = ProjectionStats.from_energy(85.0, 1000.0, 1, 16, 4)
        log_q = log_q_sum(st.alpha, st.beta, st.q)[0]
        priors = [log_q, 0.0]
        post = ordermap._map_order([85.0], 1000.0, 16, 4, priors)
        assert post.log_score_bounds[1] > post.log_score_bounds[0]
        assert post.log_scores[0] == post.log_scores[1]
        assert post.k_map == 0
        _check_pruned(post, priors.__getitem__,
                      order_splits(post, 1000.0, 16, 4))

    def test_top_bound_can_lose(self):
        # K = 1 has the highest bound but K = 2 the highest exact score, so
        # the scan goes on past its first exact score
        # partial sums 85 and 169
        post = _exact_scan([85.0, 84.0], 1000.0, 16, 4, lambda k: 0.0)
        assert post.log_score_bounds[1] > post.log_score_bounds[2]
        assert post.k_map == 2
        _check_pruned(post, lambda k: 0.0, order_splits(post, 1000.0, 16, 4))

    def test_k0_winner_prunes_every_order(self):
        # partial sums 20, 30 and 35
        prior = lambda k: -1e6 * k  # noqa: E731
        post = _exact_scan([20.0, 10.0, 5.0], 1000.0, 16, 64, prior)
        assert post.k_map == 0
        assert post.log_scores[0] == post.log_score_bounds[0] == 0.0
        assert np.isnan(post.log_scores[1:]).all()
        _check_pruned(post, prior, order_splits(post, 1000.0, 16, 64))

    @pytest.mark.parametrize("deficient", [(4,), (3, 4), (2, 3, 4)])
    def test_rank_deficient_prefixes(self, deficient):
        # the first deficient prefix repeats peak 1; every later one holds
        # both copies too, so the scan is that of the full-rank prefixes
        # alone, bit for bit, with the rest flagged
        sc = default_scenario(d=16, k=3, m=64, n=64, snr_db=10.0, seed=8)
        y = synth_freq(sc)
        angles = [30.0, 75.0, 120.0, 150.0]
        angles[deficient[0] - 1] = angles[0]
        rows = steering_matrix(angles, sc.d).T
        args = _data(y, rows, 4, sc.m)
        post = map_order_scan(*args)
        full = map_order_scan(*_data(y, rows[:deficient[0] - 1], 4, sc.m))
        assert post.rank_deficient_k == deficient and not full.rank_deficient_k
        assert post.k_map == full.k_map
        for got, want in ((post.log_scores, full.log_scores),
                          (post.log_score_bounds, full.log_score_bounds),
                          (post.log_ip, full.log_ip), (post.s, full.s)):
            np.testing.assert_array_equal(got, want)
        _check_pruned(post, _scan_prior, _r_splits(*args))


@hst.composite
def _energy_cases(draw):
    """(energies, |Y|^2, D, M, K_max, prior family, tie) on synthetic
    splits: P' = len(energies) <= K_max <= D - 1, energies on a scale
    that floors s (a clamp hit at every order), fits |Y|^2 or overruns it
    (t floored), and either no tie or orders i < j whose bounds are to be
    tied exactly."""
    d = draw(hst.integers(2, 64))
    m = draw(hst.integers(2, 512))
    k_max = draw(hst.integers(0, d - 1))
    p_full = draw(hst.integers(0, k_max))
    norm2_y = draw(hst.floats(1e-3, 1e6))
    scale = norm2_y * draw(hst.sampled_from((1e-14, 0.5, 1.0, 2.0))) / max(p_full, 1)
    energies = [scale * u for u in draw(hst.lists(
        hst.one_of(hst.just(0.0), hst.floats(0.0, 1.0)),
        min_size=p_full, max_size=p_full))]
    tie = None
    if p_full and draw(hst.booleans()):
        i = draw(hst.integers(0, p_full - 1))
        tie = (i, draw(hst.integers(i + 1, p_full)))
    return (energies, norm2_y, d, m, k_max,
            draw(hst.sampled_from(("pca", "scan"))), tie)


class TestArrayBranchAndBound:
    """The array scan on synthetic energies against the full exact scan
    and ProjectionStats.from_energy, with either prior family."""

    @settings(max_examples=300, deadline=None)
    @given(case=_energy_cases())
    # the two top bounds tied exactly, orders 1 and 2
    @example(case=([900.0, 0.0], 1000.0, 16, 64, 2, "scan", (1, 2)))
    # order 3's bound tied to K = 0's score
    @example(case=([400.0, 300.0, 200.0], 1000.0, 8, 16, 7, "scan", (0, 3)))
    # every energy floored: the Stiefel prior makes K = 0 the winner
    @example(case=([0.0] * 6, 1.0, 64, 512, 6, "pca", None))
    # a rank-deficient scan: three full-rank prefixes of K_max = 7
    @example(case=([400.0, 300.0, 200.0], 1000.0, 8, 16, 7, "scan", None))
    def test_scan_matches_full_exact_scan(self, case):
        energies, norm2_y, d, m, k_max, family, tie = case
        log_prior = _pca_prior(d) if family == "pca" else _scan_prior
        priors = log_prior
        if tie is not None:
            priors = _tied_priors(energies, norm2_y, d, m, *tie, log_prior)
            assume(priors is not None)
        n = len(energies) + 1
        deficient = tuple(range(n, k_max + 1))
        post = ordermap._map_order(energies, norm2_y, d, m,
                                   [priors(k) for k in range(n)], deficient)
        assert len(post.log_scores) == len(post.log_score_bounds) == n
        assert post.rank_deficient_k == deficient
        splits = _energy_splits(energies, norm2_y, d, m)
        assert len(post.s) == n
        for k, st in enumerate(order_splits(post, norm2_y, d, m)):
            assert st == splits[k], k
        with pytest.raises(IndexError):
            post.s[n]
        exact = [(0.0 if k == 0 else log_q_sum(st.alpha, st.beta, st.q)[0])
                 + priors(k) for k, st in enumerate(splits)]
        assert post.k_map == int(np.argmax(exact))  # ties to the smaller K
        for k, (got, bound) in enumerate(zip(post.log_scores,
                                             post.log_score_bounds)):
            assert bound >= exact[k], k
            if math.isnan(got):
                assert bound < max(exact), k
            else:
                assert got == exact[k], k
        if tie is not None:
            assert post.log_score_bounds[tie[0]] == post.log_score_bounds[tie[1]]
        else:
            # the public scan of this family reads the same arrays
            public = self._public(energies, norm2_y, d, m, k_max, family)
            if public is not None:
                for name in ("log_scores", "log_score_bounds", "log_ip", "s"):
                    np.testing.assert_array_equal(getattr(public, name),
                                                  getattr(post, name))
                assert (public.k_map, public.rank_deficient_k) == (
                    post.k_map, deficient)

    @staticmethod
    def _public(energies, norm2_y, d, m, k_max, family):
        """map_order_pca on eigenvalues `energies` (P' = K_max only), or
        map_order_scan of R = diag(energies) on unit rows e_0..e_{P'-1},
        then copies of e_0 up to K_max rows (P' >= 1), so the prefixes
        after P' are rank deficient; both read `energies` exactly.  None
        where neither applies."""
        p_full = len(energies)
        if p_full < k_max and (family == "pca" or not p_full):
            return None
        if family == "pca":
            basis = EigenBasis(eigvecs=np.eye(d), eigvals=np.array(
                energies + [0.0] * (d - p_full)))
            return map_order_pca(basis, norm2_y, k_max, m)
        cov = np.diag(np.array(energies + [0.0] * (d - p_full), dtype=complex))
        rows = np.eye(d, dtype=complex)[[*range(p_full)]
                                        + [0] * (k_max - p_full)]
        return map_order_scan(cov, rows, k_max, m, norm2_y)


def _scan_draw(sc, seed, k_max, step):
    """(Y, {source: P x D peak rows}) of one draw, as run_single makes
    them."""
    y = synth_freq(sc, rng=np.random.default_rng(seed))
    cov = sample_covariance(y)
    grid = np.arange(0.0, 180.0, step)
    grid = grid[np.cos(np.deg2rad(grid)) > -1.0]
    peaks = spectrum_peaks(cov, eigendecompose(cov), grid, k_max,
                           {"music", "dtft"})
    return y, {source: rows for source, (_angles, rows) in peaks.items()}


# a Y-side MAP margin above which the scan's order must be the Y-side
# MAP order: the scores on R's and on Y's splits differed by at most
# 0.024 on 18,000 random cases of _scan_cases' shapes, noiseless ones the
# worst (the residual near its floor, 1e-12 |Y|^2)
Y_MARGIN = 1.0


def _check_against_full_scan(y, rows, k_max, m):
    """The scan against the unpruned scan on the same splits of R, and its
    MAP order against the unpruned scan on Y's split on each prefix."""
    v = rows[:k_max].T
    args = _data(y, rows, k_max, m)
    post = map_order_scan(*args)
    splits = _r_splits(*args)
    assert post.rank_deficient_k == tuple(range(len(splits),
                                                v.shape[1] + 1))
    assert len(post.log_scores) == len(splits)
    priors = [_scan_prior(k) for k in range(len(splits))]
    full = [(0.0, math.nan) if st.alpha == 0
            else log_q_sum(st.alpha, st.beta, st.q) for st in splits]
    scores = [f[0] + priors[k] for k, f in enumerate(full)]
    # (a) the pruned scan on R's splits, bit for bit
    assert post.k_map == int(np.argmax(scores))
    r_scan = ordermap._map_order(prefix_energies(v, args[0]), args[4],
                                 v.shape[0], m, priors)
    for got, want in ((post.log_scores, r_scan.log_scores),
                      (post.log_score_bounds, r_scan.log_score_bounds),
                      (post.log_ip, r_scan.log_ip)):
        np.testing.assert_array_equal(got, want)
    for k in range(len(splits)):
        assert post.log_score_bounds[k] >= scores[k], k
        if not math.isnan(post.log_scores[k]):
            assert post.log_scores[k] == scores[k], k
            if k:
                assert r_scan.log_ip[k] == full[k][1], k
    assert order_splits(post, args[4], v.shape[0], m) == splits
    # (b) the Y-side MAP order wherever its margin is clear
    y_splits = [y_split(y, v[:, :k], m) for k in range(len(splits))]
    y_scores = sorted(
        ((0.0 if st.alpha == 0 else log_q_sum(st.alpha, st.beta, st.q)[0])
         + priors[k], -k) for k, st in enumerate(y_splits))
    if len(y_scores) < 2 or y_scores[-1][0] - y_scores[-2][0] > Y_MARGIN:
        assert post.k_map == -y_scores[-1][1]


_angle = hst.floats(0.0, 180.0, exclude_max=True)


@hst.composite
def _scan_cases(draw):
    """(scenario, seed, k_max, grid step) on small shapes."""
    d = draw(hst.integers(2, 8))
    k_true = draw(hst.integers(1, 3))
    m = draw(hst.integers(2, 16))
    doas = draw(hst.one_of(
        hst.lists(_angle, min_size=k_true, max_size=k_true).map(tuple),
        _angle.map(lambda a: (a,) * k_true)))  # coincident sources
    snr_db = draw(hst.one_of(hst.floats(-30.0, 200.0), hst.just(math.inf)))
    sc = ArrayScenario(d=d, k_true=k_true, m=m, n=m, doa_deg=doas,
                       overlap=draw(hst.floats(0.0, 1.0)), snr_db=snr_db)
    return (sc, draw(hst.integers(0, 2**32)), draw(hst.integers(1, d - 1)),
            draw(hst.sampled_from((0.5, 2.0, 15.0))))


class TestCovarianceBounds:
    """The scan's bounds and scores from R against unpruned scans on the
    splits of R and of Y."""

    @settings(max_examples=150)
    @given(case=_scan_cases())
    @example(case=(ArrayScenario(d=4, k_true=2, m=8, n=8, doa_deg=(50.0, 50.0),
                                 snr_db=math.inf), 0, 3, 0.5))
    @example(case=(ArrayScenario(d=8, k_true=3, m=16, n=16,
                                 doa_deg=(20.0, 90.0, 140.0), snr_db=200.0),
                   1, 7, 0.5))
    def test_scan_matches_full_scan(self, case):
        sc, seed, k_max, step = case
        y, peaks = _scan_draw(sc, seed, k_max, step)
        for rows in peaks.values():
            _check_against_full_scan(y, rows, k_max, sc.m)


class TestShrinkage:
    def test_shrinkage_helps_at_low_snr(self):
        # known-DOA amplitude fits: shrinking by (1 - tau) reduces the squared
        # error in the vast majority of low-SNR draws
        wins = 0
        n_runs = 30
        for seed in range(n_runs):
            sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=-20.0,
                                  seed=seed)
            y = synth_freq(sc)
            v = steering_matrix(sc.doa_deg, sc.d)
            pv = posterior_variances(y_split(y, v, sc.m), sc.d)
            a0, *_ = np.linalg.lstsq(v, y, rcond=None)
            truth = amplitude_matrix(sc)
            e0 = float(np.sum(np.abs(a0 - truth) ** 2))
            es = float(np.sum(np.abs((1 - pv.tau_mean) * a0 - truth) ** 2))
            wins += es <= e0
        assert wins >= 0.9 * n_runs


class TestAic:
    def test_equal_eigenvalues_pick_zero(self):
        assert aic_order(np.full(8, 2.0), m=100, k_max=5) == 0

    def test_one_dominant_eigenvalue(self):
        lam = np.array([100.0] + [1.0] * 9)
        assert aic_order(lam, m=1000, k_max=5) == 1

    def test_k_max_capped(self):
        lam = np.linspace(10, 1, 4)
        assert 0 <= aic_order(lam, m=50, k_max=10) <= 3

    def test_matches_brute_force_criterion(self):
        rng = np.random.default_rng(11)
        lam = np.sort(rng.uniform(0.5, 20.0, 12))[::-1]
        m, k_max = 200, 6
        crit = []
        for k in range(k_max + 1):
            tail = lam[k:]
            ratio = np.mean(tail) / np.exp(np.mean(np.log(tail)))
            crit.append(2 * m * (12 - k) * math.log(ratio) + 2 * k * (2 * 12 - k))
        assert aic_order(lam, m, k_max) == int(np.argmin(crit))

    def test_tiny_and_zero_eigenvalues(self):
        # the floor never underflows to 0, so noiseless eigenvalues at any
        # scale, all-zero ones included, take no log of zero and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert aic_order(np.zeros(4), 16, 2) == 0
            lam = np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            for scale in (1.0, 2.0**-100, 2.0**-1000):
                assert aic_order(lam * scale, 64, 6) == 3, scale

    def test_recovers_k_on_clean_data(self):
        sc = default_scenario(d=32, k=3, m=512, n=512, snr_db=20.0, seed=8)
        y = synth_freq(sc)
        basis = eigendecompose(sample_covariance(y))
        assert aic_order(basis.eigvals, sc.m, 10) == 3
