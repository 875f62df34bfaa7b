"""Tests for the eigendecomposition, spectra, peak picking, and captured
energies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from doamap.arraysim import (
    amplitude_matrix,
    spatial_frequency,
    steering_matrix,
    synth_freq,
)
from doamap.bench import spectrum_peaks
from doamap.ordermap import map_order_scan
from doamap.subspace import (
    dtft_spectrum,
    eigendecompose,
    music_candidates,
    music_exact,
    music_pseudospectrum,
    pick_peaks,
    prefix_energies,
    projection_stats,
    sample_covariance,
)
from scenarios import default_scenario

EPS = np.finfo(float).eps


def _random_unitary_columns(rng, d, k):
    """Haar-ish orthonormal D x K frame from a QR of a Gaussian matrix."""
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, _ = np.linalg.qr(g)
    return q


class TestCovarianceAndEigen:
    def test_sample_covariance_rank_one(self):
        y = np.array([[1.0 + 0j], [2.0j]])
        r = sample_covariance(y)
        np.testing.assert_allclose(r, np.array([[1.0, -2.0j], [2.0j, 4.0]]))

    def test_covariance_is_hermitian_psd(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
        r = sample_covariance(y)
        np.testing.assert_allclose(r, r.conj().T)
        assert np.min(np.linalg.eigvalsh(r)) >= -1e-10

    def test_eigendecompose_diagonal(self):
        basis = eigendecompose(np.diag([1.0, 3.0, 2.0]).astype(complex))
        np.testing.assert_allclose(basis.eigvals, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(basis.eigvecs),
                                   np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_eigendecompose_reconstruction(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((8, 30)) + 1j * rng.standard_normal((8, 30))
        r = sample_covariance(y)
        basis = eigendecompose(r)
        recon = basis.eigvecs @ np.diag(basis.eigvals) @ basis.eigvecs.conj().T
        assert np.max(np.abs(recon - r)) <= 1e-8 * np.max(np.abs(r))
        # columns are orthonormal
        gram = basis.eigvecs.conj().T @ basis.eigvecs
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    def test_eigendecompose_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
    def test_hermitian_check_is_scale_free(self, scale):
        # the asymmetry is measured against the matrix's own largest entry,
        # so a small matrix is not read from one triangle as if Hermitian
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(scale * np.array([[1, 1], [0, 1]], dtype=complex))

    def test_eigendecompose_all_zero(self):
        basis = eigendecompose(np.zeros((3, 3), dtype=complex))
        assert np.all(basis.eigvals == 0.0)


class _MatmulCounter(np.ndarray):
    """A view of the data that counts the matrix products reading it and
    the rows of the left factors."""

    matmuls = 0
    rows = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.matmuls += 1
            self.rows += np.shape(inputs[0])[0]
        inputs = [x.view(np.ndarray) if isinstance(x, _MatmulCounter) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _norm2(y):
    """|Y|^2, the energy the order scans take from their caller."""
    return float(np.sum(np.abs(y) ** 2))


def _reference_energy(y, v):
    """The energy V captures of Y from u^H Y, u the left singular vectors
    of V's own thin SVD: a 1 x D row alone takes numpy's matrix-vector
    path, so K = 1 is its row in a two-row product."""
    uh = np.linalg.svd(v, full_matrices=False)[0].conj().T
    prod = (np.vstack([uh, uh]) @ y)[:1] if v.shape[1] == 1 else uh @ y
    return float(np.sum(np.abs(prod) ** 2))


def _fit_bound(v, y):
    """64 eps cond(V) |Y|_F / |V|_2 = 64 eps |Y|_F / sigma_min(V), the
    bound on |A0 - pinv(V) Y|_F.  Both read the same singular vectors
    (pinv's of conj(V) are their conjugates) and differ by where the
    products round: one fl(U^H Y) error of size ~eps |Y|_F is scaled by at
    most 1 / sigma_min on its way to A0."""
    sv = np.linalg.svd(v, compute_uv=False)
    return 64 * EPS * np.linalg.norm(y) / sv[-1]


def _steer(grid, d):
    """The G x D grid steering table, row g the steering vector of grid[g]."""
    return steering_matrix(grid, d).T


def _eigen_projection(basis, steer):
    """The oracle's W = |Q^H v_g|^2, D x G, on the rows of the grid table."""
    w = np.abs(basis.eigvecs.conj().T @ steer.T)
    return np.square(w, out=w)


def _oracle_dtft(basis, steer):
    """The DTFT spectrum sum_j lambda_j W_jg from the eigen-projection."""
    return basis.eigvals @ _eigen_projection(basis, steer)


def _oracle_music(basis, k_sub, steer):
    """The MUSIC pseudospectrum 1 / sum_{j >= k_sub} W_jg."""
    w = _eigen_projection(basis, steer)
    return 1.0 / np.maximum(np.sum(w[k_sub:], axis=0), 1e-300)


def _dtft(y, grid):
    """The DTFT spectrum of data Y on the grid angles."""
    return dtft_spectrum(sample_covariance(y), spatial_frequency(grid))


def _music(basis, k_sub, grid):
    """The located MUSIC pseudospectrum on the grid angles."""
    return music_pseudospectrum(basis.eigvecs, k_sub, spatial_frequency(grid))


def _desk_draws(snrs=(-30.0, -10.0, 0.0, 10.0, 30.0), overlap=0.0):
    """(data, eigenbasis, grid table) of desk-shape draws, seed i at snrs[i]."""
    steer = _steer(np.arange(0.0, 180.0, 0.5), 32)
    for seed, snr_db in enumerate(snrs):
        sc = default_scenario(d=32, k=3, m=512, n=512, overlap=overlap,
                              snr_db=snr_db, seed=seed)
        y = synth_freq(sc, rng=np.random.default_rng(seed))
        yield y, eigendecompose(sample_covariance(y)), steer


class TestSpectra:
    GRID = np.arange(0.0, 180.0, 0.5)

    def test_dtft_peak_at_source(self):
        sc = default_scenario(d=32, k=1, m=64, n=64, snr_db=240.0, seed=0)
        values = _dtft(synth_freq(sc), self.GRID)
        best = self.GRID[np.argmax(values)]
        assert abs(best - sc.doa_deg[0]) <= 0.5

    def test_dtft_zero_data(self):
        values = _dtft(np.zeros((8, 4), dtype=complex), self.GRID)
        assert np.all(values == 0.0)

    def test_music_sharp_at_source(self):
        sc = default_scenario(d=32, k=1, m=64, n=64, snr_db=240.0, seed=0)
        y = synth_freq(sc)
        basis = eigendecompose(sample_covariance(y))
        values = _music(basis, 1, self.GRID)
        best = self.GRID[np.argmax(values)]
        assert abs(best - sc.doa_deg[0]) <= 0.5
        # noiseless: on-peak pseudospectrum exceeds the median by orders of magnitude
        assert np.max(values) / np.median(values) > 1e4

    def test_music_flat_on_white_noise(self):
        sc = default_scenario(d=32, k=0, m=512, n=512, snr_db=0.0, seed=123)
        y = synth_freq(sc)
        basis = eigendecompose(sample_covariance(y))
        values = _music(basis, 3, self.GRID)
        assert np.max(values) / np.median(values) <= 10.0

    def test_music_rejects_bad_subspace_size(self):
        basis = eigendecompose(np.eye(4))
        for k in (0, 4, 5):
            with pytest.raises(ValueError):
                _music(basis, k, self.GRID)
            with pytest.raises(ValueError):
                music_exact(basis.eigvecs, k, _steer(self.GRID, 4))

    def test_music_polynomial_is_noise_subspace_sum(self):
        # the lag polynomial of Q_n Q_n^H is within 64 D eps, absolute, of
        # sum_{j >= k} |q_j^H v|^2, and the ranked MUSIC peaks are the
        # oracle's, up to the noiseless limit where a true DOA's noise
        # energy is rounding error alone
        high = (60.0, 90.0, 120.0, 200.0, math.inf)
        draws = [*_desk_draws(), *_desk_draws(high), *_desk_draws(high, 0.999)]
        for y, basis, steer in draws:
            for k_sub in (1, 3, 10, 31):
                noise = basis.eigvecs[:, k_sub:]
                energy = np.sum(np.abs(noise.conj().T @ steer.T) ** 2, axis=0)
                poly = 1.0 / _music(basis, k_sub, self.GRID)
                assert np.max(np.abs(poly - np.maximum(energy, 1e-300))) <= (
                    64 * 32 * EPS), k_sub
                assert np.array_equal(
                    music_exact(basis.eigvecs, k_sub, steer),
                    _oracle_music(basis, k_sub, steer))
            for k_max in (3, 10):
                angles, rows = spectrum_peaks(
                    sample_covariance(y), basis, self.GRID, k_max,
                    {"music"})["music"]
                idx = pick_peaks(_oracle_music(basis, k_max, steer), k_max)
                assert np.array_equal(angles, self.GRID[idx])
                assert np.array_equal(rows, steer[idx])

    def test_dtft_polynomial_is_quadratic_form(self):
        # the lag polynomial of R against v^H R v: 1e-12 relative, and the
        # same peaks, which are also the eigen-projection oracle's
        for y, basis, steer in _desk_draws():
            r = sample_covariance(y)
            want = np.real(np.einsum("gd,gd->g", steer.conj(), steer @ r.T))
            got = dtft_spectrum(r, spatial_frequency(self.GRID))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            idx = pick_peaks(got, 10)
            assert np.array_equal(idx, pick_peaks(want, 10))
            assert np.array_equal(idx, pick_peaks(_oracle_dtft(basis, steer), 10))
            angles, rows = spectrum_peaks(r, basis, self.GRID, 10,
                                          {"dtft"})["dtft"]
            assert np.array_equal(angles, self.GRID[idx])
            assert np.array_equal(rows, steer[idx])

    def test_spectrum_matches_direct_projection(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        values = _dtft(y, [33.0, 90.0])
        v = steering_matrix([33.0, 90.0], 8)
        expect = np.sum(np.abs(v.conj().T @ y) ** 2, axis=1)
        np.testing.assert_allclose(values, expect, rtol=1e-12)


class TestMusicCandidates:
    def test_every_local_maximum_and_its_neighbours(self):
        # a noise energy with sure minima at 1 and 5, and points 3 and 4
        # tol apart, within the error bound, so either may be the minimum
        d = 4
        tol = 64 * EPS * d
        energy = np.array([2.0, 0.5, 1.0, 0.7, 0.7 + tol, 0.1, 3.0])
        near = music_candidates(1.0 / energy, d, 5)
        assert near.tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert music_candidates(1.0 / energy[:3], d, 5).tolist() == [0, 1, 2]

    def test_drops_points_below_count_sure_maxima(self):
        # the minima at 1, 3 and 5 are sure: with count 1 only the lowest
        # (5) stays, with count 3 all three
        energy = np.array([2.0, 0.5, 1.0, 0.7, 0.9, 0.1, 3.0])
        assert music_candidates(1.0 / energy, 4, 1).tolist() == [4, 5, 6]
        assert music_candidates(1.0 / energy, 4, 3).tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_edge_grids(self):
        # one point is its own maximum; two points keep the lower
        assert music_candidates(np.array([5.0]), 2, 1).tolist() == [0]
        assert music_candidates(np.array([1.0, 2.0]), 2, 1).tolist() == [0, 1]


class TestPickPeaks:
    def test_two_bumps_ordered_by_height(self):
        vals = np.array([0.0, 3.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        assert pick_peaks(vals, 10).tolist() == [3, 1, 5]

    def test_count_truncates(self):
        vals = np.array([0.0, 3.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        assert pick_peaks(vals, 2).tolist() == [3, 1]

    def test_monotone_curve_boundary_peak(self):
        ramp = np.arange(5.0)
        assert pick_peaks(ramp, 3).tolist() == [4]
        assert pick_peaks(ramp[::-1].copy(), 3).tolist() == [0]
        assert pick_peaks(np.array([2.0]), 3).tolist() == [0]

    def test_tie_prefers_smaller_angle(self):
        vals = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
        assert pick_peaks(vals, 2).tolist() == [1, 3]

    def test_plateau_is_not_a_peak(self):
        vals = np.array([0.0, 1.0, 1.0, 0.0])
        assert pick_peaks(vals, 4).size == 0

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            pick_peaks(np.array([]), 1)


def _walk_up_full(tri):
    """P', the last full-rank prefix, by the rank rule on each leading
    block of the triangular factor from 1 x 1 up, stopping at the first
    that fails: one SVD per prefix up to P' + 1."""
    full = 0
    while full < tri.shape[1]:
        sv = np.linalg.svd(tri[:full + 1, :full + 1], compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            break
        full += 1
    return full


@hst.composite
def _clustered_vandermonde(draw):
    """A D x P unit-circle Vandermonde basis, column j = e^{i w_j a}, whose
    nodes w_j cluster: gaps of 1e-9 to 1e-1 rad or 0 (a repeated node),
    shuffled, so near-coincident columns need not be adjacent."""
    d = draw(hst.integers(2, 32))
    p = draw(hst.integers(1, d))
    gaps = draw(hst.lists(
        hst.one_of(hst.just(0.0), hst.floats(-9.0, -1.0).map(lambda e: 10**e)),
        min_size=p - 1, max_size=p - 1))
    start = draw(hst.floats(-math.pi, math.pi))
    nodes = draw(hst.permutations(start + np.concatenate(([0.0],
                                                           np.cumsum(gaps)))))
    return np.exp(1j * np.outer(np.arange(d), nodes))


class TestProjectionStats:
    # the clamp and degree counts of the split a posterior reads from s
    # are ordermap's: tests/test_ordermap.py::TestProjectionStats

    def test_k0_convention(self):
        # a D x 0 basis captures nothing and fits no amplitudes
        y = np.ones((4, 3), dtype=complex)
        s, a0 = projection_stats(y, np.empty((4, 0), dtype=complex))
        assert s == 0.0
        assert a0.shape == (0, 3)

    def test_pythagorean_split(self):
        # |Y|^2 = s + |Y - V A0|^2 for 100 random well-conditioned instances
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, d))
            m = int(rng.integers(k, 20))
            v = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            y = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            norm2 = _norm2(y)
            s, a0 = projection_stats(y, v)
            resid = float(np.sum(np.abs(y - v @ a0) ** 2))
            assert abs(s + resid - norm2) <= 1e-8 * norm2

    def test_matches_least_squares_residual(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        y = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
        s = projection_stats(y, v)[0]
        a0, *_ = np.linalg.lstsq(v, y, rcond=None)
        resid = float(np.sum(np.abs(y - v @ a0) ** 2))
        fit = float(np.sum(np.abs(v @ a0) ** 2))
        assert s == pytest.approx(fit, rel=1e-10)
        assert _norm2(y) - s == pytest.approx(resid, rel=1e-8)

    def test_trace_identity(self):
        # s equals Tr(P YY^H) with P the orthogonal projector onto span(V)
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        s = projection_stats(y, v)[0]
        p = v @ np.linalg.solve(v.conj().T @ v, v.conj().T)
        expect = float(np.real(np.trace(p @ (y @ y.conj().T))))
        assert s == pytest.approx(expect, rel=1e-10)

    def test_pca_prefix_maximizes_captured_energy(self):
        # the top-k eigenvector frame captures at least as much energy as any
        # random orthonormal frame of the same size
        rng = np.random.default_rng(8)
        y = rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40))
        basis = eigendecompose(sample_covariance(y))
        for k in (1, 2, 4):
            s_pca = projection_stats(y, basis.eigvecs[:, :k])[0]
            for _ in range(50):
                w = _random_unitary_columns(rng, 8, k)
                s = projection_stats(y, w)[0]
                assert s <= s_pca + 1e-8 * s_pca
            # and it equals the sum of the top-k eigenvalues
            assert s_pca == pytest.approx(float(np.sum(basis.eigvals[:k])),
                                          rel=1e-10)

    def test_rank_deficient_prefixes_flagged(self):
        # column 1 is parallel to column 0: the prefixes end before the
        # first holding both, though column 2 is independent of column 0
        v = np.ones((5, 3), dtype=complex)
        v[:, 1] = 2.0 * v[:, 0]
        v[:, 2] = np.exp(1j * np.arange(5))
        y = np.ones((5, 4), dtype=complex)
        (e,) = prefix_energies(v, sample_covariance(y))
        assert e == pytest.approx(20.0)
        assert projection_stats(y, v[:, :1])[0] == pytest.approx(20.0)

    def test_prefixes_match_single_basis_products(self):
        # each prefix's energy of Y is that of its own SVD basis times Y
        # bit for bit; a 1 x D row alone takes numpy's matrix-vector path,
        # so K = 1's reference is its row in a two-row product.  The
        # energies of R end at the first prefix that fails the rank rule
        # on its own SVD (coincident peaks), and their partial sums are
        # the energies each prefix captures of Y
        checked = 0
        for y, basis, steer in _desk_draws():
            cov, norm2 = sample_covariance(y), _norm2(y)
            idx = pick_peaks(_oracle_music(basis, 10, steer), 10)
            for rows in (steer[idx], steer[np.r_[idx[:3], idx[1], idx[3:6]]]):
                v = rows.T
                energies = prefix_energies(v, cov)
                for k in range(1, v.shape[1] + 1):
                    sv = np.linalg.svd(v[:, :k], compute_uv=False)
                    if sv[-1] < 1e-10 * sv[0]:
                        assert k > energies.size, k
                        continue
                    s = projection_stats(y, v[:, :k])[0]
                    assert s == _reference_energy(y, v[:, :k]), k
                    assert float(np.sum(energies[:k])) == pytest.approx(
                        s, rel=1e-10, abs=1e-12 * norm2), k
                    checked += 1
            assert energies.size == 3
        assert checked == 5 * (10 + 3)

    def test_scan_multiplies_y_only_for_read_prefixes(self):
        # the order scan reads only R; Y's energy on a prefix of K rows
        # multiplies Y by that prefix's u^H once (here K = 3 and K = 1,
        # which is multiplied as two rows)
        ((y, basis, steer),) = _desk_draws(snrs=(10.0,))
        rows = steer[pick_peaks(_oracle_music(basis, 10, steer), 10)]
        counted = y.view(_MatmulCounter)
        for k in (3, 1):
            assert (projection_stats(counted, rows[:k].T)[0]
                    == projection_stats(y, rows[:k].T)[0])
        assert (counted.matmuls, counted.rows) == (2, 3 + 2)

    def test_one_svd_per_prefix_per_scan(self, monkeypatch):
        # the scan runs one QR of the D x P prefixes and no D x K SVD: its
        # rank rule reads the K x K leading blocks of the triangular factor
        # from K = P down to the first full-rank one, P'.  A full-rank scan
        # runs one SVD; one whose first deficient prefix is P' + 1 runs the
        # SVDs of blocks P, P - 1, ..., P'.  Y's energy on a prefix of K
        # rows takes one D x K SVD
        ((y, basis, steer),) = _desk_draws(snrs=(10.0,))
        idx = pick_peaks(_oracle_music(basis, 10, steer), 10)
        rows = steer[idx]
        assert rows.shape == (10, 32)
        # peak 1 again after the top 3: P = 7, P' = 3
        twice = steer[np.r_[idx[:3], idx[1], idx[3:6]]]
        cov = sample_covariance(y)
        qr, svd, calls = np.linalg.qr, np.linalg.svd, []

        def counting(real, name):
            def call(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "qr", counting(qr, "qr"))
        monkeypatch.setattr(np.linalg, "svd", counting(svd, "svd"))
        post = map_order_scan(cov, rows, 10, 512, _norm2(y))
        assert len(post.log_scores) == 11
        assert calls == [("qr", (32, 10)), ("svd", (10, 10))]
        calls.clear()
        post = map_order_scan(cov, twice, 10, 512, _norm2(y))
        assert len(post.log_scores) == 4
        assert post.rank_deficient_k == (4, 5, 6, 7)
        assert calls == [("qr", (32, 7))] + [
            ("svd", (k, k)) for k in range(7, 2, -1)]
        for k in range(11):
            calls.clear()
            projection_stats(y, rows[:k].T)
            assert calls == [("svd", (32, k))]

    @settings(max_examples=400)
    @given(v=_clustered_vandermonde())
    def test_no_full_rank_prefix_after_a_deficient_one(self, v):
        # the rank rule on the QR's triangular blocks gives each prefix the
        # verdict of its own D x K SVD, and by interlacing (a column more
        # never raises sigma_min / sigma_max) the prefixes past the last
        # full-rank one all fail it
        d, p = v.shape
        full = prefix_energies(v, np.eye(d)).size
        for k in range(1, p + 1):
            sv = np.linalg.svd(v[:, :k], compute_uv=False)
            assert (sv[-1] < 1e-10 * sv[0]) == (k > full), k

    @settings(max_examples=400)
    @given(v=_clustered_vandermonde())
    def test_walk_down_finds_the_walk_up_prefix(self, v):
        # walking down from the whole block stops at the walk-up's P': the
        # same rule on the same blocks, whose verdicts only fall as K grows
        full = prefix_energies(v, np.eye(v.shape[0])).size
        assert full == _walk_up_full(np.linalg.qr(v)[1])

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            prefix_energies(np.ones((3, 4), dtype=complex), np.eye(3))

    def test_music_and_dtft_agree_noiseless_on_grid(self):
        # distinct far-apart sources: both spectra put peaks on the true DOAs
        sc = default_scenario(d=32, k=3, m=96, n=96, snr_db=240.0, seed=0)
        y = synth_freq(sc)
        grid = np.arange(0.0, 180.0, 0.5)
        cov = sample_covariance(y)
        peaks = spectrum_peaks(cov, eigendecompose(cov), grid, 3,
                               {"music", "dtft"})
        d_ang = sorted(peaks["dtft"][0])
        m_ang = sorted(peaks["music"][0])
        for est, true in zip(d_ang, sorted(sc.doa_deg)):
            assert abs(est - true) <= 0.5
        for est, true in zip(m_ang, sorted(sc.doa_deg)):
            assert abs(est - true) <= 0.5


class TestPrefixFit:
    """projection_stats's energy has the bits of _reference_energy, and its
    amplitudes are pinv(V) Y to _fit_bound on every basis a draw fits: a
    steering prefix that passes the scan's rank rule, sigma_min >= 1e-10
    sigma_max, so pinv's 1e-15 cutoff never acts."""

    def test_k0_is_pure_noise_with_no_amplitudes(self):
        y = np.ones((4, 3), dtype=complex)
        v = np.empty((4, 0), dtype=complex)
        s, a0 = projection_stats(y, v)
        assert s == _reference_energy(y, v)
        assert s == 0.0
        assert a0.shape == (0, 3)

    def test_desk_prefixes(self):
        # K = 0..10 on the MUSIC peaks of desk draws: the energy has the
        # bits of the reference, and A0 is pinv's least squares
        checked = 0
        for y, basis, steer in _desk_draws():
            rows = steer[pick_peaks(_oracle_music(basis, 10, steer), 10)]
            for k in range(11):
                v = rows[:k].T
                s, a0 = projection_stats(y, v)
                assert s == _reference_energy(y, v), k
                assert a0.shape == (k, 512)
                if k:
                    err = np.linalg.norm(a0 - np.linalg.pinv(v) @ y)
                    assert err <= _fit_bound(v, y), k
                checked += 1
        assert checked == 5 * 11

    @settings(max_examples=300)
    @given(v=_clustered_vandermonde(), m=hst.integers(1, 12),
           seed=hst.integers(0, 2**32 - 1), in_span=hst.booleans())
    def test_clustered_prefixes(self, v, m, seed, in_span):
        # the full-rank prefix of a clustered basis, its condition number
        # up to 1e10, and data in or mostly out of its span
        full = prefix_energies(v, np.eye(v.shape[0])).size
        v = v[:, :full]
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((v.shape[0], m)) + 1j * rng.standard_normal(
            (v.shape[0], m))
        if in_span:
            y = v @ y[:full] + 1e-3 * y
        s, a0 = projection_stats(y, v)
        assert s == _reference_energy(y, v)
        err = np.linalg.norm(a0 - np.linalg.pinv(v) @ y)
        assert err <= _fit_bound(v, y)
