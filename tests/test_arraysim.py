"""Tests for the synthetic uniform-linear-array data model."""

import math
import tracemalloc

import numpy as np
import pytest

from doamap.arraysim import (
    ArrayScenario,
    amplitude_matrix,
    default_doas,
    noise_variances,
    steering_matrix,
    synth_freq,
)
from scenarios import default_scenario
from timedomain import complex_awgn, fft_reduce, synth_time, tone_grid

# (d, k, m, n) of the benchmark's desk and paper shapes
DESK = (32, 3, 512, 512)
PAPER = (100, 5, 4096, 4096)


class TestGeometry:
    def test_omega_endpoints(self):
        # first-sensor phase of each column is omega = pi*cos(phi)
        v = steering_matrix([90.0, 0.0, 60.0], 6)
        np.testing.assert_allclose(v[:, 0], 1.0, rtol=0, atol=1e-14)
        assert np.angle(v[0, 1]) == pytest.approx(-math.pi)  # wrapped from +pi
        assert np.angle(v[0, 2]) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_omega_in_range(self):
        # an unwrapped omega = +pi at 0 degrees would read np.angle == pi
        v = steering_matrix(np.linspace(0.0, 179.999, 1000), 1)
        omega = np.angle(v[0])
        assert np.all(omega >= -math.pi) and np.all(omega < math.pi)

    def test_steering_vector_norm_and_phase(self):
        v = steering_matrix([0.0, 37.0, 90.0, 151.5, 179.9], 16)
        norms = np.sum(np.abs(v) ** 2, axis=0)
        np.testing.assert_allclose(norms, 16.0, rtol=1e-13)
        omega = math.pi * math.cos(math.radians(37.0))
        assert v[0, 1] == pytest.approx(np.exp(1j * omega))

    def test_steering_vector_zero_frequency(self):
        assert np.allclose(steering_matrix([90.0], 5)[:, 0], np.ones(5))

    def test_steering_matrix_matches_vector(self):
        v_mat = steering_matrix([40.0, 120.0], 8)
        for col, phi in zip(v_mat.T, (40.0, 120.0)):
            omega = math.pi * math.cos(math.radians(phi))
            assert np.allclose(col, np.exp(1j * omega * np.arange(1, 9)))

    def test_on_grid_steering_orthogonality(self):
        # omega on the length-D DFT grid makes steering vectors orthogonal
        d = 16
        phis = [math.degrees(math.acos(2.0 * j / d)) for j in (3, 7)]
        v1, v2 = steering_matrix(phis, d).T
        assert abs(np.vdot(v1, v2)) <= 1e-10

    def test_dtft_kernel_identity(self):
        # |v(w1)^H v(w2)| = |sin(D dw/2) / sin(dw/2)|, w = pi*cos(phi)
        rng = np.random.default_rng(7)
        d = 23
        for _ in range(200):
            phis = rng.uniform(0.0, 180.0, 2)
            w1, w2 = np.pi * np.cos(np.deg2rad(phis))
            dw = w1 - w2
            if abs(math.sin(dw / 2)) < 1e-9:
                continue
            v1, v2 = steering_matrix(phis, d).T
            inner = abs(np.vdot(v1, v2))
            expect = abs(math.sin(d * dw / 2) / math.sin(dw / 2))
            assert inner == pytest.approx(expect, abs=1e-8 * d)


class TestScenarioLayout:
    def test_default_doas_k5(self):
        assert default_doas(5) == (10.0, 44.0, 78.0, 112.0, 146.0)

    def test_default_doas_k0_and_k1(self):
        assert default_doas(0) == ()
        assert default_doas(1) == (10.0,)

    def test_band_layout_no_overlap(self):
        sc = default_scenario(d=8, k=5, m=4096, n=4096)
        a = amplitude_matrix(sc)
        bw = 4096 // 5  # 819
        for i in range(5):
            row = np.nonzero(a[i])[0]
            assert row[0] == i * bw
            assert row[-1] == min(i * bw + bw, 4095)
        assert np.all((a == 0.0) | (a == 1.0))

    def test_band_layout_near_full_overlap(self):
        sc = default_scenario(d=8, k=5, m=4096, n=4096, overlap=0.999)
        a = amplitude_matrix(sc)
        # offset collapses to ceil(0.001 * 819) = 1 bin between band starts
        starts = [np.nonzero(a[i])[0][0] for i in range(5)]
        assert starts == [0, 1, 2, 3, 4]

    def test_decay_values(self):
        sc = default_scenario(d=8, k=4, m=64, n=64, decay=0.8)
        a = amplitude_matrix(sc)
        peak = [a[i].max() for i in range(4)]
        assert peak == pytest.approx([1.0, 0.8, 0.6, 0.4], rel=1e-12)

    def test_k0_empty(self):
        sc = default_scenario(d=8, k=0, m=64, n=64)
        assert amplitude_matrix(sc).shape == (0, 64)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ArrayScenario(d=4, k_true=1, m=8, n=4, doa_deg=(30.0,))
        with pytest.raises(ValueError):
            ArrayScenario(d=4, k_true=2, m=8, n=8, doa_deg=(30.0,))
        with pytest.raises(ValueError):
            ArrayScenario(d=4, k_true=1, m=8, n=8, doa_deg=(200.0,))
        with pytest.raises(ValueError):
            default_scenario(d=4, k=1, m=8, n=8, overlap=1.5)
        for snr in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                default_scenario(d=4, k=1, m=8, n=8, snr_db=snr)
        # +inf is the noiseless limit
        assert default_scenario(d=4, k=1, m=8, n=8, snr_db=math.inf).snr_db == math.inf
        with pytest.raises(ValueError):
            ArrayScenario(d=4, k_true=0, m=0, n=8, doa_deg=())
        # 16 (2D+1) times the noise energy bound D^2*M*10^(-SNR/10), which
        # bounds the DTFT spectrum with room for the noise draw, must be a
        # finite float: at D = 4, M = 8 the floor is about -3039.9 dB
        with pytest.raises(ValueError):
            default_scenario(d=4, k=1, m=8, n=8, snr_db=-3040.0)
        assert default_scenario(d=4, k=1, m=8, n=8, snr_db=-3039.8).snr_db == -3039.8


class TestNoiseScaling:
    def test_full_band_snr_inversion(self):
        # K = 1 fills every bin: per-tone power 1, so sigma^2 = D * 10^(-SNR/10)
        sc = default_scenario(d=16, k=1, m=64, n=64, snr_db=0.0)
        assert noise_variances(sc, amplitude_matrix(sc)) == pytest.approx(
            16.0, rel=1e-12)
        sc = default_scenario(d=16, k=1, m=64, n=64, snr_db=10.0)
        assert noise_variances(sc, amplitude_matrix(sc)) == pytest.approx(
            1.6, rel=1e-12)

    def test_pure_noise_reference_power(self):
        sc = default_scenario(d=16, k=0, m=64, n=64, snr_db=0.0)
        assert noise_variances(sc, amplitude_matrix(sc)) == pytest.approx(
            16.0, rel=1e-12)

    def test_decay_does_not_change_peak_power(self):
        # the strongest band (k = 1) is undecayed, so sigma^2 is unchanged
        flat = default_scenario(d=16, k=3, m=60, n=60, snr_db=5.0)
        dec = default_scenario(d=16, k=3, m=60, n=60, snr_db=5.0, decay=0.9)
        assert noise_variances(flat, amplitude_matrix(flat)) == pytest.approx(
            noise_variances(dec, amplitude_matrix(dec)))

    def test_empirical_noise_variance(self):
        sc = default_scenario(d=32, k=0, m=512, n=512, snr_db=0.0, seed=42)
        y = synth_freq(sc)
        per_entry = np.mean(np.abs(y) ** 2)
        var = noise_variances(sc, amplitude_matrix(sc))
        # chi-square concentration: relative error O(1/sqrt(D*M))
        assert per_entry == pytest.approx(var, rel=0.05)


class TestSynthesis:
    def test_freq_deterministic_given_seed(self):
        sc = default_scenario(d=8, k=2, m=32, n=32, seed=11)
        y1 = synth_freq(sc)
        y2 = synth_freq(sc)
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize("shape", [DESK, PAPER], ids=["desk", "paper"])
    @pytest.mark.parametrize("pure_noise", [False, True])
    @pytest.mark.parametrize("snr_db", [-20.0, 20.0, math.inf])
    @pytest.mark.parametrize("default_rng", [False, True], ids=["rng", "seed"])
    def test_freq_matches_reference_expression(self, shape, pure_noise, snr_db,
                                               default_rng):
        # Y is written in place, yet has the bits of V A + Z with Z built
        # as one complex expression from the same stream
        d, k, m, n = shape
        k = 0 if pure_noise else k
        if k == 0 and snr_db == math.inf:
            # pure noise at +inf dB would draw Y = 0: rejected up front
            with pytest.raises(ValueError, match="pure-noise"):
                default_scenario(d=d, k=k, m=m, n=n, snr_db=snr_db, seed=21)
            return
        sc = default_scenario(d=d, k=k, m=m, n=n, snr_db=snr_db, seed=21)
        y = synth_freq(sc, rng=None if default_rng else np.random.default_rng(21))
        amps = amplitude_matrix(sc)
        z = complex_awgn(np.random.default_rng(21), (d, m),
                         noise_variances(sc, amps))
        if k > 0:
            z = steering_matrix(sc.doa_deg, d) @ amps.astype(complex) + z
        assert y.dtype == z.dtype and y.shape == z.shape
        assert np.array_equal(y.view(float), z.view(float))

    @pytest.mark.parametrize("shape", [DESK, PAPER], ids=["desk", "paper"])
    def test_freq_peak_memory(self, shape):
        # one noise buffer (half of Y) is the only draw-sized temporary
        d, k, m, n = shape
        sc = default_scenario(d=d, k=k, m=m, n=n, snr_db=0.0, seed=4)
        tracemalloc.start()
        try:
            y = synth_freq(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * y.nbytes

    def test_freq_noiseless_limit(self):
        sc = default_scenario(d=8, k=2, m=32, n=32, snr_db=240.0, seed=3)
        y = synth_freq(sc)
        v = steering_matrix(sc.doa_deg, sc.d)
        a = amplitude_matrix(sc)
        assert np.max(np.abs(y - v @ a)) <= 1e-9

    def test_time_reduction_round_trip(self):
        # on-bin tones: noiseless X reduced through the DFT equals V A exactly
        sc = default_scenario(d=8, k=3, m=32, n=128, snr_db=240.0, seed=5)
        td = synth_time(sc)
        y = fft_reduce(td, tone_grid(sc.m, sc.n))
        v = steering_matrix(sc.doa_deg, sc.d)
        a = amplitude_matrix(sc)
        assert np.max(np.abs(y - v @ a)) <= 1e-9

    def test_time_reduction_noise_variance(self):
        # reducing time noise of power N*var yields frequency noise of power var
        sc = default_scenario(d=32, k=0, m=64, n=256, snr_db=0.0, seed=9)
        td = synth_time(sc)
        var_freq = noise_variances(sc, amplitude_matrix(sc))
        y = fft_reduce(td, tone_grid(sc.m, sc.n))
        emp = np.mean(np.abs(y) ** 2)
        assert emp == pytest.approx(var_freq, rel=0.1)

    def test_freq_and_time_same_first_moment(self):
        sc = default_scenario(d=6, k=2, m=16, n=64, snr_db=20.0, seed=13)
        mean_f = np.zeros((6, 16), dtype=complex)
        mean_t = np.zeros((6, 16), dtype=complex)
        rng_f = np.random.default_rng(100)
        rng_t = np.random.default_rng(200)
        reps = 400
        for _ in range(reps):
            mean_f += synth_freq(sc, rng=rng_f)
            mean_t += fft_reduce(synth_time(sc, rng=rng_t), tone_grid(16, 64))
        mean_f /= reps
        mean_t /= reps
        signal = steering_matrix(sc.doa_deg, 6) @ amplitude_matrix(sc)
        sd = math.sqrt(noise_variances(sc, amplitude_matrix(sc)) / reps)
        assert np.max(np.abs(mean_f - signal)) <= 5 * sd
        assert np.max(np.abs(mean_t - signal)) <= 5 * sd
