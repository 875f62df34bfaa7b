"""Tests for the evaluation metrics."""

import math

import numpy as np
import pytest

from doamap.metrics import err_doa, rmse_amplitude


class TestAnyOrder:
    def test_permutation_leaves_metrics_unchanged(self):
        # angles travel with their amplitude rows; the order of either
        # sequence is not part of the estimate or the truth
        rng = np.random.default_rng(5)
        d_est, d_true = np.array([95.0, 12.0, 40.0]), np.array([170.0, 10.0, 90.0])
        a_est, a_true = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        err = err_doa(d_est, d_true)
        rmse = rmse_amplitude(a_est, d_est, a_true, d_true)
        for p_est in ([1, 2, 0], [2, 1, 0]):
            for p_true in ([0, 1, 2], [1, 0, 2]):
                assert err_doa(d_est[p_est], d_true[p_true]) == err
                assert rmse_amplitude(a_est[p_est], d_est[p_est],
                                      a_true[p_true], d_true[p_true]) == rmse


class TestErrDoa:
    def test_exact_match_is_zero(self):
        t = (10.0, 90.0)
        assert err_doa(t, t) == 0.0

    def test_single_offset_fixture(self):
        # one source, estimate off by 10 degrees: 10/180
        assert err_doa((50.0,), (40.0,)) == pytest.approx(
            10.0 / 180.0, abs=1e-12
        )

    def test_nearest_truth_assignment(self):
        # each estimate charged against its closest true angle
        est = (12.0, 95.0)
        truth = (10.0, 90.0, 170.0)
        assert err_doa(est, truth) == pytest.approx((2.0 + 5.0) / 2.0 / 180.0,
                                                    abs=1e-12)

    def test_empty_estimate_scores_one(self):
        assert err_doa((), (40.0,)) == 1.0

    def test_requires_nonempty_truth(self):
        with pytest.raises(ValueError):
            err_doa((40.0,), ())

    def test_rejects_out_of_range(self):
        for bad in (180.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="outside"):
                err_doa((bad,), (40.0,))
            with pytest.raises(ValueError, match="outside"):
                err_doa((40.0,), (bad,))


class TestRmseAmplitude:
    def test_perfect_estimate_is_zero(self):
        amps = np.array([[1.0, 2.0], [0.5, 0.0]])
        doas = (30.0, 100.0)
        assert rmse_amplitude(amps, doas, amps, doas) == 0.0

    def test_missing_unit_source_fixture(self):
        # true: one unit-amplitude source at 90; estimate: nothing.
        # cumulative power differs by 1 over (90, 180], integral 90, sqrt -> sqrt(90)
        val = rmse_amplitude(np.empty((0, 1)), (), np.array([[1.0]]), (90.0,))
        assert val == pytest.approx(math.sqrt(90.0), abs=1e-12)

    def test_shifted_source_fixture(self):
        # unit source at 80 estimated at 90: step functions differ by 1 on (80, 90]
        val = rmse_amplitude(np.array([[1.0]]), (90.0,),
                             np.array([[1.0]]), (80.0,))
        assert val == pytest.approx(math.sqrt(10.0), abs=1e-12)

    def test_amplitude_error_fixture(self):
        # same DOA, powers 1 vs 4: difference 3 over (90, 180], 90 * 9 / 1 tones
        val = rmse_amplitude(np.array([[2.0]]), (90.0,),
                             np.array([[1.0]]), (90.0,))
        assert val == pytest.approx(math.sqrt(90.0 * 9.0), abs=1e-10)

    def test_multi_tone_averaging(self):
        # per-tone squared integrals are averaged before the square root
        true_amps = np.array([[1.0, 0.0]])
        val = rmse_amplitude(np.empty((0, 2)), (), true_amps, (90.0,))
        assert val == pytest.approx(math.sqrt(90.0 / 2.0), abs=1e-12)

    def test_complex_amplitudes_use_power(self):
        # phase never matters: |a|^2 drives the spectrum
        a_true = np.array([[1.0 + 0.0j]])
        a_est = np.array([[0.0 + 1.0j]])
        assert rmse_amplitude(a_est, (90.0,), a_true, (90.0,)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetry(self):
        a1, d1 = np.array([[1.0, 0.3]]), (40.0,)
        a2, d2 = np.array([[0.7, 0.9], [0.2, 0.1]]), (60.0, 150.0)
        assert rmse_amplitude(a1, d1, a2, d2) == pytest.approx(
            rmse_amplitude(a2, d2, a1, d1), rel=1e-12
        )

    def test_riemann_sum_oracle(self):
        # brute-force grid integration of the squared spectrum difference
        rng = np.random.default_rng(12)
        a_true = rng.standard_normal((2, 3))
        a_est = rng.standard_normal((3, 3))
        d_true, d_est = (20.0, 130.0), (25.0, 70.0, 140.0)
        grid = np.linspace(0.0, 180.0, 720_001)[:-1] + 180.0 / 720_000 / 2

        def cum(amps, doas):
            out = np.zeros((grid.size, 3))
            for k, a in enumerate(doas):
                out[grid > a] += np.abs(amps[k]) ** 2
            return out

        diff = cum(a_true, d_true) - cum(a_est, d_est)
        approx = math.sqrt(np.mean(np.sum(diff**2, axis=1) * 180.0 / 3.0))
        exact = rmse_amplitude(a_est, d_est, a_true, d_true)
        assert exact == pytest.approx(approx, rel=1e-3)

    @pytest.mark.parametrize("j", [-400, -1, 0, 1, 400])
    def test_power_of_two_scale_is_exact(self, j):
        # amplitudes times 2^j scale every power, so the RMSE, by 4^j bit
        # for bit: at 2^400 the differences' squares pass 2^1600 and at
        # 2^-400 they fall below 2^-1600, past overflow and underflow
        rng = np.random.default_rng(9)
        a_est, a_true = rng.standard_normal((3, 6)), rng.standard_normal((2, 6))
        d_est, d_true = (15.0, 70.0, 71.0), (20.0, 90.0)
        want = rmse_amplitude(a_est, d_est, a_true, d_true)
        got = rmse_amplitude(np.ldexp(a_est, j), d_est, np.ldexp(a_true, j), d_true)
        assert got == math.ldexp(want, 2 * j)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_stack_matches_separate_calls(self, p):
        # estimates that share est_doas score in one pass, each with the
        # bits of its own call: a0 and a0 / 3 lie in different binades,
        # a0 * 2^300 sets a scale whose squares would underflow the others'
        # differences, and one entry of 2^-540 squares to a subnormal power
        rng = np.random.default_rng(21)
        a_true = rng.standard_normal((2, 5))
        d_true, d_est = (20.0, 90.0), (15.0, 70.0, 91.0)[:p]
        a0 = 4.0 * (rng.standard_normal((p, 5))
                    + 1j * rng.standard_normal((p, 5)))
        tiny = a0.copy()
        tiny[:1, :1] = 2.0**-540
        stack = np.stack((a0, a0 / 3.0, a0 * 2.0**300, tiny))
        got = rmse_amplitude(stack, d_est, a_true, d_true)
        want = [rmse_amplitude(est, d_est, a_true, d_true) for est in stack]
        assert [type(r) for r in got] == [float] * 4
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_integer_amplitudes(self):
        # one unit source against one unit estimate 10 degrees off, per
        # tone: a unit step over 10 degrees of 180
        assert rmse_amplitude([[1, 1]], [20.0], [[1, 1]], [30.0]) == (
            pytest.approx(math.sqrt(10.0)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            rmse_amplitude(np.ones((1, 2)), (10.0,), np.ones((1, 3)), (10.0,))
        with pytest.raises(ValueError):
            rmse_amplitude(np.ones((2, 3)), (10.0,), np.ones((1, 3)), (10.0,))

    def test_rejects_out_of_range(self):
        one = np.ones((1, 1))
        for bad in (180.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="outside"):
                rmse_amplitude(one, (bad,), one, (40.0,))
            with pytest.raises(ValueError, match="outside"):
                rmse_amplitude(one, (40.0,), one, (bad,))
