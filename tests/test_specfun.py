"""Oracle and identity tests for the special-function layer.

The incomplete-beta kernel is held to the per-term formula within a bound
fixed in advance, not to its bits; see `_assert_matches_oracle`."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, gammaln, logsumexp
from scipy.stats import gamma as gamma_dist
from scipy.stats import invgamma as invgamma_dist

from doamap import specfun
from doamap.ordermap import posterior_variances
from doamap.specfun import (
    DominancePair,
    dominance_frequency,
    double_moment,
    double_pdf,
    log_q_sum,
    log_reg_inc_beta,
    prob_dominance,
    reg_inc_beta,
)
from doamap.subspace import ProjectionStats

# validate_distributions' p grid, the only array-p caller
P_GRID = np.linspace(0.01, 0.99, 99)


def _oracle_log_terms(p_arr, n, m):
    """All m log-terms of I_p(n, m), gammaln per term, one row per p."""
    i = np.arange(m, dtype=float)
    log_terms = gammaln(n + i) - gammaln(i + 1) - gammaln(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = log_terms + n * np.log(p_arr)[..., None]
        log_terms += i * np.log1p(-p_arr)[..., None]
    return log_terms


def _oracle_log_reg_inc_beta(p, n, m):
    """The per-term formula: gammaln per term plus scipy's logsumexp over
    all m terms.  `_assert_matches_oracle` holds the kernel to it."""
    p_arr = np.asarray(p, dtype=float)
    log_terms = _oracle_log_terms(p_arr, n, m)
    out = np.minimum(logsumexp(log_terms, axis=-1), 0.0)
    out = np.where(p_arr == 1.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


# the kernel's bound against the per-term formula, in units of
# eps * max(1, |row max|); worst seen 1.85 over the paper degree pairs x 10
# edge p, 3,000 random (n, m, p) and the array-p grids
ORACLE_ULPS = 8


def _assert_matches_oracle(got, p, n, m):
    """The kernel's log I_p equals the per-term formula's at +-inf and at
    p = 0 and 1, and is elsewhere within ORACLE_ULPS * eps * max(1, |row
    max|) of it, the row max taken over the formula's m log-terms: a
    max-shifted log-sum-exp is accurate to a few ulps of that max
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021)."""
    p_arr = np.asarray(p, dtype=float)
    got = np.asarray(got)
    want = np.asarray(_oracle_log_reg_inc_beta(p_arr, n, m))
    assert got.shape == want.shape
    exact = np.isinf(want) | (p_arr == 0.0) | (p_arr == 1.0)
    assert np.array_equal(got[exact], want[exact])
    row_max = np.max(_oracle_log_terms(p_arr[~exact], n, m), axis=-1)
    tol = ORACLE_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(row_max))
    assert np.all(np.abs(got[~exact] - want[~exact]) <= tol)


def _oracle_gamma_tails(n, x):
    """40-digit regularized upper and lower incomplete gamma Q(n, x), P(n, x),
    each integrated directly."""
    with mpmath.workdps(40):
        upper = mpmath.gammainc(n, x, mpmath.inf, regularized=True)
        lower = mpmath.gammainc(n, 0, x, regularized=True)
    return upper, lower


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert reg_inc_beta(p, 1, 1) == pytest.approx(p, abs=1e-15)

    def test_symmetry_at_half(self):
        for n in (1, 2, 5, 17):
            assert reg_inc_beta(0.5, n, n) == pytest.approx(0.5, rel=1e-13)

    def test_binomial_tail_oracle(self):
        # I_p(a,b) = Pr[Bin(a+b-1, p) >= a]; hand value (6+4+1)/16
        assert reg_inc_beta(0.5, 2, 3) == pytest.approx(11.0 / 16.0, rel=1e-14)

    def test_complement_identity_grid(self):
        p = np.linspace(0.01, 0.99, 99)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
            for m in (1, 2, 4, 8, 16, 32, 64):
                err = np.abs(reg_inc_beta(p, n, m) + reg_inc_beta(1 - p, m, n) - 1.0)
                assert np.max(err) <= 1e-12, (n, m)

    def test_partial_sums_monotone(self):
        # the negative-binomial tail converges to I_p from below
        n, p = 4, 0.35
        values = [reg_inc_beta(p, n, m) for m in range(1, 40)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.2, 2, 2)
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2, 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            log_reg_inc_beta(math.nan, 2, 3)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            log_reg_inc_beta(np.array([0.2, math.nan]), 2, 3)


class TestKernelBitIdentity:
    """The table-and-window kernel is held to the per-term formula by
    `_assert_matches_oracle`; the densities' incomplete gamma tail factors
    are held to a 40-digit oracle."""

    @pytest.mark.parametrize("n, m", [(40960, 368640), (2048, 407552), (512, 15872)])
    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0])
    def test_paper_degrees(self, n, m, p):
        _assert_matches_oracle(log_reg_inc_beta(p, n, m), p, n, m)

    @pytest.mark.parametrize("n, m", [(1, 1), (8, 2), (13, 64), (64, 7), (512, 15872)])
    def test_array_p(self, n, m):
        for grid in (P_GRID, 1.0 - P_GRID, np.array([0.0, 0.4, 1.0])):
            got = log_reg_inc_beta(grid, n, m)
            assert got.shape == grid.shape
            _assert_matches_oracle(got, grid, n, m)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200, 3000])
    @pytest.mark.parametrize("x", [1e-300, 1e-6, 0.4, 3.0, 45.0, 800.0, 1e6])
    def test_upper_series_and_lower_gamma(self, n, x):
        # the densities' tail factors are held to a 40-digit oracle rather
        # than to bits: the upper tail for X, the lower for Y, each within
        # 1e-12 relative (worst on this grid 6.9e-14, P(200, 45)), and
        # exactly 0 where the true value is below the smallest normal float.
        # The lower tail at x = 1e-300 and 1e-6 is where 1 - Q cancels.
        for got, want in zip((specfun.gammaincc(n, x), specfun.gammainc(n, x)),
                             _oracle_gamma_tails(n, x)):
            if want < sys.float_info.min:
                assert got == 0.0
            else:
                assert abs(got / want - 1) <= 1e-12

    def test_table_growth_order(self):
        # large, then small, then larger than any table so far: growing the
        # table must not change the bits of entries it already held
        large = log_reg_inc_beta(0.3, 40960, 368640)
        small = log_reg_inc_beta(0.3, 5, 9)
        before = len(specfun._LOG_GAMMA)
        n, m = 1000, before + 5000
        grown = log_reg_inc_beta(0.999, n, m)
        assert len(specfun._LOG_GAMMA) > before
        _assert_matches_oracle(grown, 0.999, n, m)
        assert log_reg_inc_beta(0.3, 40960, 368640) == large
        assert log_reg_inc_beta(0.3, 5, 9) == small
        _assert_matches_oracle(large, 0.3, 40960, 368640)
        _assert_matches_oracle(small, 0.3, 5, 9)

    @given(n=st.integers(1, 40_000), m=st.integers(1, 400_000),
           p=st.floats(0.0, 1.0))
    def test_property_matches_oracle(self, n, m, p):
        _assert_matches_oracle(log_reg_inc_beta(p, n, m), p, n, m)


# (n, m, p) of a paper-draw kernel call, captured from a traced draw
PAPER_CALL = (20480, 389120, 0.0647)


class TestKernelWindow:
    """The kernel sums only `_term_window`'s terms, held to the oracle."""

    @pytest.mark.parametrize("p", [0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("n, m", [(20480, 389120), (1, 400_000)])
    def test_extreme_p(self, n, m, p):
        _assert_matches_oracle(log_reg_inc_beta(p, n, m), p, n, m)

    @pytest.mark.parametrize("m", [specfun._GRID - 1, specfun._GRID, specfun._GRID + 1])
    @pytest.mark.parametrize("n, p", [(1, 1.0 - 2.0**-53), (3, 0.5), (200, 0.02)])
    def test_grid_threshold(self, n, m, p):
        # up to _GRID terms the window is the full range; one more term
        # switches the grid on, and a steep row then shrinks the window
        lo, hi = specfun._term_window(np.asarray(p), n, m)
        if m <= specfun._GRID:
            assert (lo, hi) == (0, m)
        elif n == 1:
            assert hi - lo < m // 4
        _assert_matches_oracle(log_reg_inc_beta(p, n, m), p, n, m)

    def test_array_p_disjoint_windows(self):
        n, m, _ = PAPER_CALL
        p = np.array([0.9, 0.0647])
        (lo0, hi0), (lo1, hi1) = (specfun._term_window(np.asarray(x), n, m) for x in p)
        assert hi0 < lo1
        assert specfun._term_window(p, n, m) == (lo0, hi1)
        _assert_matches_oracle(log_reg_inc_beta(p, n, m), p, n, m)

    def test_underflow_regime(self):
        # I_p ~ exp(-2e5): every term underflows, only the log domain holds it
        n, m, _ = PAPER_CALL
        got = log_reg_inc_beta(1e-6, n, m)
        assert -2.1e5 < got < -1.9e5
        _assert_matches_oracle(got, 1e-6, n, m)

    def test_paper_call_skips_most_terms(self):
        # guards the work saving: a kernel back on the full range fails here
        n, m, p = PAPER_CALL
        lo, hi = specfun._term_window(np.asarray(p), n, m)
        assert hi - lo < m / 4

    @given(n=st.integers(1, 40_000), m=st.integers(1, 400_000),
           p=st.floats(0.0, 1.0))
    def test_property_terms_outside_window_underflow(self, n, m, p):
        lo, hi = specfun._term_window(np.asarray(p), n, m)
        assert 0 <= lo < hi <= m
        t = _oracle_log_terms(np.asarray(p), n, m)
        outside = np.concatenate([t[:lo], t[hi:]])
        assert np.all(outside - np.max(t) < -specfun._MARGIN)


class TestProbDominance:
    def test_exponential_race(self):
        pair = DominancePair(alpha=1, beta=1, s_x=2.0, s_y=3.0)
        assert prob_dominance(pair) == pytest.approx(2.0 / 5.0, rel=1e-14)

    def test_geometric_tail(self):
        pair = DominancePair(alpha=1, beta=3, s_x=1.0, s_y=1.0)
        assert prob_dominance(pair) == pytest.approx(1.0 - 0.5**3, rel=1e-14)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(20240817)
        pair = DominancePair(alpha=3, beta=5, s_x=1.0, s_y=2.0)
        n = 100_000
        freq = dominance_frequency(pair, n, rng)
        ip = prob_dominance(pair)
        se = math.sqrt(ip * (1 - ip) / n)
        assert abs(freq - ip) <= 3 * se


class TestLogQSum:
    def test_rejects_empty_subspace(self):
        # the order scan scores K = 0 itself; alpha < 1 is not a gamma pair
        with pytest.raises(ValueError):
            log_q_sum(0, 16, 0.5)

    def test_hand_value(self):
        # (q^-2 + q^-1) / 2 = 3 at q = 1/2; equals 0.75 / (1 * 0.25) cross-form
        assert log_q_sum(1, 2, 0.5)[0] == pytest.approx(math.log(3.0), rel=1e-14)

    def test_exact_rational_oracle(self):
        alpha, beta, q = 8, 24, Fraction(3, 10)
        total = Fraction(0)
        for k in range(beta):
            coef = (
                Fraction(math.factorial(beta - 1) * math.factorial(alpha + k - 1),
                         math.factorial(k) * math.factorial(alpha + beta - 1))
            )
            total += coef / q ** (beta - k)
        expected = math.log(total.numerator) - math.log(total.denominator)
        assert log_q_sum(alpha, beta, 0.3)[0] == pytest.approx(expected, rel=1e-12)

    def test_cross_form_identity(self):
        # exp(log_q) * p * q * B_p(a,b) must equal I_p(a,b); scipy's betainc
        # is the reference, so the check does not read the kernel log_q_sum uses
        for a in (1, 2, 5, 11, 21, 30):
            for b in (1, 3, 9, 30):
                for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                    q = 1.0 - p
                    log_bp = (
                        (a - 1) * math.log(p) + (b - 1) * math.log(q)
                        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
                    )
                    lhs = log_q_sum(a, b, q)[0] + math.log(p * q) + log_bp
                    rhs = math.log(betainc(a, b, p))
                    assert abs(math.expm1(lhs - rhs)) <= 1e-8, (a, b, p)

    @pytest.mark.parametrize("alpha, beta", [
        (1, 1), (3, 7), (40, 360), (512, 15872), (20480, 389120), (40960, 368640),
    ])
    @pytest.mark.parametrize("q", [0.9, 0.3, 0.05, 1e-3])
    def test_direct_finite_sum_oracle(self, alpha, beta, q):
        # Q summed term by term up to paper degrees (alpha + beta = 409,600)
        i = np.arange(beta)
        direct = float(logsumexp(
            gammaln(beta) + gammaln(alpha + i) - gammaln(i + 1)
            - gammaln(alpha + beta) - (beta - i) * math.log(q)))
        assert abs(log_q_sum(alpha, beta, q)[0] - direct) <= 1e-14 * (alpha + beta)

    def test_monotone_in_p(self):
        # more signal energy can only raise the dominance score
        p_grid = np.linspace(0.05, 0.95, 37)
        vals = [log_q_sum(6, 10, 1.0 - p)[0] for p in p_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            log_q_sum(2, 3, 0.0)
        with pytest.raises(ValueError):
            log_q_sum(2, 3, 1.0)

    @given(alpha=st.integers(1, 400_000), beta=st.integers(1, 400_000),
           q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(alpha=3, beta=5, q=1e-300)  # p = 1 - q rounds to 1: log I_p = 0
    @example(alpha=20480, beta=389120, q=0.0647)
    def test_property_closed_form_bounds_score(self, alpha, beta, q):
        # the score's arithmetic on 0.0 >= log I_p rounds to no less, bit
        # for bit, and to the same bits where log I_p is 0
        bound = specfun._log_q_from(0.0, alpha, beta, q)
        score, log_ip = log_q_sum(alpha, beta, q)
        assert score <= bound
        # the log I_p handed back is the kernel's, bit for bit
        assert log_ip == log_reg_inc_beta(1.0 - q, alpha, beta)
        if log_ip == 0.0:
            assert score == bound


# an unknown family or variate; 'lower' and 'upper' name no variate
BAD_SELECTORS = [("beta", "x"), ("gamma", "z"), ("gamma", "lower"),
                 ("invgamma", "upper"), ("invgamma", "lower"), ("gamma", "upper")]


def _joint_marginal_oracle(x, pair, family, which):
    """Marginal density built by numerically integrating the joint density."""
    if family == "gamma":
        fx = gamma_dist(pair.alpha, scale=1.0 / pair.s_x).pdf
        fy = gamma_dist(pair.beta, scale=1.0 / pair.s_y).pdf
    else:
        fx = invgamma_dist(pair.alpha, scale=pair.s_x).pdf
        fy = invgamma_dist(pair.beta, scale=pair.s_y).pdf
    norm = prob_dominance(pair)
    if family == "gamma":
        if which == "x":  # X marginal on {X <= Y}
            val, _ = quad(lambda y: fx(x) * fy(y), x, np.inf)
        else:             # Y marginal
            val, _ = quad(lambda u: fx(u) * fy(x), 0.0, x)
    else:
        if which == "x":  # X marginal on {X >= Y}
            val, _ = quad(lambda y: fx(x) * fy(y), 0.0, x)
        else:             # Y marginal
            val, _ = quad(lambda u: fx(u) * fy(x), x, np.inf)
    return val / norm


def _mp_double_pdf(x, pair, family, which):
    """40-digit closed form: the variate's (inverse-)gamma density times the
    other variate's tail probability at x, over the normaliser I_p."""
    with mpmath.workdps(40):
        a, b = pair.alpha, pair.beta
        sx, sy, x = mpmath.mpf(pair.s_x), mpmath.mpf(pair.s_y), mpmath.mpf(x)
        ip = mpmath.betainc(a, b, 0, sx / (sx + sy), regularized=True)
        shape, rate = (a, sx) if which == "x" else (b, sy)
        if family == "gamma":
            f = rate**shape * x**(shape - 1) * mpmath.exp(-rate * x)
            u = x
        else:
            f = rate**shape * x**(-shape - 1) * mpmath.exp(-rate / x)
            u = 1 / x
        f /= mpmath.gamma(shape)
        # gamma X <= gamma Y (inverse-gamma X >= Y) at u: Y's upper tail for
        # the X density, X's lower tail for the Y density
        if which == "x":
            tail = mpmath.gammainc(b, sy * u, mpmath.inf, regularized=True)
        else:
            tail = mpmath.gammainc(a, 0, sx * u, regularized=True)
        return f * tail / ip


# the (alpha, beta, s_x, s_y) pairs of validate_distributions' pdf checks
SUITE_PAIRS = [(2, 3, 1.0, 1.0), (1, 4, 0.5, 2.0), (5, 2, 2.0, 1.0)]
PDF_REL = 1e-12


class TestDoublePdfs:
    PAIR = DominancePair(alpha=2, beta=3, s_x=1.0, s_y=1.0)

    @pytest.mark.parametrize("pair", SUITE_PAIRS, ids=[f"{a}-{b}" for a, b, *_ in SUITE_PAIRS])
    @pytest.mark.parametrize("family", ["gamma", "invgamma"])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_matches_40_digit_closed_form(self, pair, family, which):
        # deep lower to deep upper tail; below the smallest normal float the
        # density may read 0
        pair = DominancePair(*pair)
        for x in np.logspace(-6, 6, 49).tolist():
            got = double_pdf(x, pair, family, which)
            want = _mp_double_pdf(x, pair, family, which)
            if want < sys.float_info.min:
                assert got < sys.float_info.min, x
            else:
                assert abs(got / want - 1) <= PDF_REL, x

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_far_tails_are_zero(self, which):
        # the inverse-gamma density at 5e-324 is the gamma density at
        # 1/x = inf; warnings are errors here, so inf - inf would fail
        for x in (1e300, math.inf):
            assert double_pdf(x, self.PAIR, "gamma", which) == 0.0
        for x in (1e300, 5e-324):
            assert double_pdf(x, self.PAIR, "invgamma", which) == 0.0

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_gamma_normalization(self, which):
        total, _ = quad(lambda x: double_pdf(x, self.PAIR, "gamma", which),
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_invgamma_normalization(self, which):
        total, _ = quad(lambda x: double_pdf(x, self.PAIR, "invgamma", which),
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gamma_point_value_vs_joint_oracle(self):
        for which in ("x", "y"):
            expected = _joint_marginal_oracle(0.7, self.PAIR, "gamma", which)
            assert double_pdf(0.7, self.PAIR, "gamma", which) == pytest.approx(
                expected, rel=1e-8
            )

    def test_invgamma_point_value_vs_joint_oracle(self):
        for which in ("x", "y"):
            expected = _joint_marginal_oracle(1.3, self.PAIR, "invgamma", which)
            assert double_pdf(1.3, self.PAIR, "invgamma", which) == pytest.approx(
                expected, rel=1e-8
            )

    def test_unconstrained_limit_lower_gamma(self):
        # s_y -> 0 makes Y huge, so X <= Y holds almost surely
        pair = DominancePair(alpha=3, beta=2, s_x=1.5, s_y=1e-9)
        plain = gamma_dist(3, scale=1.0 / 1.5).pdf
        for x in (0.2, 1.0, 3.5):
            assert double_pdf(x, pair, "gamma", "x") == pytest.approx(
                plain(x), rel=1e-6
            )

    def test_unconstrained_limit_upper_invgamma(self):
        # s_y -> 0 makes Y tiny, so X >= Y holds almost surely
        pair = DominancePair(alpha=3, beta=2, s_x=1.5, s_y=1e-9)
        plain = invgamma_dist(3, scale=1.5).pdf
        for x in (0.2, 1.0, 3.5):
            assert double_pdf(x, pair, "invgamma", "x") == pytest.approx(
                plain(x), rel=1e-6
            )

    def test_invgamma_is_reciprocal_transform(self):
        # X >= Y for inverse-gammas is 1/X <= 1/Y for the gamma pair
        for x in (0.4, 1.0, 2.7):
            lhs = double_pdf(x, self.PAIR, "invgamma", "x")
            rhs = double_pdf(1.0 / x, self.PAIR, "gamma", "x") / x**2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("family, which", BAD_SELECTORS)
    def test_rejects_unknown_selector(self, family, which):
        with pytest.raises(ValueError, match="family must|which must"):
            double_pdf(1.0, self.PAIR, family, which)

    @pytest.mark.parametrize("family", ["gamma", "invgamma"])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_x(self, family, x):
        for which in ("x", "y"):
            with pytest.raises(ValueError, match="x must be positive"):
                double_pdf(x, self.PAIR, family, which)


class TestDoubleMoments:
    def test_unconstrained_invgamma_mean(self):
        pair = DominancePair(alpha=5, beta=2, s_x=2.0, s_y=1e-9)
        assert double_moment(pair, 1, "invgamma", "x") == pytest.approx(
            2.0 / (5 - 1), rel=1e-6
        )

    def test_gamma_mean_vs_quadrature(self):
        pair = DominancePair(alpha=2, beta=2, s_x=1.0, s_y=1.0)
        expected, _ = quad(lambda x: x * double_pdf(x, pair, "gamma", "x"),
                           0.0, np.inf, limit=300)
        assert double_moment(pair, 1, "gamma", "x") == pytest.approx(
            expected, rel=1e-6
        )

    def test_second_moment_dominates_mean_squared(self):
        for a, b, sx, sy in ((2, 2, 1, 1), (3, 5, 0.5, 2.0), (8, 4, 2.0, 1.0)):
            pair = DominancePair(alpha=a, beta=b, s_x=sx, s_y=sy)
            m1 = double_moment(pair, 1, "gamma", "x")
            m2 = double_moment(pair, 2, "gamma", "x")
            assert m2 >= m1**2

    def test_invgamma_moment_at_paper_degrees(self):
        # Gamma(beta-1)/Gamma(beta) is 1/(beta-1) exactly, not a gammaln
        # difference that loses ~1e-9 relative at these degrees
        a, b, s, t = 40960, 368640, 1e5, 3.9e5
        pair = DominancePair(alpha=a, beta=b, s_x=s, s_y=t)
        expected = t / (b - 1) * math.exp(
            log_reg_inc_beta(pair.p, a, b - 1) - log_reg_inc_beta(pair.p, a, b))
        mean = double_moment(pair, 1, "invgamma", "y")
        assert mean == pytest.approx(expected, rel=1e-14)
        stats = ProjectionStats(s=s, t=t, alpha=a, beta=b)
        assert posterior_variances(stats, 100).sigma2_mean == mean

    def test_invgamma_moment_needs_shape(self):
        pair = DominancePair(alpha=2, beta=3, s_x=1.0, s_y=1.0)
        with pytest.raises(ValueError):
            double_moment(pair, 2, "invgamma", "x")

    @pytest.mark.parametrize("family, which", BAD_SELECTORS)
    def test_rejects_unknown_selector(self, family, which):
        pair = DominancePair(alpha=2, beta=3, s_x=1.0, s_y=1.0)
        with pytest.raises(ValueError, match="family must|which must"):
            double_moment(pair, 1, family, which)


class TestSampler:
    def test_deterministic_given_seed(self):
        pair = DominancePair(alpha=3, beta=2, s_x=1.0, s_y=2.0)
        a = dominance_frequency(pair, 1000, np.random.default_rng(99))
        b = dominance_frequency(pair, 1000, np.random.default_rng(99))
        assert a == b


class TestValidation:
    def test_pair_invariants(self):
        pair = DominancePair(alpha=4, beta=9, s_x=0.3, s_y=1.7)
        assert pair.p + pair.q == 1.0
        with pytest.raises(ValueError):
            DominancePair(alpha=0, beta=1, s_x=1.0, s_y=1.0)
        with pytest.raises(ValueError):
            DominancePair(alpha=1, beta=1, s_x=-1.0, s_y=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rates_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="s_x must be finite and positive"):
            DominancePair(alpha=3, beta=4, s_x=bad, s_y=1.0)
        with pytest.raises(ValueError, match="s_y must be finite and positive"):
            DominancePair(alpha=3, beta=4, s_x=1.0, s_y=bad)
