"""40-digit oracle for the posterior of named desk draws.

For each draw the order scans run as in `run_single`, and each of the pca,
music and dtft scans is fitted at its MAP order and at K = 3.  From the
fit's float64 energy split (s, t) and degrees (alpha, beta), mpmath at 40
digits sums the negative-binomial series of I_p(alpha, beta),
I_p(alpha - 1, beta) and I_p(alpha, beta - 1), p = s / (s + t), term by
term: t_0 = p^alpha, t_{i+1} = t_i * q * (alpha + i) / (i + 1).
(`mpmath.betainc` does not converge at these degrees.)  The package's
log I_p, ra, sigma^2 and tau are compared with the oracle's.  So is every
order K that a scan scored: its log score minus its prior against the
40-digit log I_p - alpha log p - beta log q + log B(alpha, beta) at the
split it was scored from, PCA's the posterior's and a spectrum scan's
the partial sum of the energies of R on its prefixes.  K = 0 has no I_p
and is not fitted or scored here.

The Ky Fan check holds each spectrum scan's captured energies below PCA's
on the same draws, and on one draw of three coincident sources: no
K-dimensional subspace captures more of R than its top K eigenvectors
(Ky Fan, PNAS 35(11), 1949), so s_K of the scan's prefix K is at most the
sum of R's K largest eigenvalues, and at equal degrees the order score
log Q, increasing in s, is at most PCA's.  Its allowance, KY_FAN_ULPS
units of eps |R|_2 per summed term, was fixed before the check first ran.

The bounds were fixed above the kernel's errors when this module was
written: log I_p off by up to 7.6e-12 (absolute), ra and tau by up to
7.0e-12 relative (0:6 music, K = 10), sigma^2 by up to 8.9e-16 relative.
The log score bound was fixed later, above a measured worst of 2.4e-11
absolute (0:6 music, K = 10); scores near 6.4e4 (30 dB) are off by
1.7e-11, about two ulps.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from doamap.arraysim import synth_freq
from doamap.bench import ExperimentConfig, spectrum_peaks
from doamap.ordermap import (
    ProjectionStats,
    log_stiefel_volume,
    map_order_pca,
    map_order_scan,
    posterior_variances,
)
from doamap.specfun import DominancePair, log_q_sum
from doamap.subspace import (
    eigendecompose,
    prefix_energies,
    sample_covariance,
)
from scenarios import order_splits, y_split

# the desk-sweep draws (grid index, run index): -30, 0 and 30 dB, overlap 0
CONFIG = ExperimentConfig(overlap=(0.0, 0.999))
DRAWS = ((0, 6), (12, 3), (24, 6), (24, 9))
LOG_IP_ABS = 2e-11
RA_TAU_REL = 2e-11
SIGMA2_REL = 1e-14
LOG_SCORE_ABS = 5e-11
# three sources at one DOA, the 30 dB draw of its sweep
COINCIDENT = ExperimentConfig(doa_deg=(60.0, 60.0, 60.0))
KY_FAN_DRAWS = (*((CONFIG, gi, ri) for gi, ri in DRAWS), (COINCIDENT, 12, 0))
KY_FAN_ULPS = 4


@functools.cache
def _draw(gi, ri, cfg=CONFIG):
    """(Y, R, |Y|^2, eigenbasis, {source: peak rows}) of that sweep task's
    run_single."""
    scenario = cfg.scenarios()[gi]
    y = synth_freq(scenario, rng=np.random.default_rng([cfg.master_seed, gi, ri]))
    cov = sample_covariance(y)
    basis = eigendecompose(cov)
    norm2_y = float(np.sum(np.abs(y) ** 2))
    grid = np.arange(0.0, 180.0, cfg.grid_step_deg)
    peaks = spectrum_peaks(cov, basis, grid, cfg.k_max, {"music", "dtft"})
    return (y, cov, norm2_y, basis,
            {source: rows for source, (_angles, rows) in peaks.items()})


@functools.cache
def _posteriors(gi, ri, cfg=CONFIG):
    """{source: OrderPosterior} of the pca, music and dtft scans, from the
    draw, spectra and scans of that sweep task's run_single."""
    _y, cov, norm2_y, basis, peaks = _draw(gi, ri, cfg)
    return {
        "pca": map_order_pca(basis, norm2_y, cfg.k_max, cfg.m),
        **{source: map_order_scan(cov, rows, cfg.k_max, cfg.m, norm2_y)
           for source, rows in peaks.items()},
    }


def _scan_splits(gi, ri):
    """{source: the splits each scan scored}: PCA's posterior splits, and
    a spectrum scan's partial sums of the energies of R on its prefixes."""
    _y, cov, norm2_y, _basis, peaks = _draw(gi, ri)
    splits = {"pca": order_splits(_posteriors(gi, ri)["pca"], norm2_y,
                                  CONFIG.d, CONFIG.m)}
    for source, rows in peaks.items():
        partial = np.cumsum(prefix_energies(rows[:CONFIG.k_max].T, cov))
        splits[source] = [
            ProjectionStats.from_energy(float(partial[k - 1]) if k else 0.0,
                                        norm2_y, k, CONFIG.d, CONFIG.m)
            for k in range(len(partial) + 1)]
    return splits


def _fits(gi, ri):
    """{(source, K): ProjectionStats} at each scan's MAP order and at K = 3:
    PCA's scan's split, and a spectrum's split of Y on the prefix, as
    run_single fits them."""
    y, _cov, norm2_y, _basis, peaks = _draw(gi, ri)
    return {(source, k): (order_splits(post, norm2_y, CONFIG.d, CONFIG.m)[k]
                          if source == "pca"
                          else y_split(y, peaks[source][:k].T, CONFIG.m))
            for source, post in _posteriors(gi, ri).items()
            for k in (post.k_map, 3) if k > 0}


def _scored(gi, ri):
    """{(source, K): (log score - log prior, ProjectionStats)} of every
    order K > 0 that a scan scored (a pruned order's score is NaN), with
    the split it was scored from."""
    d = CONFIG.d
    prior = {"pca": lambda k: -log_stiefel_volume(d, k),
             "music": lambda k: -k * math.log(2.0 * math.pi),
             "dtft": lambda k: -k * math.log(2.0 * math.pi)}
    splits = _scan_splits(gi, ri)
    return {(source, k): (float(post.log_scores[k]) - prior[source](k),
                          splits[source][k])
            for source, post in _posteriors(gi, ri).items()
            for k in range(1, len(post.log_scores))
            if not math.isnan(post.log_scores[k])}


@functools.cache
def _oracle(s, t, alpha, beta):
    """(log I_p, D*ra, sigma^2, log Q) from 40-digit sums of the three
    series; log Q = log I_p - alpha log p - beta log q + log B(alpha, beta)
    is the order score without its prior."""
    with mpmath.workdps(40):
        s, t = mpmath.mpf(s), mpmath.mpf(t)
        p, q = s / (s + t), t / (s + t)
        # t_i of I_p(alpha, beta) and of I_p(alpha - 1, beta)
        term, term_a = p ** alpha, p ** (alpha - 1)
        ip = ip_a = mpmath.mpf(0)
        for i in range(beta):
            if i == beta - 1:
                ip_b = ip  # I_p(alpha, beta - 1) stops one term short
            ip += term
            ip_a += term_a
            step = q / (i + 1)
            term *= step * (alpha + i)
            term_a *= step * (alpha - 1 + i)
        d_ra = s / (alpha - 1) * ip_a / ip
        sigma2 = t / (beta - 1) * ip_b / ip
        log_q = (mpmath.log(ip) - alpha * mpmath.log(p) - beta * mpmath.log(q)
                 + mpmath.loggamma(alpha) + mpmath.loggamma(beta)
                 - mpmath.loggamma(alpha + beta))
        return float(mpmath.log(ip)), d_ra, sigma2, log_q


@pytest.mark.parametrize("draw", DRAWS, ids=[f"{gi}:{ri}" for gi, ri in DRAWS])
def test_posterior_matches_40_digit_sums(draw):
    d = CONFIG.d
    for (source, k), st in _fits(*draw).items():
        log_ip, d_ra, sigma2, _ = _oracle(st.s, st.t, st.alpha, st.beta)
        where = f"{source} K={k}"
        got_log_ip = DominancePair(st.alpha, st.beta, st.s, st.t).log_ip
        assert abs(got_log_ip - log_ip) <= LOG_IP_ABS, where
        pv = posterior_variances(st, d)
        ra = d_ra / d
        tau = sigma2 / d / ra
        assert abs(mpmath.mpf(pv.ra_mean) / ra - 1) <= RA_TAU_REL, where
        assert abs(mpmath.mpf(pv.tau_mean) / tau - 1) <= RA_TAU_REL, where
        assert abs(mpmath.mpf(pv.sigma2_mean) / sigma2 - 1) <= SIGMA2_REL, where


@pytest.mark.parametrize("draw", DRAWS, ids=[f"{gi}:{ri}" for gi, ri in DRAWS])
def test_map_log_scores_match_40_digit_sums(draw):
    scored = _scored(*draw)
    assert scored
    for (source, k), (got, st) in scored.items():
        log_q = _oracle(st.s, st.t, st.alpha, st.beta)[3]
        assert abs(got - log_q) <= LOG_SCORE_ABS, f"{source} K={k}"


@pytest.mark.parametrize(
    "cfg, gi, ri", KY_FAN_DRAWS,
    ids=[f"{'coincident ' if cfg is COINCIDENT else ''}{gi}:{ri}"
         for cfg, gi, ri in KY_FAN_DRAWS])
def test_scan_energies_within_ky_fan_bound(cfg, gi, ri):
    posts = _posteriors(gi, ri, cfg)
    pca = posts["pca"]
    # |R|_2 is R's largest eigenvalue, R positive semidefinite
    _y, _cov, norm2_y, basis, _peaks = _draw(gi, ri, cfg)
    slack = KY_FAN_ULPS * np.finfo(float).eps * basis.eigvals[0]
    for source in ("music", "dtft"):
        scan = posts[source]
        for k in range(1, len(scan.s)):  # every K <= P'
            where = f"{source} K={k}"
            assert scan.s[k] <= pca.s[k] + k * slack, where
            if not (math.isnan(scan.log_scores[k])
                    or math.isnan(pca.log_scores[k])):
                got, want = (
                    log_q_sum(st.alpha, st.beta, st.q)[0]
                    for st in (order_splits(post, norm2_y, cfg.d, cfg.m)[k]
                               for post in (scan, pca)))
                assert got <= want, where
