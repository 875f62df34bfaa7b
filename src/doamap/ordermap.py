"""Exact MAP selection of the number of sources, posterior variances, and AIC.

For each candidate dimension K the marginal likelihood of the data given the
fitted basis reduces, after integrating out both unknown variances, to the
probability that signal-plus-noise variance dominates projected noise
variance.  That probability is a finite dominance sum evaluated in log
domain, plus a prior term: the Stiefel-volume prior for PCA bases, or the
uniform-DOA prior (2*pi)^-K for steering bases picked from a spectrum.

Only the MAP order leaves a scan, so the scan is a branch and bound over K.
log I_p <= 0, so the score's closed form with log I_p = 0 bounds it from
above: the bound U_K runs the same floating-point operations on 0.0
instead of the computed log I_p (itself clamped to <= 0.0), and rounding
is monotone, so score <= U_K bit for bit.  The O(beta) kernel runs only
for orders whose bound can still beat the best exact score so far.

Both pipelines call that one branch and bound on every order's split,
each read from the covariance R = Y Y^H as a partial sum of energies:
PCA's eigenvalues, and a spectrum scan's energies of R on one QR of its
steering prefixes (subspace.prefix_energies), up to P', the last prefix
before the first rank-deficient one (coincident peaks).  No scan reads the
D x M data.  OrderPosterior.stats holds the splits a scan scored, and
log_ip the log I_p it computed on each; PCA's posterior at a chosen order
reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DominancePair, _log_q_from, double_moment, log_q_sum
from .subspace import EigenBasis, ProjectionStats, prefix_energies

__all__ = [
    "OrderPosterior",
    "PosteriorVariances",
    "log_stiefel_volume",
    "posterior_variances",
    "map_order_pca",
    "map_order_scan",
    "aic_order",
]


@dataclass(frozen=True)
class PosteriorVariances:
    ra_mean: float          # posterior mean signal-plus-noise variance
    sigma2_mean: float      # posterior mean noise variance
    tau_mean: float         # noise-to-signal percentage (sigma2_mean/D)/ra_mean


@dataclass(frozen=True)
class OrderPosterior:
    """Per-K log-scores, their bounds and energy splits, and the MAP order.

    log_scores[K] is the exact score of every order the scan scored and NaN
    for an order it pruned; log_score_bounds[K] is every order's exact
    closed form U_K, bit for bit, >= log_scores[K], so a pruned order lost
    to the MAP order by at least log_scores[k_map] - log_score_bounds[K].
    stats[K] is the split of R the scan scored at order K, indexed as
    log_scores, and log_ip[K] the log I_p(alpha, beta) it computed there,
    NaN where it computed none (a pruned order, K = 0), so
    posterior_variances(stats[K], D, log_ip[K]) is order K's posterior on
    that split.  A spectrum scan ends at its last full-rank prefix P' and
    lists the orders P' + 1..min(K_max, P) in rank_deficient_k.
    """

    log_scores: np.ndarray          # per order K, up to a K-independent constant
    log_score_bounds: np.ndarray    # closed-form upper bound on each score
    log_ip: np.ndarray              # log I_p(alpha, beta) of each scored order
    k_map: int
    stats: tuple                    # the ProjectionStats of each order
    rank_deficient_k: tuple = ()


def log_stiefel_volume(d, k):
    """log volume of {V in C^(D x K): V^H V = D I}, columns of norm sqrt(D)."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= K <= D, got K={k}, D={d}")
    log_r2 = 2.0 * math.log(math.sqrt(d))
    return float(
        sum(
            math.log(2.0) + i * (math.log(math.pi) + log_r2)
            - math.lgamma(i) - 0.5 * log_r2
            for i in range(d - k + 1, d + 1)
        )
    )


def posterior_variances(stats: ProjectionStats, d, log_ip=math.nan):
    """Posterior mean variances and the noise-to-signal percentage at one order.

    The exact means are the first moments of the inverse-gamma pair
    X = D*ra, Y = sigma2 conditioned on X >= Y, so they need alpha > 1 and
    beta > 1.  K = 0 (alpha = 0) is the convention sigma^2 ~
    inverse-gamma(DM, |Y|^2), tau = 1, no signal variance (nan).  log_ip is
    the order's log I_p(alpha, beta) when its scan scored it
    (OrderPosterior.log_ip); NaN, a pruned or unscanned order, computes it
    with one kernel call.
    """
    if stats.alpha == 0:
        sigma2 = stats.t / (stats.beta - 1)
        return PosteriorVariances(ra_mean=math.nan, sigma2_mean=sigma2,
                                  tau_mean=1.0)
    pair = DominancePair(stats.alpha, stats.beta, stats.s, stats.t, log_ip)
    ra = double_moment(pair, 1, "invgamma", "x") / d
    sigma2 = double_moment(pair, 1, "invgamma", "y")
    return PosteriorVariances(ra_mean=ra, sigma2_mean=sigma2,
                              tau_mean=sigma2 / d / ra)


def _exact_bound(st: ProjectionStats, prior):
    """Order K >= 1's exact score bound U_K + prior: the closed form on
    log I_p = 0.0, >= the score bit for bit."""
    return _log_q_from(0.0, st.alpha, st.beta, st.q) + prior


def _branch_and_bound(stats, priors, rank_deficient_k=()):
    """MAP order over log Q(alpha, beta, q) + priors[K] on the splits
    stats[K].

    Order 0 is the empty subspace (log Q = 0), whose bound 0.0 + priors[0]
    is its score, with no kernel call; every order K >= 1 is bounded by its
    exact U_K.  The orders are scored by log_q_sum in descending bound
    order (ties to smaller K) until a bound falls below the best score so
    far, k_map's (a tie to the smaller K).  An unscored order scores at
    most its bound, below that best, so k_map is the exact scores' argmax.
    """
    bounds = np.array([0.0 + priors[0], *(
        _exact_bound(st, prior) for st, prior in zip(stats[1:], priors[1:]))])
    n = len(bounds)
    log_scores = np.full(n, math.nan)
    log_ip = np.full(n, math.nan)
    log_scores[0] = bounds[0]
    best, k_map = -math.inf, 0
    for k in sorted(range(n), key=lambda k: (-bounds[k], k)):
        if bounds[k] < best:
            break
        if k:
            st = stats[k]
            log_q, log_ip[k] = log_q_sum(st.alpha, st.beta, st.q)
            log_scores[k] = log_q + priors[k]
        if log_scores[k] > best or log_scores[k] == best and k < k_map:
            best, k_map = log_scores[k], k
    return OrderPosterior(
        log_scores=log_scores,
        log_score_bounds=bounds,
        log_ip=log_ip,
        k_map=k_map,
        stats=tuple(stats),
        rank_deficient_k=rank_deficient_k,
    )


def _energy_stats(energies, norm2_y, d, m):
    """The splits of orders K = 0..len(energies) when order K captures the
    partial sum of energies[:K] of |Y|^2."""
    s = np.concatenate(([0.0], np.cumsum(energies)))
    return [ProjectionStats.from_energy(float(s[k]), norm2_y, k, d, m)
            for k in range(len(s))]


def map_order_pca(basis: EigenBasis, norm2_y, k_max, m):
    """MAP order for the PCA pipeline: eigenvector bases, Stiefel prior.

    The top-K eigenvectors of R = Y Y^H of the D x M data Y capture the
    top-K eigenvalue sum; norm2_y is |Y|^2, the data's total energy.
    """
    d = basis.eigvecs.shape[0]
    if k_max >= d:
        raise ValueError(f"K_max must be < D, got K_max={k_max}, D={d}")
    stats = _energy_stats(basis.eigvals[:k_max], norm2_y, d, m)
    priors = [-log_stiefel_volume(d, k) for k in range(k_max + 1)]
    return _branch_and_bound(stats, priors)


def map_order_scan(cov, steer_rows, k_max, m, norm2_y):
    """MAP order for spectrum pipelines: nested top-K steering prefixes.

    cov is R = Y Y^H of the D x M data Y and norm2_y is |Y|^2.  steer_rows
    is P x D, row i the steering vector of the i-th highest spectrum peak;
    prefix K is the first K rows, transposed, and P = 0 scores K = 0
    alone.  Order K's split is the partial sum of prefix_energies, read
    from R on one QR of the prefixes.  The DOA prior contributes
    -K*log(2*pi) for both the MUSIC and DTFT spectra.  The orders past the
    last full-rank prefix (coincident peaks) are not scored, only listed in
    rank_deficient_k.
    """
    v = steer_rows[:k_max].T
    stats = _energy_stats(prefix_energies(v, cov), norm2_y, v.shape[0], m)
    priors = [-k * math.log(2.0 * math.pi) for k in range(len(stats))]
    return _branch_and_bound(stats, priors, tuple(
        range(len(stats), v.shape[1] + 1)))


def aic_order(eigvals, m, k_max):
    """Eigenvalue-based AIC baseline for the number of signals.

    AIC(k) = 2*M*(D-k)*log(AM/GM of the D-k smallest eigenvalues)
             + 2*k*(2*D - k), minimized over k = 0..K_max (ties to smaller k).
    """
    lam = np.asarray(eigvals, dtype=float)
    d = lam.size
    # floor at 1e-300 lam[0], at least the smallest normal float, so
    # every log below is finite
    lam = np.maximum(lam, max(1e-300 * lam[0], np.finfo(float).tiny))
    k_max = min(k_max, d - 1)
    log_lam = np.log(lam)
    crit = np.empty(k_max + 1)
    for k in range(k_max + 1):
        # each tail mean as np.mean computes it: the pairwise sum / size
        log_ratio = (math.log(float(lam[k:].sum()) / (d - k))
                     - float(log_lam[k:].sum()) / (d - k))
        crit[k] = 2.0 * m * (d - k) * log_ratio + 2.0 * k * (2 * d - k)
    return int(np.argmin(crit))
