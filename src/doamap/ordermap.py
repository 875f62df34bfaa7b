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
for orders whose bound can still beat the best exact score so far, and
the log I_p each scored order computed is kept for its posterior moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DominancePair, _log_q_from, double_moment, log_q_sum
from .subspace import EigenBasis, ProjectionStats, projection_stats

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
    """Per-K log-scores, their bounds and energy splits, and the MAP order;
    a caller that picks an order K gets its variances from
    posterior_variances(stats_per_k[K], D, log_ip[K]).

    log_scores[K] is the exact score of every order the scan scored and NaN
    for an order it pruned; log_score_bounds[K] >= log_scores[K] for every
    K, so a pruned order lost to the MAP order by at least
    log_scores[k_map] - log_score_bounds[K].  Both are -inf at a
    rank-deficient prefix.  log_ip[K] is the log I_p(alpha, beta) that
    scored order K computed, NaN where no kernel call scored it (a pruned
    order, K = 0, a rank-deficient prefix).
    """

    log_scores: np.ndarray          # K = 0..K_max, up to a K-independent constant
    log_score_bounds: np.ndarray    # closed-form upper bound on each score
    log_ip: np.ndarray              # log I_p(alpha, beta) of each scored order
    k_map: int
    stats_per_k: list
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
    inverse-gamma(DM, |Y|^2), tau = 1, no signal variance (nan).  None, a
    scan's rank-deficient prefix, has no posterior.  log_ip is the order's
    log I_p(alpha, beta) when its scan scored it (OrderPosterior.log_ip);
    NaN, a pruned or unscanned order, computes it with one kernel call.
    """
    if stats is None:
        raise ValueError("steering prefix is rank deficient: no posterior")
    if stats.alpha == 0:
        sigma2 = stats.t / (stats.beta - 1)
        return PosteriorVariances(ra_mean=math.nan, sigma2_mean=sigma2,
                                  tau_mean=1.0)
    pair = DominancePair(stats.alpha, stats.beta, stats.s, stats.t, log_ip)
    ra = double_moment(pair, 1, "invgamma", "x") / d
    sigma2 = double_moment(pair, 1, "invgamma", "y")
    return PosteriorVariances(ra_mean=ra, sigma2_mean=sigma2,
                              tau_mean=sigma2 / d / ra)


def _finish_posterior(stats_list, log_prior):
    """MAP order over log Q(alpha, beta, q) + log_prior(K), branch and bound.

    Each order's bound is `_log_q_from(0.0, ...)` + log_prior(K).  K = 0
    (log Q = 0) scores exactly its bound and a None stats entry
    (rank-deficient prefix) scores -inf and is flagged, neither with a
    kernel call.  The rest are scored by log_q_sum in descending bound
    order (ties to smaller K) until a bound falls below the best score so
    far.  A pruned order scores at most its bound, below that best, so the
    MAP order is the argmax over all exact scores, smallest K on ties.
    """
    n = len(stats_list)
    priors = [log_prior(k) for k in range(n)]
    bounds = np.full(n, -math.inf)
    log_scores = np.full(n, math.nan)
    log_ip = np.full(n, math.nan)
    for k, st in enumerate(stats_list):
        if st is None:
            log_scores[k] = -math.inf
        elif st.alpha == 0:
            bounds[k] = log_scores[k] = 0.0 + priors[k]
        else:
            bounds[k] = _log_q_from(0.0, st.alpha, st.beta, st.q) + priors[k]
    best = -math.inf
    for k in sorted(range(n), key=lambda k: (-bounds[k], k)):
        if bounds[k] < best:
            break
        if math.isnan(log_scores[k]):
            st = stats_list[k]
            log_q, log_ip[k] = log_q_sum(st.alpha, st.beta, st.q)
            log_scores[k] = log_q + priors[k]
        best = max(best, log_scores[k])
    return OrderPosterior(
        log_scores=log_scores,
        log_score_bounds=bounds,
        log_ip=log_ip,
        k_map=int(np.nanargmax(log_scores)),  # the smallest K on ties
        stats_per_k=stats_list,
        rank_deficient_k=tuple(k for k, st in enumerate(stats_list) if st is None),
    )


def map_order_pca(basis: EigenBasis, norm2_y, k_max, m):
    """MAP order for the PCA pipeline: eigenvector bases, Stiefel prior.

    The top-K eigenvectors of R = Y Y^H of the D x M data Y capture the
    top-K eigenvalue sum; norm2_y is |Y|^2, the data's total energy.
    """
    d = basis.eigvecs.shape[0]
    if k_max >= d:
        raise ValueError(f"K_max must be < D, got K_max={k_max}, D={d}")
    s = np.concatenate(([0.0], np.cumsum(basis.eigvals[:k_max])))
    stats_list = [ProjectionStats.from_energy(float(s[k]), norm2_y, k, d, m)
                  for k in range(k_max + 1)]
    return _finish_posterior(stats_list, lambda k: -log_stiefel_volume(d, k))


def map_order_scan(y, steer_rows, k_max, m, norm2_y):
    """MAP order for spectrum pipelines on the D x M data Y, of energy
    norm2_y = |Y|^2: nested top-K steering prefixes.

    steer_rows is P x D, row i the steering vector of the i-th highest
    spectrum peak; prefix K is the first K rows, transposed, and P = 0
    scores K = 0 alone.  One projection_stats call splits the energy of
    every prefix, reading Y in one product.
    The DOA prior contributes -K*log(2*pi) for both the MUSIC and DTFT
    spectra.  A rank-deficient prefix (coincident peaks) scores -inf and is
    flagged.
    """
    stats_list = projection_stats(y, steer_rows[:k_max].T, m, norm2_y=norm2_y)
    return _finish_posterior(stats_list, lambda k: -k * math.log(2.0 * math.pi))


def aic_order(eigvals, m, k_max):
    """Eigenvalue-based AIC baseline for the number of signals.

    AIC(k) = 2*M*(D-k)*log(AM/GM of the D-k smallest eigenvalues)
             + 2*k*(2*D - k), minimized over k = 0..K_max (ties to smaller k).
    """
    lam = np.asarray(eigvals, dtype=float)
    d = lam.size
    lam = np.maximum(lam, 1e-300 * max(lam[0], 1e-300))
    k_max = min(k_max, d - 1)
    crit = np.empty(k_max + 1)
    for k in range(k_max + 1):
        tail = lam[k:]
        log_ratio = math.log(float(np.mean(tail))) - float(np.mean(np.log(tail)))
        crit[k] = 2.0 * m * (d - k) * log_ratio + 2.0 * k * (2 * d - k)
    return int(np.argmin(crit))
