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

Both pipelines call that one branch and bound, which reads an order's
split through a function, stats_at(K), only when it visits the order.
PCA's splits are eigenvalue partial sums, all known up front, and its
bounds are the exact U_K (_exact_bound).

A spectrum scan scores the orders 0..P', P' its steering prefixes before
the first rank-deficient one (coincident peaks), and runs one SVD per
prefix, for its basis u^H (subspace.prefix_bases), which both the prefix's
bound and its split read.  It visits its orders by bounds it reads from
the covariance R instead of Y: each prefix's captured energy from R lies
within a rounding margin, fixed beforehand, of the energy it captures of
Y, and the closed form at the ends of that interval bounds U_K from above
(_covariance_bounds, which derives the margin).  Only an order the scan
visits reads Y, for its exact split on the same u^H; its U_K and score
are then bit-exact, those of a scan that splits every prefix of Y.  A
pruned order keeps its bound from the R interval, >= its exact U_K, and
its split is computed from Y, on the u^H the scan already holds, the
first time stats_at reads it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

from .specfun import DominancePair, _log_q_from, double_moment, log_q_sum
from .subspace import (
    DrawData,
    EigenBasis,
    ProjectionStats,
    prefix_bases,
    projection_stats,
)

_EPS = float(np.finfo(float).eps)

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
    posterior_variances(stats_at(K), D, log_ip[K]).

    log_scores[K] is the exact score of every order the scan scored and NaN
    for an order it pruned; log_score_bounds[K] >= log_scores[K] for every
    K, so a pruned order lost to the MAP order by at least
    log_scores[k_map] - log_score_bounds[K].  The bound is the exact
    closed form U_K, bit for bit, at every order whose split the scan read
    (every scored order, every PCA order); a spectrum scan's pruned order
    has its bound from the R interval instead, >= U_K.  log_ip[K] is the
    log I_p(alpha, beta) that scored order K computed, NaN where no kernel
    call scored it (a pruned order, K = 0).  stats_at(K) is order K's
    ProjectionStats for K = 0..len(log_scores) - 1: a spectrum scan's
    splits Y on the prefix's u^H block, the one its bound read, the first
    time it is called for K, and keeps it.  A spectrum scan ends at its
    last full-rank prefix P' and lists the orders P' + 1..min(K_max, P) in
    rank_deficient_k.
    """

    log_scores: np.ndarray          # per order K, up to a K-independent constant
    log_score_bounds: np.ndarray    # closed-form upper bound on each score
    log_ip: np.ndarray              # log I_p(alpha, beta) of each scored order
    k_map: int
    stats_at: Callable[[int], ProjectionStats]
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


def _branch_and_bound(stats_at, priors, bounds, rank_deficient_k=()):
    """MAP order over log Q(alpha, beta, q) + priors[K], given upper bounds
    on the exact bounds of the orders K >= 1; stats_at(K) is order K's
    split.

    Order 0 is the empty subspace (log Q = 0), whose bound 0.0 + priors[0]
    is its score, with no kernel call.  The orders are visited in
    descending bound order (ties to smaller K) until a bound falls below
    the best score so far.  A visited order reads its split from stats_at,
    and its bound becomes the exact one; log_q_sum scores it unless that
    too is below the best.  An order left unscored scores at most its
    bound, below that best, so the MAP order is the argmax over all exact
    scores, smallest K on ties.
    """
    bounds = np.array([0.0 + priors[0], *bounds])
    n = len(bounds)
    log_scores = np.full(n, math.nan)
    log_ip = np.full(n, math.nan)
    log_scores[0] = bounds[0]
    best = -math.inf
    for k in sorted(range(n), key=lambda k: (-bounds[k], k)):
        if bounds[k] < best:
            break
        if math.isnan(log_scores[k]):
            st = stats_at(k)
            bounds[k] = _exact_bound(st, priors[k])
            if bounds[k] < best:
                continue
            log_q, log_ip[k] = log_q_sum(st.alpha, st.beta, st.q)
            log_scores[k] = log_q + priors[k]
        best = max(best, log_scores[k])
    return OrderPosterior(
        log_scores=log_scores,
        log_score_bounds=bounds,
        log_ip=log_ip,
        k_map=int(np.nanargmax(log_scores)),  # the smallest K on ties
        stats_at=stats_at,
        rank_deficient_k=rank_deficient_k,
    )


def _covariance_bounds(data: DrawData, bases, m):
    """Upper bounds on `_log_q_from(0.0, ...)` at each prefix K >= 1 of
    bases (prefix_bases), read from the covariance R = data.cov instead of
    Y: a list in key order, +inf where a bound reaches q = 1.

    Prefix K captures s~_K = sum over its rows u^H of Re(u^H R u) from R,
    all prefixes from one product of the stacked blocks with R.  In exact
    arithmetic that is projection_stats' s_K from Y on the same block, and
    delta_K = 4 eps K (2M + 4D + 8) |Y|^2 bounds |s_K - s~_K| beforehand.
    With unit roundoff u = eps/2, gamma_n = n u / (1 - n u) and a_jm =
    |u_j|^T |y_m| (moduli entrywise), sum_{j<K, m} a_jm^2 <= K |Y|^2 by
    Cauchy-Schwarz.  A complex inner product of length n is off by at most
    sqrt(2) gamma_{n+2} times the same product of moduli, in any summation
    order, FMA or not (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.1 and 3.6).  To first order in u:

    - From Y: each entry of u^H Y is off by sqrt(2) gamma_{D+2} a_jm, its
      squared modulus by 2 sqrt(2) (D+2) u a_jm^2 + 4 u a_jm^2, and the
      sum of the K M squares by K M u s_K <= K M u |Y|^2.  In all,
      K u |Y|^2 (M + 2 sqrt(2) D + 10).
    - From R: each entry of R is off by (sqrt(2) (M+2) + 1) u (|Y||Y|^T)_ab
      (product and symmetrising sum), which moves u^H R u by that factor
      times sum_m a_jm^2; u^H R and its product with u add
      ((sqrt(2) + 1) D + 6) u |u|^T|R||u|, and the sum over the K rows K u
      times the same, K <= D.  In all, K u |Y|^2 (sqrt(2) M + (2 + sqrt(2))
      D + 10).

    The sum is under eps K |Y|^2 (1.21 M + 3.13 D + 10), and delta_K is
    over three times that, which covers the second-order terms, columns
    of u whose norm is 1 within D eps, and the rounding of s~_K +- delta_K.

    U(q) = -alpha log(1 - q) - beta log q + log B(alpha, beta) is convex
    on (0, 1) and q, as ProjectionStats.from_energy computes it, is
    monotone in s, so U's maximum over s~_K +- delta_K is at an end.  The
    ends' q are widened by 4 eps, more than the rounding of any q computed
    from an energy inside; the result is raised by 8 eps (|U| + 2 |log B|
    + alpha), more than twice the rounding of U (log(1 - q) is off by
    eps/2 absolute, hence alpha).
    """
    if not bases:
        return []
    d = data.cov.shape[0]
    rows = np.concatenate(list(bases.values()))
    # row u^H times R, times u = conj(u^H): the sum of (u^H R) conj(u^H)
    e = np.sum((rows @ data.cov * rows.conj()).real, axis=1)
    bounds = []
    for k, part in zip(bases, np.split(e, np.cumsum(list(bases))[:-1])):
        s = float(np.sum(part))
        delta = 4.0 * _EPS * k * (2 * m + 4 * d + 8) * data.norm2_y
        q_lo, q_hi = (ProjectionStats.from_energy(x, data.norm2_y, k, d, m).q
                      for x in (s + delta, s - delta))
        q_lo *= 1.0 - 4.0 * _EPS
        q_hi *= 1.0 + 4.0 * _EPS
        if not q_hi < 1.0:
            bounds.append(math.inf)
            continue
        alpha, beta = k * m, (d - k) * m
        top = max(_log_q_from(0.0, alpha, beta, q) for q in (q_lo, q_hi))
        log_b = float(betaln(alpha, beta))
        bounds.append(top + 8.0 * _EPS * (abs(top) + 2.0 * abs(log_b) + alpha))
    return bounds


def map_order_pca(basis: EigenBasis, norm2_y, k_max, m):
    """MAP order for the PCA pipeline: eigenvector bases, Stiefel prior.

    The top-K eigenvectors of R = Y Y^H of the D x M data Y capture the
    top-K eigenvalue sum; norm2_y is |Y|^2, the data's total energy.  Every
    order's split is known up front, so the branch and bound runs on the
    exact bounds.
    """
    d = basis.eigvecs.shape[0]
    if k_max >= d:
        raise ValueError(f"K_max must be < D, got K_max={k_max}, D={d}")
    s = np.concatenate(([0.0], np.cumsum(basis.eigvals[:k_max])))
    stats = [ProjectionStats.from_energy(float(s[k]), norm2_y, k, d, m)
             for k in range(k_max + 1)]
    priors = [-log_stiefel_volume(d, k) for k in range(k_max + 1)]
    return _branch_and_bound(stats.__getitem__, priors, [
        _exact_bound(stats[k], priors[k]) for k in range(1, k_max + 1)])


def map_order_scan(data: DrawData, steer_rows, k_max, m):
    """MAP order for spectrum pipelines on one draw's data: nested top-K
    steering prefixes.

    steer_rows is P x D, row i the steering vector of the i-th highest
    spectrum peak; prefix K is the first K rows, transposed, and P = 0
    scores K = 0 alone.  Each prefix's u^H comes from one SVD
    (prefix_bases), which both its bound and its split of Y read.  Each
    order K >= 1's bound is _covariance_bounds', from the covariance R.
    stats_at(K) splits Y on prefix K's u^H (K = 0 a 0 x D block) the first
    time order K is read, by the branch and bound or a caller, and keeps
    it.  The DOA prior contributes -K*log(2*pi) for both the MUSIC and DTFT
    spectra.  The orders past the last full-rank prefix (coincident peaks)
    are not scored, only listed in rank_deficient_k.
    """
    v = steer_rows[:k_max].T
    d = v.shape[0]
    bases = prefix_bases(v)
    blocks = [np.empty((0, d), dtype=complex), *bases.values()]

    @functools.cache
    def stats_at(k):
        return projection_stats(data.y, blocks[k], m, norm2_y=data.norm2_y)

    priors = [-k * math.log(2.0 * math.pi) for k in range(len(blocks))]
    bounds = [b + priors[k]
              for k, b in enumerate(_covariance_bounds(data, bases, m), 1)]
    return _branch_and_bound(stats_at, priors, bounds, tuple(
        range(len(blocks), v.shape[1] + 1)))


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
