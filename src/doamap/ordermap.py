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

Every score and posterior reads one statistic, owned here: the split of
|Y|^2 into the energy s a K-dimensional basis captures and the residual t,
with alpha = K*M and beta = (D-K)*M degrees (ProjectionStats.from_energy,
its one constructor, on clamp_split).  Both pipelines call one branch and
bound on every order's split, read from the covariance R = Y Y^H as a
partial sum of energies: PCA's eigenvalues, and a spectrum scan's energies
of R on one QR of its steering prefixes (subspace.prefix_energies), up to
P', the last prefix before the first rank-deficient one (coincident
peaks).  No scan reads the D x M data.  A scan clamps every split in one
pass into the array OrderPosterior.s.  Bounds and scores stay scalar, so
score <= U_K rests on math.log alone; PCA's posterior reuses log_ip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .specfun import _log_q_from, log_q_sum, log_reg_inc_beta
from .subspace import EigenBasis, prefix_energies

__all__ = [
    "OrderPosterior",
    "PosteriorVariances",
    "ProjectionStats",
    "log_stiefel_volume",
    "posterior_variances",
    "map_order_pca",
    "map_order_scan",
    "aic_order",
]


# energy floor of both parts of a split, relative to |Y|^2: keeps q in
# (0, 1) at K >= 1 for noiseless inputs and for orthogonal bases
T_CLAMP_REL = 1e-12


@dataclass(frozen=True)
class ProjectionStats:
    """Energy split of Y on a K-dimensional basis plus degree counts.

    s = |V A0|^2, t = |H0|^2 (both clamped away from zero, s for K >= 1),
    alpha = K*M, beta = (D-K)*M, and the residual share q = t/(s+t).
    """

    s: float
    t: float
    alpha: int
    beta: int
    q: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.t / (self.s + self.t))

    @classmethod
    def from_energy(cls, s, norm2_y, k, d, m):
        """Split of |Y|^2 when a rank-k basis captures energy s."""
        s, t = clamp_split(s, norm2_y, k)
        return cls(s=float(s), t=float(t), alpha=k * m, beta=(d - k) * m)


def clamp_split(s, norm2_y, k):
    """(s, t) of |Y|^2 = norm2_y when a rank-k basis captures energy s,
    elementwise over arrays s and k.  Both parts are floored at T_CLAMP_REL
    |Y|^2, s only for k >= 1, so q = t/(s+t) lies in (0, 1) at every order
    K >= 1, noiseless or not; clamping a clamped s changes nothing.
    All-zero data (|Y|^2 = 0) is rejected."""
    if not norm2_y > 0:
        raise ValueError(f"data energy |Y|^2 must be positive, got {norm2_y}"
                         " (all-zero data has no energy split)")
    floor = T_CLAMP_REL * norm2_y
    # a floor of 0.0 at k = 0, whose s is +0.0 in every caller
    s = np.maximum(s, floor * (np.asarray(k) > 0))
    return s, np.maximum(norm2_y - s, floor)


@dataclass(frozen=True)
class PosteriorVariances:
    ra_mean: float          # posterior mean signal-plus-noise variance
    sigma2_mean: float      # posterior mean noise variance
    tau_mean: float         # noise-to-signal percentage (sigma2_mean/D)/ra_mean


@dataclass(frozen=True)
class OrderPosterior:
    """Per-K log-scores, bounds and captured energies, and the MAP order.

    log_scores[K] is the exact score of every order the scan scored and NaN
    for an order it pruned; log_score_bounds[K] is every order's exact
    closed form U_K, bit for bit, >= log_scores[K], so a pruned order lost
    to the MAP order by at least log_scores[k_map] - log_score_bounds[K].
    s[K] is the clamped energy of R the scan scored at order K, indexed as
    log_scores, and log_ip[K] the log I_p(alpha, beta) it computed there,
    NaN where it computed none (a pruned order, K = 0), so order K's
    posterior on that split is posterior_variances(from_energy(s[K],
    |Y|^2, K, D, M), D, log_ip[K]).  A spectrum scan ends at its last
    full-rank prefix P' and lists the orders P' + 1..min(K_max, P) in
    rank_deficient_k.
    """

    log_scores: np.ndarray          # per order K, up to a K-independent constant
    log_score_bounds: np.ndarray    # closed-form upper bound on each score
    log_ip: np.ndarray              # log I_p(alpha, beta) of each scored order
    k_map: int
    s: np.ndarray                   # captured energy of each order, clamped
    rank_deficient_k: tuple = ()


def _log_stiefel_volumes(d, k_max):
    """log_stiefel_volume(d, K), K = 0..k_max: one running sum of the log
    factors of prod_{i=D-K+1}^{D} 2 (pi D)^i / (Gamma(i) sqrt(D)), i = D down."""
    log_r2 = 2.0 * math.log(math.sqrt(d))
    return list(accumulate((
        math.log(2.0) + i * (math.log(math.pi) + log_r2)
        - math.lgamma(i) - 0.5 * log_r2 for i in range(d, d - k_max, -1)),
        initial=0.0))


def log_stiefel_volume(d, k):
    """log volume of {V in C^(D x K): V^H V = D I}, the priors' running sum."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= K <= D, got K={k}, D={d}")
    return _log_stiefel_volumes(d, k)[k]


def posterior_variances(stats: ProjectionStats, d, log_ip=math.nan):
    """Posterior mean variances and the noise-to-signal percentage at one order.

    The exact means are the first moments of the inverse-gamma pair
    X = D*ra, Y = sigma2 conditioned on X >= Y, in double_moment's order:
    D*ra = s/(alpha-1) I_p(alpha-1, beta)/I_p and sigma2 = t/(beta-1)
    I_p(alpha, beta-1)/I_p, so they need alpha, beta > 1 and finite
    positive s, t.  K = 0 (alpha = 0) is the convention sigma^2 ~
    inverse-gamma(DM, |Y|^2), tau = 1, ra nan.  log_ip = log I_p(alpha,
    beta) where the scan scored the order; NaN computes it.
    """
    a, b, s, t = stats.alpha, stats.beta, stats.s, stats.t
    if a == 0:
        return PosteriorVariances(math.nan, t / (b - 1), 1.0)
    if not (a > 1 and b > 1 and 0 < s < math.inf and 0 < t < math.inf):
        raise ValueError(f"posterior means need alpha, beta > 1 and finite "
                         f"positive s, t; got {stats}")
    p = 1.0 - stats.q
    if math.isnan(log_ip):
        log_ip = log_reg_inc_beta(p, a, b)
    ra = s / (a - 1) * math.exp(log_reg_inc_beta(p, a - 1, b) - log_ip) / d
    sigma2 = t / (b - 1) * math.exp(log_reg_inc_beta(p, a, b - 1) - log_ip)
    return PosteriorVariances(ra, sigma2, sigma2 / d / ra)


def _map_order(energies, norm2_y, d, m, priors, rank_deficient_k=()):
    """MAP order over log Q(alpha, beta, q) + priors[K] on the splits of
    |Y|^2 = norm2_y when order K captures the partial sum of energies[:K].

    Order 0 (log Q = 0) scores its bound 0.0 + priors[0]; order K >= 1 is
    bounded by U_K, the closed form on log I_p = 0.0.  log_q_sum scores the
    orders in descending bound order (ties to smaller K) until a bound falls
    below the best score so far, k_map's (a tie to the smaller K), so k_map
    is the exact scores' argmax.
    """
    n = len(energies) + 1
    s, t = clamp_split(np.concatenate(([0.0], np.cumsum(energies))), norm2_y,
                       np.arange(n))
    q = (t / (s + t)).tolist()
    bounds = [0.0 + priors[0]] + [
        _log_q_from(0.0, k * m, (d - k) * m, q[k]) + priors[k]
        for k in range(1, n)]
    log_scores, log_ip = np.full((2, n), math.nan)
    log_scores[0] = bounds[0]
    best, k_map = -math.inf, 0
    for k in sorted(range(n), key=lambda k: (-bounds[k], k)):
        if bounds[k] < best:
            break
        if k:
            log_q, log_ip[k] = log_q_sum(k * m, (d - k) * m, q[k])
            log_scores[k] = log_q + priors[k]
        if log_scores[k] > best or log_scores[k] == best and k < k_map:
            best, k_map = log_scores[k], k
    return OrderPosterior(log_scores, np.array(bounds), log_ip, k_map, s,
                          rank_deficient_k)


def map_order_pca(basis: EigenBasis, norm2_y, k_max, m):
    """MAP order for the PCA pipeline: eigenvector bases, Stiefel prior.

    The top-K eigenvectors of R = Y Y^H of the D x M data Y capture the
    top-K eigenvalue sum; norm2_y is |Y|^2, the data's total energy.
    """
    d = basis.eigvecs.shape[0]
    if k_max >= d:
        raise ValueError(f"K_max must be < D, got K_max={k_max}, D={d}")
    priors = [-v for v in _log_stiefel_volumes(d, k_max)]
    return _map_order(basis.eigvals[:k_max], norm2_y, d, m, priors)


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
    energies = prefix_energies(v, cov)
    n = len(energies) + 1
    priors = [-k * math.log(2.0 * math.pi) for k in range(n)]
    return _map_order(energies, norm2_y, v.shape[0], m, priors,
                      tuple(range(n, v.shape[1] + 1)))


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
