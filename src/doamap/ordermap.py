"""Exact MAP selection of the number of sources, posterior variances, and AIC.

For each candidate dimension K the marginal likelihood of the data given the
fitted basis reduces, after integrating out both unknown variances, to the
probability that signal-plus-noise variance dominates projected noise
variance.  That probability is a finite dominance sum evaluated in log
domain, plus a prior term: the Stiefel-volume prior for PCA bases, or the
uniform-DOA prior (2*pi)^-K for steering bases picked from a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arraysim import steering_matrix
from .specfun import DominancePair, double_moment, log_gamma, log_q_sum
from .subspace import EigenBasis, ProjectionStats, projection_stats

__all__ = [
    "OrderPosterior",
    "AmplitudeEstimates",
    "PosteriorVariances",
    "log_stiefel_volume",
    "log_f_y_k0",
    "posterior_variances",
    "posterior_at_order",
    "map_order_pca",
    "map_order_scan",
    "shrink_amplitudes",
    "aic_order",
]


@dataclass(frozen=True)
class PosteriorVariances:
    ra_mean: float          # posterior mean signal-plus-noise variance
    sigma2_mean: float      # posterior mean noise variance
    sigma02_mean: float     # projected noise variance sigma2_mean / D
    tau_mean: float         # noise-to-signal percentage sigma02/ra
    ra_approx: float        # large-degree approximation (s/D)/(K*M)
    sigma2_approx: float    # large-degree approximation t/((D-K)*M)


@dataclass(frozen=True)
class OrderPosterior:
    """Per-K log-scores and the selected model order with posterior variances."""

    method: str
    log_scores: np.ndarray          # K = 0..K_max, up to a K-independent constant
    k_map: int
    stats_per_k: list
    ra_mean: float
    sigma2_mean: float
    tau_mean: float
    rank_deficient_k: tuple = ()


@dataclass(frozen=True)
class AmplitudeEstimates:
    a0: np.ndarray        # least-squares amplitudes V+ Y
    a_shrunk: np.ndarray  # shrunk estimate (1 - tau) * A0


def log_stiefel_volume(d, k, radius=None):
    """log volume of {V in C^(D x K): V^H V = R^2 I}, default radius sqrt(D)."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= K <= D, got K={k}, D={d}")
    if radius is None:
        radius = math.sqrt(d)
    log_r2 = 2.0 * math.log(radius)
    return float(
        sum(
            math.log(2.0) + i * (math.log(math.pi) + log_r2)
            - log_gamma(i) - 0.5 * log_r2
            for i in range(d - k + 1, d + 1)
        )
    )


def log_f_y_k0(norm2_y, d, m):
    """log marginal likelihood of pure noise: Gamma(DM) / (pi^DM |Y|^(2DM))."""
    if not norm2_y > 0:
        raise ValueError("data energy must be positive")
    dm = d * m
    return log_gamma(dm) - dm * math.log(math.pi) - dm * math.log(norm2_y)


def posterior_variances(stats: ProjectionStats, d):
    """Posterior mean variances and the noise-to-signal percentage.

    The exact means are the first moments of the inverse-gamma pair
    X = D*ra, Y = sigma2 conditioned on X >= Y, so they need alpha > 1 and
    beta > 1; the large-degree approximations are exposed alongside for
    cross-checking.
    """
    pair = DominancePair(stats.alpha, stats.beta, stats.s, stats.t)
    ra = double_moment(pair, 1, "invgamma", "x") / d
    sigma2 = double_moment(pair, 1, "invgamma", "y")
    sigma02 = sigma2 / d
    return PosteriorVariances(
        ra_mean=ra,
        sigma2_mean=sigma2,
        sigma02_mean=sigma02,
        tau_mean=sigma02 / ra,
        ra_approx=(stats.s / d) / stats.alpha,
        sigma2_approx=stats.t / stats.beta,
    )


def posterior_at_order(stats: ProjectionStats, d):
    """posterior_variances at a chosen order, with the K = 0 convention:
    sigma^2 ~ inverse-gamma(DM, |Y|^2), tau = 1, no signal variance (nan)."""
    if stats.alpha > 0:
        return posterior_variances(stats, d)
    sigma2 = stats.t / (stats.beta - 1)
    return PosteriorVariances(ra_mean=math.nan, sigma2_mean=sigma2,
                              sigma02_mean=sigma2 / d, tau_mean=1.0,
                              ra_approx=math.nan, sigma2_approx=stats.t / stats.beta)


def _finish_posterior(method, stats_list, log_prior, d):
    """MAP order over log Q(alpha, beta, q) + log_prior(K) (log Q = 0 at K = 0);
    a None stats entry (rank-deficient prefix) scores -inf and is flagged."""
    log_scores = np.full(len(stats_list), -math.inf)
    for k, st in enumerate(stats_list):
        if st is not None:
            lq = log_q_sum(st.alpha, st.beta, st.q) if k > 0 else 0.0
            log_scores[k] = lq + log_prior(k)
    k_map = int(np.argmax(log_scores))  # argmax takes the smallest K on ties
    pv = posterior_at_order(stats_list[k_map], d)
    return OrderPosterior(
        method=method,
        log_scores=log_scores,
        k_map=k_map,
        stats_per_k=stats_list,
        ra_mean=pv.ra_mean,
        sigma2_mean=pv.sigma2_mean,
        tau_mean=pv.tau_mean,
        rank_deficient_k=tuple(k for k, st in enumerate(stats_list) if st is None),
    )


def map_order_pca(basis: EigenBasis, freq_or_y, k_max, m):
    """MAP order for the PCA pipeline: eigenvector bases, Stiefel prior.

    The top-K eigenvectors of R = Y Y^H capture the top-K eigenvalue sum.
    """
    y = getattr(freq_or_y, "y", freq_or_y)
    d = basis.eigvecs.shape[0]
    if k_max >= d:
        raise ValueError(f"K_max must be < D, got K_max={k_max}, D={d}")
    norm2_y = float(np.sum(np.abs(y) ** 2))
    s = np.concatenate(([0.0], np.cumsum(basis.eigvals[:k_max])))
    stats_list = [ProjectionStats.from_energy(float(s[k]), norm2_y, k, d, m)
                  for k in range(k_max + 1)]
    return _finish_posterior("pca", stats_list,
                             lambda k: -log_stiefel_volume(d, k), d)


def map_order_scan(freq_or_y, peak_angles_deg, k_max, m, prior="music"):
    """MAP order for spectrum pipelines: nested top-K steering prefixes.

    peak_angles_deg is the height-ordered candidate list (as returned by
    pick_peaks); prefix K uses its first K entries.  The DOA prior
    contributes -K*log(2*pi) for both the MUSIC and DTFT spectra.  A
    rank-deficient prefix (coincident peaks) scores -inf and is flagged.
    """
    if prior not in ("music", "dtft"):
        raise ValueError(f"prior must be 'music' or 'dtft', got {prior!r}")
    y = getattr(freq_or_y, "y", freq_or_y)
    angles = [a[0] if isinstance(a, tuple) else float(a) for a in peak_angles_deg]
    if k_max > 0 and not angles:
        raise ValueError("empty peak list with K_max > 0")
    stats_list = []
    for k in range(min(k_max, len(angles)) + 1):
        v = steering_matrix(angles[:k], y.shape[0]) if k > 0 else None
        try:
            stats_list.append(projection_stats(y, v, m))
        except ValueError:
            stats_list.append(None)
    return _finish_posterior(prior, stats_list,
                             lambda k: -k * math.log(2.0 * math.pi), y.shape[0])


def shrink_amplitudes(a0, tau_mean):
    """Calibrated amplitude estimate (1 - tau) * A0 next to the raw A0."""
    a0 = np.asarray(a0)
    return AmplitudeEstimates(a0=a0, a_shrunk=(1.0 - tau_mean) * a0)


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
