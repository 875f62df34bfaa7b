"""Sample-covariance eigendecomposition and the PCA/MUSIC/DTFT estimators.

The three estimators share one geometric fact: for a candidate basis V the
data energy splits as |Y|^2 = |V A0|^2 + |H0|^2 with A0 the least-squares
amplitudes and H0 the residual.  ProjectionStats.from_energy packages that
split, plus the signal/noise degree counts, for the Bayesian order scores;
projection_stats computes it on every nested prefix of a steering basis,
reading the D x M data in one product for every prefix.

Both spectra are weightings of one eigen-projection W = |Q^H v_g|^2 of the
G x D grid steering table (row g the steering vector of grid angle g) on
the eigenbasis Q of R = Y Y^H (Schmidt, IEEE TAP 34(3), 1986): MUSIC sums
W over the noise eigenvectors, the DTFT beamformer v^H R v weights W by
the eigenvalues.  A spectrum peak is a grid index, so its steering vector
is a row of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenBasis",
    "ProjectionStats",
    "sample_covariance",
    "eigendecompose",
    "eigen_projection",
    "dtft_spectrum",
    "music_pseudospectrum",
    "pick_peaks",
    "projection_stats",
]

# residual-energy floor, relative to |Y|^2: keeps q > 0 for noiseless inputs
T_CLAMP_REL = 1e-12


@dataclass(frozen=True)
class EigenBasis:
    """Unitary eigenvectors (columns) and descending nonnegative eigenvalues."""

    eigvecs: np.ndarray
    eigvals: np.ndarray


@dataclass(frozen=True)
class ProjectionStats:
    """Energy split of Y on a K-dimensional basis plus degree counts.

    s = |V A0|^2, t = |H0|^2 (clamped away from zero), alpha = K*M,
    beta = (D-K)*M, and the residual share q = t/(s+t).
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
        """Split of |Y|^2 when a rank-k basis captures energy s (t clamped)."""
        t = max(norm2_y - s, T_CLAMP_REL * norm2_y)
        return cls(s=s, t=t, alpha=k * m, beta=(d - k) * m)


def sample_covariance(y):
    """Hermitian sample covariance Y Y^H (symmetrized) of the D x M data."""
    r = y @ y.conj().T
    return (r + r.conj().T) / 2.0


def eigendecompose(cov):
    """Descending eigenpairs of a Hermitian PSD matrix.

    Negative round-off eigenvalues are clamped to zero.  Eigenvector phases
    are eigh's: both spectra read |Q^H v|^2 and PCA and AIC read only
    eigenvalues.
    """
    cov = np.asarray(cov)
    herm_err = np.max(np.abs(cov - cov.conj().T))
    scale = max(np.max(np.abs(cov)), 1.0)
    if herm_err > 1e-6 * scale:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:.3g})")
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1].copy()
    vals[vals < 0] = 0.0
    return EigenBasis(eigvecs=vecs[:, ::-1].copy(), eigvals=vals)


def eigen_projection(basis: EigenBasis, steer):
    """W = |Q^H v_g|^2, D x G: row j the energy of every grid steering
    vector (row g of the G x D table) on eigenvector j.  Both spectra read
    it, so the grid table is multiplied once per draw."""
    w = np.abs(basis.eigvecs.conj().T @ steer.T)
    return np.square(w, out=w)


def dtft_spectrum(w, eigvals):
    """Power spectrum |v(pi*cos(phi))^H Y|^2 = v^H R v = sum_j lambda_j W_jg
    on the grid, from the eigen-projection W of R = Y Y^H."""
    return eigvals @ w


def music_pseudospectrum(w, k_sub):
    """Reciprocal noise-subspace projection 1 / |Q_noise^H v(phi)|^2 on the
    grid: 1 / sum_{j >= k_sub} W_jg from the eigen-projection W."""
    d = w.shape[0]
    if not 0 < k_sub < d:
        raise ValueError(f"signal subspace size must lie in (0, {d}), got {k_sub}")
    return 1.0 / np.maximum(np.sum(w[k_sub:], axis=0), 1e-300)


def pick_peaks(values, count):
    """Grid indices of a spectrum's local maxima, height-descending, ties
    toward the smaller index.

    A point must strictly exceed both neighbors, with -inf beyond either
    end, so an end point gets a one-sided test.  Returns up to `count`
    indices, fewer when the curve has fewer maxima.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty spectrum curve")
    pad = np.concatenate(([-np.inf], v, [-np.inf]))
    idx = np.flatnonzero((v > pad[:-2]) & (v > pad[2:]))
    # stable sort on -height keeps the smaller index first on ties
    return idx[np.argsort(-v[idx], kind="stable")][:count]


def projection_stats(y, v, m, *, norm2_y):
    """Energy splits of the D x M data Y on the nested prefixes of basis V.

    Entry K of the returned list is the split on the first K columns of the
    D x P basis V, K = 0..P; K = 0 is the pure-noise convention (s = 0,
    t = |Y|^2).  Each prefix gets its own SVD least-squares fit, never
    forming (V^H V)^-1; a prefix whose smallest singular value is below
    1e-10 of its largest is rank deficient (coincident steering vectors)
    and its entry is None.

    Y is read once: one product of the stacked u^H blocks of every
    full-rank prefix, and s_K sums the squared magnitudes of its block.
    BLAS sums each entry of a matrix product the same way whichever rows
    share the product, so every s_K has the bits of its own u^H block in
    any product of two or more rows (the tests check it with ==); when K = 1
    is the only full-rank prefix, its lone row takes numpy's matrix-vector
    path.  norm2_y is |Y|^2, which the caller sums once per draw.
    """
    d = y.shape[0]
    p = v.shape[1]
    if p > d:
        raise ValueError(f"basis has more columns ({p}) than sensors ({d})")
    s = {0: 0.0}  # captured energy of each full-rank prefix K
    stacked = {}  # u^H of each full-rank prefix K >= 1
    for k in range(1, p + 1):
        u, sv, _ = np.linalg.svd(v[:, :k], full_matrices=False)
        if sv[-1] < 1e-10 * sv[0]:
            continue
        stacked[k] = u.conj().T
    if stacked:
        blocks = np.concatenate(list(stacked.values())) @ y
        ends = np.cumsum(list(stacked))
        for k, block in zip(stacked, np.split(blocks, ends[:-1])):
            s[k] = float(np.sum(np.abs(block) ** 2))
    return [ProjectionStats.from_energy(s[k], norm2_y, k, d, m) if k in s
            else None for k in range(p + 1)]
