"""Sample-covariance eigendecomposition and the PCA/MUSIC/DTFT estimators.

The three estimators share one geometric fact: for a candidate basis V the
data energy splits as |Y|^2 = |V A0|^2 + |H0|^2 with A0 the least-squares
amplitudes and H0 the residual.  ProjectionStats.from_energy packages that
split, plus the signal/noise degree counts, for the Bayesian order scores.
Both spectra read one G x D grid steering table, built once per draw, whose
row g is the steering vector of grid angle g; a spectrum peak is a grid
index, so its steering vector is a row of that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenBasis",
    "ProjectionStats",
    "sample_covariance",
    "eigendecompose",
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
    are eigh's: MUSIC reads |Q^H v|^2 and PCA and AIC read only eigenvalues.
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


def dtft_spectrum(cov, steer):
    """Power spectrum |v(pi*cos(phi))^H Y|^2 = v^H R v from R = Y Y^H, on the
    rows of the G x D grid steering table."""
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"need a square covariance matrix, got shape {cov.shape}")
    vg = steer.T
    return np.real(np.einsum("dg,dg->g", vg.conj(), cov @ vg))


def music_pseudospectrum(basis: EigenBasis, k_sub, steer):
    """Reciprocal noise-subspace projection 1 / |Q_noise^H v(phi)|^2 on the
    rows of the G x D grid steering table."""
    d = basis.eigvecs.shape[0]
    if not 0 < k_sub < d:
        raise ValueError(f"signal subspace size must lie in (0, {d}), got {k_sub}")
    noise = basis.eigvecs[:, k_sub:]
    denom = np.sum(np.abs(noise.conj().T @ steer.T) ** 2, axis=0)
    return 1.0 / np.maximum(denom, 1e-300)


def pick_peaks(values, count):
    """Grid indices of a spectrum's local maxima, height-descending, ties
    toward the smaller index.

    Interior points must strictly exceed both neighbors; boundary points get a
    one-sided test.  Returns up to `count` indices, fewer when the curve has
    fewer maxima.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty spectrum curve")
    if v.size == 1:
        idx = np.array([0])
    else:
        is_peak = np.zeros(v.size, dtype=bool)
        is_peak[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        is_peak[0] = v[0] > v[1]
        is_peak[-1] = v[-1] > v[-2]
        idx = np.nonzero(is_peak)[0]
    # stable sort on -height keeps the smaller index first on ties
    return idx[np.argsort(-v[idx], kind="stable")][:count]


def _name_dependent_columns(v):
    """Most mutually coherent column pair, for the rank-deficiency error."""
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    g = np.abs((v.conj().T @ v)) / np.outer(norms, norms)
    np.fill_diagonal(g, 0.0)
    i, j = np.unravel_index(np.argmax(g), g.shape)
    return min(i, j), max(i, j)


def projection_stats(y, v, m, *, norm2_y=None):
    """Energy split of the D x M data Y on basis V via an SVD least-squares fit.

    Never forms (V^H V)^-1; rank deficiency (smallest singular value below
    1e-10 of the largest) is an error naming the offending column pair.
    A D x 0 basis is K = 0, the pure-noise convention (s = 0, t = |Y|^2).
    norm2_y is |Y|^2 when the caller already has it (a scan passes the
    same value to every prefix); None sums it here.
    """
    d = y.shape[0]
    if norm2_y is None:
        norm2_y = float(np.sum(np.abs(y) ** 2))
    k = v.shape[1]
    if k > d:
        raise ValueError(f"basis has more columns ({k}) than sensors ({d})")
    if k == 0:
        return ProjectionStats.from_energy(0.0, norm2_y, 0, d, m)
    u, sv, _ = np.linalg.svd(v, full_matrices=False)
    if sv[-1] < 1e-10 * sv[0]:
        i, j = _name_dependent_columns(v)
        raise ValueError(
            f"basis is rank deficient: columns {i} and {j} are (near) parallel"
        )
    s = float(np.sum(np.abs(u.conj().T @ y) ** 2))
    return ProjectionStats.from_energy(s, norm2_y, k, d, m)
