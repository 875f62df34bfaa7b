"""Sample-covariance eigendecomposition and the PCA/MUSIC/DTFT estimators.

This module is geometry only.  For a candidate basis V the data energy
splits as |Y|^2 = |V A0|^2 + |H0|^2 with A0 the least-squares amplitudes
and H0 the residual; it computes the captured energies, and ordermap owns
the split and its degree counts (ordermap.ProjectionStats.from_energy).
Both order scans read their energies from R = Y Y^H: PCA's the
eigenvalues, a spectrum scan's prefix_energies, those of R on one QR of
the steering prefixes.  A spectrum pipeline's posterior at a chosen order
still reads the energy the prefix captures of the D x M data itself, and
fits its amplitudes on the same factorisation: projection_stats on the
prefix's basis.

Both spectra are quadratic forms v^H H v of a D x D Hermitian H at the
grid steering vectors v_a = e^{i omega a}, and any such form is a
trigonometric polynomial in the lags of H:

    v^H H v = c_0 + 2 Re sum_{l >= 1} c_l e^{-i omega l},

c_l the sum of H's l-th subdiagonal.  The lags take O(D^2) and Horner in
z = e^{-i omega} evaluates the polynomial over the grid in O(G D), with no
G x D steering table.  The DTFT beamformer takes H = R = Y Y^H, the spatial
correlogram (Stoica & Moses, Spectral Analysis of Signals, 2005, ch. 2 and
6).  MUSIC (Schmidt, IEEE TAP 34(3), 1986) takes the noise projector
H = Q_n Q_n^H, the polynomial root-MUSIC roots (Barabell, ICASSP 1983),
here only evaluated on the grid.  Its error is absolute, within
NOISE_POLY_ERR * D of the noise energy, and near a deep null that is far
more than the energy itself, so it only locates MUSIC's candidate peaks:
the peak test and the ranking read the exact sum_{j >= k} |q_j^H v|^2 at
each candidate and its two grid neighbours (music_exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBasis",
    "sample_covariance",
    "eigendecompose",
    "dtft_spectrum",
    "music_pseudospectrum",
    "music_candidates",
    "music_exact",
    "pick_peaks",
    "prefix_energies",
    "projection_stats",
]

EPS = float(np.finfo(float).eps)
# |MUSIC lag polynomial - sum_{j >= k} |q_j^H v|^2| <= NOISE_POLY_ERR * D,
# the tests' bound (measured at worst 14.7 D eps, at paper shape)
NOISE_POLY_ERR = 64 * EPS


@dataclass(frozen=True)
class EigenBasis:
    """Unitary eigenvectors (columns) and descending nonnegative eigenvalues."""

    eigvecs: np.ndarray
    eigvals: np.ndarray


def sample_covariance(y):
    """Hermitian sample covariance Y Y^H (symmetrized) of the D x M data."""
    r = y @ y.conj().T
    return (r + r.conj().T) / 2.0


def eigendecompose(cov):
    """Descending eigenpairs of a Hermitian PSD matrix.

    Negative round-off eigenvalues are clamped to zero.  Eigenvector phases
    are eigh's: MUSIC reads Q_n Q_n^H and |Q^H v|^2, and PCA and AIC read
    only eigenvalues.
    """
    cov = np.asarray(cov)
    herm_err = np.max(np.abs(cov - cov.conj().T))
    if herm_err > 1e-6 * np.max(np.abs(cov)):
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:.3g})")
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1].copy()
    vals[vals < 0] = 0.0
    return EigenBasis(eigvecs=vecs[:, ::-1].copy(), eigvals=vals)


def _lags(h):
    """c_l, the sum of the l-th subdiagonal of the D x D matrix h, l < D."""
    d = h.shape[0]
    lag = np.subtract.outer(np.arange(d), np.arange(d)).ravel() + (d - 1)
    sums = (np.bincount(lag, weights=h.real.ravel())
            + 1j * np.bincount(lag, weights=h.imag.ravel()))
    return sums[d - 1:]  # the upper diagonals, lags 1 - d..-1, are dropped


def _hermitian_form(h, omega):
    """v^H h v on the grid omega for a Hermitian h: its lag polynomial
    c_0 + 2 Re sum_{l >= 1} c_l z^l, the sum by Horner in z = e^{-i omega}."""
    lags = _lags(h)
    z = np.exp(-1j * np.asarray(omega, dtype=float))
    acc = np.zeros(z.shape, dtype=complex)
    for c in lags[:0:-1].tolist():
        acc += c
        acc *= z
    return lags[0].real + 2.0 * acc.real


def _check_subspace(d, k_sub):
    if not 0 < k_sub < d:
        raise ValueError(f"signal subspace size must lie in (0, {d}), got {k_sub}")


def dtft_spectrum(cov, omega):
    """Power spectrum |v(omega)^H Y|^2 = v^H R v on the grid of spatial
    frequencies omega, from the lags of R = Y Y^H."""
    return _hermitian_form(cov, omega)


def music_pseudospectrum(eigvecs, k_sub, omega):
    """MUSIC pseudospectrum 1 / |Q_n^H v|^2 on the grid, located only: the
    noise energy is the lag polynomial of Q_n Q_n^H, Q_n = eigvecs[:, k_sub:],
    within NOISE_POLY_ERR * D absolute (see music_candidates)."""
    _check_subspace(eigvecs.shape[0], k_sub)
    q_n = eigvecs[:, k_sub:]
    energy = _hermitian_form(q_n @ q_n.conj().T, omega)
    return 1.0 / np.maximum(energy, 1e-300)


def music_exact(eigvecs, k_sub, rows):
    """MUSIC pseudospectrum 1 / sum_{j >= k_sub} |q_j^H v|^2 at each of the
    P x D steering rows v, summed over the noise eigenvectors q_j.

    Every eigenvector's energy is computed and the signal ones dropped, so
    a one-column Q_n takes the same matrix product as a wider one.
    """
    _check_subspace(eigvecs.shape[0], k_sub)
    w = np.abs(eigvecs.conj().T @ rows.T)
    np.square(w, out=w)
    return 1.0 / np.maximum(np.sum(w[k_sub:], axis=0), 1e-300)


def music_candidates(values, d, count):
    """Sorted grid indices at which the exact MUSIC pseudospectrum can have
    one of its `count` highest local maxima, given its located curve
    `values` at D sensors, and the in-range neighbours of each.

    With e the noise energy 1 / values and tol = NOISE_POLY_ERR * D its
    error bound, an exact local maximum has e below both neighbours' plus
    2 tol (beyond either end counts as +inf), and a point below both by
    more than 2 tol surely is one.  A point whose e exceeds the count-th
    lowest sure maximum's by more than 3 tol is lower, exactly, than count
    maxima, so it is dropped.
    """
    energy = 1.0 / values
    tol = NOISE_POLY_ERR * d
    pad = np.concatenate(([np.inf], energy, [np.inf]))
    below = np.minimum(pad[:-2], pad[2:]) - energy
    idx = np.flatnonzero(below > -2 * tol)
    sure = energy[below > 2 * tol]
    if sure.size >= count:
        idx = idx[energy[idx] <= np.partition(sure, count - 1)[count - 1] + 3 * tol]
    near = np.concatenate((idx - 1, idx, idx + 1))
    return np.unique(near[(near >= 0) & (near < energy.size)])


def pick_peaks(values, count):
    """Grid indices of a spectrum's local maxima, height-descending, ties
    toward the smaller index.

    A point must strictly exceed both neighbors, with -inf beyond either
    end, so an end point gets a one-sided test; a NaN point, or one next
    to a NaN, is no peak (a curve known only in places).  Returns up to
    `count` indices, fewer when the curve has fewer maxima.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty spectrum curve")
    pad = np.concatenate(([-np.inf], v, [-np.inf]))
    idx = np.flatnonzero((v > pad[:-2]) & (v > pad[2:]))
    # stable sort on -height keeps the smaller index first on ties
    return idx[np.argsort(-v[idx], kind="stable")][:count]


def prefix_energies(v, cov):
    """Energies e_j = Re(q_j^H R q_j) of the covariance R = cov on the
    columns q_j of one reduced QR, V = Q T, of the D x P basis V, for
    j < P', P' the last prefix before the first rank-deficient one.

    Prefix K's columns span the same subspace as q_0..q_{K-1}, so
    e_0 + ... + e_{K-1} is the energy of Y that prefix K captures, read
    from R = Y Y^H.  A prefix is rank deficient (coincident steering
    vectors) when the smallest singular value of its columns is below
    1e-10 of its largest; T's leading K x K block has V_K's singular
    values (V_K = Q_K T_K), so the rule reads that block.  A column more
    never lowers the largest nor raises the smallest (interlacing; Horn &
    Johnson, Topics in Matrix Analysis, 1991, section 3.1), so the rule
    walks down from the whole P x P block to the first that passes, P':
    one SVD if every prefix is full rank, P - P' + 1 if not.
    """
    d, p = v.shape
    if p > d:
        raise ValueError(f"basis has more columns ({p}) than sensors ({d})")
    q, tri = np.linalg.qr(v)
    full = p
    while full:
        sv = np.linalg.svd(tri[:full, :full], compute_uv=False)
        if not sv[-1] < 1e-10 * sv[0]:
            break
        full -= 1
    rows = q[:, :full].conj().T
    # row q^H times R, times q = conj(q^H): the sum of (q^H R) conj(q^H)
    return np.sum((rows @ cov * rows.conj()).real, axis=1)


def projection_stats(y, v):
    """The energy s the column space of the full-rank D x K basis V
    captures of the D x M data Y, and Y's least-squares amplitudes A0 on V.

    One thin SVD V = U S W^H and one product B = U^H Y give both (Golub &
    Van Loan, Matrix Computations, section 5.5): s sums |B|^2, never
    forming (V^H V)^-1, and A0 = W S^-1 B is K x M.  A D x 0 basis has a
    D x 0 U, s = 0 and a 0 x M A0.  A lone row would take numpy's
    matrix-vector path, which sums otherwise, so K = 1 is multiplied as
    two rows and every s has the bits of a matrix product.  No singular
    value is cut off: a draw fits only steering prefixes that pass its
    scan's rank rule (prefix_energies), whose condition numbers are below
    1e10.  Returns (s, A0).
    """
    d, k = v.shape
    if k > d:
        raise ValueError(f"basis has more columns ({k}) than sensors ({d})")
    u, sv, vt = np.linalg.svd(v, full_matrices=False)
    uh = u.conj().T
    block = (np.concatenate((uh, uh)) @ y)[:1] if k == 1 else uh @ y
    a0 = (vt.conj().T / sv) @ block
    return float(np.sum(np.abs(block) ** 2)), a0
