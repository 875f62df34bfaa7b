"""Evaluation metrics: the DOA error rate and the amplitude RMSE.

Both take plain angle sequences in any order; `rmse_amplitude` pairs each
angle with the amplitude row at the same index.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "err_doa",
    "rmse_amplitude",
]


def _angles(doas):
    """Arrival angles as a float array, each checked to lie in [0, 180)."""
    angles = np.asarray(doas, dtype=float).reshape(-1)
    bad = angles[~((angles >= 0.0) & (angles < 180.0))]
    if bad.size:
        raise ValueError(f"DOA {bad[0]} outside [0, 180)")
    return angles


def err_doa(est_doas, true_doas):
    """Mean nearest-truth angular error, normalized by 180 degrees.

    Returns 1.0 when no sources were detected.  Each estimated angle is
    charged its distance to the closest true angle, so extra estimates near a
    true DOA lower the score; that asymmetry is deliberate (documented caveat).
    """
    # sorted so that the mean's summation order, and so its bits, do not
    # depend on the order the estimates come in
    e, t = np.sort(_angles(est_doas)), _angles(true_doas)
    if t.size == 0:
        raise ValueError("truth must contain at least one DOA")
    if e.size == 0:
        return 1.0
    nearest = np.min(np.abs(e[:, None] - t[None, :]), axis=1)
    return float(np.mean(nearest) / 180.0)


def rmse_amplitude(est_amps, est_doas, true_amps, true_doas):
    """RMSE between cumulative power spectra of true and estimated sources.

    Row k of each amplitude matrix belongs to angle k of its DOA sequence.
    Each tone m defines a right-continuous step function of angle
    accumulating |a_{k,m}|^2 at each DOA; the squared difference is
    integrated exactly over [0, 180] by summing over the merged breakpoint
    segments, then averaged over tones and square-rooted.  A zero-row
    estimate (no sources) scores against the full true spectrum.

    est_amps may also be an S x P x M stack of estimates that share
    est_doas; one pass over the events then returns the list of their S
    RMSEs, each with the bits of its own call.
    """
    true_amps = np.atleast_2d(np.asarray(true_amps))
    est_amps = np.asarray(est_amps)
    stacked = est_amps.ndim == 3
    if not stacked:
        est_amps = np.atleast_2d(est_amps)[None]
    true_doas, est_doas = _angles(true_doas), _angles(est_doas)
    m = true_amps.shape[1]
    if true_doas.size != true_amps.shape[0]:
        raise ValueError("true amplitude rows must match true DOA count")
    if est_amps.shape[2] != m:
        raise ValueError("estimated amplitudes must have the same tone count")
    if est_doas.size != est_amps.shape[1]:
        raise ValueError("estimated amplitude rows must match estimated DOA count")

    # events carry one S x M row per source: [k, s] is source k's power
    # row as estimate s scales it
    true_pow = np.abs(true_amps).astype(float, copy=False)[:, None]
    est_pow = np.abs(est_amps).astype(float, copy=False).transpose(1, 0, 2)
    # every power |a|^2 of estimate s is taken at scale 2^-2e, e the
    # exponent of the largest |a| of its own call, so neither it nor a
    # squared difference can overflow; a power-of-two scale rounds as the
    # unscaled arithmetic would
    exp = np.frexp(np.maximum(true_pow.max(initial=0.0),
                              est_pow.max(axis=(0, 2), initial=0.0)))[1]
    scale = -exp[:, None]
    true_pow = np.square(np.ldexp(true_pow, scale))
    est_pow = np.square(np.ldexp(est_pow, scale))
    events = list(zip(true_doas.tolist(), true_pow))
    events += [(a, -p) for a, p in zip(est_doas.tolist(), est_pow)]
    events.sort(key=lambda e: e[0])

    total = np.zeros(exp.size)
    diff = np.zeros((exp.size, m))
    sq = np.empty_like(diff)  # scratch rows for diff**2
    prev = 0.0
    for angle, delta in events:
        total += (angle - prev) * np.square(diff, out=sq).sum(axis=1)
        diff += delta
        prev = angle
    total += (180.0 - prev) * np.square(diff, out=sq).sum(axis=1)
    rmse = np.ldexp(np.sqrt(total / m), 2 * exp).tolist()
    return rmse if stacked else rmse[0]
