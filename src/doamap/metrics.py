"""Evaluation metrics: the DOA error rate and the amplitude RMSE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DoaEstimate",
    "err_doa",
    "rmse_amplitude",
]


@dataclass(frozen=True)
class DoaEstimate:
    """Ascending arrival angles in [0, 180); may be empty (no sources found)."""

    angles_deg: tuple

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        for a in angles:
            if not 0.0 <= a < 180.0:
                raise ValueError(f"angle {a} outside [0, 180)")
        if any(b < a for a, b in zip(angles, angles[1:])):
            raise ValueError("angles must be nondecreasing")
        object.__setattr__(self, "angles_deg", angles)

    def __len__(self):
        return len(self.angles_deg)


def err_doa(est: DoaEstimate, truth: DoaEstimate):
    """Mean nearest-truth angular error, normalized by 180 degrees.

    Returns 1.0 when no sources were detected.  Each estimated angle is
    charged its distance to the closest true angle, so extra estimates near a
    true DOA lower the score; that asymmetry is deliberate (documented caveat).
    """
    if len(truth) == 0:
        raise ValueError("truth must contain at least one DOA")
    if len(est) == 0:
        return 1.0
    e = np.asarray(est.angles_deg)
    t = np.asarray(truth.angles_deg)
    nearest = np.min(np.abs(e[:, None] - t[None, :]), axis=1)
    return float(np.mean(nearest) / 180.0)


def rmse_amplitude(est_amps, est_doas, true_amps, true_doas):
    """RMSE between cumulative power spectra of true and estimated sources.

    Each tone m defines a right-continuous step function of angle
    accumulating |a_{k,m}|^2 at each DOA; the squared difference is
    integrated exactly over [0, 180] by summing over the merged breakpoint
    segments, then averaged over tones and square-rooted.  A zero-row
    estimate (no sources) scores against the full true spectrum.
    """
    true_amps = np.atleast_2d(np.asarray(true_amps))
    m = true_amps.shape[1]
    if len(true_doas) != true_amps.shape[0]:
        raise ValueError("true amplitude rows must match true DOA count")
    if est_amps is None or np.size(est_amps) == 0:
        est_amps = np.zeros((0, m))
        est_doas = ()
    est_amps = np.atleast_2d(np.asarray(est_amps))
    if est_amps.shape[1] != m:
        raise ValueError("estimated amplitudes must have the same tone count")
    if len(est_doas) != est_amps.shape[0]:
        raise ValueError("estimated amplitude rows must match estimated DOA count")
    for a in tuple(true_doas) + tuple(est_doas):
        if not 0.0 <= a < 180.0:
            raise ValueError(f"DOA {a} outside [0, 180)")

    events = [(float(a), np.abs(true_amps[k]) ** 2) for k, a in enumerate(true_doas)]
    events += [(float(a), -np.abs(est_amps[k]) ** 2) for k, a in enumerate(est_doas)]
    events.sort(key=lambda e: e[0])

    total = 0.0
    diff = np.zeros(m)
    prev = 0.0
    for angle, delta in events:
        total += (angle - prev) * float(np.sum(diff**2))
        diff = diff + delta
        prev = angle
    total += (180.0 - prev) * float(np.sum(diff**2))
    return math.sqrt(total / m)
