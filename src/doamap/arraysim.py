"""Synthetic uniform-linear-array data for overlapping multi-tone sources.

Sensors sit at half-wavelength spacing, so a source arriving at angle phi
(degrees, upper half-space) has spatial frequency omega = pi*cos(phi) and
steering vector v_d = exp(j*omega*d), d = 1..D.  Each source is a band of
unit (or linearly decayed) amplitudes over on-bin DFT tones; the band layout
is controlled by the overlap ratio between consecutive sources.

Data are drawn in the frequency domain, Y = V A + Z.  The time-domain model
and its per-bin Fourier reduction, which on-bin tones make statistically
identical, live with the tests as the oracle this path is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayScenario",
    "spatial_frequency",
    "steering_matrix",
    "amplitude_matrix",
    "default_doas",
    "noise_variances",
    "synth_freq",
]


@dataclass(frozen=True)
class ArrayScenario:
    """Full description of one synthetic data draw."""

    d: int                 # sensor count
    k_true: int            # number of sources (0 allowed: pure noise)
    m: int                 # tone / FFT-bin count
    n: int                 # time samples (tones sit on the N-point DFT grid)
    doa_deg: tuple         # K_true arrival angles in [0, 180)
    overlap: float = 0.0   # band overlap ratio in [0, 1]
    decay: float = 0.0     # linear amplitude decay ratio in [0, 1]
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("need at least one sensor and one tone")
        if self.m > self.n:
            raise ValueError(f"tone count M={self.m} exceeds time samples N={self.n}")
        if self.k_true < 0 or len(self.doa_deg) != self.k_true:
            raise ValueError("doa_deg length must equal k_true")
        for phi in self.doa_deg:
            if not 0.0 <= phi < 180.0:
                raise ValueError(f"DOA {phi} outside [0, 180)")
        if not (0.0 <= self.overlap <= 1.0 and 0.0 <= self.decay <= 1.0):
            raise ValueError("overlap and decay must lie in [0, 1]")
        if not self.snr_db > -math.inf:  # +inf is the noiseless limit
            raise ValueError(f"snr_db must be a number above -inf, got {self.snr_db}")
        # |Y|^2 is about the noise energy D*M*sigma^2 <= D^2*M*10^(-SNR/10)
        # (peak power <= 1), and the DTFT spectrum and its lag polynomial's
        # partial sums are at most (2D+1)|Y|^2: with 16x room for the noise
        # draw's spread that bound must be a finite float (compared in log10,
        # so the check cannot overflow)
        snr_floor = 10.0 * (math.log10(16 * (2 * self.d + 1) * self.d ** 2 * self.m)
                            - math.log10(np.finfo(float).max))
        if self.snr_db <= snr_floor:
            raise ValueError(f"snr_db {self.snr_db:g} overflows the draw's spectra; "
                             f"it must exceed {snr_floor:.6g} at d={self.d}, m={self.m}")
        # pure noise draws Y = 0, which has no energy split, when each
        # part's noise variance underflows (always at +inf dB): its squares
        # must stay normal floats
        if self.k_true == 0 and not (noise_variances(self, amplitude_matrix(self))
                                     / 2 >= np.finfo(float).tiny):
            raise ValueError(f"a pure-noise scenario (k_true = 0) at snr_db "
                             f"{self.snr_db:g} draws all-zero data; lower snr_db")


def spatial_frequency(doa_deg):
    """omega = pi*cos(phi) of arrival angles in degrees, mapped into
    [-pi, pi): 0 degrees and 180 degrees are both omega = -pi."""
    angles = np.atleast_1d(np.asarray(doa_deg, dtype=float))
    omegas = np.pi * np.cos(np.deg2rad(angles))
    return np.where(omegas >= np.pi, omegas - 2 * np.pi, omegas)


def steering_matrix(doa_deg, d):
    """D x K steering matrix for arrival angles in degrees.

    Column k is exp(j*omega_k*d), d = 1..D, with omega_k the
    spatial_frequency of phi_k; each column has squared norm D.
    """
    omegas = spatial_frequency(doa_deg)
    return np.exp(1j * np.outer(np.arange(1, d + 1), omegas))


def default_doas(k):
    """Equally separated angles 10 + (k-1)*floor(170/K) degrees."""
    if k == 0:
        return ()
    step = math.floor(170.0 / k)
    return tuple(10.0 + i * step for i in range(k))


def amplitude_matrix(scenario: ArrayScenario):
    """True K x M amplitudes: banded indicators with linear decay.

    Band k (1-based) covers bins [m_k, m_k + BW] inclusive with
    BW = floor(M/K) and m_k = 1 + (k-1)*ceil((1-overlap)*BW); the entry value
    is 1 - decay*(k-1)/K.
    """
    k, m = scenario.k_true, scenario.m
    a = np.zeros((k, m))
    if k == 0:
        return a
    bw = m // k
    offset = math.ceil((1.0 - scenario.overlap) * bw)
    for i in range(k):
        start = i * offset            # 0-based index of bin m_k
        stop = min(start + bw + 1, m)  # band inclusive of m_k + BW
        a[i, start:stop] = 1.0 - scenario.decay * i / k
    return a


def noise_variances(scenario: ArrayScenario, amps):
    """Per-entry frequency-domain noise variance implied by the target SNR.

    SNR is max-source power per tone over the projected noise variance
    sigma0^2 = sigma^2/D; inverting gives sigma^2 = D * max_k(|a_k|^2/M)
    * 10^(-SNR/10), with amps the K x M amplitude matrix.  A pure-noise
    scenario uses unit reference power.
    """
    if scenario.k_true > 0:
        peak_power = float(np.max(np.sum(np.abs(amps) ** 2, axis=1)) / scenario.m)
    else:
        peak_power = 1.0
    sigma0_sq = peak_power * 10.0 ** (-scenario.snr_db / 10.0)
    return scenario.d * sigma0_sq


def synth_freq(scenario: ArrayScenario, rng=None):
    """Frequency-domain data Y = V A + Z (complex D x M) with circular
    complex AWGN Z of per-entry variance noise_variances(scenario, A).

    Y is written in place: its real plane, then its imaginary plane (the
    stream order), each gains one scaled standard-normal draw made in a
    single D x M float buffer.  Per component that is the IEEE arithmetic
    of V A + sqrt(var/2) * (a + 1j*b), so Y has that expression's bits
    without its draw-sized complex temporaries.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    amps = amplitude_matrix(scenario)
    var = noise_variances(scenario, amps)
    # K = 0 is a D x 0 times 0 x M product: the zero matrix
    y = steering_matrix(scenario.doa_deg, scenario.d) @ amps.astype(complex)
    scale = math.sqrt(var / 2.0)
    noise = np.empty(y.shape)
    for part in (y.real, y.imag):
        rng.standard_normal(out=noise)
        noise *= scale
        part += noise
    return y
