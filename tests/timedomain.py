"""Time-domain array model: the oracle the frequency-domain synthesis is checked against.

`synth_time` draws X = V A W + E over N time samples, with each source's
band of on-bin DFT tones in W, and `fft_reduce` projects X back onto the
tone bins.  With on-bin tones W W^H = N*I, so the reduction of X is
statistically identical to `doamap.arraysim.synth_freq`'s Y = V A + Z,
which the package draws directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from doamap.arraysim import (
    ArrayScenario,
    amplitude_matrix,
    noise_variances,
    steering_matrix,
)


@dataclass(frozen=True)
class TimeData:
    x: np.ndarray          # complex D x N sensor output


def complex_awgn(rng, shape, var):
    """Circular complex AWGN of per-entry variance var: all real parts are
    drawn first, then all imaginary parts."""
    scale = math.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _tone_matrix(tone_freqs, n):
    """M x N matrix of on-grid tones w_{m,t} = exp(j*gamma_m*t), t = 1..N."""
    t = np.arange(1, n + 1)
    return np.exp(1j * np.outer(np.asarray(tone_freqs, dtype=float), t))


def tone_grid(m, n):
    """Default DFT-bin tone frequencies gamma_m = 2*pi*(m-1)/N, m = 1..M."""
    return 2 * np.pi * np.arange(m) / n


def synth_time(scenario: ArrayScenario, rng=None):
    """Time-domain data X = V A W + E with AWGN of power N*sigma^2."""
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    amps = amplitude_matrix(scenario)
    var_freq = noise_variances(scenario, amps)
    w = _tone_matrix(tone_grid(scenario.m, scenario.n), scenario.n)
    e = complex_awgn(rng, (scenario.d, scenario.n), scenario.n * var_freq)
    if scenario.k_true == 0:
        return TimeData(x=e)
    v = steering_matrix(scenario.doa_deg, scenario.d)
    return TimeData(x=v @ (amps.astype(complex) @ w) + e)


def fft_reduce(data: TimeData, tone_freqs):
    """Project time data onto the tone bins: Y = X W^H / N (D x M).

    With on-bin tones W W^H = N*I, so a noiseless round trip through
    synth_time reproduces V A exactly.
    """
    n = data.x.shape[1]
    w = _tone_matrix(tone_freqs, n)
    return data.x @ w.conj().T / n
