"""Wall times at a reference machine speed.

On the shared 2-core host this benchmark was built on, the processor
changes speed for seconds to tens of seconds at a time: the same desk draw
takes about 38 ms, then about 60 ms, and a plain Python loop slows by the
same factor.  Averaging inside one run cannot remove that, so every timed
interval is also reported scaled to a reference speed.

While a `Speedometer` is active, a SIGALRM every PERIOD_S seconds runs a
fixed interpreter loop in this process, on the core doing the work, and
records how long it took.  A scaled interval is its wall time times
REF_KERNEL_S over the loop's median time from WINDOW_S before the interval
to WINDOW_S after it.  Over eight identity-suite passes the wall time
varied by 14% (coefficient of variation) and the scaled time by 3%.  The
loop costs about 0.6% of the run, lands in whatever code is running when
the signal arrives, and never touches doamap, so no change to the package
can move its speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.02
KERNEL_N = 2000
# About the loop's time on the host above when it runs fast; only ratios
# between runs matter.
REF_KERNEL_S = 0.0001
# Samples this close outside an interval also count toward its speed.
WINDOW_S = 0.25
# Intervals with fewer samples take the nearest ones around their middle.
MIN_SAMPLES = 4


class Speedometer:
    """Samples this process's speed from SIGALRM inside a `with` block."""

    def __init__(self):
        self._times, self._kernels = [], []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        acc = 0
        for j in range(KERNEL_N):
            acc += j * j
        t1 = time.perf_counter()
        self._times.append((t0 + t1) / 2)
        self._kernels.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 (`time.perf_counter()`) at reference speed."""
        i = bisect_left(self._times, t0 - WINDOW_S)
        j = bisect_right(self._times, t1 + WINDOW_S)
        if j - i < MIN_SAMPLES:
            k = bisect_left(self._times, (t0 + t1) / 2)
            i = max(0, k - MIN_SAMPLES // 2)
            j = min(len(self._times), i + MIN_SAMPLES)
        return (t1 - t0) * REF_KERNEL_S / statistics.median(self._kernels[i:j])
