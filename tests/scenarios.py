"""The tests' shorthands: a scenario with default DOAs and banded
amplitudes, and the order splits a draw's fits build."""

import numpy as np

from doamap.arraysim import ArrayScenario, default_doas
from doamap.ordermap import ProjectionStats
from doamap.subspace import projection_stats


def default_scenario(d, k, m, n, overlap=0.0, decay=0.0, snr_db=20.0, seed=0):
    """Scenario with the default equally-spaced DOAs and banded amplitudes."""
    return ArrayScenario(
        d=d, k_true=k, m=m, n=n, doa_deg=default_doas(k),
        overlap=overlap, decay=decay, snr_db=snr_db, seed=seed,
    )


def order_splits(post, norm2_y, d, m):
    """The split of every order K = 0..len(post.s) - 1 a scan scored, as
    run_single builds order K's: from_energy on the scan's clamped s[K]."""
    return [ProjectionStats.from_energy(s, norm2_y, k, d, m)
            for k, s in enumerate(post.s)]


def y_split(y, v, m):
    """Y's split on the D x K basis V, as run_single builds a spectrum's:
    from_energy on the energy projection_stats captures."""
    d, k = v.shape
    return ProjectionStats.from_energy(projection_stats(y, v)[0],
                                       float(np.sum(np.abs(y) ** 2)), k, d, m)
