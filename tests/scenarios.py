"""The tests' shorthand for a scenario: default DOAs, banded amplitudes."""

from doamap.arraysim import ArrayScenario, default_doas


def default_scenario(d, k, m, n, overlap=0.0, decay=0.0, snr_db=20.0, seed=0):
    """Scenario with the default equally-spaced DOAs and banded amplitudes."""
    return ArrayScenario(
        d=d, k_true=k, m=m, n=n, doa_deg=default_doas(k),
        overlap=overlap, decay=decay, snr_db=snr_db, seed=seed,
    )
