"""Shared test settings.

Hypothesis runs derandomized (the same examples on every run) and without a
per-example deadline, since one paper-degree kernel call plus its oracle
takes tens of milliseconds.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
