"""Test-suite settings: Hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each property test from its own source; with no example
# database no run replays another run's failures
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
