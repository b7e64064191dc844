"""Test-suite configuration: one Hypothesis profile for every property
test, deterministic and without an example database on disk."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fusionalg", derandomize=True, deadline=None, database=None)
settings.load_profile("fusionalg")


def pytest_configure(config):
    """Hypothesis also caches the constants of the modules under test on
    disk, whatever the profile says; keep that cache inside pytest's own
    cache directory instead of a ``.hypothesis/`` of its own."""
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
