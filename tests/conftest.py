"""One hypothesis profile for the whole suite.

derandomize=True draws the same examples on every run, so a property
failure reproduces on rerun and the verdict does not depend on the run.
deadline=None, because a loaded machine can make single examples slow.

The fixtures empty the process caches and set the sample counts of the
sampled checks, which are module constants, for one test.
"""

import pytest
from hypothesis import settings

from pklap import analysis, solvers

settings.register_profile("pklap", deadline=None, derandomize=True)
settings.load_profile("pklap")


@pytest.fixture
def cold_caches():
    """Empties the per-process caches of the xi descent and of the solver's
    random starts, so that a test counting that work sees it run whatever
    ran before it in the process."""
    analysis._xi_minimum.cache_clear()
    solvers._random_starts.cache_clear()


@pytest.fixture
def a_samples(monkeypatch):
    """Sets the sample counts of check_growth and check_bounds for one test:
    a_samples(n) draws n samples per condition and max(n // 32, 8) random t
    per A.6 shell, the counts that production's 4000 and 125 scale from."""

    def set_count(n):
        monkeypatch.setattr(analysis, "_A_SAMPLES", n)
        monkeypatch.setattr(analysis, "_A6_PER_SHELL", max(n // 32, 8))

    return set_count


@pytest.fixture
def b2_samples(monkeypatch):
    """Sets check_b2_b3's counts for one test: b2_samples(ndirs, per_dir)
    draws ndirs directions with per_dir sample pairs along each."""

    def set_count(ndirs, per_dir):
        monkeypatch.setattr(analysis, "_B2_DIRECTIONS", ndirs)
        monkeypatch.setattr(analysis, "_B2_PER_DIRECTION", per_dir)

    return set_count
