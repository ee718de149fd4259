"""One hypothesis profile for the whole suite.

derandomize=True draws the same examples on every run, so a property
failure reproduces on rerun and the verdict does not depend on the run.
deadline=None, because a loaded machine can make single examples slow.
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
