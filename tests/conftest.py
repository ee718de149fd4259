"""One hypothesis profile for the whole suite.

derandomize=True draws the same examples on every run, so a property
failure reproduces on rerun and the verdict does not depend on the run.
deadline=None, because a loaded machine can make single examples slow.
"""

from hypothesis import settings

settings.register_profile("pklap", deadline=None, derandomize=True)
settings.load_profile("pklap")
