"""Settings shared by every test directory.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: examples are drawn
from a fixed seed, so a property that fails on a commit fails the same way
on every rerun of it, and the failing example's blob is printed for
``@reproduce_failure``. Without the variable, hypothesis's default profile
applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
