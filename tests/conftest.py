"""Suite-wide test settings.

Hypothesis draws the same examples on every run (seeded from each test
function), so a test's cost and outcome do not change between runs of
one tree.  Per-test max_examples and deadline settings are unchanged.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
