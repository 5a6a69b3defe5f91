"""Suite-wide settings: property tests run a fixed, bounded set of examples.

derandomize makes every run draw the same examples, so a failure repeats;
max_examples keeps the property tests inside the tier-1 time.
"""

from hypothesis import settings

settings.register_profile("blockroll", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("blockroll")
