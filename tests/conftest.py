"""Suite-wide settings: property tests run a fixed, bounded set of examples,
and every test starts with an empty gather-plan memo.

derandomize makes every run draw the same examples, so a failure repeats;
max_examples keeps the property tests inside the tier-1 time. The memo is
process-wide, so clearing it keeps a test from depending on which tests ran
before it.
"""

import pytest
from hypothesis import settings

from blockroll.engine import gather_plan

settings.register_profile("blockroll", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("blockroll")


@pytest.fixture(autouse=True)
def cold_gather_plans():
    gather_plan.cache_clear()
