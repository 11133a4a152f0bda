"""Shared test configuration.

Every ``hypothesis`` property test runs under one profile: examples are
derived from the test itself (``derandomize``), so the suite is
deterministic, no example database is written, and there is no per-example
deadline (the first call of a numpy kernel can be slow).  Tests set only
their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("gruss-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("gruss-lab")
