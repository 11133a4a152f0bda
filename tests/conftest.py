"""Shared test configuration.

Every ``hypothesis`` property test runs under one profile: examples are
derived from the test itself (``derandomize``), so the suite is
deterministic, no example database is written, and there is no per-example
deadline (the first call of a numpy kernel can be slow).  Tests set only
their own ``max_examples``.
"""

import numpy as np
import pytest
from hypothesis import settings

from gruss_lab import from_choi

settings.register_profile("gruss-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("gruss-lab")


@pytest.fixture
def non_hermitian_map():
    """A unital map on M_2 whose Choi matrix I/2 + (E_00 - E_11) (x) N/4,
    N = [[0, 1], [-1, 0]], is not Hermitian: Phi(E_00) = I/2 + N/4 is not,
    so Phi does not preserve adjoints and is not positive."""
    n = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return from_choi(np.eye(4) / 2 + 0.25 * np.kron(np.diag([1.0, -1.0]), n), 2, 2)
