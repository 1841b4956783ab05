import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from polyvar import make_curve, regular_polygon

# every @given test in the suite draws the same examples on every run
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def sq():
    """Unit square, counterclockwise, sigma = -1: the G^{1,4} fixture."""
    return make_curve([(1, 0), (0, 1), (-1, 0), (0, -1)], closed=True, sigma=-1)


@pytest.fixture
def pent52():
    """Pentagram G^{2,5} with radius 1."""
    return regular_polygon(5, 2, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
