"""The shared ``rng`` fixture; instance builders live in :mod:`imdot.checks`."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
