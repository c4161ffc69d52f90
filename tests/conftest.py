import numpy as np
import pytest

from bayesindices import DensityGrid
from bayesindices.replicate import reference_analysis


@pytest.fixture(scope="session")
def reference():
    """Calibrated reference analysis, shared across the suite (slowish)."""
    return reference_analysis()


@pytest.fixture(scope="session")
def normal_grid():
    """Standard normal density tabulated on a wide grid including 0."""
    x = np.linspace(-8.0, 8.0, 4097)
    dens = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    return DensityGrid(x, dens)
