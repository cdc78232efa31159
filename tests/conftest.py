import numpy as np
import pytest

import svddf


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_grid(rng, rows, cols, lo=0.0, hi=1.0):
    return svddf.ImageGrid(rng.uniform(lo, hi, size=(rows, cols)))


def random_field(rng, rows, cols, p=1.0, epsilon=1e-2, sigma=1.0):
    grid = random_grid(rng, rows, cols)
    return svddf.diffusivity_half(grid, epsilon, p, svddf.GaussianKernel(sigma))
