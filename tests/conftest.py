"""Shared fixtures: coarse converged runs reused across test modules."""

import numpy as np
import pytest

from vortexring.profiles import make_generator
from vortexring.solver import ProblemConfig, run


@pytest.fixture(scope="session")
def coarse_turkington():
    """Converged swirl run on a light grid: fast, converges in ~110 steps."""
    config = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=400)
    gen = make_generator("turkington", alpha=1.0)
    result = run(config, gen)
    assert result.converged
    return result


@pytest.fixture(scope="session")
def coarse_power_law():
    """No-swirl run on the same light grid; iteration-capped is acceptable
    here, the full-resolution convergence story lives in the acceptance
    tests."""
    config = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=150)
    gen = make_generator("power_law", p=1.0)
    return run(config, gen)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def per_cell_csv():
    """The text of a field as a per-cell writer puts it: the header, then
    one "%.17g,%.17g,%.17g" row r,z,value per cell, row-major. The bytes
    grid.dump_field_csv must write."""
    def text(f):
        rs, zs = f.spec.r_centers, f.spec.z_centers
        return "r,z,value\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (rs[i], zs[j], f.values[i, j])
            for i in range(f.spec.n_r) for j in range(f.spec.n_z))
    return text
