"""Cross-cutting invariants exercised over randomized inputs."""

import numpy as np
import pytest

from bayesindices import (
    CauchyPrior,
    DensityGrid,
    SufficientStats,
    map_estimate,
    map_p_value,
    normalize_grid,
    posterior_density_grid,
    probability_of_direction,
    rope_decision,
)
from bayesindices.indices import Rope


def _stats(t, n=50):
    return SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2.0, n1=n, n2=n)


def test_every_operation_returns_normalized_grids():
    rng = np.random.default_rng(23)
    grids = [
        posterior_density_grid(_stats(1.7), CauchyPrior(1.0)),
        posterior_density_grid(_stats(0.0, n=12), CauchyPrior(np.sqrt(2))),
        posterior_density_grid(_stats(3.3, n=80), CauchyPrior(np.sqrt(2) / 2), grid_size=2048),
        normalize_grid(DensityGrid(np.linspace(0, 1, 64), rng.uniform(0.1, 2.0, 64))),
    ]
    for grid in grids:
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_rope_verdict_invariant_under_affine_rescaling():
    rng = np.random.default_rng(77)
    x = np.linspace(-6, 6, 1501)
    for _ in range(6):
        mu = rng.uniform(-0.5, 1.2)
        sd = rng.uniform(0.05, 0.8)
        grid = normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - mu) / sd) ** 2)))
        rope = Rope(-0.1, 0.1)
        base = rope_decision(grid, rope, 0.95).verdict
        a, b = 2.5, 0.3
        scaled = normalize_grid(DensityGrid(a * x + b, grid.densities / a))
        scaled_rope = Rope(a * rope.lower + b, a * rope.upper + b)
        assert rope_decision(scaled, scaled_rope, 0.95).verdict == base


def test_pd_invariant_under_odd_increasing_transform():
    # y = x + x^3 keeps every sign, so the mass on the median's side is the
    # same; the density of y is the density of x over dy/dx = 1 + 3x^2
    x = np.linspace(-6, 6, 3001)
    for mu in (-0.7, 0.2, 0.9):
        grid = normalize_grid(DensityGrid(x, np.exp(-0.5 * (x - mu) ** 2)))
        transformed = normalize_grid(DensityGrid(x + x**3, grid.densities / (1 + 3 * x * x)))
        assert probability_of_direction(transformed) == pytest.approx(
            probability_of_direction(grid), abs=1e-5
        )


def test_p_map_is_one_exactly_at_the_mode():
    x = np.linspace(-5, 5, 2001)
    for mu in (-1.2, 0.0, 0.7):
        grid = normalize_grid(DensityGrid(x, np.exp(-0.5 * (x - mu) ** 2)))
        loc = map_estimate(grid).location
        assert map_p_value(grid, loc) == pytest.approx(1.0, abs=1e-6)
        off = map_p_value(grid, loc + 0.5)
        assert off < 1.0 - 1e-3
