import numpy as np
import pytest

from bayesindices import (
    CredibleInterval,
    DensityGrid,
    ReferenceFunction,
    hpd_interval,
    level_set_mass,
    map_estimate,
    mass_in_interval,
    normalize_grid,
)
from bayesindices.errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    MultimodalHpdError,
)
from bayesindices.posterior import _hpd_threshold, _level_mass

# ---------------------------------------------------------------- types

def test_density_grid_validation():
    x = np.linspace(0, 1, 64)
    DensityGrid(x, np.ones(64))
    with pytest.raises(InvalidArgumentError):
        DensityGrid(x[:32], np.ones(32))  # too few points
    with pytest.raises(InvalidArgumentError):
        DensityGrid(x[::-1], np.ones(64))  # decreasing
    with pytest.raises(InvalidArgumentError):
        DensityGrid(x, -np.ones(64))  # negative densities
    with pytest.raises(InvalidArgumentError):
        DensityGrid(x, np.ones(63))  # length mismatch
    grid = DensityGrid(x, np.ones(64))
    with pytest.raises(ValueError):
        grid.points[0] = 5.0  # immutable
    with pytest.raises(ValueError):
        grid.densities[0] = 5.0


def test_credible_interval_validation():
    CredibleInterval(0.0, 1.0, 0.95)
    with pytest.raises(InvalidArgumentError):
        CredibleInterval(1.0, 0.0, 0.95)
    with pytest.raises(InvalidArgumentError):
        CredibleInterval(0.0, 1.0, 1.2)


def test_reference_function_validation():
    flat = ReferenceFunction.flat()
    assert flat.prior is None
    with pytest.raises(InvalidArgumentError):
        ReferenceFunction("prior", None)
    with pytest.raises(InvalidArgumentError):
        ReferenceFunction("banana")


# ---------------------------------------------------------------- normalize

def test_normalize_uniform():
    x = np.linspace(0, 1, 101)
    grid = normalize_grid(DensityGrid(x, np.full(101, 2.0)))
    assert np.allclose(grid.densities, 1.0)


def test_normalize_idempotent(normal_grid):
    once = normalize_grid(normal_grid)
    twice = normalize_grid(once)
    assert np.max(np.abs(once.densities - twice.densities)) < 1e-12


def test_normalize_zero_grid():
    x = np.linspace(0, 1, 64)
    with pytest.raises(DegenerateDensityError):
        normalize_grid(DensityGrid(x, np.zeros(64)))


# ---------------------------------------------------------------- hpd

def test_hpd_grid_standard_normal(normal_grid):
    got = hpd_interval(normalize_grid(normal_grid), 0.95)
    assert got.lower == pytest.approx(-1.959964, abs=2e-4)
    assert got.upper == pytest.approx(1.959964, abs=2e-4)


def test_hpd_mass_validation(normal_grid):
    with pytest.raises(InvalidArgumentError):
        hpd_interval(normalize_grid(normal_grid), 1.2)


@pytest.mark.parametrize("mass", [0.5, 0.9, 0.95, 0.99])
def test_hpd_grid_holds_its_mass_between_equal_densities(mass):
    # the threshold is solved exactly on the piecewise-linear density: the
    # interval holds `mass`, and the density is the same at both ends
    x = np.linspace(-4.0, 12.0, 2001)
    shapes = (
        np.exp(-0.5 * x * x),                                       # symmetric
        np.where(x > 0, x ** 2 * np.exp(-x), 0.0),                  # skewed, zero plateau
        1.0 / (1.0 + (x / 1e-3) ** 2) + 1e-3 * np.exp(-0.5 * x * x),  # spike on a floor
        # a floor so low that most of its segments are nearly flat beside the
        # spike: at mass 0.99 the threshold lies among their close densities
        1.0 / (1.0 + (x / 1e-3) ** 2) + 1e-4 * np.exp(-0.5 * x * x),
    )
    for dens in shapes:
        grid = normalize_grid(DensityGrid(x, dens))
        got = hpd_interval(grid, mass)
        assert mass_in_interval(grid, got.lower, got.upper) == pytest.approx(mass, abs=1e-13)
        ends = grid.density_at(np.array([got.lower, got.upper]))
        assert ends[0] == pytest.approx(ends[1], rel=1e-9)


def _random_grid(rng) -> DensityGrid:
    """64-3000 unevenly spaced points under one to four modes, with zero
    plateaus and tied densities in about half the grids each."""
    n = int(rng.integers(64, 3001))
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    x = 20.0 * (x - x[0]) / (x[-1] - x[0]) - 10.0
    dens = np.zeros(n)
    for _ in range(int(rng.integers(1, 5))):
        dens += rng.uniform(0.1, 1.0) * np.exp(
            -0.5 * ((x - rng.uniform(-8.0, 8.0)) / rng.uniform(0.05, 3.0)) ** 2)
    if rng.random() < 0.5:
        dens = np.where(dens < rng.uniform(0.0, 0.3) * dens.max(), 0.0, dens)
    if rng.random() < 0.5:
        quantum = 10.0 ** -int(rng.integers(1, 4))
        dens = np.round(dens / quantum) * quantum
    return normalize_grid(DensityGrid(x, dens))


@pytest.mark.parametrize("seed", range(8))
def test_hpd_threshold_on_random_grids(seed):
    # the enclosed mass is checked by `_level_mass`, a separate implementation
    rng = np.random.default_rng(seed)
    for _ in range(40):
        grid = _random_grid(rng)
        x, dens = grid.points, grid.densities
        lo, hi = np.minimum(dens[:-1], dens[1:]), np.maximum(dens[:-1], dens[1:])
        for mass in (0.01, 0.999999, *np.exp(rng.uniform(np.log(0.01), np.log(0.999999), 4))):
            tau = _hpd_threshold(x, dens, mass)
            # off the node densities, the superlevel set holds the mass exactly
            if np.any((lo < tau) & (tau < hi)) and not np.any(dens == tau):
                assert _level_mass(x, dens, dens, tau, above=True) == pytest.approx(mass, abs=1e-13)
            # and the next node density up holds less
            higher = dens[dens > tau]
            if higher.size:
                assert _level_mass(x, dens, dens, higher.min(), above=True) < mass


def test_hpd_multimodal_grid_raises():
    x = np.linspace(-6, 6, 1201)
    dens = np.exp(-0.5 * (x - 3) ** 2) + np.exp(-0.5 * (x + 3) ** 2)
    grid = normalize_grid(DensityGrid(x, dens))
    with pytest.raises(MultimodalHpdError) as excinfo:
        hpd_interval(grid, 0.5)
    segments = excinfo.value.segments
    assert len(segments) == 2
    assert segments[0][1] < segments[1][0]


# ---------------------------------------------------------------- mass in interval

def test_mass_full_support(normal_grid):
    grid = normalize_grid(normal_grid)
    lo, hi = grid.support
    assert mass_in_interval(grid, lo, hi) == pytest.approx(1.0, abs=1e-6)


def test_mass_zero_width(normal_grid):
    assert mass_in_interval(normalize_grid(normal_grid), 0.3, 0.3) == 0.0


def test_mass_order_validation(normal_grid):
    with pytest.raises(InvalidArgumentError):
        mass_in_interval(normal_grid, 1.0, -1.0)


def test_mass_partial_segment_matches_analytic(normal_grid):
    from scipy.stats import norm
    grid = normalize_grid(normal_grid)
    got = mass_in_interval(grid, -0.777, 1.234)
    assert got == pytest.approx(norm.cdf(1.234) - norm.cdf(-0.777), abs=1e-6)


# ---------------------------------------------------------------- map estimate

def test_map_symmetric_grid(normal_grid):
    est = map_estimate(normal_grid)
    assert est.location == pytest.approx(0.0, abs=16 / 4096)
    assert not est.at_boundary


def test_map_quadratic_refinement():
    # density sampled from a parabola peaked off-grid: refinement recovers it
    x = np.linspace(0, 1, 101)
    peak = 0.5037
    dens = 2.0 - (x - peak) ** 2
    est = map_estimate(DensityGrid(x, dens))
    assert est.location == pytest.approx(peak, abs=1e-12)
    assert est.density == pytest.approx(2.0, abs=1e-12)


def test_map_monotone_grid_flags_boundary():
    x = np.linspace(0, 1, 64)
    est = map_estimate(DensityGrid(x, np.linspace(0.5, 1.5, 64)))
    assert est.location == 1.0
    assert est.at_boundary


def test_map_tie_takes_smallest_location():
    x = np.linspace(0, 1, 64)
    dens = np.ones(64)
    est = map_estimate(DensityGrid(x, dens))
    assert est.location == 0.0


# ---------------------------------------------------------------- level set mass

def test_level_set_zero_threshold(normal_grid):
    assert level_set_mass(normalize_grid(normal_grid), 0.0) == 0.0


def test_level_set_at_max(normal_grid):
    grid = normalize_grid(normal_grid)
    thr = float(grid.densities.max())
    assert level_set_mass(grid, thr) == pytest.approx(1.0, abs=1e-6)


def test_level_set_negative_threshold(normal_grid):
    with pytest.raises(InvalidArgumentError):
        level_set_mass(normal_grid, -0.1)


def test_level_set_matches_fine_grid_oracle():
    # brute-force integration on a 10x finer grid
    rng = np.random.default_rng(42)
    for _ in range(5):
        mu = rng.uniform(-1, 1)
        sd = rng.uniform(0.5, 2.0)
        x = np.linspace(-8, 8, 801)
        grid = normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - mu) / sd) ** 2)))
        thr = rng.uniform(0.2, 0.8) * grid.densities.max()
        fine = np.linspace(-8, 8, 8001)
        fine_dens = np.interp(fine, grid.points, grid.densities)
        oracle = np.trapezoid(np.where(fine_dens <= thr, fine_dens, 0.0), fine)
        assert level_set_mass(grid, thr) == pytest.approx(oracle, abs=1e-3)


def test_level_set_monotone_in_threshold(normal_grid):
    grid = normalize_grid(normal_grid)
    thresholds = np.linspace(0, grid.densities.max() * 1.1, 40)
    masses = [level_set_mass(grid, t) for t in thresholds]
    assert all(b >= a for a, b in zip(masses, masses[1:]))
