"""Scalar posterior representations and the geometry every index needs.

Two interchangeable forms are supported: empirical draws (`SampleSet`) and
deterministic density grids (`DensityGrid`). Operations that accept either
dispatch on type. All objects are immutable after construction and every
operation is a pure function, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDensityError,
    InsufficientSamplesError,
    InvalidArgumentError,
    MultimodalHpdError,
)

MIN_SAMPLES = 100
MIN_GRID_POINTS = 64
NORMALIZATION_TOL = 1e-6


def _as_readonly_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Posterior draws of a scalar parameter, plus the seed that made them."""

    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        arr = _as_readonly_array(self.values, "values")
        if arr.size == 0:
            raise InvalidArgumentError("SampleSet must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("SampleSet values must all be finite")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Density values tabulated on a strictly increasing grid.

    Construction does not force normalization (tabulating a known density
    over a finite window is legitimate); use `normalize_grid` to rescale,
    and `total_mass` to inspect the trapezoidal integral.
    """

    points: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        pts = _as_readonly_array(self.points, "points")
        dens = _as_readonly_array(self.densities, "densities")
        if pts.size < MIN_GRID_POINTS:
            raise InvalidArgumentError(
                f"DensityGrid needs at least {MIN_GRID_POINTS} points, got {pts.size}"
            )
        if dens.size != pts.size:
            raise InvalidArgumentError("points and densities must have equal length")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise InvalidArgumentError("grid points must be strictly increasing")
        if not np.all(np.isfinite(dens)) or np.any(dens < 0):
            raise InvalidArgumentError("densities must be finite and nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "densities", dens)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def total_mass(self) -> float:
        return float(np.trapezoid(self.densities, self.points))

    def density_at(self, x) -> np.ndarray | float:
        """Linear interpolation; zero outside the tabulated support."""
        return np.interp(x, self.points, self.densities, left=0.0, right=0.0)


@dataclass(frozen=True)
class CredibleInterval:
    """An HPD interval together with its target probability mass."""

    lower: float
    upper: float
    mass: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InvalidArgumentError("interval endpoints must be finite")
        if self.lower > self.upper:
            raise InvalidArgumentError("interval lower bound exceeds upper bound")
        if not 0.0 < self.mass < 1.0:
            raise InvalidArgumentError("interval mass must lie strictly in (0, 1)")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


FLAT = "flat"
PRIOR_DENSITY = "prior"


@dataclass(frozen=True)
class ReferenceFunction:
    """Reference against which posterior surprise is measured.

    Either flat (identically one) or a tabulated prior density covering the
    posterior's support.
    """

    kind: str
    prior: DensityGrid | None = field(default=None)

    def __post_init__(self):
        if self.kind not in (FLAT, PRIOR_DENSITY):
            raise InvalidArgumentError(f"unknown reference kind {self.kind!r}")
        if self.kind == PRIOR_DENSITY and self.prior is None:
            raise InvalidArgumentError("prior reference requires a density grid")
        if self.kind == FLAT and self.prior is not None:
            raise InvalidArgumentError("flat reference must not carry a prior grid")

    @classmethod
    def flat(cls) -> "ReferenceFunction":
        return cls(FLAT)

    @classmethod
    def from_prior(cls, prior: DensityGrid) -> "ReferenceFunction":
        return cls(PRIOR_DENSITY, prior)


class MapEstimate(NamedTuple):
    location: float
    density: float
    at_boundary: bool


def _require_samples(samples: SampleSet, operation: str) -> np.ndarray:
    if len(samples) < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"{operation} needs at least {MIN_SAMPLES} draws, got {len(samples)}"
        )
    return samples.values


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb Gaussian-kernel bandwidth 0.9 min(sd, IQR/1.34) n^(-1/5)."""
    sd = float(np.std(values))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        raise InvalidArgumentError("samples have zero spread; bandwidth undefined")
    return 0.9 * scale * len(values) ** (-0.2)


def kde_density(
    samples: SampleSet,
    bandwidth: float | None = None,
    grid_size: int = 512,
) -> DensityGrid:
    """Gaussian-kernel density estimate on an equally spaced grid.

    The grid spans [min - 3h, max + 3h] for bandwidth h and the result is
    normalized to unit trapezoidal mass.
    """
    values = _require_samples(samples, "kde_density")
    if grid_size < MIN_GRID_POINTS:
        raise InvalidArgumentError(f"grid_size must be at least {MIN_GRID_POINTS}")
    if bandwidth is None:
        h = silverman_bandwidth(values)
    else:
        h = float(bandwidth)
        if not h > 0:
            raise InvalidArgumentError("bandwidth must be positive")
    grid = np.linspace(values.min() - 3 * h, values.max() + 3 * h, grid_size)
    dens = np.zeros(grid_size)
    # chunked so million-draw sample sets stay within memory
    step = max(1, 4_000_000 // grid_size)
    for start in range(0, values.size, step):
        chunk = values[start:start + step]
        z = (grid[:, None] - chunk[None, :]) / h
        dens += np.exp(-0.5 * z * z).sum(axis=1)
    dens /= values.size * h * np.sqrt(2 * np.pi)
    return normalize_grid(DensityGrid(grid, dens))


def normalize_grid(grid: DensityGrid) -> DensityGrid:
    """Rescale densities so the trapezoidal integral over the grid is one."""
    total = grid.total_mass()
    if total <= 0:
        raise DegenerateDensityError("density grid has zero total mass")
    return DensityGrid(grid.points, grid.densities / total)


def _mass_between(points: np.ndarray, dens: np.ndarray, lower: float, upper: float) -> float:
    """Trapezoidal integral of a piecewise-linear density over
    [lower, upper] clipped to the grid support."""
    lower = max(lower, float(points[0]))
    upper = min(upper, float(points[-1]))
    if upper <= lower:
        return 0.0
    inner = (points > lower) & (points < upper)
    xs = np.concatenate(([lower], points[inner], [upper]))
    ds = np.concatenate((
        [np.interp(lower, points, dens)],
        dens[inner],
        [np.interp(upper, points, dens)],
    ))
    return float(np.trapezoid(ds, xs))


def mass_in_interval(posterior: SampleSet | DensityGrid, lower: float, upper: float) -> float:
    """Posterior probability of [lower, upper]: the fraction of draws inside
    it, or the density integral over its intersection with the grid."""
    if lower > upper:
        raise InvalidArgumentError("interval lower bound exceeds upper bound")
    if isinstance(posterior, SampleSet):
        values = posterior.values
        return float(np.mean((values >= lower) & (values <= upper)))
    return _mass_between(posterior.points, posterior.densities, lower, upper)


def _level_mass(
    points: np.ndarray, dens: np.ndarray, values: np.ndarray, threshold: float, *, above: bool = False
) -> float:
    """Integral of ``dens`` over {x : values(x) <= threshold}, or over its
    complement {x : values(x) > threshold} when ``above``, both fields
    piecewise linear on the grid, crossings located by linear interpolation."""
    x0, x1 = points[:-1], points[1:]
    v0, v1 = values[:-1], values[1:]
    p0, p1 = dens[:-1], dens[1:]
    h = x1 - x0
    in0 = v0 > threshold if above else v0 <= threshold
    in1 = v1 > threshold if above else v1 <= threshold
    seg = np.where(in0 & in1, 0.5 * (p0 + p1) * h, 0.0)
    cross = in0 ^ in1
    if np.any(cross):
        f = (threshold - v0[cross]) / (v1[cross] - v0[cross])
        xc = x0[cross] + f * h[cross]
        pc = p0[cross] + f * (p1[cross] - p0[cross])
        left_piece = 0.5 * (p0[cross] + pc) * (xc - x0[cross])
        right_piece = 0.5 * (pc + p1[cross]) * (x1[cross] - xc)
        seg[cross] = np.where(in0[cross], left_piece, right_piece)
    return float(seg.sum())


def _clipped_level_mass(
    points: np.ndarray, dens: np.ndarray, values: np.ndarray, threshold: float, *, above: bool = False
) -> float:
    return min(1.0, max(0.0, _level_mass(points, dens, values, threshold, above=above)))


def level_set_mass(posterior: DensityGrid, threshold: float) -> float:
    """Posterior mass of the sublevel set {x : density(x) <= threshold}."""
    if threshold < 0:
        raise InvalidArgumentError("threshold must be nonnegative")
    return _clipped_level_mass(
        posterior.points, posterior.densities, posterior.densities, threshold
    )


def _superlevel_segments(points: np.ndarray, dens: np.ndarray, threshold: float) -> list[tuple[float, float]]:
    """Connected components of {x : density(x) >= threshold}, with endpoints
    interpolated between bracketing grid points."""
    above = dens >= threshold
    edges = np.diff(above.astype(np.int8))
    first = np.flatnonzero(edges == 1) + 1
    last = np.flatnonzero(edges == -1)
    if above[0]:
        first = np.r_[0, first]
    if above[-1]:
        last = np.r_[last, points.size - 1]
    segments = []
    for i, j in zip(first.tolist(), last.tolist()):
        if i > 0:
            frac = (threshold - dens[i - 1]) / (dens[i] - dens[i - 1])
            lo = points[i - 1] + frac * (points[i] - points[i - 1])
        else:
            lo = points[0]
        if j < points.size - 1:
            frac = (threshold - dens[j]) / (dens[j + 1] - dens[j])
            hi = points[j] + frac * (points[j + 1] - points[j])
        else:
            hi = points[-1]
        segments.append((float(lo), float(hi)))
    return segments


def _hpd_threshold(points: np.ndarray, dens: np.ndarray, mass: float) -> float:
    """The highest density level whose superlevel set holds ``mass``, exact
    on the piecewise-linear density.

    Above a level tau, a segment with both node densities above tau holds
    its whole mass m; one that tau crosses, with node densities lo < hi,
    holds (hi + tau)(hi - tau) h / (2 (hi - lo)). Between two consecutive
    node densities the enclosed mass is therefore M + A - B tau^2 with
    fixed M, A and B. Passing a node's density moves each of its two
    segments one step (full to crossed at its lower node, crossed to empty
    at its upper one), so one sort of the node densities and cumulative
    sums of those steps give the enclosed mass at every node density. That
    locates the bracketing pair of densities; the enclosed mass is then
    re-evaluated at the pair without the A - B tau^2 cancellation (and the
    pair searched for outwards if that misplaced it), and the quadratic is
    solved inside it.
    """
    h = np.diff(points)
    d0, d1 = dens[:-1], dens[1:]
    seg_mass = 0.5 * (d0 + d1) * h
    lo, hi = np.minimum(d0, d1), np.maximum(d0, d1)
    n = dens.size
    seg = np.arange(n - 1)
    lower = np.where(d0 <= d1, seg, seg + 1)
    upper = np.where(d0 <= d1, seg + 1, seg)
    # nearly flat segments step straight from full to empty in the estimate
    sloped = hi - lo > 1e-6 * hi.max()
    beta = np.where(sloped, 0.5 * h / np.where(sloped, hi - lo, 1.0), 0.0)
    alpha = beta * hi * hi
    order = np.argsort(dens, kind="stable")
    level = dens[order]
    step_m = np.bincount(lower, seg_mass, n)[order]
    step_a = (np.bincount(lower, alpha, n) - np.bincount(upper, alpha, n))[order]
    step_b = (np.bincount(lower, beta, n) - np.bincount(upper, beta, n))[order]
    estimate = (
        seg_mass.sum() - np.cumsum(step_m) + np.cumsum(step_a) - np.cumsum(step_b) * level * level
    )
    # the last node of each run of equal densities carries the state there
    distinct = np.r_[level[1:] > level[:-1], True]
    levels, estimate = level[distinct], estimate[distinct]

    def enclosed(v: float) -> float:
        crossed = (lo <= v) & (hi > v)
        share = (hi[crossed] - v) / (hi[crossed] - lo[crossed])
        return float(seg_mass[lo > v].sum() + (0.5 * h[crossed] * (hi[crossed] + v) * share).sum())

    def holds(j: int) -> bool:
        return enclosed(levels[j]) >= mass

    # from the estimated pair, step outwards in doubling strides until the
    # pair (j, k) brackets the last level that holds the mass, then
    # bisect; the top level holds none, and "below every level" holds all
    j = int(np.searchsorted(-estimate, -mass, side="right")) - 1
    k, stride = j + 1, 1
    while j >= 0 and not holds(j):
        j, k, stride = j - stride, j, 2 * stride
    while k < levels.size - 1 and holds(k):
        j, k, stride = k, min(k + stride, levels.size - 1), 2 * stride
    j = max(j, -1)
    while k - j > 1:
        mid = (j + k) // 2
        j, k = (mid, k) if holds(mid) else (j, mid)
    if j < 0:
        return 0.0
    floor_level = float(levels[j])
    ceiling = float(levels[k])
    crossed = (lo <= floor_level) & (hi > floor_level)
    with np.errstate(divide="ignore", over="ignore"):
        quad_b = float((0.5 * h[crossed] / (hi[crossed] - lo[crossed])).sum())
    # enclosed(floor + y) = enclosed(floor) - B (2 floor y + y^2) = mass
    spare = enclosed(floor_level) - mass
    if spare <= 0.0:
        return floor_level
    if quad_b == 0.0:
        return ceiling
    y = spare / (quad_b * (floor_level + math.sqrt(floor_level * floor_level + spare / quad_b)))
    return min(floor_level + y, ceiling)


def _hpd_from_samples(samples: SampleSet, mass: float) -> CredibleInterval:
    values = _require_samples(samples, "hpd_interval")
    ordered = np.sort(values)
    n = ordered.size
    m = int(np.ceil(mass * n))
    m = max(m, 1)
    widths = ordered[m - 1:] - ordered[: n - m + 1]
    i = int(np.argmin(widths))
    return CredibleInterval(float(ordered[i]), float(ordered[i + m - 1]), mass)


def _hpd_from_grid(grid: DensityGrid, mass: float) -> CredibleInterval:
    points, dens = grid.points, grid.densities
    threshold = _hpd_threshold(points, dens, mass)
    segments = _superlevel_segments(points, dens, threshold)
    if len(segments) != 1:
        raise MultimodalHpdError(
            f"highest-density region at mass {mass:g} splits into "
            f"{len(segments)} segments; grid HPD assumes a unimodal density",
            segments,
        )
    lower, upper = segments[0]
    return CredibleInterval(lower, upper, mass)


def hpd_interval(posterior: SampleSet | DensityGrid, mass: float) -> CredibleInterval:
    """Shortest interval holding ``mass`` posterior probability.

    Sample sets use the shortest contiguous window of ceil(mass * n) sorted
    draws; grids take the density threshold whose superlevel set holds
    exactly ``mass`` of the piecewise-linear density (raising
    MultimodalHpdError when that set is disconnected).
    """
    if not 0.0 < mass < 1.0:
        raise InvalidArgumentError("mass must lie strictly in (0, 1)")
    if isinstance(posterior, SampleSet):
        return _hpd_from_samples(posterior, mass)
    return _hpd_from_grid(posterior, mass)


def map_estimate(posterior: DensityGrid) -> MapEstimate:
    """Mode of the grid, refined by a quadratic fit through the argmax and
    its two neighbours. Ties resolve to the smallest location; a mode on
    the grid boundary is returned unrefined and flagged."""
    points, dens = posterior.points, posterior.densities
    i = int(np.argmax(dens))
    if i == 0 or i == points.size - 1:
        return MapEstimate(float(points[i]), float(dens[i]), True)
    d0, d1, d2 = dens[i - 1], dens[i], dens[i + 1]
    curvature = d0 - 2.0 * d1 + d2
    if curvature == 0.0:
        return MapEstimate(float(points[i]), float(d1), False)
    # vertex of the parabola through the three points (uniform spacing not
    # assumed: use the general Lagrange form)
    x0, x1, x2 = points[i - 1], points[i], points[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (d1 - d0) + x1 * (d0 - d2) + x0 * (d2 - d1)) / denom
    b = (x2 * x2 * (d0 - d1) + x1 * x1 * (d2 - d0) + x0 * x0 * (d1 - d2)) / denom
    if a >= 0:
        return MapEstimate(float(x1), float(d1), False)
    loc = -b / (2.0 * a)
    c = d1 - a * x1 * x1 - b * x1
    val = a * loc * loc + b * loc + c
    return MapEstimate(float(loc), float(val), False)


def _inverse_cdf(points: np.ndarray, dens: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact quantiles of a piecewise-linear density: the CDF is quadratic
    on each segment and inverted in closed form."""
    h = np.diff(points)
    d0, d1 = dens[:-1], dens[1:]
    seg_mass = 0.5 * (d0 + d1) * h
    total = seg_mass.sum()
    if total <= 0:
        raise DegenerateDensityError("density grid has zero total mass")
    cdf = np.concatenate(([0.0], np.cumsum(seg_mass))) / total
    cdf[-1] = 1.0
    k = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, h.size - 1)
    m = (u - cdf[k]) * total       # mass to absorb inside segment k
    slope = (d1[k] - d0[k]) / h[k]
    # solve 0.5 s y^2 + d0 y = m for y in [0, h]; the rationalized root is
    # stable for s of either sign and for s == 0
    disc = np.sqrt(np.maximum(d0[k] * d0[k] + 2.0 * slope * m, 0.0))
    denom = d0[k] + disc
    y = np.where(denom > 0, 2.0 * m / np.where(denom > 0, denom, 1.0), 0.0)
    return points[k] + np.minimum(y, h[k])


def grid_quantile(grid: DensityGrid, q) -> np.ndarray | float:
    """Quantile(s) of a density grid via exact piecewise inversion."""
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any((q_arr < 0) | (q_arr > 1)):
        raise InvalidArgumentError("quantile levels must lie in [0, 1]")
    out = _inverse_cdf(grid.points, grid.densities, q_arr)
    return float(out[0]) if np.isscalar(q) or np.ndim(q) == 0 else out


def grid_mean(grid: DensityGrid) -> float:
    """Mean of the (normalized) grid density."""
    weight = grid.total_mass()
    return float(np.trapezoid(grid.points * grid.densities, grid.points) / weight)


def sample_from_grid(grid: DensityGrid, count: int, seed: int) -> SampleSet:
    """Deterministic draws from a density grid by inverse-CDF transform of
    seeded uniforms. Identical seeds give identical output."""
    if count <= 0:
        raise InvalidArgumentError("count must be positive")
    if seed < 0:
        raise InvalidArgumentError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return SampleSet(_inverse_cdf(grid.points, grid.densities, u), seed=seed)
