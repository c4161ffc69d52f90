"""The scalar posterior, a density grid, and the geometry every index needs.

A posterior is a `DensityGrid`: densities tabulated on a strictly
increasing grid and read as the piecewise-linear density through them.
All objects are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    MultimodalHpdError,
)

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
class DensityGrid:
    """Density values tabulated on a strictly increasing grid.

    Construction does not force normalization (tabulating a known density
    over a finite window is legitimate); use `normalize_grid` to rescale,
    and `total_mass` to inspect the trapezoidal integral. The indices that
    read absolute masses (the HPD, the probability of direction and the
    e-value) refuse a grid whose mass is not one within NORMALIZATION_TOL.
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


def normalize_grid(grid: DensityGrid) -> DensityGrid:
    """Rescale densities so the trapezoidal integral over the grid is one."""
    total = grid.total_mass()
    if total <= 0:
        raise DegenerateDensityError("density grid has zero total mass")
    return DensityGrid(grid.points, grid.densities / total)


def _require_normalized(grid: DensityGrid, operation: str) -> None:
    """Refuse a grid whose trapezoidal mass is not one within
    NORMALIZATION_TOL: ``operation`` reads absolute masses off it."""
    total = grid.total_mass()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidArgumentError(
            f"{operation} needs a normalized density grid (total mass {total:.6g}); "
            "rescale it with normalize_grid"
        )


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


def mass_in_interval(posterior: DensityGrid, lower: float, upper: float) -> float:
    """Posterior probability of [lower, upper]: the density integral over
    its intersection with the grid."""
    if lower > upper:
        raise InvalidArgumentError("interval lower bound exceeds upper bound")
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
    its whole mass; one that tau crosses, with node densities lo < hi,
    holds (hi + tau)(hi - tau) h / (2 (hi - lo)). This enclosed mass falls
    as tau rises: the highest node density holds none of it, and a level
    below every node density holds all. A bisection over the sorted
    distinct node densities therefore finds the last one that holds
    ``mass`` and the next one up, which does not. Between the two the same
    segments are crossed, so the enclosed mass is M + A - B tau^2 with
    fixed M, A and B, and that quadratic is solved inside the pair.
    """
    h = np.diff(points)
    d0, d1 = dens[:-1], dens[1:]
    seg_mass = 0.5 * (d0 + d1) * h
    lo, hi = np.minimum(d0, d1), np.maximum(d0, d1)
    # np.unique would import numpy.ma into every cold process
    levels = np.sort(dens)
    levels = levels[np.r_[levels[1:] > levels[:-1], True]]

    def enclosed(v: float) -> float:
        crossed = (lo <= v) & (hi > v)
        share = (hi[crossed] - v) / (hi[crossed] - lo[crossed])
        return float(seg_mass[lo > v].sum() + (0.5 * h[crossed] * (hi[crossed] + v) * share).sum())

    # levels[j] holds the mass and levels[k] does not; j = -1 stands for
    # "below every level"
    j, k = -1, levels.size - 1
    while k - j > 1:
        mid = (j + k) // 2
        j, k = (mid, k) if enclosed(levels[mid]) >= mass else (j, mid)
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


def hpd_interval(posterior: DensityGrid, mass: float) -> CredibleInterval:
    """Shortest interval holding ``mass`` of a normalized grid's probability.

    The interval is the superlevel set of the density threshold that holds
    exactly ``mass`` of the piecewise-linear density (raising
    MultimodalHpdError when that set is disconnected).
    """
    if not 0.0 < mass < 1.0:
        raise InvalidArgumentError("mass must lie strictly in (0, 1)")
    _require_normalized(posterior, "hpd_interval")
    points, dens = posterior.points, posterior.densities
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


def grid_quantile(grid: DensityGrid, q) -> np.ndarray | float:
    """Exact quantile(s) of a grid's piecewise-linear density: the CDF is
    quadratic on each segment and inverted in closed form."""
    u = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any((u < 0) | (u > 1)):
        raise InvalidArgumentError("quantile levels must lie in [0, 1]")
    points, dens = grid.points, grid.densities
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
    out = points[k] + np.minimum(y, h[k])
    return float(out[0]) if np.isscalar(q) or np.ndim(q) == 0 else out


def grid_mean(grid: DensityGrid) -> float:
    """Mean of the (normalized) grid density."""
    weight = grid.total_mass()
    return float(np.trapezoid(grid.points * grid.densities, grid.points) / weight)
