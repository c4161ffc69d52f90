"""Bayesian two-sample t-test model with a Cauchy prior on the effect size.

The model assumes normal data with a shared standard deviation in both
groups. Conditional on the standardized effect size, the pooled two-sample
t statistic follows a noncentral t distribution with noncentrality
delta * sqrt(n_eff), which reduces the Bayes factor and the posterior of
delta to one-dimensional numerics:

    bf01 = central_t_pdf(t; df) / integral nct_pdf(t; df, delta * sqrt(n_eff)) prior(delta) d delta
    p(delta | t) proportional to nct_pdf(t; df, delta * sqrt(n_eff)) * prior(delta)

Two-sided Bayes factors use the equivalent g-mixture form of the Cauchy
prior (Rouder et al. 2009), which needs no inner noncentral-t quadrature.
One-sided ones integrate the noncentral-t form over the half-line prior.
Both are fixed Gauss-Legendre rules in log space, and both return log bf01.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import (
    DegenerateDataError,
    FloatRangeError,
    InvalidArgumentError,
    TruncatedSupportError,
)
from .posterior import DensityGrid, normalize_grid

TWO_SIDED = "two-sided"
GREATER = "greater"
LESS = "less"
ALTERNATIVES = (TWO_SIDED, GREATER, LESS)

# conventional Cauchy prior scales
PRIOR_PRESETS = {
    "medium": math.sqrt(2.0) / 2.0,
    "wide": 1.0,
    "ultrawide": math.sqrt(2.0),
}

DEFAULT_GRID_SIZE = 4096
DEFAULT_GRID_BOUND = 3.0
# share of probability mass allowed beyond either grid edge, and the points
# on each margin that estimate it
TRUNCATION_LIMIT = 1e-3
_MARGIN_POINTS = 64

# two-sided Bayes factor: Gauss-Legendre nodes in x = log g, and the reach of
# the bracket below the prior peak (the integrand falls like exp(-e^-x / 2)
# there, below e^-70 at -5) and above it and the likelihood knee (it falls
# like e^-x)
_GM_NODES = 256
_GM_BELOW = 5.0
_GM_ABOVE = 45.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# one-sided Bayes factor: panel edges around the likelihood peak, in
# standard errors, and Gauss-Legendre nodes per panel
_H1_REACH = np.array([0.5, 2.0, 5.0, 10.0, 20.0, 40.0])
_H1_NODES = 32
_LOG_2_OVER_PI = math.log(2.0 / math.pi)
# noncentral t: a point whose peak log density lies below this is exactly 0
_LOG_DEAD = -800.0
# shared-x kernel (`_shared_x_kernel`): trapezoid spacing in widths of the
# narrowest integrand, the e-folds each window reaches beyond a peak, the
# width of a group of peaks in typical windows, the node caps per window and
# per call, and matrix elements per block. The reach and the group width
# only set the cost: each point's own tail bound and half rule still
# certify it, and a point they do not certify takes the per-point path.
_KERNEL_STEP = 0.3
_KERNEL_REFINE = 2
_KERNEL_DROP = 32.0
_KERNEL_GROUP = 0.1
_KERNEL_MAX_NODES = 1024
_LATTICE_MAX_NODES = 1 << 16
_KERNEL_BLOCK = 1 << 17
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class TwoSampleData:
    """Raw observations for two independent groups."""

    group1: np.ndarray
    group2: np.ndarray

    def __post_init__(self):
        for name in ("group1", "group2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise InvalidArgumentError(f"{name} needs at least 2 observations")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} contains non-finite values")
            with np.errstate(over="ignore", invalid="ignore"):
                var = np.var(arr, ddof=1)
            if not np.isfinite(var):
                raise InvalidArgumentError(
                    f"{name} has a variance beyond the double-precision range"
                )
            if var <= 0:
                raise DegenerateDataError(f"{name} has zero variance")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SufficientStats:
    """Pooled-variance t statistic and sample-size summaries."""

    t: float
    df: int
    n_eff: float
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise InvalidArgumentError("each group needs at least 2 observations")
        if self.df != self.n1 + self.n2 - 2:
            raise InvalidArgumentError("df must equal n1 + n2 - 2")
        expected_neff = self.n1 * self.n2 / (self.n1 + self.n2)
        if not math.isclose(self.n_eff, expected_neff, rel_tol=1e-12):
            raise InvalidArgumentError("n_eff must equal n1*n2/(n1+n2)")
        if not math.isfinite(self.t):
            raise InvalidArgumentError("t statistic must be finite")


@dataclass(frozen=True)
class CauchyPrior:
    """Centred Cauchy prior on the standardized effect size."""

    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidArgumentError("prior scale must be a positive real")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        g = self.scale
        return 1.0 / (math.pi * g * (1.0 + (x / g) ** 2))

    def on_grid(self, points: np.ndarray, alternative: str = TWO_SIDED) -> DensityGrid:
        """Tabulate the prior density of the given alternative on the points.

        One-sided alternatives use the half-line prior: twice the Cauchy
        density on the retained side of zero and zero on the other. The
        result is a windowed tabulation of an unbounded density and is
        deliberately not renormalized: density ratios against it (e.g. at
        the null value) must use the genuine prior height.
        """
        if alternative not in ALTERNATIVES:
            raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")
        points = np.asarray(points, dtype=float)
        density = self.density(points)
        if alternative == GREATER:
            density = np.where(points >= 0.0, 2.0 * density, 0.0)
        elif alternative == LESS:
            density = np.where(points <= 0.0, 2.0 * density, 0.0)
        return DensityGrid(points, density)

    @classmethod
    def from_preset(cls, name: str) -> "CauchyPrior":
        try:
            return cls(PRIOR_PRESETS[name])
        except KeyError:
            raise InvalidArgumentError(
                f"unknown prior preset {name!r}; choose from {sorted(PRIOR_PRESETS)}"
            ) from None


class BayesFactor(NamedTuple):
    """bf01 and bf10 with log bf01 and the relative error estimate of the
    predictive density under the alternative.

    ``log_bf01_slope`` is d log bf01 / dy at fixed design and prior, with
    y = log(1 + t^2/df); log bf01 is close to linear in y, which makes the
    slope a Newton step for t calibration. Two-sided tests fill it from the
    same g-mixture pass as the Bayes factor (`_g_mixture_log_bf10`); it is
    None for one-sided ones.
    """

    bf01: float
    bf10: float
    log_bf01: float
    rel_error: float
    log_bf01_slope: float | None = None


def cohen_d(data: TwoSampleData) -> float:
    """Standardized mean difference using the root mean of the two sample
    variances (each with denominator n - 1)."""
    m1, m2 = data.group1.mean(), data.group2.mean()
    v1 = data.group1.var(ddof=1)
    v2 = data.group2.var(ddof=1)
    pooled = math.sqrt((v1 + v2) / 2.0)
    if pooled <= 0:
        raise DegenerateDataError("zero pooled variance")
    return float((m1 - m2) / pooled)


def cohen_d_from_moments(mean1: float, sd1: float, mean2: float, sd2: float) -> float:
    """Effect size from summary moments instead of raw observations."""
    pooled = math.sqrt((sd1 ** 2 + sd2 ** 2) / 2.0)
    if pooled <= 0:
        raise DegenerateDataError("zero pooled variance")
    return (mean1 - mean2) / pooled


def sufficient_stats(data: TwoSampleData) -> SufficientStats:
    """Pooled-variance two-sample t statistic with df and effective n."""
    n1, n2 = data.group1.size, data.group2.size
    v1 = data.group1.var(ddof=1)
    v2 = data.group2.var(ddof=1)
    df = n1 + n2 - 2
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
    if sp2 <= 0:
        raise DegenerateDataError("zero pooled variance")
    n_eff = n1 * n2 / (n1 + n2)
    t = (data.group1.mean() - data.group2.mean()) / math.sqrt(sp2 / n_eff)
    return SufficientStats(t=float(t), df=df, n_eff=float(n_eff), n1=n1, n2=n2)


def _log_central_t_pdf(x, df: float):
    """log of the Student-t density."""
    x = np.asarray(x, dtype=float)
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return log_norm - ((df + 1.0) / 2.0) * np.log1p(x * x / df)


def central_t_pdf(x, df: float):
    """Student-t density, evaluated in log space for stability."""
    out = np.exp(_log_central_t_pdf(x, df))
    return float(out) if out.ndim == 0 else out


def _log_nct_scale(df: float) -> float:
    """log C(df) - df/2, where C(df) = df^(df/2) / (sqrt(2 pi) 2^(df/2-1) Gamma(df/2))
    is the constant of the scale mixture below and e^(-df/2) its kernel's peak.

    Both logs grow like df; their difference comes from Stirling's series in
    closed form, so no O(df) terms cancel in floating point.
    """
    z = 0.5 * df
    if z < 10.0:
        stirling_err = math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    else:
        r = 1.0 / (z * z)
        stirling_err = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z
    return 0.5 * math.log(2.0 * df) - 2.0 * _HALF_LOG_2PI - stirling_err


def _square_minus(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """v*v - s without the rounding of v*v (Dekker's exact product)."""
    split = 134217729.0 * v
    hi = split - (split - v)
    lo = v - hi
    sq = v * v
    return (sq - s) + ((hi * hi - sq) + 2.0 * hi * lo + lo * lo)


def _kernel_gap(log_w: np.ndarray) -> np.ndarray:
    """(w^2 - 1)/2 - log w at w = e^log_w: how far the kernel w^df e^(-df w^2/2)
    lies below its peak at w = 1, in units of df."""
    return 0.5 * np.expm1(2.0 * log_w) - log_w


def _centered_log_peak(x, ncp: np.ndarray, log_w: np.ndarray, w: np.ndarray, df: float):
    """log of w^df exp(-(df w^2 + (ncp - x w)^2)/2) + df/2 at w = e^log_w."""
    return -df * _kernel_gap(log_w) - 0.5 * (ncp - x * w) ** 2


def noncentral_t_pdf(x, df: float, ncp, *, rel_tol: float = 1e-12):
    """Noncentral Student-t density.

    Evaluates the scale-mixture representation

        pdf(x) = C(df) * integral_0^inf w^df exp(-((x^2+df) w^2 - 2 ncp x w + ncp^2) / 2) dw.

    ``x`` and ``ncp`` broadcast; ``df`` is a positive scalar. A scalar ``x``
    with an array of ``ncp`` (a posterior grid, a Bayes-factor panel) is
    evaluated on one shared node set (`_shared_x_kernel`); every point it
    does not certify, and every other shape, takes the per-point path
    (`_per_point_nct`).
    """
    if not df > 0:
        raise InvalidArgumentError("df must be positive")
    x_arr = np.asarray(x, dtype=float)
    ncp_arr = np.asarray(ncp, dtype=float)
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(ncp_arr))):
        raise InvalidArgumentError("x and ncp must be finite")
    if x_arr.ndim == 0 and ncp_arr.ndim > 0:
        nf = ncp_arr.reshape(-1)
        out, done = _shared_x_kernel(float(x_arr), nf, float(df), rel_tol)
        rest = np.flatnonzero(~done)
        if rest.size:
            out[rest] = _per_point_nct(np.full(rest.size, float(x_arr)), nf[rest], df, rel_tol)
        return out.reshape(ncp_arr.shape)
    scalar = x_arr.ndim == 0 and ncp_arr.ndim == 0
    xb, nb = np.broadcast_arrays(np.atleast_1d(x_arr), np.atleast_1d(ncp_arr))
    out = _per_point_nct(xb.reshape(-1), nb.reshape(-1), df, rel_tol).reshape(xb.shape)
    return float(out.reshape(())) if scalar else out


def _per_point_nct(xf: np.ndarray, nf: np.ndarray, df: float, rel_tol: float) -> np.ndarray:
    """The density point by point: node-doubling Gauss-Legendre quadrature
    after substituting w = v^2 (smooth at the origin), on a bracket around
    each integrand's single peak found in log space."""
    xf = xf.astype(float)
    nf = nf.astype(float)
    a = xf * xf + df
    b = nf * xf
    c = nf * nf
    p = 2.0 * df + 1.0
    # peak v* of the transformed integrand v^p exp(-(a v^4 - 2 b v^2 + c)/2):
    # a (v*^2)^2 - b v*^2 - p/2 = 0. `diff` is root - b in a cancellation-free
    # form, needed because b can reach 1e17 under extreme noncentralities.
    root = np.sqrt(b * b + 2.0 * a * p)
    pos = b > 0.0
    diff = np.where(pos, 2.0 * a * p / np.where(pos, root + b, 1.0), root - b)
    s = np.where(pos, (b + root) / (2.0 * a), p / diff)
    vstar = np.sqrt(s)
    # g(v*) + df/2, so that it and log C(df) - df/2 stay O(1) at large df;
    # the last term is p ln(v*/sqrt(s)), the rounding of v* scaled by p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rem = _square_minus(vstar, s)
        log_s = np.log(s)
        gstar = (
            0.5 * log_s
            + _centered_log_peak(xf, nf, log_s, s, df)
            + 0.5 * p * np.log1p(rem / s)
        )
    sigma = 1.0 / np.sqrt(p / s + 4.0 * a * s)

    def centered(v: np.ndarray, idx) -> np.ndarray:
        # g(v) - g(v*); the c term cancels exactly:
        # g(v) - g(v*) = p ln(v/v*) - u (a u + diff) / 2 with u = v^2 - s
        u = v * v - s[idx]
        return p * np.log(v / vstar[idx]) - 0.5 * u * (a[idx] * u + diff[idx])

    # widen each bracket until the log-integrand has dropped below -46
    # (relative weight < 1e-20) or the left edge reaches zero
    k = np.full(xf.shape, 8.0)
    all_idx = np.arange(xf.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(120):
            hi = vstar + k * sigma
            grow = centered(hi, all_idx) > -46.0
            if not grow.any():
                break
            k[grow] *= 1.4
        hi = vstar + k * sigma
        k = np.full(xf.shape, 8.0)
        for _ in range(120):
            lo = np.maximum(vstar - k * sigma, 0.0)
            drop = np.where(lo > 0.0, centered(np.maximum(lo, 1e-300), all_idx), -np.inf)
            grow = drop > -46.0
            if not grow.any():
                break
            k[grow] *= 1.4
        lo = np.maximum(vstar - k * sigma, 0.0)

    log_scale = _log_nct_scale(df)
    # elements whose peak value already underflows double precision are
    # exactly zero; skipping them also avoids brackets narrower than the
    # float spacing around v* at extreme noncentralities
    alive = np.isfinite(gstar) & (gstar + log_scale >= _LOG_DEAD)
    integral = np.zeros_like(gstar)
    if alive.any():
        alive_idx = np.flatnonzero(alive)
        # the nodes are offsets d = v - v*, so that neither p ln(v/v*) nor
        # u = v^2 - s = d (2 v* + d) + (v*^2 - s) is formed from rounded
        # absolute positions; both errors would scale with p

        def log_f(d: np.ndarray, idx: np.ndarray) -> np.ndarray:
            gi = alive_idx[idx]
            v0 = vstar[gi, None]
            u = d * (2.0 * v0 + d) + rem[gi, None]
            return p * np.log1p(d / v0) - 0.5 * u * (a[gi, None] * u + diff[gi, None])

        # convergence floor from the rounding of the exponent near the peak,
        # where |a u + diff| ~ 2 a s^1.5 sigma scales the error of u; at
        # extreme |x|, |ncp| (~1e7) it dominates any fixed tolerance
        eps = np.finfo(float).eps
        noise = 16.0 * eps * (2.0 * a * s * vstar * sigma + p)
        tol = np.maximum(rel_tol, noise[alive])
        integral[alive] = quadrature.batched_log_integral(
            log_f, lo[alive] - vstar[alive], hi[alive] - vstar[alive], rel_tol=tol
        )
    with np.errstate(divide="ignore"):
        out = 2.0 * np.exp(log_scale + gstar + np.log(np.maximum(integral, 0.0)))
    return np.where(integral > 0.0, out, 0.0)


def _median(v: np.ndarray) -> float:
    """np.median of a 1-d array free of NaNs and negative zeros, bit for bit,
    without the import of numpy.ma that np.median makes on its first call:
    about 10 ms of a cold process."""
    k = v.size // 2
    if v.size % 2:
        return float(np.partition(v, k)[k])
    part = np.partition(v, (k - 1, k))
    return float(0.5 * (part[k - 1] + part[k]))


def _shared_x_kernel(
    x: float, ncp: np.ndarray, df: float, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The density at one ``x`` for many noncentralities, on one node set.

    In s = log w the mixture integrand is, up to the factor C(df) e^(-df/2),

        exp(s - df * gap(s)) * exp(-(ncp - x e^s)^2 / 2),   gap(s) = (e^2s - 1)/2 - s,

    and its first factor, the kernel, is the same for every ncp. The nodes
    are one trapezoid lattice in s, its kernel values computed once. Points
    are grouped by the location of their integrand's peak; each group
    integrates on a window of the lattice wide enough for every member, at
    the largest power-of-two stride that keeps 1/_KERNEL_STEP nodes per
    width of its narrowest member. The kernel enters the group's rule
    weights, so a block of nodes x points costs four array passes
    (subtract, square, subtract the point's term, exp) in one buffer
    reused by every block, then a product with the weights: one exponential
    per node and no per-node log.

    A point is certified when the half rule (every other node, no extra
    exponential) agrees with the full rule to ``rel_tol``, and when the
    integrand's mass beyond both window ends, bounded from its value and
    slope there, is below ``rel_tol`` of the integral. Since that holds per
    point, the window reach (e^-_KERNEL_DROP, where a Gaussian integrand's
    tail bound is below 1e-15 of its mass) and the group width
    (_KERNEL_GROUP of a typical window, so a union window is little wider
    than its members') are chosen for cost alone: a point they leave short
    fails its own certificate. Returns the values and a mask of the points
    that are done: certified, or zero because their peak underflows. The
    rest need the per-point path.
    """
    out = np.zeros(ncp.size)
    done = np.zeros(ncp.size, dtype=bool)
    a = x * x + df
    q = df + 1.0
    b = x * ncp
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # peak: a w^2 - b w - q = 0, solved without cancellation
        root = np.sqrt(b * b + 4.0 * a * q)
        w_peak = np.where(b > 0.0, (b + root) / (2.0 * a), 2.0 * q / (root - b))
        s_peak = np.log(w_peak)
        g_peak = s_peak + _centered_log_peak(x, ncp, s_peak, w_peak, df)
        curv = a * w_peak * w_peak
        width = 1.0 / np.sqrt(curv + q)
    log_scale = _log_nct_scale(df)
    done[g_peak + log_scale < _LOG_DEAD] = True
    live = np.flatnonzero(np.isfinite(g_peak) & np.isfinite(curv) & ~done)
    if live.size == 0:
        return out, done
    s_peak, g_peak, curv, width = s_peak[live], g_peak[live], curv[live], width[live]
    # reach on each side where the integrand has fallen by e^-_KERNEL_DROP:
    # with A = a w*^2, the drop at distance u is q (e^u - 1 - u) + A/2 (e^u - 1)^2
    # to the right, at least the Gaussian (A + q) u^2 / 2, and
    # q (u - 1 + e^-u) + A/2 (1 - e^-u)^2 to the left, solved by Newton steps
    right = width * math.sqrt(2.0 * _KERNEL_DROP)
    left = right.copy()
    for _ in range(3):
        e = np.exp(-left)
        one_e = -np.expm1(-left)
        drop = q * (left - one_e) + 0.5 * curv * one_e * one_e
        slope = one_e * (q + curv * e)
        left = np.maximum(left, left + (_KERNEL_DROP - drop) / slope)
    lo = s_peak - left
    hi = s_peak + right
    # groups of similar peak location, each a tenth of a typical window wide
    order = np.argsort(s_peak, kind="stable")
    span = _KERNEL_GROUP * _median(left + right)
    group = np.floor((s_peak[order] - s_peak[order[0]]) / span).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    bounds = np.r_[starts, order.size]
    # one lattice: the starting spacing of the narrowest point, halved once
    # for each refinement the nested rules may need; each group starts at
    # the largest power-of-two stride its own narrowest point allows
    fine = 1 << _KERNEL_REFINE
    step = _KERNEL_STEP * float(width.min()) / fine
    origin = float(lo.min())
    if not (float(hi.max()) - origin) / step < _LATTICE_MAX_NODES:
        return out, done
    g_width = np.minimum.reduceat(width[order], starts)
    stride = fine * 2 ** np.floor(np.log2(g_width / float(width.min()))).astype(np.int64)
    j0 = np.floor((np.minimum.reduceat(lo[order], starts) - origin) / step).astype(np.int64)
    j0 -= j0 % stride
    j_hi = np.ceil((np.maximum.reduceat(hi[order], starts) - origin) / step).astype(np.int64)
    n_nodes = -((j0 - j_hi) // stride) + 1
    j1 = j0 + (n_nodes - 1) * stride
    n_lattice = int(j1.max()) + 1
    if not n_lattice <= _LATTICE_MAX_NODES:
        return out, done
    s_nodes = origin + step * np.arange(n_lattice)
    w_nodes = np.exp(s_nodes)
    kernel = s_nodes - df * _kernel_gap(s_nodes)
    # in sqrt(1/2)-scaled coordinates the ncp factor is exp(-(c - x' w)^2)
    xw_nodes = (x * _SQRT_HALF) * w_nodes
    c_live = ncp[live] * _SQRT_HALF
    # one buffer for every block of the call: a block, or the midpoints of
    # its last refinement, which are at most twice its nodes
    buf = np.empty(2 * _KERNEL_BLOCK)

    def integrand(idx: np.ndarray, xw: np.ndarray, row: np.ndarray) -> np.ndarray:
        # nodes x points, exp(row - (x' w - c)^2); the kernel is in the weights
        f = buf[:xw.size * idx.size].reshape(xw.size, idx.size)
        np.subtract.outer(xw, c_live[idx], out=f)
        np.square(f, out=f)
        np.subtract(row, f, out=f)
        return np.exp(f, out=f)

    for k in range(starts.size):
        members = order[bounds[k]:bounds[k + 1]]
        nk, sk, lo_k, hi_k = int(n_nodes[k]), int(stride[k]), int(j0[k]), int(j1[k])
        if nk > _KERNEL_MAX_NODES:
            continue
        nodes = slice(lo_k, hi_k + 1, sk)
        # the kernel goes into the weights as exp(kernel - shift), and an
        # element is exp(shift - g_peak - (x' w - c)^2). With the shift
        # halfway between the kernel's maximum (below 1/(2 df)) and the
        # lowest member peak (above _LOG_DEAD - log_scale, so about -810),
        # neither factor exceeds e^410, and a factor that underflows stands
        # for a term below e^-330 of its point's peak
        kern = kernel[nodes]
        shift = 0.5 * (float(kern.max()) + float(g_peak[members].min()))
        kern = np.exp(kern - shift)
        h = step * sk
        weights = np.zeros((2, nk))
        weights[0] = h * kern
        weights[1, ::2] = 2.0 * h * kern[::2]
        xw_k = xw_nodes[nodes].copy()
        w_ends = w_nodes[[lo_k, hi_k]]
        rows = max(1, _KERNEL_BLOCK // nk)
        for r in range(0, members.size, rows):
            idx = members[r:r + rows]
            pts = live[idx]
            row = shift - g_peak[idx]
            f = integrand(idx, xw_k, row)
            full, half = weights @ f
            # slope of the log-integrand in s at both window ends; beyond
            # them the mass is at most value / |slope| (the slope is
            # monotone outside the peak, and at least q on the far left)
            slope_lo = q + w_ends[0] * (b[pts] - a * w_ends[0])
            slope_hi = q + w_ends[1] * (b[pts] - a * w_ends[1])
            with np.errstate(divide="ignore", invalid="ignore"):
                tails = kern[0] * f[0] / np.minimum(slope_lo, q) - kern[-1] * f[-1] / slope_hi
            bracketed = (slope_lo > 0.0) & (slope_hi < 0.0) & (full > 0.0)
            # halve the spacing where the rules disagree: only the midpoints
            # are new, and the old full rule becomes the new half rule
            sub = sk
            while sub > sk // fine:
                redo = np.flatnonzero(bracketed & (np.abs(full - half) > rel_tol * full))
                if redo.size == 0:
                    break
                sub //= 2
                mid = slice(lo_k + sub, hi_k, 2 * sub)
                mids = integrand(idx[redo], xw_nodes[mid].copy(), row[redo])
                half[redo] = full[redo]
                full[redo] = 0.5 * full[redo] + (step * sub * np.exp(kernel[mid] - shift)) @ mids
            ok = (
                bracketed
                & (np.abs(full - half) <= rel_tol * full)
                & (tails <= rel_tol * full)
            )
            pts = pts[ok]
            out[pts] = np.exp(log_scale + g_peak[idx[ok]] + np.log(full[ok]))
            done[pts] = True
    return out, done


def _effect_location(stats: SufficientStats) -> tuple[float, float]:
    """The likelihood peak d = t / sqrt(n_eff) of the effect size and its
    standard error. The likelihood spreads beyond 1/sqrt(n_eff) when the
    effect is large: scale estimation adds d^2/(2 df) to the variance."""
    d = stats.t / math.sqrt(stats.n_eff)
    return d, math.sqrt(1.0 / stats.n_eff + d * d / (2.0 * stats.df))


def _g_mixture_log_bf10(
    stats: SufficientStats, prior: CauchyPrior
) -> tuple[float, float, float]:
    """Two-sided log bf10, its relative error and d log bf01 / dy, from one
    pass.

    The Cauchy prior is a normal scale mixture: delta ~ N(0, g * scale^2)
    with g ~ InvGamma(1/2, 1/2) (Rouder et al. 2009). Given g, t is
    sqrt(A) * Student-t with A = 1 + n_eff * g * scale^2, so

        bf10 = integral t_df(t / sqrt(A)) / (sqrt(A) t_df(t)) InvGamma(g; 1/2, 1/2) dg,

    which is the noncentral-t form integrated over delta in closed form.
    In x = log g the prior factor exp(-x/2 - e^-x/2) makes the integrand
    negligible below x = -5, and above both the prior peak (x = 0) and the
    likelihood knee (A ~ max(t^2, 1)) the integrand falls like e^-x. A fixed
    256-node Gauss-Legendre rule covers [-5, max(knee, 0) + 45]; the
    128-node rule on the same bracket gives the error.

    With y = log(1 + t^2/df), the log integrand depends on t only through
    (df + 1)/2 * (y - log(1 + (e^y - 1)/A)), whose y-derivative is the score
    (df + 1)/2 * (A - 1)/(A + t^2/df). So d log bf01 / dy is -(df + 1)/2
    times the mean of (A - 1)/(A + t^2/df) under the normalized fine-rule
    weights, taken in the same pass; the score is written as
    n_eff scale^2 / (n_eff scale^2 + (1 + t^2/df) e^-x), so it reuses the
    integrand's e^-x and cancels nothing.
    """
    df = float(stats.df)
    t2_df = stats.t * stats.t / df
    log_ns2 = math.log(stats.n_eff) + 2.0 * math.log(prior.scale)
    ns2 = stats.n_eff * prior.scale * prior.scale
    knee = math.log(max(stats.t * stats.t, 1.0)) - log_ns2
    log_m0_ratio = math.log1p(t2_df)

    def log_f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e_neg = np.exp(-x)
        log_a = np.logaddexp(0.0, x + log_ns2)
        value = (
            -0.5 * (x + e_neg + log_a)
            - 0.5 * (df + 1.0) * (np.log1p(t2_df * np.exp(-log_a)) - log_m0_ratio)
        )
        score = e_neg * (1.0 + t2_df)
        score += ns2
        return value, np.divide(ns2, score, out=score)

    edges = (-_GM_BELOW, max(knee, 0.0) + _GM_ABOVE)
    log_bf10, rel_error, score = quadrature.log_gauss_legendre(
        log_f, edges, _GM_NODES, log_scale=-_HALF_LOG_2PI, weighted_mean=True
    )
    return log_bf10, rel_error, -0.5 * (df + 1.0) * score


def _marginal_likelihood_h1(
    stats: SufficientStats, prior: CauchyPrior, alternative: str
) -> tuple[float, float]:
    """log predictive density of the observed t under a one-sided
    alternative, log m1, with its relative error estimate. For `greater`,

        m1 = integral_0^inf nct_pdf(t; df, delta sqrt(n_eff)) 2 cauchy(delta; scale) d delta,

    and `less` is the same integral at -t, as nct_pdf(t; df, ncp) equals
    nct_pdf(-t; df, -ncp). The substitution delta = scale tan(u) turns the
    half-line prior into the constant 2/pi on (0, pi/2). Panels in u end at
    the likelihood peak d, at d -+ `_H1_REACH` standard errors and at the
    half-decades between the standard error and the prior scale, wherever
    these lie inside the half. Each panel gets `_H1_NODES` nodes, and the
    nodes of both rules go to one noncentral-t call.
    """
    d, se = _effect_location(stats)
    t = stats.t
    if alternative == LESS:
        d, t = -d, -t
    root_n = math.sqrt(stats.n_eff)
    lo, hi = sorted((se, prior.scale))
    decades = 10.0 ** (np.arange(math.ceil(2.0 * math.log10(lo)),
                                 math.floor(2.0 * math.log10(hi)) + 1) / 2.0)
    deltas = np.concatenate(([d], d - se * _H1_REACH, d + se * _H1_REACH, decades))
    inside = np.arctan(deltas[deltas > 0.0] / prior.scale)
    edges = np.unique(np.concatenate(([0.0], inside, [0.5 * math.pi])))

    def log_f(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(noncentral_t_pdf(t, stats.df, prior.scale * np.tan(u) * root_n))

    return quadrature.log_gauss_legendre(log_f, edges, _H1_NODES, log_scale=_LOG_2_OVER_PI)


def jzs_bayes_factor(
    stats: SufficientStats,
    prior: CauchyPrior,
    alternative: str = TWO_SIDED,
) -> BayesFactor:
    """Bayes factor for the point null against the Cauchy-prior alternative,
    as the ratio of predictive densities of the observed t statistic.

    Two-sided tests integrate the g-mixture form; one-sided tests integrate
    the noncentral-t form over the half-line prior and divide by the
    central-t density. Both integrals are fixed Gauss-Legendre rules in log
    space (`quadrature.log_gauss_legendre`), whose half rule gives the error
    estimate; the two-sided pass also gives ``log_bf01_slope``, the
    derivative of log bf01 in y = log(1 + t^2/df). Raises FloatRangeError
    when bf01 or bf10 is not a double, and when the predictive density
    under the alternative underflows.
    """
    if alternative not in ALTERNATIVES:
        raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")
    slope = None
    if alternative == TWO_SIDED:
        log_bf10, rel_error, slope = _g_mixture_log_bf10(stats, prior)
        log_bf01 = -log_bf10
    else:
        log_m1, rel_error = _marginal_likelihood_h1(stats, prior, alternative)
        log_bf01 = float(_log_central_t_pdf(stats.t, stats.df)) - log_m1
        if log_m1 == -math.inf:
            raise FloatRangeError(f"the {alternative} predictive density of t underflows")
    if not abs(log_bf01) < _LOG_DOUBLE_MAX:
        raise FloatRangeError(
            f"bf10 = exp({-log_bf01:.6g}) is outside the double-precision range"
        )
    return BayesFactor(math.exp(log_bf01), math.exp(-log_bf01), log_bf01, rel_error, slope)


def posterior_density_grid(
    stats: SufficientStats,
    prior: CauchyPrior,
    grid_lo: float | None = None,
    grid_hi: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    alternative: str = TWO_SIDED,
) -> DensityGrid:
    """Normalized posterior density of the effect size on a regular grid.

    With default bounds the grid starts at [-3, 3] and expands to cover
    [-2, 2] plus six standard errors around the sample effect. Explicit
    bounds are honoured as given and checked: if either edge clips 0.1% or
    more of the posterior mass a TruncatedSupportError is raised.

    The clipped mass comes from `_MARGIN_POINTS` points on each margin, a
    quarter of the range beyond each edge. The margins feed only that 0.1%
    test, never an index, so they need the share to some percent, not to
    the kernel's 1e-12: near the limit 64 points came within about 15% of
    a 2^14-point margin, and no design of a random sweep was decided
    differently.
    """
    if alternative not in ALTERNATIVES:
        raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")
    if grid_size < 64:
        raise InvalidArgumentError("grid_size must be at least 64")
    d, se = _effect_location(stats)
    auto = grid_lo is None and grid_hi is None
    if auto:
        lo = min(-DEFAULT_GRID_BOUND, -2.0, d - 6.0 * se)
        hi = max(DEFAULT_GRID_BOUND, 2.0, d + 6.0 * se)
    else:
        if grid_lo is None or grid_hi is None:
            raise InvalidArgumentError("pass both grid bounds or neither")
        lo, hi = float(grid_lo), float(grid_hi)
        if not lo < hi:
            raise InvalidArgumentError("grid_lo must be below grid_hi")
    if alternative == GREATER:
        lo = 0.0
    elif alternative == LESS:
        hi = 0.0
    if not lo < hi:
        raise InvalidArgumentError(
            f"grid [{lo:g}, {hi:g}] is empty for a {alternative} alternative"
        )

    points = np.linspace(lo, hi, grid_size)
    # estimate the clipped tail with margin extensions of a quarter range,
    # evaluated with the core grid in one noncentral-t call
    margin = 0.25 * (hi - lo)
    left = np.linspace(lo - margin, lo, _MARGIN_POINTS) if alternative != GREATER else points[:0]
    right = np.linspace(hi, hi + margin, _MARGIN_POINTS) if alternative != LESS else points[:0]
    everywhere = np.concatenate((points, left, right))
    unnormalized = noncentral_t_pdf(
        stats.t, stats.df, everywhere * math.sqrt(stats.n_eff)
    ) * prior.density(everywhere)
    values, left_values, right_values = np.split(unnormalized, [grid_size, grid_size + left.size])
    mass_core = np.trapezoid(values, points)
    mass_left = float(np.trapezoid(left_values, left)) if left.size else 0.0
    mass_right = float(np.trapezoid(right_values, right)) if right.size else 0.0
    total = mass_core + mass_left + mass_right
    if total <= 0:
        raise DegenerateDataError("posterior mass vanished on the requested grid")
    if mass_left / total >= TRUNCATION_LIMIT or mass_right / total >= TRUNCATION_LIMIT:
        raise TruncatedSupportError(
            f"grid [{lo:g}, {hi:g}] clips {(mass_left + mass_right) / total:.2%} "
            "of the posterior mass; widen the bounds"
        )
    return normalize_grid(DensityGrid(points, values))


def simulate_two_sample(
    mean1: float, sd1: float, mean2: float, sd2: float, n: int, seed: int
) -> TwoSampleData:
    """Seeded normal draws of size n per group; same seed, same data."""
    if sd1 <= 0 or sd2 <= 0:
        raise InvalidArgumentError("standard deviations must be positive")
    if n < 2:
        raise InvalidArgumentError("need at least 2 observations per group")
    if seed < 0:
        raise InvalidArgumentError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    return TwoSampleData(
        group1=rng.normal(mean1, sd1, size=n),
        group2=rng.normal(mean2, sd2, size=n),
    )
