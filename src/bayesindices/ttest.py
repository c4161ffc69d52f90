"""Bayesian two-sample t-test model with a Cauchy prior on the effect size.

The model assumes normal data with a shared standard deviation in both
groups. Conditional on the standardized effect size, the pooled two-sample
t statistic follows a noncentral t distribution with noncentrality
delta * sqrt(n_eff), which reduces the Bayes factor and the posterior of
delta to one-dimensional numerics:

    bf01 = central_t_pdf(t; df) / integral nct_pdf(t; df, delta * sqrt(n_eff)) prior(delta) d delta
    p(delta | t) proportional to nct_pdf(t; df, delta * sqrt(n_eff)) * prior(delta)

Bayes factors use the equivalent g-mixture form of the Cauchy prior (Rouder
et al. 2009), times a Student-t CDF under a one-sided prior: one fixed
Gauss-Legendre rule in log space that returns log bf01 and needs no
noncentral t, whose one production caller is the posterior grid. The same
pass gives the evidence bf10 * t_df(t) that the grid's unnormalized mass
must match, so one pass certifies the grid and serves the Bayes factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    FloatRangeError,
    InvalidArgumentError,
    TruncatedSupportError,
)
from .posterior import MIN_GRID_POINTS, DensityGrid, normalize_grid

TWO_SIDED = "two-sided"
GREATER = "greater"
LESS = "less"
ALTERNATIVES = (TWO_SIDED, GREATER, LESS)
# the closed half-line of each alternative's prior
_SUPPORTS = {TWO_SIDED: (-math.inf, math.inf), GREATER: (0.0, math.inf), LESS: (-math.inf, 0.0)}

# conventional Cauchy prior scales
PRIOR_PRESETS = {
    "medium": math.sqrt(2.0) / 2.0,
    "wide": 1.0,
    "ultrawide": math.sqrt(2.0),
}

DEFAULT_GRID_SIZE = 2048
DEFAULT_GRID_BOUND = 3.0
# posterior grid layout (`_grid_points`): the share of the point budget
# spread over the coarse base (the whole grid), over the fine segment
# (_FINE_REACH widths around the likelihood) and over the prior-spike segment
# (+-_SPIKE_REACH prior scales, laid only when the scale is below
# _SPIKE_BELOW standard errors). Where segments overlap the densest wins, and
# a point nearer than _MIN_GAP of the local spacing to another merges into it
_BASE_SHARE = 0.4
_FINE_SHARE = 0.4
_SPIKE_SHARE = 0.2
_FINE_REACH = 10.0
_SPIKE_REACH = 30.0
_SPIKE_BELOW = 3.0
_MIN_GAP = 0.5
# relative miss allowed between the grid's unnormalized mass and the evidence
TRUNCATION_LIMIT = 1e-3

# Bayes factor: Gauss-Legendre nodes in x = log g, and the reach of
# the bracket below the prior peak (the integrand falls like exp(-e^-x / 2)
# there, below e^-70 at -5) and above it and the likelihood knee (it falls
# like e^-x)
_GM_NODES = 256
_GM_BELOW = 5.0
_GM_ABOVE = 45.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_LOG_2 = math.log(2.0)
# Student-t CDF: continued-fraction stop (steps jitter at 3e-14 at nu ~ 1e5,
# so 1e-14 would never stop) and the step cap
_CF_TOL = 1e-13
_CF_MAX_STEPS = 200
# noncentral t: a point whose peak log density lies below _LOG_DEAD is
# exactly 0; every other point is certified to _NCT_REL_TOL, or to the
# rounding of its inputs where that is larger
_LOG_DEAD = -800.0
_NCT_REL_TOL = 1e-12
# shared-node kernel (`_shared_node_kernel`): trapezoid spacing in widths of
# the narrowest integrand, the e-folds each window reaches beyond a peak on
# the first pass and on the one retry, the width of a group of peaks in
# typical windows, the node cap of a group's shared window, and matrix
# elements per block. The reach and the group width only set the cost: each
# point's own tail bound and half rule still certify it.
_KERNEL_STEP = 0.3
_KERNEL_REFINE = 2
_KERNEL_DROP = 32.0
_KERNEL_RETRY_DROP = 45.0
_KERNEL_GROUP = 0.1
_KERNEL_MAX_NODES = 1024
_KERNEL_BLOCK = 1 << 17
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class TwoSampleData:
    """Raw observations for two independent groups."""

    group1: np.ndarray
    group2: np.ndarray
    # each group's (mean, variance with denominator n - 1), kept from the validation
    moments: tuple[tuple[float, float], tuple[float, float]] = field(init=False, repr=False)

    def __post_init__(self):
        moments = []
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
            moments.append((arr.mean(), var))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "moments", tuple(moments))


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
    """Centred Cauchy prior on the standardized effect size. A one-sided
    alternative carries the half-line prior: twice the Cauchy density on its
    closed half-line (``support``) and zero on the other side."""

    scale: float = 1.0
    alternative: str = TWO_SIDED

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidArgumentError("prior scale must be a positive real")
        if self.alternative not in ALTERNATIVES:
            raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")

    @property
    def support(self) -> tuple[float, float]:
        """The closed half-line of a one-sided prior, or the real line."""
        return _SUPPORTS[self.alternative]

    def density(self, x):
        x = np.asarray(x, dtype=float)
        density = 1.0 / (math.pi * self.scale * (1.0 + (x / self.scale) ** 2))
        if self.alternative == TWO_SIDED:
            return density
        lo, hi = self.support
        # a product, not np.where, so a scalar gives a numpy float either way
        return density * np.where((lo <= x) & (x <= hi), 2.0, 0.0)

    def on_grid(self, points: np.ndarray) -> DensityGrid:
        """Tabulate the prior density on the points.

        The result is a windowed tabulation of an unbounded density and is
        deliberately not renormalized: density ratios against it (e.g. at
        the null value) must use the genuine prior height.
        """
        points = np.asarray(points, dtype=float)
        return DensityGrid(points, self.density(points))

    @classmethod
    def from_preset(cls, name: str, alternative: str = TWO_SIDED) -> "CauchyPrior":
        if name not in PRIOR_PRESETS:
            raise InvalidArgumentError(
                f"unknown prior preset {name!r}; choose from {sorted(PRIOR_PRESETS)}"
            )
        return cls(PRIOR_PRESETS[name], alternative)


class BayesFactor(NamedTuple):
    """bf01 and bf10 with log bf01 and the relative error estimate of the
    g-mixture integral (`_g_mixture_log_bf10`), under every alternative.

    ``log_bf01_slope`` is d log bf01 / dy at fixed design and prior, with
    y = log(1 + t^2/df); log bf01 is close to linear in y, which makes the
    slope a Newton step for t calibration. Two-sided tests fill it from the
    same pass as the Bayes factor; it is None for one-sided ones, which t
    calibration does not use.
    """

    bf01: float
    bf10: float
    log_bf01: float
    rel_error: float
    log_bf01_slope: float | None = None


def cohen_d(data: TwoSampleData) -> float:
    """Standardized mean difference using the root mean of the two sample
    variances (each with denominator n - 1)."""
    (m1, v1), (m2, v2) = data.moments
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
    (m1, v1), (m2, v2) = data.moments
    df = n1 + n2 - 2
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
    if sp2 <= 0:
        raise DegenerateDataError("zero pooled variance")
    n_eff = n1 * n2 / (n1 + n2)
    t = (m1 - m2) / math.sqrt(sp2 / n_eff)
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


def _stirling_err(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), the remainder of
    Stirling's formula, without forming the O(z log z) terms at large z."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_student_t_cdf(z: np.ndarray, nu: float) -> np.ndarray:
    """log of the Student-t CDF with ``nu`` degrees of freedom, far into
    either tail. With x = nu / (nu + z^2), T(-|z|) = I_x(nu/2, 1/2) / 2.
    Lentz's continued fraction (Numerical Recipes' betacf) gives
    I_x(nu/2, 1/2) where z^2 > 3 and its complement I_(1-x)(1/2, nu/2)
    elsewhere, point by point to _CF_TOL. Their shared prefactor
    x^(nu/2) (1-x)^(1/2) / B(nu/2, 1/2) is taken in logs without O(nu)
    cancellation: -(nu/2) log1p(z^2/nu) for (nu/2) log x, and Stirling's
    remainders for log Gamma(nu/2 + 1/2) - log Gamma(nu/2).
    """
    z = np.asarray(z, dtype=float)
    z2 = z * z
    tail = z2 > 3.0
    half_nu = 0.5 * nu
    a, b = np.where(tail, half_nu, 0.5), np.where(tail, 0.5, half_nu)
    x = np.where(tail, nu, z2) / (nu + z2)
    log_gamma_ratio = (half_nu * math.log1p(0.5 / half_nu) + 0.5 * math.log(half_nu) - 0.5
                       + _stirling_err(half_nu + 0.5) - _stirling_err(half_nu))
    with np.errstate(divide="ignore"):
        log_front = (-half_nu * np.log1p(z2 / nu) + 0.5 * np.log(z2 / (nu + z2))
                     + log_gamma_ratio - 0.5 * math.log(math.pi) - np.log(a))
    fraction, idx = np.empty_like(x), np.arange(x.size)
    h = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    c, d = np.ones_like(x), h.copy()
    for m in range(1, _CF_MAX_STEPS + 1):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            step = d * c
            h = h * step
        done = np.abs(step - 1.0) < _CF_TOL
        fraction[idx[done]] = h[done]
        if done.all():
            break
        idx, h, c, d, a, b, x = (v[~done] for v in (idx, h, c, d, a, b, x))
    else:
        raise ConvergenceError(f"Student-t CDF at nu = {nu:g} did not converge")
    log_i = log_front + np.log(fraction)
    i = np.exp(log_i)
    neg = z < 0.0
    return np.where(tail, np.where(neg, log_i - _LOG_2, np.log1p(-0.5 * i)),
                    np.log1p(np.where(neg, -i, i)) - _LOG_2)


def _log_nct_scale(df: float) -> float:
    """log C(df) - df/2, where C(df) = df^(df/2) / (sqrt(2 pi) 2^(df/2-1) Gamma(df/2))
    is the constant of the scale mixture below and e^(-df/2) its kernel's peak.

    Both logs grow like df; their difference comes from Stirling's series in
    closed form, so no O(df) terms cancel in floating point.
    """
    return 0.5 * math.log(2.0 * df) - 2.0 * _HALF_LOG_2PI - _stirling_err(0.5 * df)


def _kernel_gap(log_w: np.ndarray) -> np.ndarray:
    """(w^2 - 1)/2 - log w at w = e^log_w: how far the kernel w^df e^(-df w^2/2)
    lies below its peak at w = 1, in units of df."""
    return 0.5 * np.expm1(2.0 * log_w) - log_w


def _centered_log_peak(x, ncp: np.ndarray, log_w: np.ndarray, w: np.ndarray, df: float):
    """log of w^df exp(-(df w^2 + (ncp - x w)^2)/2) + df/2 at w = e^log_w."""
    return -df * _kernel_gap(log_w) - 0.5 * (ncp - x * w) ** 2


def noncentral_t_pdf(x, df: float, ncp):
    """Noncentral Student-t density.

    Evaluates the scale-mixture representation

        pdf(x) = C(df) * integral_0^inf w^df exp(-((x^2+df) w^2 - 2 ncp x w + ncp^2) / 2) dw

    on trapezoid nodes in log w shared by all points (`_shared_node_kernel`),
    each point certified on its own. ``x`` and ``ncp`` broadcast; ``df`` is
    a positive real. A point the kernel does not certify is retried once,
    its window reaching e^-_KERNEL_RETRY_DROP instead of e^-_KERNEL_DROP
    beyond its peak; a point still not certified raises ConvergenceError.
    """
    if not (math.isfinite(df) and df > 0):
        raise InvalidArgumentError("df must be a positive real")
    x_arr = np.asarray(x, dtype=float)
    ncp_arr = np.asarray(ncp, dtype=float)
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(ncp_arr))):
        raise InvalidArgumentError("x and ncp must be finite")
    shape = np.broadcast_shapes(x_arr.shape, ncp_arr.shape)
    nf = np.broadcast_to(ncp_arr, shape).reshape(-1)
    # a scalar x stays a scalar: the kernel's cheaper layout
    xf = float(x_arr) if x_arr.ndim == 0 else np.broadcast_to(x_arr, shape).reshape(-1)
    df = float(df)
    out, done = _shared_node_kernel(xf, nf, df, _KERNEL_DROP)
    rest = np.flatnonzero(~done)
    if rest.size:
        x_rest = xf if x_arr.ndim == 0 else xf[rest]
        out[rest], done[rest] = _shared_node_kernel(x_rest, nf[rest], df, _KERNEL_RETRY_DROP)
        if not done.all():
            i = int(np.argmin(done))
            raise ConvergenceError(
                f"noncentral t density not certified at x = {float(np.broadcast_to(xf, nf.shape)[i])!r}"
                f", df = {df!r}, ncp = {float(nf[i])!r}"
            )
    return out.reshape(shape) if shape else float(out[0])


def _median(v: np.ndarray) -> float:
    """np.median of a 1-d array free of NaNs and negative zeros, bit for bit,
    without the import of numpy.ma that np.median makes on its first call:
    about 10 ms of a cold process."""
    k = v.size // 2
    if v.size % 2:
        return float(np.partition(v, k)[k])
    part = np.partition(v, (k - 1, k))
    return float(0.5 * (part[k - 1] + part[k]))


def _shared_node_kernel(
    x, ncp: np.ndarray, df: float, drop: float
) -> tuple[np.ndarray, np.ndarray]:
    """The density at many points (x, ncp) on one lattice of nodes.

    ``x`` is a scalar or one value per noncentrality. In s = log w the
    mixture integrand is, up to the factor C(df) e^(-df/2),

        exp(s - df * gap(s)) * exp(-(ncp - x e^s)^2 / 2),   gap(s) = (e^2s - 1)/2 - s,

    and its first factor, the kernel, is the same for every point. The
    nodes lie on one trapezoid lattice in s, origin + step * j, computed
    from j where they are used. Points are grouped by the location of their
    integrand's peak; each group integrates on a window of the lattice that
    reaches e^-``drop`` beyond every member's peak, at the largest
    power-of-two stride that keeps 1/_KERNEL_STEP nodes per width of its
    narrowest member. The kernel enters the group's rule weights, so a block
    of nodes x points costs four array passes (subtract, square, subtract
    the point's term, exp; a per-point ``x`` adds a product) in one buffer
    reused by every block, then a product with the weights: one exponential
    per node and no per-node log. A group of one point, or one whose window
    would pass _KERNEL_MAX_NODES, hands its points to rows: each point on
    its own window and stride, the kernel in the exponent, all rows of the
    call batched into blocks.

    A point is certified when the half rule (every other node, no extra
    exponential) agrees with the full rule to its tolerance, and when the
    integrand's mass beyond both window ends, bounded from its value and
    slope there, is below its tolerance of the integral. The tolerance is
    _NCT_REL_TOL, or the rounding of x w - ncp, 8 eps |ncp| / sqrt(2), where
    that is larger (|ncp| above about 800). Since that holds per point, the
    window reach (e^-32 on a first pass: a Gaussian integrand's tail bound
    is below 1e-15 of its mass there) and the group width (_KERNEL_GROUP of
    a typical window, so a union window is little wider than its members')
    are chosen for cost alone: a point they leave short fails its own
    certificate. Returns the values and a mask of the points that are done:
    certified, or zero because their peak underflows.
    """
    out = np.zeros(ncp.size)
    done = np.zeros(ncp.size, dtype=bool)
    q = df + 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = x * x + df
        b = x * ncp
        # peak: a w^2 - b w - q = 0, solved without cancellation
        root = np.sqrt(b * b + 4.0 * a * q)
        w_peak = np.where(b > 0.0, (b + root) / (2.0 * a), 2.0 * q / (root - b))
        s_peak = np.log(w_peak)
        g_peak = s_peak + _centered_log_peak(x, ncp, s_peak, w_peak, df)
        curv = a * w_peak * w_peak
        width = 1.0 / np.sqrt(curv + q)
    log_scale = _log_nct_scale(df)
    # a peak beyond the double range (df or |x ncp| above about 1e154) is
    # neither dead nor certified
    done[np.isfinite(s_peak) & (g_peak + log_scale < _LOG_DEAD)] = True
    live = np.flatnonzero(np.isfinite(g_peak) & np.isfinite(curv) & ~done)
    if live.size == 0:
        return out, done
    b, s_peak, g_peak, curv, width = (v[live] for v in (b, s_peak, g_peak, curv, width))
    per_point = np.ndim(x) > 0
    if per_point:
        x, a = x[live], a[live]
    # in sqrt(1/2)-scaled coordinates the ncp factor is exp(-(c - x' w)^2)
    c = ncp[live] * _SQRT_HALF
    x_half = x * _SQRT_HALF
    tol = np.maximum(_NCT_REL_TOL, 8.0 * sys.float_info.epsilon * np.abs(c))
    # reach on each side where the integrand has fallen by e^-drop: with
    # A = a w*^2, the drop at distance u is q (e^u - 1 - u) + A/2 (e^u - 1)^2
    # to the right, at least the Gaussian (A + q) u^2 / 2, and
    # q (u - 1 + e^-u) + A/2 (1 - e^-u)^2 to the left, at most that. Newton
    # steps start from the Gaussian reach and only shrink the right reach
    # (that drop is convex, so they stay beyond its root) and only grow the
    # left one
    right = width * math.sqrt(2.0 * drop)
    left = right.copy()
    for _ in range(3):
        e = np.exp(-left)
        one_e = -np.expm1(-left)
        fall = q * (left - one_e) + 0.5 * curv * one_e * one_e
        slope = one_e * (q + curv * e)
        left = np.maximum(left, left + (drop - fall) / slope)
        e_1 = np.expm1(right)
        fall = q * (e_1 - right) + 0.5 * curv * e_1 * e_1
        slope = e_1 * (q + curv * (e_1 + 1.0))
        right = np.minimum(right, right - (fall - drop) / slope)
    lo = s_peak - left
    hi = s_peak + right
    # groups of similar peak location, each a tenth of a typical window wide
    order = np.argsort(s_peak, kind="stable")
    span = _KERNEL_GROUP * _median(left + right)
    group = np.floor((s_peak[order] - s_peak[order[0]]) / span).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    bounds = np.r_[starts, order.size]
    # the lattice: the starting spacing of the narrowest point, halved once
    # for each refinement the nested rules may need
    fine = 1 << _KERNEL_REFINE
    w_min = float(width.min())
    step = _KERNEL_STEP * w_min / fine
    origin = float(lo.min())

    def layout(lo, hi, width):
        # a window over [lo, hi] at the largest power-of-two stride its
        # narrowest point allows: the stride, first node and node count
        stride = fine * 2 ** np.floor(np.log2(width / w_min)).astype(np.int64)
        j0 = np.floor((lo - origin) / step).astype(np.int64)
        j0 -= j0 % stride
        j_hi = np.ceil((hi - origin) / step).astype(np.int64)
        return stride, j0, -((j0 - j_hi) // stride) + 1

    def certify(idx, full, half, first, last, w_lo, w_hi, midpoints):
        # slope of the log-integrand in s at both window ends; beyond them
        # the mass is at most value / |slope| (the slope is monotone outside
        # the peak, and at least q on the far left)
        a_idx = a[idx] if per_point else a
        slope_lo = q + w_lo * (b[idx] - a_idx * w_lo)
        slope_hi = q + w_hi * (b[idx] - a_idx * w_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            tails = first / np.minimum(slope_lo, q) - last / slope_hi
        bracketed = (slope_lo > 0.0) & (slope_hi < 0.0) & (full > 0.0)
        # halve the spacing where the rules disagree: only the midpoints are
        # new, and the old full rule becomes the new half rule
        rel = tol[idx]
        for level in range(1, _KERNEL_REFINE + 1):
            redo = np.flatnonzero(bracketed & (np.abs(full - half) > rel * full))
            if redo.size == 0:
                break
            half[redo] = full[redo]
            full[redo] = 0.5 * full[redo] + midpoints(redo, level)
        ok = bracketed & (np.abs(full - half) <= rel * full) & (tails <= rel * full)
        pts = idx[ok]
        where = live[pts]
        out[where] = np.exp(log_scale + g_peak[pts] + np.log(full[ok]))
        done[where] = True

    stride, j0, n_nodes = layout(np.minimum.reduceat(lo[order], starts),
                                 np.maximum.reduceat(hi[order], starts),
                                 np.minimum.reduceat(width[order], starts))
    sizes = np.diff(bounds)
    shared = (sizes > 1) & (n_nodes <= _KERNEL_MAX_NODES)
    # one buffer for every block of a shared window: a block, or the
    # midpoints of its last refinement, which are at most twice its nodes
    buf = np.empty(2 * _KERNEL_BLOCK)

    def integrand(idx: np.ndarray, w: np.ndarray, row: np.ndarray) -> np.ndarray:
        # nodes x points, exp(row - (x' w - c)^2); the kernel is in the weights
        f = buf[:w.size * idx.size].reshape(w.size, idx.size)
        if per_point:
            np.multiply.outer(w, x_half[idx], out=f)
            np.subtract(f, c[idx], out=f)
        else:
            np.subtract.outer(x_half * w, c[idx], out=f)
        np.square(f, out=f)
        np.subtract(row, f, out=f)
        return np.exp(f, out=f)

    for k in np.flatnonzero(shared):
        members = order[bounds[k]:bounds[k + 1]]
        nk, sk, lo_k = int(n_nodes[k]), int(stride[k]), int(j0[k])
        hi_k = lo_k + (nk - 1) * sk
        s = origin + step * np.arange(lo_k, hi_k + 1, sk)
        w = np.exp(s)
        # the kernel goes into the weights as exp(kernel - shift), and an
        # element is exp(shift - g_peak - (x' w - c)^2). With the shift
        # halfway between the kernel's maximum (below 1/(2 df)) and the
        # lowest member peak (above _LOG_DEAD - log_scale, so about -810),
        # neither factor exceeds e^410, and a factor that underflows stands
        # for a term below e^-330 of its point's peak
        kern = s - df * _kernel_gap(s)
        shift = 0.5 * (float(kern.max()) + float(g_peak[members].min()))
        kern = np.exp(kern - shift)
        h = step * sk
        weights = np.zeros((2, nk))
        weights[0] = h * kern
        weights[1, ::2] = 2.0 * h * kern[::2]
        per_block = max(1, _KERNEL_BLOCK // nk)
        for r in range(0, members.size, per_block):
            idx = members[r:r + per_block]
            row = shift - g_peak[idx]
            f = integrand(idx, w, row)
            full, half = weights @ f

            def midpoints(redo, level, idx=idx, row=row):
                sub = sk >> level
                s_mid = origin + step * np.arange(lo_k + sub, hi_k, 2 * sub)
                mids = integrand(idx[redo], np.exp(s_mid), row[redo])
                return (step * sub * np.exp(s_mid - df * _kernel_gap(s_mid) - shift)) @ mids

            certify(idx, full, half, kern[0] * f[0], kern[-1] * f[-1], w[0], w[-1], midpoints)

    singles = order[np.repeat(~shared, sizes)]
    if singles.size == 0:
        return out, done
    stride, j0, n_nodes = layout(lo[singles], hi[singles], width[singles])
    # a row's Gaussian factor comes from offsets to its first node s0:
    # x' w - c = x' w0 expm1(s - s0) + (x' w0 - c). Formed from the node s
    # itself it would carry the rounding of s, eps |s|, times x' w ~ |c|,
    # which moved a point by 5e-10 at |ncp| = 5e5
    s0 = origin + step * j0
    xw0 = (x_half[singles] if per_point else x_half) * np.exp(s0)
    offset = xw0 - c[singles]

    def on_rows(rows, first, j_step, count):
        # rows x nodes, exp(log integrand - g_peak) at the nodes
        # j0 + first + j_step * k, k < count, and zero beyond; the padding
        # repeats a row's last node
        k = np.arange(int(count.max()))
        d = step * (first[:, None] + j_step[:, None] * np.minimum(k, count[:, None] - 1))
        s = s0[rows, None] + d
        log_f = s - df * _kernel_gap(s) - g_peak[singles[rows], None]
        log_f -= np.square(xw0[rows, None] * np.expm1(d) + offset[rows, None])
        return np.where(k < count[:, None], np.exp(log_f), 0.0), s

    per_block = max(1, _KERNEL_BLOCK // int(n_nodes.max()))
    for r in range(0, singles.size, per_block):
        rows = np.arange(r, min(r + per_block, singles.size))
        sk, nk = stride[rows], n_nodes[rows]
        f, s = on_rows(rows, np.zeros_like(sk), sk, nk)
        h = step * sk
        last = np.arange(rows.size), nk - 1

        def midpoints(redo, level, rows=rows):
            sub = stride[rows[redo]] >> level
            f_mid, _ = on_rows(rows[redo], sub, 2 * sub, n_nodes[rows[redo]] - 1)
            return step * sub * f_mid.sum(1)

        certify(singles[rows], h * f.sum(1), 2.0 * h * f[:, ::2].sum(1), f[:, 0], f[last],
                np.exp(s[:, 0]), np.exp(s[last]), midpoints)
    return out, done


def _effect_location(stats: SufficientStats) -> tuple[float, float]:
    """The likelihood peak d = t / sqrt(n_eff) of the effect size and its
    standard error. The likelihood spreads beyond 1/sqrt(n_eff) when the
    effect is large: scale estimation adds d^2/(2 df) to the variance."""
    d = stats.t / math.sqrt(stats.n_eff)
    return d, math.sqrt(1.0 / stats.n_eff + d * d / (2.0 * stats.df))


@lru_cache(maxsize=16)
def _g_mixture_log_bf10(
    stats: SufficientStats, prior: CauchyPrior
) -> tuple[float, float, float | None]:
    """log bf10, its relative error and d log bf01 / dy, from one pass,
    cached: the posterior grid and the Bayes factor of one analysis share it.

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

    A one-sided prior is half-normal given g, which makes t a scaled skew-t
    (Azzalini & Capitanio 2003; Morey & Wagenmakers 2014): the integrand
    gains the factor 2 T_(df+1)(z), z = t sqrt((df + 1) / (df (1 + u) + t^2 u))
    with u = e^-x / (n_eff scale^2) and t negated for `less`.

    With y = log(1 + t^2/df), the two-sided log integrand depends on t only
    through (df + 1)/2 * (y - log(1 + (e^y - 1)/A)), whose y-derivative is
    the score (df + 1)/2 * (A - 1)/(A + t^2/df). So d log bf01 / dy is
    -(df + 1)/2 times the mean of (A - 1)/(A + t^2/df) under the normalized
    fine-rule weights, taken in the same pass; the score is written as
    n_eff scale^2 / (n_eff scale^2 + (1 + t^2/df) e^-x), so it reuses the
    integrand's e^-x and cancels nothing. One-sided tests get no slope.
    """
    df = float(stats.df)
    t2_df = stats.t * stats.t / df
    log_ns2 = math.log(stats.n_eff) + 2.0 * math.log(prior.scale)
    ns2 = stats.n_eff * prior.scale * prior.scale
    knee = math.log(max(stats.t * stats.t, 1.0)) - log_ns2
    log_m0_ratio = math.log1p(t2_df)
    t_side = -stats.t if prior.alternative == LESS else stats.t

    def log_f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e_neg = np.exp(-x)
        log_a = np.logaddexp(0.0, x + log_ns2)
        value = (
            -0.5 * (x + e_neg + log_a)
            - 0.5 * (df + 1.0) * (np.log1p(t2_df * np.exp(-log_a)) - log_m0_ratio)
        )
        score = e_neg * (1.0 + t2_df)
        score += ns2
        if prior.alternative != TWO_SIDED:
            # z^2 = t^2 (df + 1) / (df (1 + u) + t^2 u) = t^2 (df + 1) ns2 / (df score)
            z = t_side * np.sqrt((df + 1.0) / df * ns2 / score)
            value += _LOG_2 + _log_student_t_cdf(z, df + 1.0)
        return value, np.divide(ns2, score, out=score)

    log_bf10, rel_error, score = quadrature.log_gauss_legendre(
        log_f, -_GM_BELOW, max(knee, 0.0) + _GM_ABOVE, _GM_NODES, log_scale=-_HALF_LOG_2PI)
    slope = -0.5 * (df + 1.0) * score if prior.alternative == TWO_SIDED else None
    return log_bf10, rel_error, slope


def jzs_bayes_factor(stats: SufficientStats, prior: CauchyPrior) -> BayesFactor:
    """Bayes factor for the point null against the Cauchy-prior alternative,
    as the ratio of predictive densities of the observed t statistic.

    Every alternative takes one g-mixture pass (`_g_mixture_log_bf10`): a
    fixed Gauss-Legendre rule in log space (`quadrature.log_gauss_legendre`)
    whose half rule gives the error estimate. A two-sided test also gets
    ``log_bf01_slope``, the derivative of log bf01 in y = log(1 + t^2/df).
    Raises FloatRangeError when bf01 or bf10 is not a double.
    """
    log_bf10, rel_error, slope = _g_mixture_log_bf10(stats, prior)
    log_bf01 = -log_bf10
    if not abs(log_bf01) < _LOG_DOUBLE_MAX:
        raise FloatRangeError(
            f"bf10 = exp({-log_bf01:.6g}) is outside the double-precision range"
        )
    return BayesFactor(math.exp(log_bf01), math.exp(-log_bf01), log_bf01, rel_error, slope)


def _grid_points(
    lo: float, hi: float, segments: list[tuple[float, float, float]],
    anchors: tuple[float, ...], size: int,
) -> np.ndarray:
    """``size`` strictly increasing points from ``lo`` to ``hi``, uniform
    between breaks, with the anchors that lie inside among them.

    Each segment (a, b, share) asks for ``share`` of the budget spread
    evenly over [a, b]. The point density at x is the largest any segment
    asks for there, so segments abut rather than overlap. In the cumulative
    density, scaled so that the grid's size - 1 gaps are unit steps, the
    two ends and the anchors are knots, and an anchor nearer than _MIN_GAP
    of a step to a knot kept before it, or to ``hi``, merges into that
    knot. Each stretch between knots takes a whole number of steps, at
    least one, and the longest takes up the rounding (a handful of anchors
    leaves it most of the steps); its points are even in the cumulative
    density. No gap is therefore below _MIN_GAP of the
    local spacing: the MAP's three-point parabola and the HPD slopes divide
    by gaps.
    """
    edges = np.sort(np.clip([lo, hi, *(e for a, b, _ in segments for e in (a, b))], lo, hi))
    edges = edges[np.r_[True, edges[1:] > edges[:-1]]]
    mid = 0.5 * (edges[:-1] + edges[1:])
    density = np.zeros(mid.size)
    for a, b, share in segments:
        density = np.maximum(density, np.where((a <= mid) & (mid <= b), share / (b - a), 0.0))
    cum = np.concatenate(([0.0], np.cumsum(density * np.diff(edges))))
    cum *= (size - 1) / cum[-1]
    knots, at = [lo], [0.0]
    for x in sorted(set(anchors)):
        c = float(np.interp(x, edges, cum))
        if lo < x < hi and c - at[-1] >= _MIN_GAP and cum[-1] - c >= _MIN_GAP:
            knots.append(x)
            at.append(c)
    knots.append(hi)
    at.append(float(cum[-1]))
    steps = np.maximum(np.rint(np.diff(at)), 1).astype(np.int64)
    steps[np.argmax(steps)] += size - 1 - steps.sum()
    even = [np.linspace(c0, c1, k, endpoint=False) for c0, c1, k in zip(at, at[1:], steps)]
    points = np.interp(np.concatenate((*even, at[-1:])), cum, edges)
    # the knots exactly, not as rounded by the two interpolations
    points[np.r_[0, np.cumsum(steps)]] = knots
    return points


def posterior_density_grid(
    stats: SufficientStats,
    prior: CauchyPrior,
    grid_lo: float | None = None,
    grid_hi: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    anchors: tuple[float, ...] = (),
) -> DensityGrid:
    """Normalized posterior density of the effect size on a piecewise-uniform
    grid of ``grid_size`` points.

    The prior picks the form: the grid lies within its ``support``. With
    default bounds it is [-3, 3], widened to cover six standard errors
    around the sample effect. Explicit bounds are honoured as given.

    The points follow the posterior (`_grid_points`): a coarse base over the
    whole grid keeps wide small-sample posteriors dense; a fine segment
    spans `_FINE_REACH` standard errors on either side of the likelihood
    peak (or, when the peak lies beyond the support, of the support's end,
    where the posterior decays over se^2 / distance); and a prior scale
    below `_SPIKE_BELOW` standard errors adds a segment over +-`_SPIKE_REACH`
    scales around the prior's spike. ``anchors`` (the null and the ROPE
    edges) are grid points wherever they lie inside the grid.

    The grid is checked against the evidence m1 = bf10 * t_df(t) of the
    g-mixture pass (`_g_mixture_log_bf10`), halved on a half-line since the
    grid carries the plain Cauchy density: if its unnormalized trapezoidal
    mass misses m1 by TRUNCATION_LIMIT (0.1%) or more a TruncatedSupportError
    is raised. That one test covers mass clipped at either edge, default or
    explicit, and the quadrature error of a grid too coarse for its
    posterior.

    A grid whose density peaks below the normal double range is refused
    with a DegenerateDataError: its normalization would divide by a
    subnormal mass.
    """
    if grid_size < MIN_GRID_POINTS:
        raise InvalidArgumentError(f"grid_size must be at least {MIN_GRID_POINTS}")
    d, se = _effect_location(stats)
    if grid_lo is None and grid_hi is None:
        lo = min(-DEFAULT_GRID_BOUND, d - 6.0 * se)
        hi = max(DEFAULT_GRID_BOUND, d + 6.0 * se)
    else:
        if grid_lo is None or grid_hi is None:
            raise InvalidArgumentError("pass both grid bounds or neither")
        lo, hi = float(grid_lo), float(grid_hi)
        if not lo < hi:
            raise InvalidArgumentError("grid_lo must be below grid_hi")
    floor, ceiling = prior.support
    lo, hi = max(lo, floor), min(hi, ceiling)
    if not lo < hi:
        raise InvalidArgumentError(
            f"grid [{lo:g}, {hi:g}] is empty for a {prior.alternative} alternative"
        )

    centre = min(max(d, floor), ceiling)
    reach = _FINE_REACH * se * se / (se + abs(d - centre))
    segments = [(lo, hi, _BASE_SHARE), (centre - reach, centre + reach, _FINE_SHARE)]
    if prior.scale < _SPIKE_BELOW * se:
        spike = _SPIKE_REACH * prior.scale
        segments.append((-spike, spike, _SPIKE_SHARE))
    points = _grid_points(lo, hi, segments, anchors, grid_size)
    # all points lie in the support, where a half-line prior is twice the
    # Cauchy density; normalization cancels the 2
    values = noncentral_t_pdf(
        stats.t, stats.df, points * math.sqrt(stats.n_eff)
    ) * CauchyPrior(prior.scale).density(points)
    peak = float(values.max())
    if not peak >= np.finfo(float).tiny:
        raise DegenerateDataError(
            f"posterior density underflows on the requested grid (peak {peak:.3g})"
        )
    log_evidence = _g_mixture_log_bf10(stats, prior)[0] + _log_central_t_pdf(stats.t, stats.df)
    if prior.alternative != TWO_SIDED:
        log_evidence -= _LOG_2
    miss = math.expm1(math.log(np.trapezoid(values, points)) - log_evidence)
    if abs(miss) >= TRUNCATION_LIMIT:
        found = (f"clips {-miss:.2%} of the posterior mass; widen the bounds or add grid points"
                 if miss < 0.0 else f"over-counts the posterior mass by {miss:.2%}; add grid points")
        raise TruncatedSupportError(f"grid [{lo:g}, {hi:g}] {found}")
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
