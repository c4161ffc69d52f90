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
# share of probability mass allowed beyond either grid edge
TRUNCATION_LIMIT = 1e-3

# two-sided Bayes factor: Gauss-Legendre nodes in x = log g, and the reach of
# the bracket below the prior peak (the integrand falls like exp(-e^-x / 2)
# there, below e^-70 at -5) and above it and the likelihood knee (it falls
# like e^-x)
_GM_NODES = 256
_GM_BELOW = 5.0
_GM_ABOVE = 45.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


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
            if np.var(arr, ddof=1) <= 0:
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


@dataclass(frozen=True)
class Hypotheses:
    """Point null value and the direction of the alternative."""

    null_value: float = 0.0
    alternative: str = TWO_SIDED

    def __post_init__(self):
        if not math.isfinite(self.null_value):
            raise InvalidArgumentError("null value must be finite")
        if self.alternative not in ALTERNATIVES:
            raise InvalidArgumentError(
                f"alternative must be one of {ALTERNATIVES}, got {self.alternative!r}"
            )


class BayesFactor(NamedTuple):
    """bf01 and bf10 with log bf01 and the relative error estimate of the
    predictive density under the alternative."""

    bf01: float
    bf10: float
    log_bf01: float
    rel_error: float


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


def central_t_pdf(x, df: float):
    """Student-t density, evaluated in log space for stability."""
    x = np.asarray(x, dtype=float)
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    out = np.exp(log_norm - ((df + 1.0) / 2.0) * np.log1p(x * x / df))
    return float(out) if out.ndim == 0 else out


def noncentral_t_pdf(x, df: float, ncp, *, rel_tol: float = 1e-12):
    """Noncentral Student-t density.

    Evaluates the scale-mixture representation

        pdf(x) = C(df) * integral_0^inf w^df exp(-((x^2+df) w^2 - 2 ncp x w + ncp^2) / 2) dw

    by node-doubling Gauss-Legendre quadrature after substituting w = v^2
    (smooth at the origin) and bracketing the integrand's single peak in
    log space. ``x`` and ``ncp`` broadcast; ``df`` is a positive scalar.
    """
    if not df > 0:
        raise InvalidArgumentError("df must be positive")
    x_arr = np.asarray(x, dtype=float)
    ncp_arr = np.asarray(ncp, dtype=float)
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(ncp_arr))):
        raise InvalidArgumentError("x and ncp must be finite")
    scalar = x_arr.ndim == 0 and ncp_arr.ndim == 0
    xb, nb = np.broadcast_arrays(np.atleast_1d(x_arr), np.atleast_1d(ncp_arr))
    shape = xb.shape
    xf = xb.reshape(-1).astype(float)
    nf = nb.reshape(-1).astype(float)

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
    # g(v*), using a s^2 - 2 b s + c = (root-b)^2/(4a^2)*a + c*df/a, both
    # terms moderate even when b and c are astronomically large
    gstar = p * np.log(vstar) - 0.5 * (diff * diff / (4.0 * a) + c * df / a)
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

    log_const = (
        0.5 * df * math.log(df)
        - 0.5 * math.log(2.0 * math.pi)
        - (0.5 * df - 1.0) * math.log(2.0)
        - math.lgamma(0.5 * df)
    )
    # elements whose peak value already underflows double precision are
    # exactly zero; skipping them also avoids brackets narrower than the
    # float spacing around v* at extreme noncentralities
    alive = np.isfinite(gstar) & (gstar + log_const >= -800.0)
    integral = np.zeros_like(gstar)
    if alive.any():
        alive_idx = np.flatnonzero(alive)

        def log_f(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
            gi = alive_idx[idx]
            u = v * v - s[gi, None]
            return (
                p * np.log(v / vstar[gi, None])
                - 0.5 * u * (a[gi, None] * u + diff[gi, None])
            )

        # rounding noise floor of the exponent near the peak: the error in
        # u = v^2 - s is ~eps*s, amplified by |a u + diff| ~ 2 a s^1.5 sigma;
        # at extreme |x|, |ncp| (~1e7) this dominates any fixed tolerance
        eps = np.finfo(float).eps
        noise = 16.0 * eps * (2.0 * a * s * vstar * sigma + p)
        tol = np.maximum(rel_tol, noise[alive])
        integral[alive] = quadrature.batched_log_integral(
            log_f, lo[alive], hi[alive], rel_tol=tol
        )
    with np.errstate(divide="ignore"):
        out = 2.0 * np.exp(log_const + gstar + np.log(np.maximum(integral, 0.0)))
    out = np.where(integral > 0.0, out, 0.0).reshape(shape)
    return float(out.reshape(())) if scalar else out


def _g_mixture_log_bf10(stats: SufficientStats, prior: CauchyPrior) -> tuple[float, float]:
    """Two-sided log bf10 and its relative error, from one pass.

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
    """
    df = float(stats.df)
    t2_df = stats.t * stats.t / df
    log_ns2 = math.log(stats.n_eff) + 2.0 * math.log(prior.scale)
    knee = math.log(max(stats.t * stats.t, 1.0)) - log_ns2
    lo = -_GM_BELOW
    hi = max(knee, 0.0) + _GM_ABOVE
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    log_m0_ratio = math.log1p(t2_df)

    def log_integral(n: int) -> float:
        u, w = quadrature.gauss_legendre_nodes(n)
        x = mid + half * u
        log_a = np.logaddexp(0.0, x + log_ns2)
        log_f = (
            -0.5 * (x + np.exp(-x) + log_a)
            - 0.5 * (df + 1.0) * (np.log1p(t2_df * np.exp(-log_a)) - log_m0_ratio)
        )
        peak = float(log_f.max())
        return peak + math.log(half * float(w @ np.exp(log_f - peak))) - _HALF_LOG_2PI

    value = log_integral(_GM_NODES)
    coarse = log_integral(_GM_NODES // 2)
    # the rules' disagreement, floored at the rounding of a 256-term sum
    return value, max(abs(math.expm1(coarse - value)), _GM_NODES * sys.float_info.epsilon)


def _marginal_likelihood_h1(
    stats: SufficientStats,
    prior: CauchyPrior,
    alternative: str,
    *,
    rel_tol: float = 1e-6,
    max_panels: int = 10_000,
) -> tuple[float, float]:
    """Predictive density of the observed t under a one-sided alternative:
    integral of nct_pdf(t; df, delta*sqrt(n_eff)) * half-line prior(delta)
    d delta, with its absolute error estimate.

    The substitution delta = scale * tan(u) turns the Cauchy weight into a
    constant, leaving a bounded integrand on the half of (-pi/2, pi/2) the
    alternative retains; the half-line prior doubles the Cauchy density.
    """
    root_n = math.sqrt(stats.n_eff)
    g = prior.scale

    def integrand(u: np.ndarray) -> np.ndarray:
        delta = g * np.tan(u)
        return noncentral_t_pdf(stats.t, stats.df, delta * root_n) / math.pi

    lo, hi = (0.0, math.pi / 2) if alternative == GREATER else (-math.pi / 2, 0.0)
    value, err = quadrature.adaptive_gauss_kronrod(
        integrand, lo, hi, rel_tol=rel_tol, max_panels=max_panels
    )
    return 2.0 * value, 2.0 * err


def jzs_bayes_factor(
    stats: SufficientStats,
    prior: CauchyPrior,
    alternative: str = TWO_SIDED,
) -> BayesFactor:
    """Bayes factor for the point null against the Cauchy-prior alternative,
    as the ratio of predictive densities of the observed t statistic.

    Two-sided tests integrate the g-mixture form in log space; one-sided
    tests integrate the noncentral-t form over the half-line prior. Either
    way one quadrature pass gives the value and its error estimate. Raises
    FloatRangeError when bf01 or bf10 is not a normal double.
    """
    if alternative not in ALTERNATIVES:
        raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")
    if alternative == TWO_SIDED:
        log_bf10, rel_error = _g_mixture_log_bf10(stats, prior)
        if not abs(log_bf10) < _LOG_DOUBLE_MAX:
            raise FloatRangeError(
                f"bf10 = exp({log_bf10:.6g}) is outside the double-precision range"
            )
        return BayesFactor(math.exp(-log_bf10), math.exp(log_bf10), -log_bf10, rel_error)
    m1, err = map(float, _marginal_likelihood_h1(stats, prior, alternative))
    bf01 = float(central_t_pdf(stats.t, stats.df)) / m1 if m1 > 0.0 else math.inf
    if not 1.0 / sys.float_info.max < bf01 < sys.float_info.max:
        raise FloatRangeError(
            f"{alternative} bf01 = {bf01!r} is outside the double-precision range"
        )
    return BayesFactor(bf01, 1.0 / bf01, math.log(bf01), err / m1)


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
    """
    if alternative not in ALTERNATIVES:
        raise InvalidArgumentError(f"alternative must be one of {ALTERNATIVES}")
    if grid_size < 64:
        raise InvalidArgumentError("grid_size must be at least 64")
    d = stats.t / math.sqrt(stats.n_eff)
    # the effect-size likelihood spreads beyond 1/sqrt(n_eff) when the
    # effect is large (scale estimation adds d^2/(2 df) to the variance)
    se = math.sqrt(1.0 / stats.n_eff + d * d / (2.0 * stats.df))
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

    root_n = math.sqrt(stats.n_eff)

    def unnormalized(points: np.ndarray) -> np.ndarray:
        return noncentral_t_pdf(stats.t, stats.df, points * root_n) * prior.density(points)

    points = np.linspace(lo, hi, grid_size)
    values = unnormalized(points)
    # estimate the clipped tail with margin extensions of a quarter range
    margin = 0.25 * (hi - lo)
    margin_pts = max(grid_size // 8, 64)
    left = np.linspace(lo - margin, lo, margin_pts)
    right = np.linspace(hi, hi + margin, margin_pts)
    mass_core = np.trapezoid(values, points)
    mass_left = 0.0 if alternative == GREATER else float(np.trapezoid(unnormalized(left), left))
    mass_right = 0.0 if alternative == LESS else float(np.trapezoid(unnormalized(right), right))
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
