"""The five posterior indices and their decision rules.

Every function is a pure map from posterior/prior representations plus
hypothesis and threshold configuration to a value or verdict; nothing here
mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, OutOfSupportError
from .posterior import (
    FLAT,
    CredibleInterval,
    DensityGrid,
    MapEstimate,
    ReferenceFunction,
    _clipped_level_mass,
    _require_normalized,
    grid_quantile,
    hpd_interval,
    map_estimate,
    mass_in_interval,
)

REJECT_NULL = "reject_null"
ACCEPT_NULL = "accept_null"
UNDECIDED = "undecided"

AGAINST_NULL = "against H0"
FOR_NULL = "for H0"
INDECISIVE = "indecisive"


@dataclass(frozen=True)
class Rope:
    """Region of practical equivalence around a null value."""

    lower: float = -0.1
    upper: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InvalidArgumentError("ROPE bounds must be finite")
        if not self.lower < self.upper:
            raise InvalidArgumentError("ROPE lower bound must be below upper bound")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


# half of a small effect, the conventional equivalence band for effect sizes
DEFAULT_EFFECT_SIZE_ROPE = Rope(-0.1, 0.1)


@dataclass(frozen=True)
class RopeDecision:
    verdict: str
    hpd: CredibleInterval
    mass_in_rope: float


@dataclass(frozen=True)
class EvidenceScale:
    """A named ladder of evidence labels over the shared bf01 cutpoints.

    Labels run weakest to strongest; ladders missing a rung in the source
    categorization reuse the nearest stronger label.
    """

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(BF01_CUTPOINTS) + 1:
            raise InvalidArgumentError(
                f"scale {self.name!r} needs {len(BF01_CUTPOINTS) + 1} labels"
            )


BF01_CUTPOINTS = (1 / 3, 1 / 10, 1 / 30, 1 / 100, 1 / 300)

JEFFREYS1961 = EvidenceScale(
    "Jeffreys1961",
    ("Bare mention", "Substantial", "Strong", "Very strong", "Decisive", "Decisive"),
)
GOODMAN1999 = EvidenceScale(
    "Goodman1999",
    ("Weak to moderate", "Weak to moderate", "Moderate to strong", "Strong",
     "Very strong", "Very strong"),
)
HELD_OTT2016 = EvidenceScale(
    "HeldOtt2016",
    ("Weak", "Moderate", "Substantial", "Strong", "Very strong", "Decisive"),
)
LEE_WAGENMAKERS2013 = EvidenceScale(
    "LeeWagenmakers2013",
    ("Anecdotal", "Moderate", "Strong", "Very strong", "Extreme", "Extreme"),
)

ALL_SCALES = (JEFFREYS1961, GOODMAN1999, HELD_OTT2016, LEE_WAGENMAKERS2013)


class BfCategory(NamedTuple):
    label: str
    direction: str


@dataclass(frozen=True)
class FbstResult:
    """Evidence summary of the significance test built on posterior surprise,
    with the surprise curve it was read from (`surprise_function`, on the
    posterior grid)."""

    ev_against: float
    ev_for: float
    s_star: float
    reference: ReferenceFunction
    surprise: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.ev_against <= 1.0:
            raise InvalidArgumentError("ev_against must lie in [0, 1]")
        if self.ev_for != 1.0 - self.ev_against:
            raise InvalidArgumentError("ev_for must equal 1 - ev_against exactly")
        if self.s_star < 0:
            raise InvalidArgumentError("s_star must be nonnegative")


def _require_in_support(grid: DensityGrid, x: float, what: str) -> None:
    lo, hi = grid.support
    if not lo <= x <= hi:
        raise OutOfSupportError(f"{what} {x:g} lies outside the grid support [{lo:g}, {hi:g}]")


def savage_dickey_bf(posterior: DensityGrid, prior: DensityGrid, null_value: float) -> float:
    """bf01 as posterior density over prior density at the null value, each
    read off its own grid by linear interpolation."""
    _require_in_support(posterior, null_value, "null value")
    _require_in_support(prior, null_value, "null value")
    prior_height = float(prior.density_at(null_value))
    if prior_height <= 0.0:
        raise ZeroDivisionError("prior density at the null value is zero")
    return float(posterior.density_at(null_value)) / prior_height


def categorize_bf(bf01: float, scale: EvidenceScale) -> BfCategory:
    """Evidence label for a Bayes factor on the given scale.

    Values above one are flipped and labelled as evidence for the null;
    values exactly on a cutpoint take the weaker label.
    """
    if not bf01 > 0:
        raise InvalidArgumentError("bf01 must be positive")
    if bf01 == 1.0:
        return BfCategory(scale.labels[0], INDECISIVE)
    if bf01 > 1.0:
        direction = FOR_NULL
        bf = 1.0 / bf01
    else:
        direction = AGAINST_NULL
        bf = bf01
    for i, cut in enumerate(BF01_CUTPOINTS):
        if bf >= cut:
            return BfCategory(scale.labels[i], direction)
    return BfCategory(scale.labels[-1], direction)


def rope_verdict(hpd_lower: float, hpd_upper: float, rope: Rope) -> str:
    """HPD-versus-ROPE containment rule: reject when the HPD lies entirely
    outside the ROPE, accept when entirely inside, undecided otherwise."""
    if hpd_upper < rope.lower or hpd_lower > rope.upper:
        return REJECT_NULL
    if rope.lower <= hpd_lower and hpd_upper <= rope.upper:
        return ACCEPT_NULL
    return UNDECIDED


def rope_decision(
    posterior: DensityGrid,
    rope: Rope,
    hpd_mass: float = 0.95,
) -> RopeDecision:
    """The HPD, its `rope_verdict` and the posterior mass in the ROPE."""
    hpd = hpd_interval(posterior, hpd_mass)
    return RopeDecision(
        verdict=rope_verdict(hpd.lower, hpd.upper, rope),
        hpd=hpd,
        mass_in_rope=mass_in_interval(posterior, rope.lower, rope.upper),
    )


def rope_mass(
    posterior: DensityGrid,
    rope: Rope,
    hpd_mass: float = 0.95,
    hpd: CredibleInterval | None = None,
) -> float:
    """Share of the HPD-credible mass that falls inside the ROPE.

    This is the conditional quantity conventionally reported as the
    "% in ROPE": posterior mass of (ROPE intersect HPD) divided by the
    posterior mass of the HPD itself.
    """
    if hpd is None:
        hpd = hpd_interval(posterior, hpd_mass)
    lo = max(rope.lower, hpd.lower)
    hi = min(rope.upper, hpd.upper)
    if hi <= lo:
        return 0.0
    denom = mass_in_interval(posterior, hpd.lower, hpd.upper)
    if denom <= 0:
        return 0.0
    return mass_in_interval(posterior, lo, hi) / denom


def map_p_value(
    posterior: DensityGrid, null_value: float, peak: MapEstimate | None = None
) -> float:
    """Posterior density at the null over the posterior density at the mode.

    ``peak`` is the posterior's `map_estimate`, when the caller already has it.
    """
    _require_in_support(posterior, null_value, "null value")
    if peak is None:
        peak = map_estimate(posterior)
    if peak.density <= 0:
        raise InvalidArgumentError("posterior has zero peak density")
    ratio = float(posterior.density_at(null_value)) / peak.density
    if ratio > 1.0:
        # interpolation overshoot only; anything larger is a logic error
        if ratio > 1.0 + 1e-9:
            raise InvalidArgumentError(f"density ratio {ratio!r} exceeds 1 beyond tolerance")
        ratio = 1.0
    return ratio


def posterior_median(posterior: DensityGrid) -> float:
    return float(grid_quantile(posterior, 0.5))


def probability_of_direction(posterior: DensityGrid, median: float | None = None) -> float:
    """Posterior mass sharing the sign of the median (median exactly zero
    counts as positive), on a normalized grid. Clipped onto the feasible
    range [0.5, 1], which integration noise can overshoot by ~1e-16.
    ``median`` is the posterior's `posterior_median`, when the caller
    already has it."""
    _require_normalized(posterior, "probability_of_direction")
    if median is None:
        median = posterior_median(posterior)
    lo, hi = posterior.support
    if median >= 0:
        mass = mass_in_interval(posterior, 0.0, hi)
    else:
        mass = mass_in_interval(posterior, lo, 0.0)
    return min(1.0, max(0.5, mass))


def surprise_function(posterior: DensityGrid, reference: ReferenceFunction) -> np.ndarray:
    """Pointwise posterior-to-reference density ratio on the posterior grid.

    A flat reference returns the posterior densities unchanged. Where both
    posterior and reference vanish the ratio is defined as zero.
    """
    if reference.kind == FLAT:
        return posterior.densities.copy()
    prior = reference.prior
    lo, hi = posterior.support
    plo, phi = prior.support
    if plo > lo or phi < hi:
        raise InvalidArgumentError(
            "prior reference grid must cover the posterior support"
        )
    ref_vals = np.asarray(prior.density_at(posterior.points), dtype=float)
    pos = posterior.densities
    bad = (ref_vals <= 0.0) & (pos > 0.0)
    if np.any(bad):
        where = posterior.points[bad][0]
        raise ZeroDivisionError(
            f"reference density is zero at {where:g} where the posterior is positive"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(ref_vals > 0.0, pos / np.where(ref_vals > 0.0, ref_vals, 1.0), 0.0)
    return out


def fbst_evalue(
    posterior: DensityGrid,
    reference: ReferenceFunction,
    null_value: float,
) -> FbstResult:
    """Evidence against a point null from the posterior surprise landscape.

    The surprise threshold is the surprise value at the null (a point null
    makes the supremum over the null set the value itself); the evidence
    against is the posterior mass where surprise exceeds that threshold,
    read off a normalized posterior grid.
    """
    _require_in_support(posterior, null_value, "null value")
    _require_normalized(posterior, "fbst_evalue")
    surprise = surprise_function(posterior, reference)
    s_star = float(np.interp(null_value, posterior.points, surprise))
    # the smaller of the superlevel and the sublevel mass is summed and the
    # larger is its complement: no evidence reads 0 and all evidence 1
    # exactly, and an e-value of 1/2 or more is exactly 1 - the sublevel mass
    points, dens = posterior.points, posterior.densities
    below = _clipped_level_mass(points, dens, surprise, s_star)
    if below <= 0.5:
        ev_against = 1.0 - below
    else:
        ev_against = _clipped_level_mass(points, dens, surprise, s_star, above=True)
    return FbstResult(
        ev_against=ev_against,
        ev_for=1.0 - ev_against,
        s_star=s_star,
        reference=reference,
        surprise=surprise,
    )
