"""Every grid index against a 2^18-point reference grid.

The reference is laid out here, independently of `ttest._grid_points`: it
splits the grid's range at the segment ends and the anchors and gives each
piece the finest spacing any segment asks for there, with 2^17 points over
the whole range and 2^16 over each segment. Its densities and indices come
from the same kernel and index code as the default grid.
"""

import math

import numpy as np
import pytest

from bayesindices import AnalysisConfig, CauchyPrior, DensityGrid, Rope, SufficientStats
from bayesindices import analyze, noncentral_t_pdf, normalize_grid, run_all_indices
from bayesindices.ttest import _effect_location

# n1, n2, t, prior scale, alternative, null, ROPE
DESIGNS = [
    (10**5, 10**5, 3.0, 0.707, "two-sided", 0.0, (-0.1, 0.1)),
    (50, 50, 2.0, 1e-3, "two-sided", 0.0, (-0.1, 0.1)),
    (2000, 2000, 2.0, 0.707, "two-sided", 0.0, (-0.1, 0.1)),
    (3, 3, 2.5, 0.707, "two-sided", 0.0, (-0.1, 0.1)),
    (5, 5, 1.0, 0.707, "two-sided", 0.0, (-0.1, 0.1)),
    (20, 20, -1.5, 1.0, "less", 0.0, (-0.1, 0.1)),
    (50, 50, 2.5, 0.707, "greater", 0.0, (-0.1, 0.1)),
    (400, 400, 4.0, 1.0, "two-sided", 0.0, (-0.1, 0.1)),
    (10**4, 10**4, 2.0, 1e-3, "two-sided", 0.0, (-0.1, 0.1)),
    (100, 60, 1.0, 1.0, "two-sided", 0.05, (-0.05, 0.15)),
    (200, 200, -4.0, 1.0, "greater", 0.0, (-0.1, 0.1)),
    (30, 3000, 5.0, 3.0, "two-sided", 0.0, (-0.1, 0.1)),
]
# the three designs of the roadmap's grid item, where a uniform 4096-point
# grid missed: n = 10^5/group at t = 3, scale 1e-3 at n = 50, and n = 2000
ROADMAP_CASES = (0, 1, 2)

# absolute tolerance per index; relative for the Savage-Dickey bf01. The
# flat e-value of a 1e-3 prior spike sums the mass where the density
# exceeds its value at the null, 5e-6 from the mode: a set narrower than the
# spike segment's spacing, so it is resolved to a few 1e-3 only
TOLERANCE = {
    "bf01_savage_dickey": 2e-4,
    "hpd_lower": 1e-4,
    "hpd_upper": 1e-4,
    "rope_mass_total": 5e-5,
    "rope_mass": 5e-5,
    "map_location": 1e-4,
    "p_map": 1e-3,
    "pd": 2e-4,
    "median": 1e-5,
    "mean": 1e-6,
    "ev_against_flat": 5e-3,
    "ev_against_prior": 2e-4,
}


def _stats(n1, n2, t):
    return SufficientStats(t=t, df=n1 + n2 - 2, n_eff=n1 * n2 / (n1 + n2), n1=n1, n2=n2)


def _density(stats, prior, x):
    x = np.asarray(x, dtype=float)
    values = noncentral_t_pdf(stats.t, stats.df, x * math.sqrt(stats.n_eff))
    return normalize_grid(DensityGrid(x, values * CauchyPrior(prior.scale).density(x)))


def _default_bounds(stats, prior):
    d, se = _effect_location(stats)
    floor, ceiling = prior.support
    return max(min(-3.0, d - 6.0 * se), floor), min(max(3.0, d + 6.0 * se), ceiling)


def _reference(stats, prior, anchors):
    d, se = _effect_location(stats)
    lo, hi = _default_bounds(stats, prior)
    floor, ceiling = prior.support
    centre = min(max(d, floor), ceiling)
    reach = 10.0 * se * se / (se + abs(d - centre))
    # (start, end, spacing)
    segments = [(lo, hi, (hi - lo) / 2**17),
                (centre - reach, centre + reach, 2.0 * reach / 2**16)]
    if prior.scale < 3.0 * se:
        segments.append((-30.0 * prior.scale, 30.0 * prior.scale, 60.0 * prior.scale / 2**16))
    breaks = sorted({lo, hi} | {x for a, b, _ in segments for x in (a, b) if lo < x < hi}
                    | {x for x in anchors if lo < x < hi})
    pieces = [np.array([lo])]
    for a, b in zip(breaks, breaks[1:]):
        h = min(step for start, end, step in segments if start <= 0.5 * (a + b) <= end)
        pieces.append(np.linspace(a, b, max(1, math.ceil((b - a) / h)) + 1)[1:])
    return _density(stats, prior, np.concatenate(pieces))


def _errors(got, want):
    out = {}
    for key, tol in TOLERANCE.items():
        g, w = got[key], want[key]
        assert (g is None) == (w is None), key
        if w is not None:
            scale = abs(w) if key == "bf01_savage_dickey" else 1.0
            out[key] = abs(g - w) / scale
    return out


@pytest.mark.parametrize("case", range(len(DESIGNS)))
def test_every_index_is_near_the_reference_grid(case):
    n1, n2, t, scale, alternative, null, rope = DESIGNS[case]
    stats = _stats(n1, n2, t)
    config = AnalysisConfig(prior_scale=scale, alternative=alternative, null_value=null,
                            rope=Rope(*rope))
    prior = config.prior

    def indices(posterior):
        return run_all_indices(posterior, prior.on_grid(posterior.points), config).indices

    reference = indices(_reference(stats, prior, (null, *rope)))
    errors = _errors(analyze(stats, config).block.indices, reference)
    for key, err in errors.items():
        assert err <= TOLERANCE[key], (key, err)
    if case in ROADMAP_CASES:
        # a uniform 4096-point grid over the same range, the layout before
        # the grid followed the posterior, is further off
        uniform = _density(stats, prior, np.linspace(*_default_bounds(stats, prior), 4096))
        before = _errors(indices(uniform), reference)
        worst = max(err / TOLERANCE[key] for key, err in errors.items())
        assert worst < max(err / TOLERANCE[key] for key, err in before.items())
