import numpy as np
import pytest

from bayesindices import (
    ALL_SCALES,
    DensityGrid,
    GOODMAN1999,
    HELD_OTT2016,
    JEFFREYS1961,
    LEE_WAGENMAKERS2013,
    ReferenceFunction,
    Rope,
    SampleSet,
    categorize_bf,
    fbst_evalue,
    hpd_interval,
    level_set_mass,
    map_p_value,
    map_estimate,
    mass_in_interval,
    normalize_grid,
    probability_of_direction,
    rope_decision,
    rope_mass,
    savage_dickey_bf,
    surprise_function,
)
from bayesindices.errors import InvalidArgumentError, MultimodalHpdError, OutOfSupportError

# plain posterior mass of [-0.1, 0.1] for the calibrated reference,
# frozen from direct quadrature of the unnormalized posterior
REFERENCE_PLAIN_ROPE_MASS = 0.05021193173716645


def shifted_normal_grid(mu=0.0, sd=1.0, lo=-8.0, hi=8.0, n=2001):
    x = np.linspace(lo, hi, n)
    return normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - mu) / sd) ** 2)))


# ---------------------------------------------------------------- savage-dickey

def test_savage_dickey_reference_ratio(reference):
    # the reported density pair gives 0.2171/0.3183 = 0.6821; the calibrated
    # grid reproduces the ratio within the published tolerance
    assert reference["savage_dickey_bf01"] == pytest.approx(0.6821, abs=0.03)


def test_savage_dickey_identity_when_posterior_is_prior(normal_grid):
    grid = normalize_grid(normal_grid)
    assert savage_dickey_bf(grid, grid, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_savage_dickey_out_of_support(normal_grid):
    with pytest.raises(OutOfSupportError):
        savage_dickey_bf(normalize_grid(normal_grid), normal_grid, 99.0)


def test_savage_dickey_zero_prior_density():
    x = np.linspace(-1, 1, 101)
    posterior = normalize_grid(DensityGrid(x, np.exp(-0.5 * x * x)))
    prior = DensityGrid(x, np.where(np.abs(x) < 0.5, 1.0, 0.0))
    with pytest.raises(ZeroDivisionError):
        savage_dickey_bf(posterior, prior, 0.75)


# ---------------------------------------------------------------- categorize

def test_categorize_moderate_against():
    got = categorize_bf(1 / 5, HELD_OTT2016)
    assert got.label == "Moderate"
    assert got.direction == "against H0"


def test_categorize_indecisive_at_one():
    for scale in ALL_SCALES:
        got = categorize_bf(1.0, scale)
        assert got.label == scale.labels[0]
        assert got.direction == "indecisive"


def test_categorize_weakest_band_for_reference_bf():
    assert categorize_bf(0.6870, JEFFREYS1961).label == "Bare mention"
    assert categorize_bf(0.6870, HELD_OTT2016).label == "Weak"
    assert categorize_bf(0.6870, LEE_WAGENMAKERS2013).label == "Anecdotal"


def test_categorize_boundary_takes_weaker_label():
    assert categorize_bf(1 / 3, HELD_OTT2016).label == "Weak"
    assert categorize_bf(1 / 3 - 1e-12, HELD_OTT2016).label == "Moderate"
    assert categorize_bf(1 / 300, HELD_OTT2016).label == "Very strong"


def test_categorize_strongest_band():
    assert categorize_bf(1 / 1000, HELD_OTT2016).label == "Decisive"
    # ladders without a bottom rung reuse their strongest label
    assert categorize_bf(1 / 1000, JEFFREYS1961).label == "Decisive"
    assert categorize_bf(1 / 1000, GOODMAN1999).label == "Very strong"
    assert categorize_bf(1 / 1000, LEE_WAGENMAKERS2013).label == "Extreme"


def test_categorize_flip_symmetry():
    rng = np.random.default_rng(4)
    for bf in rng.uniform(0.002, 0.999, size=25):
        for scale in ALL_SCALES:
            a = categorize_bf(bf, scale)
            b = categorize_bf(1 / bf, scale)
            assert a.label == b.label
            assert {a.direction, b.direction} == {"against H0", "for H0"}


def test_categorize_requires_positive():
    with pytest.raises(InvalidArgumentError):
        categorize_bf(0.0, HELD_OTT2016)


# ---------------------------------------------------------------- rope

def test_rope_validation():
    with pytest.raises(InvalidArgumentError):
        Rope(0.2, 0.1)


def test_rope_decision_reference_is_undecided(reference):
    decision = rope_decision(reference["posterior"], Rope(-0.1, 0.1), 0.95)
    assert decision.verdict == "undecided"


def test_rope_decision_reject():
    grid = shifted_normal_grid(mu=0.35, sd=0.05)
    decision = rope_decision(grid, Rope(-0.1, 0.1), 0.95)
    assert decision.verdict == "reject_null"
    assert decision.hpd.lower > 0.1


def test_rope_decision_accept():
    grid = shifted_normal_grid(mu=0.0, sd=0.02)
    decision = rope_decision(grid, Rope(-0.1, 0.1), 0.95)
    assert decision.verdict == "accept_null"


def test_rope_decision_propagates_multimodal():
    x = np.linspace(-6, 6, 1201)
    dens = np.exp(-0.5 * ((x - 3) / 0.5) ** 2) + np.exp(-0.5 * ((x + 3) / 0.5) ** 2)
    grid = normalize_grid(DensityGrid(x, dens))
    with pytest.raises(MultimodalHpdError):
        rope_decision(grid, Rope(-0.1, 0.1), 0.95)


def test_plain_rope_mass_of_reference(reference):
    got = mass_in_interval(reference["posterior"], -0.1, 0.1)
    assert got == pytest.approx(REFERENCE_PLAIN_ROPE_MASS, abs=5e-4)


def test_hpd_share_rope_mass_of_reference(reference):
    assert reference["rope_mass"] == pytest.approx(0.0316, abs=0.005)


def test_rope_mass_matches_draw_counting(reference):
    # the HPD-conditional share computed from seeded draws (count draws in
    # ROPE among draws inside the HPD) agrees with the grid value
    from bayesindices import sample_from_grid

    posterior = reference["posterior"]
    draws = sample_from_grid(posterior, 400_000, seed=314).values
    hpd = hpd_interval(SampleSet(draws), 0.95)
    inside_hpd = draws[(draws >= hpd.lower) & (draws <= hpd.upper)]
    share = np.mean((inside_hpd >= -0.1) & (inside_hpd <= 0.1))
    assert share == pytest.approx(reference["rope_mass"], abs=0.003)


def test_rope_mass_disjoint_hpd_is_zero():
    grid = shifted_normal_grid(mu=4.0, sd=0.3)
    assert rope_mass(grid, Rope(-0.1, 0.1), 0.95) == 0.0


def test_rope_mass_hpd_inside_rope_is_one():
    grid = shifted_normal_grid(mu=0.0, sd=0.01)
    assert rope_mass(grid, Rope(-0.1, 0.1), 0.95) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- map p-value

def test_map_p_value_reference(reference):
    assert reference["p_map"] == pytest.approx(0.1076, abs=0.010)


def test_map_p_value_at_mode_is_one(normal_grid):
    grid = normalize_grid(normal_grid)
    assert map_p_value(grid, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_map_p_value_symmetric_posterior_centered_at_null(normal_grid):
    grid = normalize_grid(normal_grid)
    loc = map_estimate(grid).location
    assert map_p_value(grid, loc) == pytest.approx(1.0, abs=1e-12)


def test_map_p_value_out_of_support(normal_grid):
    with pytest.raises(OutOfSupportError):
        map_p_value(normalize_grid(normal_grid), 50.0)


def test_map_p_value_within_unit_interval():
    for mu in (-2.0, -0.3, 0.9, 3.0):
        grid = shifted_normal_grid(mu=mu)
        p = map_p_value(grid, 0.0)
        assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------- probability of direction

def test_pd_reference(reference):
    assert reference["pd"] == pytest.approx(0.9827, abs=0.005)


def test_pd_symmetric_grid(normal_grid):
    assert probability_of_direction(normalize_grid(normal_grid)) == pytest.approx(0.5, abs=1e-3)


def test_pd_all_positive_draws():
    rng = np.random.default_rng(11)
    ss = SampleSet(rng.uniform(0.5, 2.0, size=500))
    assert probability_of_direction(ss) == 1.0


def test_pd_negative_median_counts_negative_mass():
    grid = shifted_normal_grid(mu=-1.0)
    pd = probability_of_direction(grid)
    assert pd == pytest.approx(mass_in_interval(grid, grid.support[0], 0.0), abs=1e-12)
    assert pd > 0.8


def test_pd_sample_set_side():
    ss = SampleSet(np.array([-1.0] * 30 + [2.0] * 70))
    assert probability_of_direction(ss) == pytest.approx(0.7)


# ---------------------------------------------------------------- surprise and e-value

def test_surprise_flat_returns_posterior(normal_grid):
    grid = normalize_grid(normal_grid)
    s = surprise_function(grid, ReferenceFunction.flat())
    assert np.array_equal(s, grid.densities)


def test_surprise_self_reference_is_one(normal_grid):
    grid = normalize_grid(normal_grid)
    s = surprise_function(grid, ReferenceFunction.from_prior(grid))
    assert np.allclose(s[grid.densities > 0], 1.0)


def test_surprise_reference_ratio_at_null(reference):
    s = surprise_function(reference["posterior"], ReferenceFunction.from_prior(reference["prior_grid"]))
    s0 = float(np.interp(0.0, reference["posterior"].points, s))
    assert s0 == pytest.approx(0.2171 / 0.3183, abs=0.02)


def test_surprise_zero_reference_raises():
    x = np.linspace(-1, 1, 101)
    posterior = normalize_grid(DensityGrid(x, np.exp(-0.5 * x * x)))
    ref = DensityGrid(x, np.where(x < 0.5, 1.0, 0.0))
    with pytest.raises(ZeroDivisionError):
        surprise_function(posterior, ReferenceFunction.from_prior(ref))


def test_surprise_requires_covering_prior(normal_grid):
    x = np.linspace(-1, 1, 101)
    narrow = DensityGrid(x, np.ones(101))
    with pytest.raises(InvalidArgumentError):
        surprise_function(normalize_grid(normal_grid), ReferenceFunction.from_prior(narrow))


def test_fbst_reference_values(reference):
    assert reference["ev_against_flat"] == pytest.approx(0.9659, abs=0.005)
    assert reference["ev_against_prior"] == pytest.approx(0.9743, abs=0.005)


def test_fbst_null_at_mode_gives_zero_evidence(normal_grid):
    grid = normalize_grid(normal_grid)
    res = fbst_evalue(grid, ReferenceFunction.flat(), 0.0)
    assert res.ev_against == pytest.approx(0.0, abs=1e-9)
    assert res.ev_for == 1.0 - res.ev_against


@pytest.mark.parametrize("n", [64, 1001, 2001, 4096])
def test_fbst_no_evidence_is_exactly_zero(n):
    # with the null at the grid's unique highest surprise no point lies
    # above the threshold, so the e-value is 0 whatever the grid's rounding
    x = np.linspace(-3.0, 5.0, n)
    peak = x[n // 3]
    grid = normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - peak) / 0.7) ** 2)))
    prior = ReferenceFunction.from_prior(DensityGrid(x, np.exp(-0.5 * (x / 3.0) ** 2)))
    for ref_fn in (ReferenceFunction.flat(), prior):
        best = x[int(np.argmax(surprise_function(grid, ref_fn)))]
        res = fbst_evalue(grid, ref_fn, best)
        assert res.ev_against == 0.0
        assert res.ev_for == 1.0


def test_fbst_flat_equals_level_set_complement(reference):
    posterior = reference["posterior"]
    res = fbst_evalue(posterior, ReferenceFunction.flat(), 0.0)
    threshold = float(np.interp(0.0, posterior.points, posterior.densities))
    assert res.ev_against == 1.0 - level_set_mass(posterior, threshold)


def test_fbst_ev_sum_exact(reference):
    for ref_fn in (ReferenceFunction.flat(), ReferenceFunction.from_prior(reference["prior_grid"])):
        res = fbst_evalue(reference["posterior"], ref_fn, 0.0)
        assert res.ev_against + res.ev_for == 1.0


def test_fbst_out_of_support(normal_grid):
    with pytest.raises(OutOfSupportError):
        fbst_evalue(normalize_grid(normal_grid), ReferenceFunction.flat(), 99.0)


def test_fbst_s_star_is_surprise_at_null(reference):
    res = fbst_evalue(reference["posterior"], ReferenceFunction.flat(), 0.0)
    assert res.s_star == pytest.approx(reference["density_at_null"], rel=1e-12)
