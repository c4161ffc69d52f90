import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate, special
from scipy import stats as sps

from bayesindices import (
    CauchyPrior,
    SufficientStats,
    TwoSampleData,
    central_t_pdf,
    cohen_d,
    cohen_d_from_moments,
    jzs_bayes_factor,
    noncentral_t_pdf,
    posterior_density_grid,
    simulate_two_sample,
    sufficient_stats,
)
from bayesindices.errors import (
    ConvergenceError,
    DegenerateDataError,
    FloatRangeError,
    InvalidArgumentError,
    TruncatedSupportError,
)
from bayesindices.indices import savage_dickey_bf

# independent quadrature oracle (scipy nct + scipy tan-substitution quad)
BF01_T0_N50_G1 = 6.500318745241953


def exact_moment_group(mean, sd):
    # two points with exactly the requested sample mean and sd (ddof=1)
    a = sd / math.sqrt(2.0)
    return [mean - a, mean + a]


# ---------------------------------------------------------------- types

def test_two_sample_data_validation():
    with pytest.raises(InvalidArgumentError):
        TwoSampleData([1.0], [1.0, 2.0])
    with pytest.raises(DegenerateDataError):
        TwoSampleData([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        TwoSampleData([1.0, np.inf], [1.0, 2.0])


def test_two_sample_data_refuses_overflowing_variance():
    # finite values whose variance is not a double
    with pytest.raises(InvalidArgumentError, match="group2 has a variance"):
        TwoSampleData([1.0, 2.0], [1e200, 2e200, 3e200])


def test_sufficient_stats_consistency_checks():
    with pytest.raises(InvalidArgumentError):
        SufficientStats(t=1.0, df=97, n_eff=25.0, n1=50, n2=50)
    with pytest.raises(InvalidArgumentError):
        SufficientStats(t=1.0, df=98, n_eff=24.0, n1=50, n2=50)


def test_cauchy_prior():
    prior = CauchyPrior(1.0)
    assert float(prior.density(0.0)) == pytest.approx(1 / math.pi, abs=1e-15)
    with pytest.raises(InvalidArgumentError):
        CauchyPrior(0.0)
    with pytest.raises(InvalidArgumentError):
        CauchyPrior.from_preset("narrow")
    assert CauchyPrior.from_preset("medium").scale == pytest.approx(math.sqrt(2) / 2)
    assert CauchyPrior.from_preset("ultrawide").scale == pytest.approx(math.sqrt(2))


# ---------------------------------------------------------------- cohen's d

def test_cohen_d_reference_moments():
    # plugging the reference example's parameter values
    assert cohen_d_from_moments(2.71, 1.81, 1.71, 1.51) == pytest.approx(0.5999, abs=5e-4)
    data = TwoSampleData(exact_moment_group(2.71, 1.81), exact_moment_group(1.71, 1.51))
    assert cohen_d(data) == pytest.approx(0.5999, abs=5e-4)


def test_group_moments_are_the_numpy_moments_bit_for_bit():
    rng = np.random.default_rng(5)
    data = TwoSampleData(rng.normal(1.0, 2.0, 1001), rng.normal(0.3, 0.5, 77))
    for (mean, var), group in zip(data.moments, (data.group1, data.group2)):
        assert (mean, var) == (group.mean(), group.var(ddof=1))
        assert math.sqrt(var) == group.std(ddof=1)


def test_cohen_d_identical_groups():
    g = [1.0, 2.0, 3.0]
    assert cohen_d(TwoSampleData(g, g)) == 0.0


def test_cohen_d_location_shift():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(40)
    shift = 0.8
    data = TwoSampleData(base + shift, base)
    sd = base.std(ddof=1)
    assert cohen_d(data) == pytest.approx(shift / sd, rel=1e-12)


# ---------------------------------------------------------------- sufficient stats

def test_sufficient_stats_equal_means():
    data = TwoSampleData(exact_moment_group(1.0, 1.0), exact_moment_group(1.0, 2.0))
    assert sufficient_stats(data).t == 0.0


def test_sufficient_stats_arithmetic():
    rng = np.random.default_rng(2)
    data = TwoSampleData(rng.standard_normal(50), rng.standard_normal(50))
    st = sufficient_stats(data)
    assert st.df == 98
    assert st.n_eff == pytest.approx(25.0)


def test_sufficient_stats_matches_scipy_pooled_t():
    rng = np.random.default_rng(3)
    for n1, n2 in ((10, 15), (50, 50), (8, 100)):
        data = TwoSampleData(rng.normal(0.4, 1.2, n1), rng.normal(0.0, 1.2, n2))
        st = sufficient_stats(data)
        ref = sps.ttest_ind(data.group1, data.group2, equal_var=True)
        assert st.t == pytest.approx(ref.statistic, abs=1e-10)


# ---------------------------------------------------------------- noncentral t

def test_nct_central_reduction():
    xs = np.linspace(-6, 6, 49)
    for df in (1, 5, 98, 500):
        got = noncentral_t_pdf(xs, df, 0.0)
        want = central_t_pdf(xs, df)
        assert np.max(np.abs(got - want) / want) < 1e-10


def test_nct_reflection_identity():
    xs = np.linspace(-6, 6, 25)
    for df in (2, 98):
        for ncp in (0.5, 3.0, 11.0):
            a = noncentral_t_pdf(xs, df, ncp)
            b = noncentral_t_pdf(-xs, df, -ncp)
            assert np.max(np.abs(a - b)) < 1e-10


def test_nct_unit_integral():
    grid = np.linspace(-20, 30, 100_001)
    total = np.trapezoid(noncentral_t_pdf(grid, 98, 3.0), grid)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_nct_against_scipy():
    # scipy's own tail accuracy degrades when x and ncp have opposite
    # signs, hence the modest tolerance there
    xs = np.linspace(-6, 6, 25)
    for df in (2, 5, 50, 98):
        for ncp in (0.7, 3.0, 11.0):
            ref = sps.nct.pdf(xs, df, ncp)
            got = noncentral_t_pdf(xs, df, ncp)
            mask = ref > 1e-250
            assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) < 5e-8


def test_nct_extreme_noncentrality_underflows():
    assert noncentral_t_pdf(2.2, 98, 5e15) == 0.0
    assert noncentral_t_pdf(2.2, 98, -5e15) == 0.0


def test_nct_argument_validation():
    with pytest.raises(InvalidArgumentError):
        noncentral_t_pdf(0.0, -1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        noncentral_t_pdf(np.inf, 98, 0.0)


@pytest.mark.parametrize("df", [math.inf, -math.inf, math.nan])
def test_nct_refuses_non_finite_df(df):
    # df = inf read 0.0 where the limit is the normal density
    with pytest.raises(InvalidArgumentError, match="df"):
        noncentral_t_pdf(0.0, df, 0.0)


# ---------------------------------------------------------------- shared-node kernel

def _oracle_nct(x, df, ncp):
    """50-digit scale-mixture integral, split at the integrand's peak and at
    +-8 and +-30 of its widths (one unsplit mp.quad misses the peak: 3e-3
    relative at x = -20, df = 198)."""
    import mpmath as mp

    with mp.workdps(50):
        x, df, ncp = mp.mpf(x), mp.mpf(df), mp.mpf(ncp)
        a, b = x * x + df, x * ncp
        peak = (b + mp.sqrt(b * b + 4 * a * df)) / (2 * a)
        width = 1 / mp.sqrt(df / peak**2 + a)
        log_peak = df * mp.log(peak) - (a * peak**2 - 2 * b * peak + ncp**2) / 2
        log_const = (df / 2 * mp.log(df) - mp.log(2 * mp.pi) / 2
                     - (df / 2 - 1) * mp.log(2) - mp.loggamma(df / 2))

        def f(w):
            return mp.exp(df * mp.log(w) - (a * w * w - 2 * b * w + ncp**2) / 2 - log_peak)

        cuts = [0] + [peak + k * width for k in (-30, -8, 0, 8, 30) if peak + k * width > 0]
        return float(mp.exp(log_const + log_peak) * mp.quad(f, cuts + [mp.inf]))


def test_nct_names_a_point_it_cannot_certify():
    # a grid at df = 1e9 is still certified; by 1e14 the kernel's width is
    # lost to rounding, and df = 1e300 read 0.0
    ncp = np.linspace(-3.0, 3.0, 301)
    got = noncentral_t_pdf(0.5, 1e9, ncp)
    for i in (0, 150, 300):
        want = _oracle_nct(0.5, 1e9, ncp[i])
        assert abs(got[i] - want) <= 1e-11 * want
    for df in (1e14, 1e300):
        with pytest.raises(ConvergenceError, match=re.escape(f"x = 0.5, df = {df!r}, ncp = -3.0")):
            noncentral_t_pdf(0.5, df, ncp)


def _live_ncp_grid(x, df, size=257):
    """Noncentralities across the range where the density exceeds 1e-250."""
    spread = math.sqrt(1.0 + x * x / (2.0 * df))
    wide = x + np.linspace(-45.0, 45.0, 4001) * spread
    live = wide[noncentral_t_pdf(x, df, wide) >= 1e-250]
    return np.linspace(live[0], live[-1], size)


@pytest.mark.parametrize("df", [4, 98, 5_000, 199_998])
def test_nct_shared_x_matches_mpmath_oracle(df):
    for x in (-15.0, -1.3, 0.0, 6.5):
        ncp = _live_ncp_grid(x, df)
        got = noncentral_t_pdf(x, df, ncp)
        for i in (0, 96, 192, 256):
            want = _oracle_nct(x, df, ncp[i])
            assert want >= 1e-250
            assert abs(got[i] - want) <= 1e-11 * want, (x, df, ncp[i])


@pytest.mark.parametrize("x", [-15.0, 15.0])
def test_nct_far_tail_matches_mpmath_oracle(x):
    # ncp = 0 at |t| = 15 lies about e^-112 below the density's peak in ncp
    for df in (4, 98, 199_998):
        ncp = np.array([0.0, x / 2, x])
        got = noncentral_t_pdf(x, df, ncp)
        for g, n in zip(got, ncp):
            want = _oracle_nct(x, df, n)
            assert abs(g - want) <= 1e-11 * want, (x, df, n)


def test_nct_df4_grid_and_far_tail_are_certified():
    # the nested trapezoid refinement brings the skewed df = 4 integrands
    # into the kernel, and each point's window reaches its own far-tail peak
    from bayesindices.ttest import _KERNEL_DROP, _shared_node_kernel

    x, df = 1.29, 4.0
    ncp = np.linspace(-3.0, 0.0, 4096) * math.sqrt(1.5)
    _, done = _shared_node_kernel(x, ncp, df, _KERNEL_DROP)
    assert done.all()
    far = np.array([x - 38.0, x + 30.0])
    values, done = _shared_node_kernel(x, far, df, _KERNEL_DROP)
    assert done.all()
    for v, n in zip(values, far):
        assert abs(v - _oracle_nct(x, df, n)) <= 1e-11 * v


def _spy_kernel(monkeypatch):
    """Record the noncentralities and reach of every kernel pass."""
    from bayesindices import ttest

    calls = []
    kernel = ttest._shared_node_kernel

    def spy(x, ncp, df, drop):
        calls.append((ncp.copy(), drop))
        return kernel(x, ncp, df, drop)

    monkeypatch.setattr(ttest, "_shared_node_kernel", spy)
    return calls


def test_nct_fallback_points_meet_mpmath_oracle(monkeypatch):
    # at df = 2 (two observations per group) the integrands are the most
    # skewed; with the first reach cut to e^-24 about half the points fail
    # their tail bound, and those points, and only those, are retried at
    # the longer reach
    from bayesindices import ttest

    monkeypatch.setattr(ttest, "_KERNEL_DROP", 24.0)
    calls = _spy_kernel(monkeypatch)
    x, df = 1.0, 2.0
    ncp = np.linspace(-20.0, 45.0, 261)
    got = noncentral_t_pdf(x, df, ncp)
    assert [drop for _, drop in calls] == [24.0, ttest._KERNEL_RETRY_DROP]
    retried = np.isin(ncp, calls[1][0])
    assert 0 < retried.sum() < ncp.size
    for i in np.flatnonzero(retried)[::8]:
        want = _oracle_nct(x, df, ncp[i])
        assert abs(got[i] - want) <= 1e-11 * want, ncp[i]


def test_nct_rows_agree_with_shared_windows(monkeypatch):
    # with no shared window allowed every point takes its own row of nodes,
    # the layout of a lone point; both layouts certify every point
    from bayesindices import ttest

    x, df = 1.0, 2.0
    ncp = np.linspace(-20.0, 45.0, 261)
    shared = noncentral_t_pdf(x, df, ncp)
    monkeypatch.setattr(ttest, "_KERNEL_MAX_NODES", 0)
    calls = _spy_kernel(monkeypatch)
    rows = noncentral_t_pdf(x, df, ncp)
    assert len(calls) == 1
    assert np.max(np.abs(rows - shared) / shared) < 2e-12


def test_default_posterior_grids_are_certified_everywhere(monkeypatch):
    # over n = 2..1e5 per group and |t| up to 45, every point of the default
    # grid is certified on the first pass: none is retried
    from bayesindices import ttest

    calls = _spy_kernel(monkeypatch)
    for n in (2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5):
        for t in (0.0, 0.7, 2.5, -6.0, 10.0, 30.0, 45.0):
            stats = SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)
            posterior_density_grid(stats, CauchyPrior(0.707))
            assert [drop for _, drop in calls] == [ttest._KERNEL_DROP], (n, t)
            calls.clear()


@settings(max_examples=40, deadline=None)
@given(
    x=hst.floats(-15.0, 15.0),
    log10_df=hst.floats(math.log10(2.0), math.log10(2e5)),
    centre=hst.floats(-3.0, 3.0),
    half_width=hst.floats(0.1, 60.0),
    size=hst.integers(1, 300),
    pick=hst.floats(0.0, 1.0),
)
def test_nct_certified_points_agree_with_mpmath_oracle(x, log10_df, centre, half_width, size,
                                                       pick):
    # the kernel evaluates a whole grid of noncentralities in one pass; the
    # oracle checks one point of it
    df = float(round(10.0 ** log10_df))
    ncp = x + centre * math.sqrt(1.0 + x * x / (2.0 * df)) + np.linspace(
        -half_width, half_width, size
    )
    i = round(pick * (size - 1))
    got = noncentral_t_pdf(x, df, ncp)[i]
    want = _oracle_nct(x, df, ncp[i])
    if want >= 1e-250:
        assert abs(got - want) <= 1e-11 * want
    # a point certified as zero has a negligible peak
    assert got > 0.0 or want < 1e-300


def test_nct_broadcast_shapes_agree_with_scalar_calls():
    # x and ncp broadcast; a per-point x takes the same kernel as a grid at
    # one x, and a scalar pair returns a float
    ncp = np.array([[0.5, 1.0], [2.0, 3.0]])
    grid = noncentral_t_pdf(2.0, 98, ncp)
    assert grid.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        one = noncentral_t_pdf(2.0, 98, ncp[idx])
        assert isinstance(one, float)
        assert grid[idx] == pytest.approx(one, rel=1e-12)
    xs = np.array([[-15.0], [-1.0], [0.0], [2.0], [300.0]])
    ncps = np.array([-3.0, 0.0, 1.5, 40.0, 310.0])
    both = noncentral_t_pdf(xs, 4, ncps)
    assert both.shape == (5, 5)
    for (i, j), value in np.ndenumerate(both):
        one = noncentral_t_pdf(float(xs[i, 0]), 4, ncps[j])
        assert value == pytest.approx(one, rel=1e-12, abs=1e-300)
    assert noncentral_t_pdf(np.array([1.0, 2.0]), 98, 1.0).shape == (2,)


@pytest.mark.parametrize("t", [300.0, -300.0, 184768.00058822113])
def test_nct_small_sample_large_t_grids_match_mpmath_oracle(t):
    # three observations per group at |t| = 300, and the t of near-constant
    # groups (``simulate --seed 11 --n 3 --sd1 1e-5 --sd2 1e-5``): the
    # integrands are narrow and far apart, one row of nodes per point
    stats = SufficientStats(t=t, df=4, n_eff=1.5, n1=3, n2=3)
    grid = posterior_density_grid(stats, CauchyPrior(1.0))
    ncp = grid.points * math.sqrt(stats.n_eff)
    got = noncentral_t_pdf(t, stats.df, ncp)
    live = np.flatnonzero(got >= 1e-250)
    for i in live[::live.size // 12]:
        want = _oracle_nct(t, stats.df, ncp[i])
        assert abs(got[i] - want) <= 1e-11 * want, ncp[i]


# ---------------------------------------------------------------- posterior grid

def _stats(t, n=50):
    return SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2.0, n1=n, n2=n)


def test_posterior_grid_symmetric_at_t0():
    grid = posterior_density_grid(_stats(0.0), CauchyPrior(1.0), grid_size=1001)
    assert np.max(np.abs(grid.densities - grid.densities[::-1])) < 1e-8


def test_posterior_mode_shrinks_toward_zero():
    rng = np.random.default_rng(8)
    from bayesindices import map_estimate
    for _ in range(8):
        t = rng.uniform(0.5, 4.0)
        n = int(rng.integers(10, 120))
        gamma = rng.choice([math.sqrt(2) / 2, 1.0, math.sqrt(2)])
        st = _stats(t, n)
        d = t / math.sqrt(st.n_eff)
        grid = posterior_density_grid(st, CauchyPrior(gamma))
        mode = map_estimate(grid).location
        assert 0.0 < mode < d


def test_posterior_grid_density_at_null_equals_bf_times_prior(reference):
    # exact identity up to the grid's normalization: the null is a grid
    # point, so its density is read without interpolation
    assert reference["density_at_null"] == pytest.approx(
        reference["bf01_analytic"] / math.pi, rel=1e-4
    )


def test_posterior_grid_truncation_error():
    with pytest.raises(TruncatedSupportError):
        posterior_density_grid(_stats(12.0), CauchyPrior(1.0), grid_lo=-2.0, grid_hi=2.0)


def test_posterior_grid_auto_expands_for_large_effects():
    grid = posterior_density_grid(_stats(12.0), CauchyPrior(1.0))
    d = 12.0 / math.sqrt(25.0)
    assert grid.support[1] >= d + 6 * (1 / math.sqrt(25.0))
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_posterior_grid_huge_effect_does_not_truncate():
    # scale estimation widens the effect-size likelihood for big effects;
    # the auto bounds must track that or they clip real mass
    st = _stats(16.2, n=20)
    grid = posterior_density_grid(st, CauchyPrior(1.0))
    edge = max(grid.densities[0], grid.densities[-1]) / grid.densities.max()
    assert edge < 1e-6
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_nct_extreme_t_statistic_still_evaluates():
    # near-degenerate data push |t| to ~1e7; evaluation must neither fail
    # nor lose more than the documented accuracy
    t = -2.12e7
    ncps = np.linspace(-6.6e7, 2.4e7, 64)
    vals = noncentral_t_pdf(t, 4, ncps)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
    assert vals.max() > 0


def test_posterior_grid_one_sided():
    grid = posterior_density_grid(_stats(2.0), CauchyPrior(1.0, "greater"))
    assert grid.support[0] == 0.0
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_posterior_grid_honours_explicit_one_sided_bounds():
    # the bounds stay as given inside the half-line, and the evidence check
    # still refuses a grid that clips the posterior
    cases = ((10.0, "greater", (0.5, 2.0)), (10.0, "greater", (0.1, 2.0)),
             (-10.0, "less", (-2.0, -0.5)))
    for t, alternative, bounds in cases:
        prior = CauchyPrior(1.0, alternative)
        grid = posterior_density_grid(_stats(t, 200), prior, *bounds)
        assert grid.support == bounds
        with pytest.raises(TruncatedSupportError):
            posterior_density_grid(_stats(t / 5.0, 50), prior, *bounds)
    # the prior jumps at zero: the reported share matches a fine trapezoid
    # on [0, 0.1]
    st = _stats(3.0, 50)
    x = np.linspace(0.0, 2.475, 2 ** 16)
    product = noncentral_t_pdf(st.t, st.df, x * math.sqrt(st.n_eff)) / (1.0 + x * x)
    clipped = x <= 0.1
    share = np.trapezoid(product[clipped], x[clipped]) / np.trapezoid(product, x)
    with pytest.raises(TruncatedSupportError, match=f"clips {share:.2%} "):
        posterior_density_grid(st, CauchyPrior(1.0, "greater"), 0.1, 2.0)
    # a bound beyond the support is clamped to its end
    grid = posterior_density_grid(_stats(-10.0, 200), CauchyPrior(1.0, "less"), -2.0, 0.5)
    assert grid.support == (-2.0, 0.0)


def test_posterior_grid_refuses_a_grid_too_coarse_for_its_posterior():
    # 64 points on [-3, 3] hardly resolve a prior spike 1e-3 wide: their
    # trapezoid misses the evidence by 20%, though no edge clips any mass
    with pytest.raises(TruncatedSupportError, match="clips 20.35% "):
        posterior_density_grid(_stats(2.0), CauchyPrior(1e-3), grid_size=64)
    grid = posterior_density_grid(_stats(2.0), CauchyPrior(1e-3))
    assert grid.points.size == 2048


def test_default_posterior_grid_is_one_kernel_call_on_its_own_points(monkeypatch):
    # the evidence check needs no points beyond the grid's
    from bayesindices import ttest

    calls = []
    pdf = ttest.noncentral_t_pdf

    def spy(x, df, ncp):
        calls.append(np.asarray(ncp).size)
        return pdf(x, df, ncp)

    monkeypatch.setattr(ttest, "noncentral_t_pdf", spy)
    for alternative in ("two-sided", "greater", "less"):
        grid = posterior_density_grid(_stats(2.0), CauchyPrior(0.707, alternative))
        assert calls == [grid.points.size] == [ttest.DEFAULT_GRID_SIZE]
        calls.clear()


def _unbalanced(t, n1, n2):
    return SufficientStats(t=t, df=n1 + n2 - 2, n_eff=n1 * n2 / (n1 + n2), n1=n1, n2=n2)


_LAYOUT_DESIGNS = [(3, 3, 2.5, 0.707), (50, 50, 2.0, 1e-3), (2000, 2000, 2.0, 0.707),
                   (10**5, 10**5, 3.0, 0.707), (30, 3000, -5.0, 3.0), (200, 200, -4.0, 1.0)]
# the designs whose 64-point default grid misses the evidence by 0.1% or
# more, by alternative: they are refused
_COARSE_AT_64 = {
    "two-sided": {(50, 50, 2.0, 1e-3), (2000, 2000, 2.0, 0.707)},
    "greater": {(50, 50, 2.0, 1e-3), (2000, 2000, 2.0, 0.707), (30, 3000, -5.0, 3.0),
                (200, 200, -4.0, 1.0)},
    "less": {(3, 3, 2.5, 0.707), (50, 50, 2.0, 1e-3), (2000, 2000, 2.0, 0.707),
             (10**5, 10**5, 3.0, 0.707)},
}


def _assert_no_squeezed_gap(points):
    # a merged anchor's stretch keeps at least half a step and a
    # neighbouring step is at most one and a half: no gap is below a
    # third of the smallest other gap within three points
    gaps = np.diff(points)
    padded = np.r_[np.full(3, np.inf), gaps, np.full(3, np.inf)]
    window = np.lib.stride_tricks.sliding_window_view(padded, 7).copy()
    window[:, 3] = np.inf
    assert np.all(gaps >= window.min(axis=1) / 3.0)


@pytest.mark.parametrize("alternative, bounds", [
    ("two-sided", None), ("greater", None), ("less", None),
    ("two-sided", (-1.5, 2.5)), ("greater", (-1.0, 2.5)), ("less", (-2.5, 1.0)),
])
@pytest.mark.parametrize("size", [64, 1000, 2048])
def test_posterior_grid_layout(alternative, bounds, size):
    # piecewise uniform, strictly increasing, exactly grid_size points, within
    # the support and the bounds, with the null and the ROPE edges as points
    anchors = (0.0, -0.1, 0.1)
    prior_support = CauchyPrior(1.0, alternative).support
    for n1, n2, t, scale in _LAYOUT_DESIGNS:
        prior = CauchyPrior(scale, alternative)
        coarse = bounds is None and size == 64 and (n1, n2, t, scale) in _COARSE_AT_64[alternative]
        try:
            grid = posterior_density_grid(_unbalanced(t, n1, n2), prior,
                                          *(bounds or ()), grid_size=size, anchors=anchors)
        except TruncatedSupportError:
            assert bounds is not None or coarse, (n1, t, scale)
            continue
        assert not coarse, (n1, t, scale)
        points = grid.points
        assert points.size == size
        gaps = np.diff(points)
        assert np.all(gaps > 0)
        assert prior_support[0] <= points[0] and points[-1] <= prior_support[1]
        if bounds is not None:
            assert points[0] == max(bounds[0], prior_support[0])
            assert points[-1] == min(bounds[1], prior_support[1])
        # 64 points over a range of 6 or more are coarser than the anchors'
        # 0.1 separation, so there they merge
        for x in anchors:
            if points[0] <= x <= points[-1] and size >= 1000:
                assert x in points, (n1, t, scale, x)
        _assert_no_squeezed_gap(points)


def test_grid_points_merge_an_anchor_closer_than_half_a_step():
    # 64 points over a range of 13 are 0.21 apart: the anchor 0 lies 0.48
    # of a step from -0.1 and merges into it, while 0.1 keeps its point
    from bayesindices.ttest import _grid_points

    points = _grid_points(-4.5, 8.6, [(-4.5, 8.6, 1.0)], (0.0, -0.1, 0.1), 64)
    assert points.size == 64 and np.all(np.diff(points) > 0)
    assert (points[0], points[-1]) == (-4.5, 8.6)
    assert -0.1 in points and 0.0 not in points and 0.1 in points
    _assert_no_squeezed_gap(points)


def test_posterior_grid_follows_the_posterior():
    # at n = 2000/group the fine segment holds the likelihood: nearly half
    # the points lie within 10 standard errors, against 1/30 at uniform
    # spacing; a narrow prior adds its spike segment around zero
    st = _stats(2.0, 2000)
    d, se = 2.0 / math.sqrt(st.n_eff), math.sqrt(1.0 / st.n_eff)
    points = posterior_density_grid(st, CauchyPrior(0.707)).points
    assert np.mean(np.abs(points - d) <= 10.0 * se) > 0.4
    points = posterior_density_grid(_stats(2.0, 50), CauchyPrior(1e-3)).points
    assert np.mean(np.abs(points) <= 0.03) > 0.15


def test_posterior_grid_merges_anchors_closer_than_half_a_step():
    # two anchors 1e-9 apart: the later one merges into the earlier one
    st = _stats(2.0)
    grid = posterior_density_grid(st, CauchyPrior(1.0), grid_size=512,
                                  anchors=(0.05, 0.05 + 1e-9, 0.3))
    assert 0.05 in grid.points and 0.05 + 1e-9 not in grid.points and 0.3 in grid.points
    assert grid.points.size == 512
    assert np.diff(grid.points).min() > 1e-3


@pytest.mark.parametrize("n1, n2, t, alternative, scale", [
    (3, 2536, 44.5, "less", 4.37),
    (2872, 5, -43.7, "greater", 0.46),
    (81, 12189, -39.6, "greater", 0.035),
])
def test_posterior_grid_refuses_a_subnormal_density(n1, n2, t, alternative, scale):
    # the linear product of noncentral t and prior peaks below the normal
    # range (about 1e-319): normalizing it read rope_mass_total 1.155 and
    # 1.017 for the first two designs at exit 0
    with pytest.raises(DegenerateDataError, match="underflows"):
        posterior_density_grid(_unbalanced(t, n1, n2), CauchyPrior(scale, alternative))


# ---------------------------------------------------------------- bayes factor

def test_bf_reciprocal_identity():
    for t in (0.0, 1.3, 4.2):
        bf = jzs_bayes_factor(_stats(t), CauchyPrior(1.0))
        assert bf.bf01 * bf.bf10 == pytest.approx(1.0, abs=1e-12)


def test_bf_t0_favors_null_and_matches_oracle():
    bf = jzs_bayes_factor(_stats(0.0), CauchyPrior(1.0))
    assert bf.bf01 > 1.0
    assert bf.bf01 == pytest.approx(BF01_T0_N50_G1, rel=1e-6)


def test_bf_monotone_in_t_magnitude():
    values = [jzs_bayes_factor(_stats(t), CauchyPrior(1.0)).bf01 for t in (0.0, 0.7, 1.5, 2.5, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_bf_wide_prior_favors_null_more():
    st = _stats(1.8)
    assert jzs_bayes_factor(st, CauchyPrior(100.0)).bf01 > jzs_bayes_factor(st, CauchyPrior(1.0)).bf01


def test_bf_one_sided_splits_two_sided():
    # predictive density under H1 averages the two half-line predictives
    st = _stats(2.0)
    two = jzs_bayes_factor(st, CauchyPrior(1.0)).bf01
    gt = jzs_bayes_factor(st, CauchyPrior(1.0, "greater")).bf01
    lt = jzs_bayes_factor(st, CauchyPrior(1.0, "less")).bf01
    assert 1 / two == pytest.approx(0.5 / gt + 0.5 / lt, rel=1e-9)
    assert gt < two < lt  # data with t > 0 favour the matching direction


def test_bf_one_sided_matches_scipy_oracle():
    st = _stats(2.0)
    mine = jzs_bayes_factor(st, CauchyPrior(1.0, "greater")).bf01
    from scipy import integrate
    half_prior = lambda d: sps.nct.pdf(2.0, 98, d * 5.0) * 2.0 * sps.cauchy.pdf(d)
    m1, _ = integrate.quad(half_prior, 0, np.inf, epsabs=0, epsrel=1e-11, limit=500)
    assert mine == pytest.approx(sps.t.pdf(2.0, 98) / m1, rel=1e-8)


def _oracle_log_t_cdf(nu, z):
    """log of the Student-t CDF: scipy's stdtr, or where its value is below
    e^-700, and so subnormal or zero, the log density at z plus the log of a
    quad of the density in units of its value there."""
    with np.errstate(divide="ignore"):
        out = np.log(special.stdtr(nu, z))
    if not np.any(out < -700.0):
        return out
    out = np.atleast_1d(out)
    for i in np.flatnonzero(out < -700.0):
        zi = float(np.ravel(z)[i])
        assert zi < 0.0, "stdtr underflows only in the lower tail"
        log1p_zi = math.log1p(zi * zi / nu)
        # the tail beyond z decays about like exp(-rate * r) at distance r
        rate = -zi * (nu + 1.0) / (nu + zi * zi)
        pieces = (0.0, 50.0 / rate, math.inf)
        mass = sum(integrate.quad(
            lambda r: math.exp(-0.5 * (nu + 1.0) * (math.log1p((zi - r) ** 2 / nu) - log1p_zi)),
            a, b, epsabs=0, epsrel=1e-13, limit=200)[0] for a, b in zip(pieces, pieces[1:]))
        out[i] = sps.t.logpdf(zi, nu) + math.log(mass)
    return out.reshape(np.shape(z))


def _oracle_one_sided_log_bf01(t, n1, n2, scale, alternative):
    """log bf01 of a one-sided test from scipy.quad over x = log g.

    Given g, delta ~ N(0, g scale^2), and a half-normal effect makes t a
    scaled skew-t: with lam^2 = n_eff g scale^2, A = 1 + lam^2 and
    z = lam t sqrt((df + 1) / (A df + t^2)), the one-sided bf10 integrand is
    the two-sided g-mixture one times 2 T_{df+1}(z) (`greater`) or
    2 T_{df+1}(-z) (`less`). A scan finds the integrand's local maxima;
    quad covers the range where it lies within e^-60 of the highest, split
    at each of them."""
    df, n_eff = n1 + n2 - 2, n1 * n2 / (n1 + n2)
    sign = 1.0 if alternative == "greater" else -1.0

    def log_f(x):
        with np.errstate(over="ignore", divide="ignore"):
            x = np.asarray(x, dtype=float)
            lam2 = n_eff * scale * scale * np.exp(x)
            a = 1.0 + lam2
            log_lik_ratio = -0.5 * np.log(a) - 0.5 * (df + 1) * (
                np.log1p(t * t / (a * df)) - math.log1p(t * t / df))
            z = sign * np.sqrt(lam2) * t * np.sqrt((df + 1) / (a * df + t * t))
            return (-0.5 * x - 0.5 * np.exp(-x) + log_lik_ratio - 0.5 * math.log(2 * math.pi)
                    + math.log(2.0) + _oracle_log_t_cdf(df + 1, z))

    xs = np.linspace(-150.0, 150.0, 3001)
    scan = log_f(xs)
    peak = float(scan.max())
    live = xs[scan > peak - 60.0]
    maxima = xs[1:-1][(scan[1:-1] > scan[:-2]) & (scan[1:-1] >= scan[2:])
                      & (scan[1:-1] > peak - 60.0)]
    total, _ = integrate.quad(lambda x: math.exp(float(log_f(x)) - peak),
                            live.min() - 0.1, live.max() + 0.1, points=maxima,
                            epsabs=0, epsrel=1e-13, limit=500)
    return -(peak + math.log(total))


# one-sided design grid: balanced and unbalanced groups from 2 to 1e5, prior
# scales 1e-3 to 1e3, and t up to 30 on either side of zero
ONE_SIDED_DESIGNS = [(2, 2), (5, 5), (3, 34), (30, 30), (400, 400), (151, 22_532),
                     (10_000, 10_000), (72_985, 48_985), (100_000, 100_000)]
ONE_SIDED_SCALES = (1e-3, 0.05, 0.707, 20.0, 300.0, 1000.0)
ONE_SIDED_TS = (0.0, 0.76, 2.5, -6.0, 10.0, 30.0)


def _design_stats(n1, n2, t):
    return SufficientStats(t=t, df=n1 + n2 - 2, n_eff=n1 * n2 / (n1 + n2), n1=n1, n2=n2)


@pytest.mark.parametrize("n1, n2", ONE_SIDED_DESIGNS)
def test_bf_one_sided_matches_skew_t_oracle(n1, n2):
    # covers t = 30 and scale x sqrt(n_eff) up to 2e5, where the panel
    # placement has to find a likelihood peak far narrower than the prior
    for scale in ONE_SIDED_SCALES:
        for t in ONE_SIDED_TS:
            st = _design_stats(n1, n2, t)
            for alternative in ("greater", "less"):
                bf = jzs_bayes_factor(st, CauchyPrior(scale, alternative))
                oracle = _oracle_one_sided_log_bf01(t, n1, n2, scale, alternative)
                assert bf.log_bf01 == pytest.approx(oracle, abs=1e-9), (scale, t, alternative)


@pytest.mark.parametrize("n1, n2", ONE_SIDED_DESIGNS)
def test_bf_one_sided_reflection_and_two_sided_identity(n1, n2):
    # `less` at t is `greater` at -t, and the two-sided predictive density
    # averages the two one-sided ones (Morey & Wagenmakers 2014)
    for scale in ONE_SIDED_SCALES:
        gt_prior, lt_prior = CauchyPrior(scale, "greater"), CauchyPrior(scale, "less")
        for t in ONE_SIDED_TS:
            st = _design_stats(n1, n2, t)
            greater = jzs_bayes_factor(st, gt_prior)
            less = jzs_bayes_factor(st, lt_prior)
            assert jzs_bayes_factor(_design_stats(n1, n2, -t), lt_prior) == greater
            log_bf10 = np.logaddexp(-greater.log_bf01, -less.log_bf01) - math.log(2.0)
            two = jzs_bayes_factor(st, CauchyPrior(scale))
            assert log_bf10 == pytest.approx(-two.log_bf01, abs=1e-9), (scale, t)


# one-sided designs where scipy's stdtr underflows over much of the
# integrand, with log bf01 from a 30-digit mpmath quadrature of the same
# skew-t form, its Student-t CDF a quad of the density in units of its value
# at z. Before the one-sided factor joined the g-mixture, the first two
# raised "predictive density underflows" and the third was off by 1.3e-5
ONE_SIDED_MPMATH = [
    pytest.param(10_000, 10_000, -45.0, 0.707, "greater", 8.12242071278344, id="n10000-t-45"),
    pytest.param(799, 81_048, -44.8, 0.707, "greater", 7.23223771116049, id="n799-81048-t-44.8"),
    pytest.param(57_808, 330, 38.56, 0.0046, "less", 1.72905823671554, id="n57808-330-t38.56"),
]


@pytest.mark.parametrize("n1, n2, t, scale, alternative, reference", ONE_SIDED_MPMATH)
def test_bf_one_sided_matches_mpmath_where_stdtr_underflows(n1, n2, t, scale, alternative,
                                                            reference):
    bf = jzs_bayes_factor(_design_stats(n1, n2, t), CauchyPrior(scale, alternative))
    assert bf.log_bf01 == pytest.approx(reference, abs=1e-9)
    assert bf.rel_error < 1e-9


def test_one_sided_oracle_takes_the_tail_where_stdtr_underflows():
    # stdtr is 0 for log g above about 8 here; dropping that tail read 1.7291835
    oracle = _oracle_one_sided_log_bf01(38.56, 57_808, 330, 0.0046, "less")
    assert oracle == pytest.approx(1.72905823671554, abs=1e-9)


def test_bf_never_evaluates_the_noncentral_t(monkeypatch):
    # every alternative is one g-mixture pass; the noncentral t served the
    # one-sided panels, which took 16-34 ms at n = 2/2
    from bayesindices import ttest

    def refuse(*args, **kwargs):
        raise AssertionError("the Bayes factor evaluated the noncentral t")

    for name in ("noncentral_t_pdf", "_shared_node_kernel"):
        monkeypatch.setattr(ttest, name, refuse)
    for n1, n2 in ((2, 2), (3, 34), (400, 400), (100_000, 100_000)):
        for scale in (1e-3, 0.707, 1000.0):
            for t in (0.0, 2.5, -6.0, 30.0):
                for alternative in ("two-sided", "greater", "less"):
                    jzs_bayes_factor(_design_stats(n1, n2, t), CauchyPrior(scale, alternative))


def _mpmath_log_t_cdf(z, nu):
    """log of the Student-t CDF at 40 digits. Each tail is a quad of the
    density in units of its value at z, since an unshifted quad of a density
    below e^-37000 loses digits."""
    import mpmath as mp

    with mp.workdps(40):
        z, nu = mp.mpf(z), mp.mpf(nu)
        log_c = mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(nu * mp.pi) / 2

        def log_pdf(s):
            return log_c - (nu + 1) / 2 * mp.log1p(s * s / nu)

        if abs(z) <= 1:
            return float(mp.log(mp.mpf(1) / 2 + mp.quad(lambda s: mp.exp(log_pdf(s)), [0, z])))
        at = log_pdf(z)
        tail = mp.quad(lambda r: mp.exp(log_pdf(abs(z) + r) - at), [0, abs(z), mp.inf])
        return float(at + mp.log(tail)) if z < 0 else float(mp.log1p(-mp.exp(at) * tail))


@pytest.mark.parametrize("nu", [3, 4, 11, 101, 1001, 20_001, 200_001])
def test_log_student_t_cdf_matches_mpmath(nu):
    from bayesindices.ttest import _log_student_t_cdf
    zs = np.array([-1e4, -300.0, -45.0, -20.0, -5.0, -2.0, -1.8, -1.7, -1.0, 0.0, 1.7, 3.0, 10.0])
    got = _log_student_t_cdf(zs, nu)
    for z, value in zip(zs, got):
        reference = _mpmath_log_t_cdf(z, nu)
        assert abs(value - reference) <= 1e-11 * max(1.0, abs(reference)), (nu, z)


def _oracle_two_sided_bf01(t, n1, n2, scale):
    """bf01 from scipy.quad over x = log g of the Zellner-Siow g-mixture
    (Rouder et al. 2009), split at the prior peak and the likelihood knee."""
    from scipy import integrate
    df, n_eff = n1 + n2 - 2, n1 * n2 / (n1 + n2)

    def bf10_integrand(x):
        a = 1.0 + n_eff * scale * scale * math.exp(x)
        log_lik_ratio = -0.5 * math.log(a) - 0.5 * (df + 1) * (
            math.log1p(t * t / (a * df)) - math.log1p(t * t / df))
        return math.exp(-0.5 * x - 0.5 * math.exp(-x) + log_lik_ratio) / math.sqrt(2 * math.pi)

    knee = math.log(max(t * t, 1.0) / (n_eff * scale * scale))
    edges = sorted({-12.0, 0.0, min(max(knee, -12.0), 120.0), max(knee, 0.0) + 80.0})
    total = sum(integrate.quad(bf10_integrand, a, b, epsabs=0, epsrel=1e-13, limit=500)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return 1.0 / total


@pytest.mark.parametrize("n", [2, 5, 30, 400, 10_000, 100_000])
def test_bf_two_sided_matches_g_mixture_oracle(n):
    # covers prior scale x sqrt(n_eff) beyond 2000, where the nested
    # noncentral-t quadrature used to miss the likelihood peak
    for scale in (1e-3, 0.05, math.sqrt(2) / 2, 20.0, 181.0, 1e3):
        for t in (0.0, 0.8, 2.5, 6.0, 10.0):
            st = SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)
            bf = jzs_bayes_factor(st, CauchyPrior(scale))
            oracle = _oracle_two_sided_bf01(t, n, n, scale)
            assert bf.bf01 == pytest.approx(oracle, rel=1e-8), (n, scale, t)
            assert bf.log_bf01 == pytest.approx(math.log(oracle), abs=1e-8)
            assert bf.rel_error < 1e-6


def test_bf_two_sided_unbalanced_matches_oracle():
    st = SufficientStats(t=2.2, df=35, n_eff=3 * 34 / 37, n1=3, n2=34)
    oracle = _oracle_two_sided_bf01(2.2, 3, 34, 0.5)
    assert jzs_bayes_factor(st, CauchyPrior(0.5)).bf01 == pytest.approx(oracle, rel=1e-8)


def test_bf_outside_double_range_raises_named_error():
    # n = 1e5 per group, t = 100: log bf10 is about 4873, so bf01 underflows
    st = SufficientStats(t=100.0, df=199_998, n_eff=50_000.0, n1=100_000, n2=100_000)
    with pytest.raises(FloatRangeError, match="bf10 = exp"):
        jzs_bayes_factor(st, CauchyPrior.from_preset("medium"))


def test_prior_support_is_the_closed_half_line():
    assert CauchyPrior(1.0).support == (-math.inf, math.inf)
    assert CauchyPrior(1.0, "greater").support == (0.0, math.inf)
    assert CauchyPrior(1.0, "less").support == (-math.inf, 0.0)
    # the half-line prior holds twice the Cauchy height at zero
    assert CauchyPrior(2.0, "less").density(0.0) == 2 * CauchyPrior(2.0).density(0.0)
    # a scalar gives a numpy float under every alternative, on either side
    for alternative in ("two-sided", "greater", "less"):
        for x in (-1.0, 0.0, 1.0):
            assert isinstance(CauchyPrior(2.0, alternative).density(x), np.float64)


def test_prior_on_grid_one_sided_truncation():
    points = np.linspace(-2.0, 2.0, 65)
    full = CauchyPrior(1.0).density(points)
    assert np.array_equal(CauchyPrior(1.0).on_grid(points).densities, full)
    greater = CauchyPrior(1.0, "greater").on_grid(points).densities
    less = CauchyPrior(1.0, "less").on_grid(points).densities
    assert np.array_equal(greater, np.where(points >= 0, 2 * full, 0.0))
    assert np.array_equal(less, np.where(points <= 0, 2 * full, 0.0))
    with pytest.raises(InvalidArgumentError):
        CauchyPrior(1.0, "sideways")


def test_one_sided_savage_dickey_matches_analytic_through_library():
    # the library path: posterior and prior grid of the same alternative
    st, prior = _stats(1.5), CauchyPrior(1.0, "greater")
    posterior = posterior_density_grid(st, prior)
    sd = savage_dickey_bf(posterior, prior.on_grid(posterior.points), 0.0)
    analytic = jzs_bayes_factor(st, prior).bf01
    assert analytic == pytest.approx(1.2296, abs=1e-4)
    assert sd == pytest.approx(analytic, rel=0.01)


def test_median_is_numpy_median_bit_for_bit():
    from bayesindices.ttest import _median
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 4, 7, 10, 257, 1000):
        # the last array has ties at the middle; + 0.0 turns -0.0 into 0.0
        for v in (rng.standard_normal(size), rng.exponential(size=size) * 1e-300,
                  np.round(rng.standard_normal(size), 1) + 0.0):
            assert _median(v) == float(np.median(v))


# ---------------------------------------------------------------- simulate

def test_simulate_reference_parameters():
    data = simulate_two_sample(2.51, 1.81, 1.72, 1.51, 50, seed=1)
    assert data.group1.size == 50 and data.group2.size == 50
    population_d = cohen_d_from_moments(2.51, 1.81, 1.72, 1.51)
    for seed in range(6):
        d = cohen_d(simulate_two_sample(2.51, 1.81, 1.72, 1.51, 50, seed=seed))
        assert abs(d - population_d) < 0.45


def test_simulate_deterministic():
    a = simulate_two_sample(0.0, 1.0, 0.5, 2.0, 30, seed=9)
    b = simulate_two_sample(0.0, 1.0, 0.5, 2.0, 30, seed=9)
    assert np.array_equal(a.group1, b.group1)
    assert np.array_equal(a.group2, b.group2)


def test_simulate_validation():
    with pytest.raises(InvalidArgumentError):
        simulate_two_sample(0.0, 0.0, 0.0, 1.0, 10, seed=1)
    with pytest.raises(InvalidArgumentError):
        simulate_two_sample(0.0, 1.0, 0.0, 1.0, 1, seed=1)
