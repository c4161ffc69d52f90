import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
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


# ---------------------------------------------------------------- shared-x kernel

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
    from bayesindices.ttest import _shared_x_kernel

    x, df = 1.29, 4.0
    ncp = np.linspace(-3.0, 0.0, 4096) * math.sqrt(1.5)
    _, done = _shared_x_kernel(x, ncp, df, 1e-12)
    assert done.all()
    far = np.array([x - 38.0, x + 30.0])
    values, done = _shared_x_kernel(x, far, df, 1e-12)
    assert done.all()
    for v, n in zip(values, far):
        assert abs(v - _oracle_nct(x, df, n)) <= 1e-11 * v


def test_nct_fallback_points_meet_mpmath_oracle(monkeypatch):
    # at df = 2 (two observations per group) the right tail's windows are
    # the widest; with the window cap lowered the kernel declines part of
    # it, and those points, and only those, take the per-point path
    from bayesindices import ttest

    monkeypatch.setattr(ttest, "_KERNEL_MAX_NODES", 256)
    x, df = 1.0, 2.0
    ncp = np.linspace(-20.0, 45.0, 261)
    _, done = ttest._shared_x_kernel(x, ncp, df, 1e-12)
    assert 0 < (~done).sum() < ncp.size
    calls = []
    per_point = ttest._per_point_nct

    def spy(xf, nf, df_, rel_tol):
        calls.append(nf.copy())
        return per_point(xf, nf, df_, rel_tol)

    monkeypatch.setattr(ttest, "_per_point_nct", spy)
    got = noncentral_t_pdf(x, df, ncp)
    assert len(calls) == 1 and np.array_equal(calls[0], ncp[~done])
    for i in np.flatnonzero(~done)[::8]:
        want = _oracle_nct(x, df, ncp[i])
        assert abs(got[i] - want) <= 1e-11 * want, ncp[i]


def test_default_posterior_grids_are_certified_everywhere(monkeypatch):
    # over n = 2..1e5 per group and |t| up to 45, every point of the default
    # grid and its margins is certified by the kernel: none falls back
    from bayesindices import ttest

    fallbacks = []
    monkeypatch.setattr(ttest, "_per_point_nct",
                        lambda xf, *args: fallbacks.append(xf.size) or np.zeros(xf.size))
    for n in (2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5):
        for t in (0.0, 0.7, 2.5, -6.0, 10.0, 30.0, 45.0):
            stats = SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)
            posterior_density_grid(stats, CauchyPrior(0.707))
            assert not fallbacks, (n, t)


@settings(max_examples=40, deadline=None)
@given(
    x=hst.floats(-15.0, 15.0),
    log10_df=hst.floats(math.log10(2.0), math.log10(2e5)),
    centre=hst.floats(-3.0, 3.0),
    half_width=hst.floats(0.1, 60.0),
    size=hst.integers(1, 300),
)
def test_nct_certified_points_agree_with_per_point_path(x, log10_df, centre, half_width, size):
    from bayesindices.ttest import _per_point_nct, _shared_x_kernel

    df = float(round(10.0 ** log10_df))
    ncp = x + centre * math.sqrt(1.0 + x * x / (2.0 * df)) + np.linspace(
        -half_width, half_width, size
    )
    values, done = _shared_x_kernel(x, ncp, df, 1e-12)
    reference = _per_point_nct(np.full(size, x), ncp, df, 1e-12)
    check = done & (reference >= 1e-250)
    assert np.all(np.abs(values[check] - reference[check]) <= 1e-11 * reference[check])
    # a point certified as zero has a negligible peak on the other path too
    assert np.all(reference[done & (values == 0.0)] < 1e-300)


def test_nct_scalar_and_broadcast_shapes_keep_their_path():
    ncp = np.array([[0.5, 1.0], [2.0, 3.0]])
    grid = noncentral_t_pdf(2.0, 98, ncp)
    assert grid.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        one = noncentral_t_pdf(2.0, 98, ncp[idx])
        assert isinstance(one, float)
        assert grid[idx] == pytest.approx(one, rel=1e-12)
    xs = np.array([1.0, 2.0])
    assert noncentral_t_pdf(xs, 98, 1.0).shape == (2,)


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
    # exact identity up to linear interpolation between grid nodes, whose
    # relative overshoot at the null is O(h^2 f''/f) ~ 2e-5 at 4096 points
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
    grid = posterior_density_grid(_stats(2.0), CauchyPrior(1.0), alternative="greater")
    assert grid.support[0] == 0.0
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


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
    gt = jzs_bayes_factor(st, CauchyPrior(1.0), alternative="greater").bf01
    lt = jzs_bayes_factor(st, CauchyPrior(1.0), alternative="less").bf01
    assert 1 / two == pytest.approx(0.5 / gt + 0.5 / lt, rel=1e-9)
    assert gt < two < lt  # data with t > 0 favour the matching direction


def test_bf_one_sided_matches_scipy_oracle():
    st = _stats(2.0)
    mine = jzs_bayes_factor(st, CauchyPrior(1.0), alternative="greater").bf01
    from scipy import integrate
    half_prior = lambda d: sps.nct.pdf(2.0, 98, d * 5.0) * 2.0 * sps.cauchy.pdf(d)
    m1, _ = integrate.quad(half_prior, 0, np.inf, epsabs=0, epsrel=1e-11, limit=500)
    assert mine == pytest.approx(sps.t.pdf(2.0, 98) / m1, rel=1e-8)


def _oracle_one_sided_log_bf01(t, n1, n2, scale, alternative):
    """log bf01 of a one-sided test from scipy.quad over x = log g.

    Given g, delta ~ N(0, g scale^2), and a half-normal effect makes t a
    scaled skew-t: with lam^2 = n_eff g scale^2, A = 1 + lam^2 and
    z = lam t sqrt((df + 1) / (A df + t^2)), the one-sided bf10 integrand is
    the two-sided g-mixture one times 2 T_{df+1}(z) (`greater`) or
    2 T_{df+1}(-z) (`less`). A scan finds the integrand's peak; quad covers
    the range where it lies within e^-60 of it."""
    from scipy import integrate, special
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
            # special.stdtr is the Student-t cdf that scipy.stats.t.cdf evaluates
            return (-0.5 * x - 0.5 * np.exp(-x) + log_lik_ratio - 0.5 * math.log(2 * math.pi)
                    + math.log(2.0) + np.log(special.stdtr(df + 1, z)))

    xs = np.linspace(-150.0, 150.0, 3001)
    scan = log_f(xs)
    k = int(np.argmax(scan))
    peak = float(scan[k])
    live = xs[scan > peak - 60.0]
    total, _ = integrate.quad(lambda x: math.exp(float(log_f(x)) - peak),
                              live.min() - 0.1, live.max() + 0.1, points=[xs[k]],
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
                bf = jzs_bayes_factor(st, CauchyPrior(scale), alternative)
                oracle = _oracle_one_sided_log_bf01(t, n1, n2, scale, alternative)
                assert bf.log_bf01 == pytest.approx(oracle, abs=1e-9), (scale, t, alternative)


@pytest.mark.parametrize("n1, n2", ONE_SIDED_DESIGNS)
def test_bf_one_sided_reflection_and_two_sided_identity(n1, n2):
    # `less` at t is `greater` at -t, and the two-sided predictive density
    # averages the two one-sided ones (Morey & Wagenmakers 2014)
    for scale in ONE_SIDED_SCALES:
        prior = CauchyPrior(scale)
        for t in ONE_SIDED_TS:
            st = _design_stats(n1, n2, t)
            greater = jzs_bayes_factor(st, prior, "greater")
            less = jzs_bayes_factor(st, prior, "less")
            assert jzs_bayes_factor(_design_stats(n1, n2, -t), prior, "less") == greater
            log_bf10 = np.logaddexp(-greater.log_bf01, -less.log_bf01) - math.log(2.0)
            two = jzs_bayes_factor(st, prior)
            assert log_bf10 == pytest.approx(-two.log_bf01, abs=1e-9), (scale, t)


def test_bf_one_sided_underflow_raises_named_error():
    # every noncentral-t density at t = -45 and a positive effect underflows
    st = _design_stats(10_000, 10_000, -45.0)
    with pytest.raises(FloatRangeError, match="greater predictive density of t underflows"):
        jzs_bayes_factor(st, CauchyPrior(0.707), "greater")


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


def test_prior_on_grid_one_sided_truncation():
    prior = CauchyPrior(1.0)
    points = np.linspace(-2.0, 2.0, 65)
    full = prior.density(points)
    assert np.array_equal(prior.on_grid(points).densities, full)
    greater = prior.on_grid(points, "greater").densities
    less = prior.on_grid(points, "less").densities
    assert np.array_equal(greater, np.where(points >= 0, 2 * full, 0.0))
    assert np.array_equal(less, np.where(points <= 0, 2 * full, 0.0))
    with pytest.raises(InvalidArgumentError):
        prior.on_grid(points, "sideways")


def test_one_sided_savage_dickey_matches_analytic_through_library():
    # the library path: posterior and prior grid of the same alternative
    st, prior = _stats(1.5), CauchyPrior(1.0)
    posterior = posterior_density_grid(st, prior, alternative="greater")
    sd = savage_dickey_bf(posterior, prior.on_grid(posterior.points, "greater"), 0.0)
    analytic = jzs_bayes_factor(st, prior, alternative="greater").bf01
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
