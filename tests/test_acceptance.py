"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion alongside the assertions.
"""

import functools
import math
import time

import numpy as np
import pytest

from bayesindices import (
    CauchyPrior,
    DensityGrid,
    ReferenceFunction,
    SufficientStats,
    central_t_pdf,
    cohen_d_from_moments,
    fbst_evalue,
    jzs_bayes_factor,
    level_set_mass,
    map_p_value,
    noncentral_t_pdf,
    normalize_grid,
    posterior_density_grid,
    probability_of_direction,
    savage_dickey_bf,
)
from bayesindices.cli import main
from bayesindices.replicate import run_replication


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description}")
        return wrapper
    return decorate


def _stats(t, n=50):
    return SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2.0, n1=n, n2=n)


@criterion(1, "calibrated replication reproduces all published indices in < 10 s")
def test_criterion_1_calibrated_replication():
    start = time.perf_counter()
    report = run_replication(profile="strict")
    elapsed = time.perf_counter() - start
    by_name = {row.name: row for row in report.rows}
    assert by_name["density_at_null"].observed == pytest.approx(0.2171, abs=0.010)
    assert by_name["savage_dickey_bf01"].observed == pytest.approx(0.6821, abs=0.03)
    assert by_name["map_location"].observed == pytest.approx(0.41, abs=0.02)
    assert by_name["p_map"].observed == pytest.approx(0.1076, abs=0.010)
    assert by_name["pd"].observed == pytest.approx(0.9827, abs=0.005)
    assert by_name["ev_against_flat"].observed == pytest.approx(0.9659, abs=0.005)
    assert by_name["ev_against_prior"].observed == pytest.approx(0.9743, abs=0.005)
    assert by_name["hpd"].observed[0] == pytest.approx(0.03, abs=0.02)
    assert by_name["hpd"].observed[1] == pytest.approx(0.80, abs=0.02)
    assert by_name["rope_mass"].observed == pytest.approx(0.0316, abs=0.005)
    assert report.all_passed
    assert report.bf01_analytic == pytest.approx(0.6870, abs=1e-9)
    assert elapsed < 10.0, f"replication took {elapsed:.2f} s"


@criterion(2, "effect size from the published moment values equals 0.5999")
def test_criterion_2_cohen_d():
    assert cohen_d_from_moments(2.71, 1.81, 1.71, 1.51) == pytest.approx(0.5999, abs=5e-4)


@criterion(3, "unit-scale Cauchy density at zero equals 1/pi")
def test_criterion_3_prior_density_identity():
    assert float(CauchyPrior(1.0).density(0.0)) == pytest.approx(1.0 / math.pi, abs=1e-10)
    assert float(CauchyPrior(1.0).density(0.0)) == pytest.approx(0.31831, abs=1e-5)


@criterion(4, "density-ratio and predictive-ratio Bayes factors agree within 1%")
def test_criterion_4_cross_method_bf_agreement():
    rng = np.random.default_rng(2024)
    scales = (math.sqrt(2) / 2, 1.0, math.sqrt(2))
    for _ in range(20):
        t = float(rng.uniform(0.0, 4.0))
        n = int(rng.integers(10, 201))
        scale = float(rng.choice(scales))
        stats = _stats(t, n)
        for alternative in ("two-sided", "greater", "less"):
            prior = CauchyPrior(scale, alternative)
            posterior = posterior_density_grid(stats, prior, grid_size=4096)
            prior_grid = prior.on_grid(posterior.points)
            sd = savage_dickey_bf(posterior, prior_grid, 0.0)
            analytic = jzs_bayes_factor(stats, prior).bf01
            assert abs(sd - analytic) / analytic <= 0.01, (t, n, prior.scale, alternative)


@criterion(5, "e-value matches the level-set complement")
def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(50):
        mu = float(rng.uniform(-1.0, 1.0))
        scale = float(rng.uniform(0.3, 2.0))
        shape = float(rng.uniform(1.2, 4.0))
        x = np.linspace(mu - 9 * scale, mu + 9 * scale, int(rng.integers(300, 900)))
        dens = np.exp(-np.abs((x - mu) / scale) ** shape / 2.0)
        grid = normalize_grid(DensityGrid(x, dens))
        null = float(rng.uniform(mu - 2 * scale, mu + 2 * scale))
        res = fbst_evalue(grid, ReferenceFunction.flat(), null)
        threshold = float(np.interp(null, grid.points, grid.densities))
        assert abs(res.ev_against - (1.0 - level_set_mass(grid, threshold))) <= 1e-9


@criterion(6, "index properties hold and evidence moves monotonically with |t|")
def test_criterion_6_property_suites():
    prior = CauchyPrior(1.0)
    prior_ref = None
    prev = None
    for t in np.arange(0.0, 6.5, 0.5):
        stats = _stats(float(t))
        bf = jzs_bayes_factor(stats, prior)
        assert bf.bf01 * bf.bf10 == pytest.approx(1.0, abs=1e-12)
        posterior = posterior_density_grid(stats, prior)
        assert posterior.total_mass() == pytest.approx(1.0, abs=1e-6)
        if prior_ref is None or prior_ref.prior.points.size != posterior.points.size:
            prior_ref = ReferenceFunction.from_prior(prior.on_grid(posterior.points))
        fbst = fbst_evalue(posterior, ReferenceFunction.flat(), 0.0)
        assert fbst.ev_for + fbst.ev_against == 1.0
        pd = probability_of_direction(posterior)
        assert 0.5 <= pd <= 1.0
        p_map = map_p_value(posterior, 0.0)
        assert 0.0 <= p_map <= 1.0
        row = (bf.bf01, fbst.ev_against, pd, 1.0 - p_map)
        if prev is not None:
            assert row[0] <= prev[0] + 1e-12, "bf01 must not increase with |t|"
            assert row[1] >= prev[1] - 1e-12, "ev_against must not decrease"
            assert row[2] >= prev[2] - 1e-12, "pd must not decrease"
            assert row[3] >= prev[3] - 1e-12, "1 - p_map must not decrease"
        prev = row


@criterion(7, "seeded simulate and analyze outputs are byte-identical across runs")
def test_criterion_7_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--seed", "5", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", str(a), "--out", str(ra)]) == 0
    assert main(["analyze", str(a), "--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()


@criterion(8, "noncentral-t density: central reduction, reflection, unit mass")
def test_criterion_8_noncentral_t():
    xs = np.linspace(-6.0, 6.0, 49)
    for df in (1, 5, 98, 500):
        got = noncentral_t_pdf(xs, df, 0.0)
        want = central_t_pdf(xs, df)
        assert np.max(np.abs(got - want) / want) < 1e-10
    for df in (1, 5, 98, 500):
        for ncp in (0.7, 2.0, 5.0):
            a = noncentral_t_pdf(xs, df, ncp)
            b = noncentral_t_pdf(-xs, df, -ncp)
            assert np.max(np.abs(a - b)) < 1e-10
    grid = np.linspace(-20.0, 30.0, 100_001)
    assert np.trapezoid(noncentral_t_pdf(grid, 98, 3.0), grid) == pytest.approx(1.0, abs=1e-6)
