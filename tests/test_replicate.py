import functools
import itertools
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bayesindices import (
    ReferenceFunction,
    cli,
    fbst_evalue,
    map_estimate,
    map_p_value,
    posterior_density_grid,
    probability_of_direction,
    replicate,
    rope_decision,
    rope_mass,
    savage_dickey_bf,
)
from bayesindices.errors import ConvergenceError
from bayesindices.replicate import calibrate_reference_t
from bayesindices.ttest import CauchyPrior, SufficientStats, jzs_bayes_factor

SRC = Path(__file__).resolve().parents[1] / "src"


def _log_levels(lo, hi, count=5):
    return [math.exp(math.log(lo) + (k + 0.5) / count * math.log(hi / lo)) for k in range(count)]


# n per group 5..1e4, prior scale 0.1..10, target bf01 0.006..1.1: every
# target is bracketed on t in [0, 10]
CALIBRATION_GRID = list(itertools.product(
    [int(round(n)) for n in _log_levels(5, 1e4)], _log_levels(0.1, 10.0), _log_levels(0.006, 1.1)
))


def test_calibration_matches_brentq_root(monkeypatch):
    evaluations = []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return jzs_bayes_factor(*args, **kwargs)

    monkeypatch.setattr(replicate, "jzs_bayes_factor", counted)
    counts = []
    for n, scale, target in CALIBRATION_GRID:
        prior = CauchyPrior(scale)

        def excess(t):
            stats = SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)
            return jzs_bayes_factor(stats, prior).bf01 - target

        evaluations.clear()
        t = calibrate_reference_t(target, n, scale)
        counts.append(len(evaluations))
        root = brentq(excess, 0.0, 10.0, xtol=1e-13, rtol=4 * sys.float_info.epsilon)
        assert t == pytest.approx(root, abs=1e-10), (n, scale, target)
    # Newton steps on the slope from a Laplace start; measured 3.02 and 5
    assert statistics.mean(counts) <= 3.25
    assert max(counts) <= 5


def _stats(t, n):
    return SufficientStats(t=t, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)


@functools.lru_cache(maxsize=None)
def _brentq_root(target, n, scale):
    prior = CauchyPrior(scale)
    return brentq(lambda t: jzs_bayes_factor(_stats(t, n), prior).bf01 - target, 0.0, 10.0,
                  xtol=1e-13, rtol=4 * sys.float_info.epsilon)


@pytest.mark.parametrize("factor", [10.0, -1.0])
def test_calibration_survives_a_wrong_slope(monkeypatch, factor):
    # a slope 10x too large makes every Newton step 10x too short, one with
    # the wrong sign points away from the root: bisection has to take over
    steps = []

    def wrong(*args, **kwargs):
        bf = jzs_bayes_factor(*args, **kwargs)
        steps.append(args)
        return bf._replace(log_bf01_slope=factor * bf.log_bf01_slope)

    monkeypatch.setattr(replicate, "jzs_bayes_factor", wrong)
    for n, scale, target in CALIBRATION_GRID:
        steps.clear()
        t = calibrate_reference_t(target, n, scale)
        assert t == pytest.approx(_brentq_root(target, n, scale), abs=1e-10), (n, scale, target)
        assert len(steps) <= replicate._CALIBRATION_MAX_STEPS


@pytest.mark.parametrize("n, scale", [(5, 0.1), (50, 1.0), (1000, 10.0), (10_000, 0.1), (5, 10.0)])
@pytest.mark.parametrize("t_root", [1e-4, 1e-3, 9.999, 10.0 - 1e-6])
def test_calibration_targets_just_inside_the_bracket(monkeypatch, n, scale, t_root):
    evaluations = []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return jzs_bayes_factor(*args, **kwargs)

    target = jzs_bayes_factor(_stats(t_root, n), CauchyPrior(scale)).bf01
    monkeypatch.setattr(replicate, "jzs_bayes_factor", counted)
    t = calibrate_reference_t(target, n, scale)
    # near t = 0 the search stops once log bf01 is on the target to within
    # rounding, rather than jittering on steps in t; measured at most 6
    assert len(evaluations) <= 6
    assert t == pytest.approx(t_root, abs=1e-10)
    assert t == pytest.approx(_brentq_root(target, n, scale), abs=1e-10)


@pytest.mark.parametrize("n, scale, t_root, end", [(5, 0.1, 9.999, 10.0), (5, 10.0, 1e-3, 0.0)])
def test_calibration_first_step_overshoots_the_bracket(monkeypatch, n, scale, t_root, end):
    # the first Newton step leaves t in [0, 10]: the end on that side is
    # evaluated next, found to bracket the root, and the iteration goes on
    seen = []

    def recorded(stats, prior):
        seen.append(stats.t)
        return jzs_bayes_factor(stats, prior)

    target = jzs_bayes_factor(_stats(t_root, n), CauchyPrior(scale)).bf01
    monkeypatch.setattr(replicate, "jzs_bayes_factor", recorded)
    t = calibrate_reference_t(target, n, scale)
    assert seen[1] == pytest.approx(end, abs=1e-12)
    assert seen.count(seen[1]) == 1
    assert t == pytest.approx(_brentq_root(target, n, scale), abs=1e-10)


def _oracle_log_bf01_slope(t, n, scale):
    """d log bf01 / dy, y = log(1 + t^2/df), from scipy.quad over x = log g:
    -(df + 1)/2 times the mean of the score (A - 1)/(A + t^2/df) under the
    normalized g-mixture integrand, each integral split at the prior peak and
    the likelihood knee and scaled by the integrand's peak on a scan."""
    df, n_eff = 2 * n - 2, n / 2
    t2_df = t * t / df

    def lam2(x):
        return n_eff * scale * scale * math.exp(x)

    def log_f(x):
        a = 1.0 + lam2(x)
        return (-0.5 * x - 0.5 * math.exp(-x) - 0.5 * math.log(a)
                - 0.5 * (df + 1) * (math.log1p(t2_df / a) - math.log1p(t2_df)))

    knee = math.log(max(t * t, 1.0) / (n_eff * scale * scale))
    peak = max(log_f(x) for x in np.linspace(-12.0, max(knee, 0.0) + 80.0, 4001))
    edges = sorted({-12.0, 0.0, min(max(knee, -12.0), 120.0), max(knee, 0.0) + 80.0})
    mass = mean = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mass += quad(lambda x: math.exp(log_f(x) - peak), a, b,
                     epsabs=0, epsrel=1e-13, limit=500)[0]
        mean += quad(lambda x: math.exp(log_f(x) - peak) * lam2(x) / (1.0 + lam2(x) + t2_df),
                     a, b, epsabs=0, epsrel=1e-13, limit=500)[0]
    return -0.5 * (df + 1) * mean / mass


def test_log_bf01_slope_matches_quad_oracle():
    # the calibration grid at its roots, and its sizes and scales widened to
    # n = 2 and 1e5 per group and scales 1e-3 and 1e3, at t from 0 to 30
    designs = [(calibrate_reference_t(target, n, scale), n, scale)
               for n, scale, target in CALIBRATION_GRID]
    sizes = [2, *sorted({n for n, _, _ in CALIBRATION_GRID}), 100_000]
    scales = [1e-3, *sorted({scale for _, scale, _ in CALIBRATION_GRID}), 1e3]
    designs += [(t, n, scale) for n, scale, t in itertools.product(sizes, scales, [0.0, 1.0, 10.0, 30.0])]
    for t, n, scale in designs:
        slope = jzs_bayes_factor(_stats(t, n), CauchyPrior(scale)).log_bf01_slope
        assert math.isfinite(slope) and slope < 0.0, (t, n, scale)
        assert slope == pytest.approx(_oracle_log_bf01_slope(t, n, scale), rel=1e-8), (t, n, scale)


def test_log_bf01_slope_is_none_one_sided():
    for alternative in ("greater", "less"):
        assert jzs_bayes_factor(_stats(2.0, 50), CauchyPrior(1.0, alternative)).log_bf01_slope is None


def test_calibration_refuses_unbracketed_target():
    with pytest.raises(ConvergenceError, match="not bracketed"):
        calibrate_reference_t(1e-9, 5, 0.1)
    with pytest.raises(ConvergenceError, match="not bracketed"):
        calibrate_reference_t(1e9, 50, 1.0)


def test_cli_import_leaves_scipy_out():
    code = "import sys, bayesindices.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _modules_after_cold_analyze(tmp_path, package):
    """The modules of ``package`` that one `analyze` in a fresh process imports."""
    csv = tmp_path / "d.csv"
    assert cli.main(["simulate", "--seed", "11", "--out", str(csv)]) == 0
    code = ("import contextlib, io, sys; from bayesindices import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['analyze', {str(csv)!r}]) == 0\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_analyze_leaves_numpy_ma_out(tmp_path):
    # np.median imports numpy.ma, about 10 ms of every cold process
    assert _modules_after_cold_analyze(tmp_path, "numpy.ma") == "[]"


def test_cli_analyze_leaves_numpy_polynomial_out(tmp_path):
    # the Bayes factor's trapezoid rule needs no tabulated nodes, so nothing
    # imports numpy.polynomial
    assert _modules_after_cold_analyze(tmp_path, "numpy.polynomial") == "[]"


def test_reference_analysis_is_the_hand_built_analysis(reference):
    # every index called by hand on grids built by hand, as the replication
    # check did before it read `report.analyze`: bit for bit the same
    stats = reference["stats"]
    prior = CauchyPrior(replicate.REFERENCE_PRIOR_SCALE)
    rope = replicate.REFERENCE_ROPE
    posterior = posterior_density_grid(stats, prior, anchors=(0.0, rope.lower, rope.upper))
    prior_grid = prior.on_grid(posterior.points)
    decision = rope_decision(posterior, rope, replicate.REFERENCE_HPD_MASS)
    peak = map_estimate(posterior)
    expected = {
        "t_star": calibrate_reference_t(),
        "bf01_analytic": jzs_bayes_factor(stats, prior).bf01,
        "stats": stats,
        "density_at_null": float(posterior.density_at(0.0)),
        "savage_dickey_bf01": savage_dickey_bf(posterior, prior_grid, 0.0),
        "map_location": peak.location,
        "p_map": map_p_value(posterior, 0.0, peak),
        "pd": probability_of_direction(posterior),
        "ev_against_flat": fbst_evalue(posterior, ReferenceFunction.flat(), 0.0).ev_against,
        "ev_against_prior": fbst_evalue(
            posterior, ReferenceFunction.from_prior(prior_grid), 0.0).ev_against,
        "hpd": (decision.hpd.lower, decision.hpd.upper),
        "rope_mass": rope_mass(posterior, rope, hpd=decision.hpd),
        "rope_verdict": decision.verdict,
        "mass_in_rope_total": decision.mass_in_rope,
    }
    got = {k: v for k, v in reference.items() if k not in ("posterior", "prior_grid")}
    assert got == expected
    for key, grid in (("posterior", posterior), ("prior_grid", prior_grid)):
        assert np.array_equal(reference[key].points, grid.points)
        assert reference[key].densities.tobytes() == grid.densities.tobytes()
