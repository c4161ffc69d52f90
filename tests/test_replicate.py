import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from bayesindices import (
    ReferenceFunction,
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
    # both bracket ends included
    assert max(counts) <= 11


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


def test_reference_analysis_is_the_hand_built_analysis(reference):
    # every index called by hand on grids built by hand, as the replication
    # check did before it read `report.analyze`: bit for bit the same
    stats = reference["stats"]
    prior = CauchyPrior(replicate.REFERENCE_PRIOR_SCALE)
    posterior = posterior_density_grid(stats, prior, grid_size=4096)
    prior_grid = prior.on_grid(posterior.points)
    rope = replicate.REFERENCE_ROPE
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
