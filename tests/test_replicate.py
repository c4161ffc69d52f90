import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

from bayesindices import replicate
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
