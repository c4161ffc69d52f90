import math
import sys

import numpy as np
import pytest

from bayesindices.quadrature import log_trapezoid


def test_log_trapezoid_gaussian_closed_form():
    # the integrand lies far beyond the double range; only its log is used
    calls = []

    def log_f(x):
        calls.append(x.copy())
        return 2000.0 - 0.5 * x * x, np.zeros_like(x)

    value, err, _ = log_trapezoid(log_f, -12.0, 12.0, 80, log_scale=-0.5 * math.log(2.0 * math.pi))
    assert value == pytest.approx(2000.0, abs=1e-13)
    # one call on the n + 1 equally spaced nodes
    assert len(calls) == 1
    assert calls[0].shape == (81,)
    assert np.allclose(calls[0], np.linspace(-12.0, 12.0, 81), rtol=0.0, atol=1e-14)
    # the every-other-node rule (step 0.6) is still exact to rounding for a
    # Gaussian, so the estimate is the floor of n ulps
    assert err == 80 * sys.float_info.epsilon


def test_log_trapezoid_error_is_the_every_other_node_rule():
    # a step of 1.2 against a unit Gaussian leaves the coarse rule off by
    # 2 exp(-2 pi^2 / 1.2^2) ~ 2.2e-6, and the fine rule by ~1e-23
    value, err, mean = log_trapezoid(lambda x: (-0.5 * x * x, x), -15.0, 15.0, 50)
    assert value == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-15)
    assert err == pytest.approx(2.0 * math.exp(-2.0 * math.pi ** 2 / 1.2 ** 2), rel=1e-6)
    # the weighted mean of an odd h over a symmetric integrand
    assert mean == pytest.approx(0.0, abs=1e-15)


def test_log_trapezoid_zero_integrand():
    value, _, _ = log_trapezoid(lambda x: (np.full(x.shape, -np.inf), np.zeros_like(x)),
                                0.0, 1.0, 8)
    assert value == -math.inf
