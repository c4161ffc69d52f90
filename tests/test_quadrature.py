import math
import sys

import numpy as np
import pytest

from bayesindices.errors import ConvergenceError
from bayesindices.quadrature import (
    batched_log_integral,
    gauss_legendre_nodes,
    log_gauss_legendre,
)


def _oracle_legendre_root(n, start):
    """The root of P_n near ``start`` and its weight, at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(start)
        for _ in range(5):
            p_prev, p = mp.mpf(1), x
            for j in range(2, n + 1):
                p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            dp = n * (p_prev - x * p) / (1 - x * x)
            x -= p / dp
        return float(x), float(2 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128, 256])
def test_gauss_legendre_nodes_match_mpmath_oracle(n):
    nodes, weights = gauss_legendre_nodes(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    # both ends, where a weight is most sensitive to its node, and a spread
    for i in sorted(i for i in {0, 1, 2, n - 1, n // 2, *range(0, n, max(1, n // 12))} if i < n):
        x, w = _oracle_legendre_root(n, nodes[i])
        assert abs(nodes[i] - x) <= 1e-15, (n, i)
        assert abs(weights[i] - w) <= 1e-13 * w, (n, i)


def test_polynomial_exact():
    # on every panel the 4-node rule integrates degree 7 exactly and the
    # 2-node rule degree 3, so both agree with the exact integral
    calls = []

    def log_f(x):
        calls.append(x.shape)
        return np.log(3.0 * x**2 + 1.0)

    value, err = log_gauss_legendre(log_f, [0.0, 0.3, 1.1, 2.0], 4)
    assert value == pytest.approx(math.log(10.0), abs=1e-15)
    assert err == 3 * 4 * sys.float_info.epsilon
    # one call on all nodes of both rules
    assert calls == [(3, 6)]


def test_log_gauss_legendre_gaussian_closed_form():
    # the integrand lies far beyond the double range; only its log is used
    edges = np.array([-12.0, -1.0, 0.5, 12.0])
    value, err = log_gauss_legendre(lambda x: 2000.0 - 0.5 * x * x, edges, 32,
                                    log_scale=-0.5 * math.log(2.0 * math.pi))
    assert value == pytest.approx(2000.0, abs=1e-13)
    # the estimate is the 16-node rule's error, an upper bound here
    assert 1e-13 < err < 1e-7


def test_log_gauss_legendre_zero_integrand():
    value, _ = log_gauss_legendre(lambda x: np.full(x.shape, -np.inf), [0.0, 1.0], 8)
    assert value == -math.inf


def test_batched_log_integral_gaussians():
    # integral of exp(-(v-c)^2 / (2 s^2)) over a generous bracket
    centers = np.array([0.0, 1.0, 5.0])
    sigmas = np.array([1.0, 0.2, 3.0])

    def log_f(v, idx):
        return -0.5 * ((v - centers[idx, None]) / sigmas[idx, None]) ** 2

    lo = centers - 12 * sigmas
    hi = centers + 12 * sigmas
    got = batched_log_integral(log_f, lo, hi)
    expected = sigmas * np.sqrt(2 * np.pi)
    assert np.allclose(got, expected, rtol=1e-12)


def test_batched_log_integral_node_cap():
    # discontinuous integrand cannot settle at the doubling tolerance
    def log_f(v, idx):
        return np.where(v > 0.3333333, 0.0, -30.0)

    with pytest.raises(ConvergenceError):
        batched_log_integral(log_f, np.array([0.0]), np.array([1.0]),
                             rel_tol=1e-14, max_nodes=256)
