"""Gauss-Legendre quadrature for the model layer.

Every Bayes factor integrates a log-space integrand with a fixed rule on
one interval (`log_gauss_legendre`) and takes its error from the half rule
on the same interval. The rules' nodes and weights come from Newton's
method on the Legendre recurrence (`gauss_legendre_nodes`).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Newton's method for the Gauss-Legendre nodes stops once no node moves by
# more than this (about an ulp of 1), within this many steps
_GL_NEWTON_TOL = 2e-16
_GL_NEWTON_STEPS = 10


@lru_cache(maxsize=16)
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1], ascending.

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's asymptotic starts, for the nonnegative nodes at once; O(n^2)
    work and O(n) memory, with no eigen-solve. The weight
    2 / ((1 - x^2) P_n'(x)^2) takes P_n' and 1 - x^2 at the root itself,
    moved by the last Newton step from the rounded node, so the weights
    near +-1 are not off by the node's rounding times 1/(1 - x).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n ** 3)
        - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)
    )
    if n % 2:
        x[-1] = 0.0
    for _ in range(_GL_NEWTON_STEPS):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        step = p / dp
        if not np.max(np.abs(step)) > _GL_NEWTON_TOL:
            break
        x -= step
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes for n = {n} did not converge")
    # P_n' and 1 - x^2 at x - step, the root to first order
    dp -= step * (2.0 * x * dp - n * (n + 1.0) * p) / one_minus_x2
    one_minus_x2 += 2.0 * x * step
    w = 2.0 / (one_minus_x2 * dp * dp)
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


@lru_cache(maxsize=16)
def _nested_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-node abscissae followed by the n/2-node ones, with both weight
    vectors: the layout `log_gauss_legendre` evaluates its integrand on."""
    u_fine, w_fine = gauss_legendre_nodes(n)
    u_coarse, w_coarse = gauss_legendre_nodes(n // 2)
    return np.concatenate((u_fine, u_coarse)), w_fine, w_coarse


def log_gauss_legendre(
    log_f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: float,
    hi: float,
    n: int,
    *,
    log_scale: float = 0.0,
) -> tuple[float, float, float]:
    """log of exp(log_scale) times the integral of exp(log_f) over [lo, hi],
    with its relative error estimate and a weighted mean.

    The n-node Gauss-Legendre rule gives the value and the n/2-node rule
    the error, floored at the rounding of the sum. ``log_f`` is called once,
    on the abscissae of both rules; -inf maps to an integrand of zero. Each
    rule's sum is shifted by its largest term, so the integrand may lie far
    outside the double range as long as its log does not. The value is -inf
    when the integrand is zero at every node.

    ``log_f`` returns a pair: the log integrand and a second array h of the
    same shape. The third item of the result is the mean of h under the
    n-node rule's weights, exp(log_f - peak) times the Gauss-Legendre
    weights, normalized. When h is the derivative of log_f with respect to
    a parameter, that mean is the derivative of the log integral, from the
    same pass.
    """
    u, w_fine, w_coarse = _nested_rule(n)
    half = 0.5 * (hi - lo)
    values, h = log_f(half * u + 0.5 * (hi + lo))

    def log_sum(v: np.ndarray, w: np.ndarray, h: np.ndarray | None = None):
        peak = float(v.max())
        if peak == -math.inf:
            return peak, math.nan
        p = np.exp(v - peak)
        total = half * float(p @ w)
        mean = math.nan if h is None else half * float((p * h) @ w) / total
        return peak + math.log(total) + log_scale, mean

    value, mean = log_sum(values[:n], w_fine, h[:n])
    coarse, _ = log_sum(values[n:], w_coarse)
    error = max(abs(math.expm1(coarse - value)), n * sys.float_info.epsilon)
    return value, error, mean
