"""Trapezoid quadrature for the model layer.

Every Bayes factor integrates a log-space integrand over one interval with
the trapezoid rule on equal steps (`log_trapezoid`). For an integrand that
is analytic in a strip about the real axis and negligible at both ends of
the interval, the rule converges geometrically (Trefethen & Weideman 2014,
SIAM Review 56), and the rule on every other node gives its error from the
same integrand values.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np


def log_trapezoid(
    log_f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: float,
    hi: float,
    n: int,
    *,
    log_scale: float = 0.0,
) -> tuple[float, float, float]:
    """log of exp(log_scale) times the integral of exp(log_f) over [lo, hi],
    with its relative error estimate and a weighted mean.

    The trapezoid rule on n equal intervals (n even) gives the value, and
    the rule on every other node the error, floored at n ulps. ``log_f`` is
    called once, on the n + 1 nodes; -inf maps to an integrand of zero. The
    sum is shifted by its largest term, so the integrand may lie far outside
    the double range as long as its log does not. The value is -inf when the
    integrand is zero at every node.

    ``log_f`` returns a pair: the log integrand and a second array h of the
    same shape. The third item of the result is the mean of h under the
    rule's weights, exp(log_f - peak) halved at both ends, normalized. When
    h is the derivative of log_f with respect to a parameter, that mean is
    the derivative of the log integral, from the same pass.
    """
    step = (hi - lo) / n
    values, h = log_f(lo + step * np.arange(n + 1.0))
    peak = float(values.max())
    if peak == -math.inf:
        return peak, math.nan, math.nan
    p = np.exp(values - peak)
    p[0] *= 0.5
    p[-1] *= 0.5
    total = float(p.sum())
    # the rule on every other node keeps both (halved) ends at twice the step
    error = max(abs(2.0 * float(p[::2].sum()) / total - 1.0), n * sys.float_info.epsilon)
    value = peak + math.log(step * total) + log_scale
    return value, error, float(p @ h) / total
