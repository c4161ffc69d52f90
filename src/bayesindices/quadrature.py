"""Quadrature routines used by the model layer.

Both schemes are Gauss-Legendre rules on log-space integrands:

- a fixed rule over consecutive panels (`log_gauss_legendre`), which every
  Bayes factor uses: the caller places the panel edges where its integrand
  changes, and the half rule on the same panels gives the error, and
- a node-doubling integrator for batches of integrands sharing one
  functional form (`batched_log_integral`), which is what the noncentral-t
  evaluation needs when it runs over a whole parameter grid at once.
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
    log_f: Callable[[np.ndarray], np.ndarray],
    edges,
    n: int,
    *,
    log_scale: float = 0.0,
    weighted_mean: bool = False,
) -> tuple[float, ...]:
    """log of exp(log_scale) times the integral of exp(log_f) over
    [edges[0], edges[-1]], with its relative error estimate.

    Each panel between consecutive edges gets an n-node Gauss-Legendre rule;
    the n/2-node rule on the same panels gives the error, floored at the
    rounding of the sum. ``log_f`` is called once, on a (panels, n + n/2)
    matrix holding the abscissae of both rules, and -inf maps to an
    integrand of zero. Each rule's sum is shifted by its largest term, so
    the integrand may lie far outside the double range as long as its log
    does not. The value is -inf when the integrand is zero at every node.

    With ``weighted_mean``, ``log_f`` returns a pair: the log integrand and
    a second array h of the same shape. The result then gains a third item,
    the mean of h under the n-node rule's weights, exp(log_f - peak) times
    the Gauss-Legendre weights, normalized. When h is the derivative of
    log_f with respect to a parameter, that mean is the derivative of the
    log integral, from the same pass.
    """
    edges = np.asarray(edges, dtype=float)
    u, w_fine, w_coarse = _nested_rule(n)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = np.multiply.outer(half, u)
    nodes += 0.5 * (hi + lo)[:, None]
    values = log_f(nodes)
    if weighted_mean:
        values, h = values

    def log_sum(v: np.ndarray, w: np.ndarray, h: np.ndarray | None = None):
        peak = float(v.max())
        if peak == -math.inf:
            return peak, math.nan
        p = np.exp(v - peak)
        total = float(half @ (p @ w))
        mean = math.nan if h is None else float(half @ ((p * h) @ w)) / total
        return peak + math.log(total) + log_scale, mean

    value, mean = log_sum(values[:, :n], w_fine, h[:, :n] if weighted_mean else None)
    coarse, _ = log_sum(values[:, n:], w_coarse)
    error = max(abs(math.expm1(coarse - value)), half.size * n * sys.float_info.epsilon)
    return (value, error, mean) if weighted_mean else (value, error)


def batched_log_integral(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    rel_tol: float | np.ndarray = 1e-12,
    start_nodes: int = 64,
    max_nodes: int = 4096,
) -> np.ndarray:
    """Integrate exp(log_f) over per-element brackets [lo_i, hi_i].

    ``log_f(nodes, idx)`` receives an (m, n) matrix of abscissae (row k
    inside [lo_i, hi_i] for i = idx[k]) plus the element indices, and
    returns log-integrand values; -inf maps to an integrand of zero.
    Node counts double, elements freezing as soon as their estimate is
    stable to ``rel_tol`` (scalar, or one tolerance per element when the
    caller knows its integrand's rounding noise floor). The caller is
    expected to have centred the brackets so the integrand's peak is O(1).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tol = np.broadcast_to(np.asarray(rel_tol, dtype=float), lo.shape)
    out = np.zeros(lo.shape, dtype=float)
    idx = np.arange(lo.size)
    prev: np.ndarray | None = None
    n = start_nodes
    while True:
        u, w = gauss_legendre_nodes(n)
        la, ha = lo[idx], hi[idx]
        nodes = la[:, None] + (ha - la)[:, None] * (u[None, :] + 1.0) * 0.5
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.exp(log_f(nodes, idx))
        vals = np.where(np.isfinite(vals), vals, 0.0)
        cur = 0.5 * (ha - la) * (vals @ w)
        if prev is not None:
            settled = np.abs(cur - prev) <= tol[idx] * np.maximum(np.abs(cur), 1e-300)
            out[idx[settled]] = cur[settled]
            idx = idx[~settled]
            prev = cur[~settled]
            if idx.size == 0:
                return out
        else:
            prev = cur
        if n >= max_nodes:
            raise ConvergenceError(
                f"{idx.size} integral(s) not converged at {max_nodes} nodes"
            )
        n *= 2
