"""Conformance sweep over the design space the command line accepts.

600 seeded designs: n1 and n2 independently log-uniform on 2..1e5, the prior
scale log-uniform on 1e-3..1e3, |t| in {0, 1, 3, 10, 30, 45} x U(0.5, 1.5)
with a random sign, the three alternatives, and 30% nonzero nulls inside the
alternative's half-line with a ROPE of +-0.1 around the null. Each design
runs through `analyze(stats, config).report()`, as `bayesindices analyze`
does after reading its CSV.

The designs whose report fails today are listed by index with their error
class, and asserted to fail that way still: a fix moves its designs off the
list, and the list never grows silently. A Bayes factor may refuse only a
value outside the double range.
"""

import functools
import math
import sys
from typing import NamedTuple

import numpy as np
import pytest

from bayesindices import AnalysisConfig, CauchyPrior, Rope, SufficientStats, analyze, jzs_bayes_factor
from bayesindices.errors import BayesIndicesError
from bayesindices.ttest import _g_mixture_log_bf10

SEED = 22
N_DESIGNS = 600
T_CLASSES = (0.0, 1.0, 3.0, 10.0, 30.0, 45.0)
ALTERNATIVES = ("two-sided", "greater", "less")
LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# what `bayesindices analyze` reports as a numeric failure (exit 3)
REFUSALS = (BayesIndicesError, ZeroDivisionError)

# the error class `analyze(...).report()` raises -> the designs that raise it
KNOWN_REFUSALS = {
    "DegenerateDataError": (
        116, 174, 210, 216, 248, 253, 292, 299, 307, 310, 367, 406, 423, 435, 482,
        504, 525, 531, 572,
    ),
    "FloatRangeError": (
        1, 8, 11, 37, 76, 89, 105, 118, 135, 159, 163, 169, 181, 195, 245, 249, 262,
        289, 313, 314, 332, 343, 394, 409, 448, 497, 506, 507, 522, 530,
    ),
}
# (index name, error class) -> the designs whose report blanks that index
KNOWN_INDEX_FAILURES = {
    ("rope", "MultimodalHpdError"): (88, 202, 239, 377, 398, 434, 490, 518, 559, 574),
    ("savage_dickey", "FloatRangeError"): (152, 275),
    ("savage_dickey", "ZeroDivisionError"): (42, 97, 98, 170, 199, 235, 251, 326, 388, 554, 556),
}


class Design(NamedTuple):
    n1: int
    n2: int
    t: float
    scale: float
    alternative: str
    null: float

    def stats(self, t: float | None = None) -> SufficientStats:
        t = self.t if t is None else t
        n1, n2 = self.n1, self.n2
        return SufficientStats(t=t, df=n1 + n2 - 2, n_eff=n1 * n2 / (n1 + n2), n1=n1, n2=n2)

    def config(self) -> AnalysisConfig:
        return AnalysisConfig(prior_scale=self.scale, alternative=self.alternative,
                              null_value=self.null, rope=Rope(self.null - 0.1, self.null + 0.1))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@functools.cache
def designs() -> tuple[Design, ...]:
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(N_DESIGNS):
        n1, n2 = (round(_log_uniform(rng, 2, 1e5)) for _ in range(2))
        scale = _log_uniform(rng, 1e-3, 1e3)
        t = float(rng.choice(T_CLASSES) * rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)))
        alternative = str(rng.choice(ALTERNATIVES))
        null = 0.0
        if rng.uniform() < 0.3:
            side = {"greater": 1.0, "less": -1.0}.get(alternative, rng.choice((-1.0, 1.0)))
            null = float(side * rng.uniform(0.05, 0.5))
        out.append(Design(n1, n2, t, scale, alternative, null))
    return tuple(out)


def _bf(stats, prior):
    """The Bayes factor, or the class name of its refusal."""
    try:
        return jzs_bayes_factor(stats, prior)
    except REFUSALS as exc:
        return type(exc).__name__


@functools.cache
def reports() -> tuple:
    """Each design's report, or the class name of its refusal."""
    out = []
    for design in designs():
        try:
            report = analyze(design.stats(), design.config()).report()
            report.to_json()
        except REFUSALS as exc:
            report = type(exc).__name__
        out.append(report)
    return tuple(out)


@functools.cache
def bayes_factors() -> tuple[dict, ...]:
    """Each design's Bayes factor under every alternative."""
    return tuple({alt: _bf(d.stats(), CauchyPrior(d.scale, alt)) for alt in ALTERNATIVES}
                 for d in designs())


def test_sweep_draws_the_claimed_space():
    ds = designs()
    assert len(ds) == N_DESIGNS
    assert {d.alternative for d in ds} == set(ALTERNATIVES)
    assert min(min(d.n1, d.n2) for d in ds) <= 3 and max(max(d.n1, d.n2) for d in ds) >= 50_000
    assert sum(abs(d.t) > 40.0 for d in ds) >= 30
    assert 0.2 < np.mean([d.null != 0.0 for d in ds]) < 0.4
    for d in ds:
        lo, hi = CauchyPrior(d.scale, d.alternative).support
        assert lo <= d.null <= hi


def _grouped(pairs) -> dict:
    groups: dict = {}
    for key, k in pairs:
        groups.setdefault(key, []).append(k)
    return {key: tuple(ks) for key, ks in groups.items()}


def test_sweep_exits_zero_or_with_the_known_refusals():
    # `reports` lets any error but a named refusal propagate
    assert _grouped((r, k) for k, r in enumerate(reports()) if isinstance(r, str)) == KNOWN_REFUSALS
    failures = _grouped(((name, type(exc).__name__), k)
                        for k, r in enumerate(reports()) if not isinstance(r, str)
                        for name, exc in r.failures.items())
    assert failures == KNOWN_INDEX_FAILURES


def test_sweep_bayes_factors_refuse_only_outside_the_double_range():
    refused = 0
    for d, bfs in zip(designs(), bayes_factors()):
        for alternative, bf in bfs.items():
            if isinstance(bf, str):
                assert bf == "FloatRangeError", (d, alternative)
                log_bf10 = _g_mixture_log_bf10(d.stats(), CauchyPrior(d.scale, alternative))[0]
                assert math.isfinite(log_bf10) and abs(log_bf10) >= LOG_DOUBLE_MAX, (d, alternative)
                refused += 1
    assert refused > 0


def test_sweep_one_sided_reflection_bit_for_bit():
    # `less` at t is `greater` at -t; the sweep draws t of either sign
    for d, bfs in zip(designs(), bayes_factors()):
        assert _bf(d.stats(-d.t), CauchyPrior(d.scale, "less")) == bfs["greater"], d


def test_sweep_one_sided_factors_average_to_the_two_sided_one():
    checked = 0
    for d, bfs in zip(designs(), bayes_factors()):
        if any(isinstance(bf, str) for bf in bfs.values()):
            continue
        log_bf10 = np.logaddexp(-bfs["greater"].log_bf01, -bfs["less"].log_bf01) - math.log(2.0)
        assert log_bf10 == pytest.approx(-bfs["two-sided"].log_bf01, abs=1e-9), d
        checked += 1
    assert checked >= 500


def test_sweep_savage_dickey_matches_the_analytic_bayes_factor():
    checked = 0
    for d, report in zip(designs(), reports()):
        if isinstance(report, str):
            continue
        analytic, sd = report.indices["bf01_analytic"], report.indices["bf01_savage_dickey"]
        if analytic is None or sd is None:
            continue
        assert abs(sd - analytic) <= 0.01 * analytic, d
        checked += 1
    assert checked >= 300
