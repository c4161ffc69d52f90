"""Built-in reference analysis and its published index values.

The reference design is a two-group comparison with 50 observations per
group and a unit-scale Cauchy prior on the effect size. The original
dataset behind the published numbers is not available here, but under this
model every index is a deterministic function of (t, n1, n2, prior scale),
so the harness root-finds the t statistic that reproduces the published
Bayes factor and checks every other index against its published value.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any

from .errors import ConvergenceError, InvalidArgumentError
from .indices import Rope
from .report import AnalysisConfig, analyze
from .ttest import CauchyPrior, SufficientStats, jzs_bayes_factor

REFERENCE_N = 50
REFERENCE_PRIOR_SCALE = 1.0
REFERENCE_BF01 = 0.6870
REFERENCE_ROPE = Rope(-0.1, 0.1)
REFERENCE_HPD_MASS = 0.95

# published value and tolerance per index, strict profile
REFERENCE_VALUES: dict[str, tuple[float, float]] = {
    "density_at_null": (0.2171, 0.010),
    "savage_dickey_bf01": (0.6821, 0.03),
    "map_location": (0.41, 0.02),
    "p_map": (0.1076, 0.010),
    "pd": (0.9827, 0.005),
    "ev_against_flat": (0.9659, 0.005),
    "ev_against_prior": (0.9743, 0.005),
    "hpd": ((0.03, 0.80), (0.02, 0.02)),
    "rope_mass": (0.0316, 0.005),
}

TOLERANCE_PROFILES = {"strict": 1.0, "loose": 2.0}

# calibration stops once a step moves t by no more than this
_CALIBRATION_T_TOL = 1e-12
_CALIBRATION_MAX_STEPS = 100


def _laplace_start(log_target: float, df: int, n_eff: float, scale: float, y_max: float) -> float:
    """Newton start of `calibrate_reference_t`: the y = log(1 + t^2/df) in
    (0, y_max) at which a Laplace approximation of log bf01 equals
    ``log_target``.

    Around the likelihood peak d = t / sqrt(n_eff), with the standard error
    se^2 = 1/n_eff + d^2/(2 df) of `ttest._effect_location`, the predictive
    density under the alternative is about the likelihood at the peak times
    the prior mass under it, cauchy(d; scale) sqrt(2 pi) se, and the central
    t density over that likelihood is about e^(-(df + 1) y / 2). So

        log bf01 ~ -(df + 1)/2 y - log cauchy(d; scale) - log(sqrt(2 pi) se).

    d and se change slowly with y, so three fixed-point rounds from y = 0
    settle it. Each round is kept within 2% of the bracket from either end,
    so that the start never falls on an end the iteration has not checked.
    """
    y = 0.0
    for _ in range(3):
        d2 = df * math.expm1(y) / n_eff
        log_prior_mass = (0.5 * math.log(2.0 * math.pi * (1.0 / n_eff + d2 / (2.0 * df)))
                          - math.log(math.pi * scale * (1.0 + d2 / (scale * scale))))
        y = -2.0 / (df + 1.0) * (log_target + log_prior_mass)
        y = min(max(y, 0.02 * y_max), 0.98 * y_max)
    return y


def calibrate_reference_t(
    bf01_target: float = REFERENCE_BF01,
    n: int = REFERENCE_N,
    prior_scale: float = REFERENCE_PRIOR_SCALE,
) -> float:
    """t statistic at which the analytic Bayes factor equals the target.

    bf01 is strictly decreasing in |t| for fixed design, so the positive
    root is unique. It is found by a safeguarded Newton iteration in
    y = log(1 + t^2/df), the variable in which the null's log predictive
    density is exactly linear, so log bf01 is nearly linear as well. Each
    Bayes-factor evaluation also returns d log bf01 / dy
    (`BayesFactor.log_bf01_slope`), so a Newton step costs one evaluation.

    The iteration starts from a Laplace approximation of the root
    (`_laplace_start`) inside the bracket for t in [0, 10], and narrows the
    bracket with the sign of every evaluation. A Newton step that would
    leave the bracket, or that is more than half the step before last,
    becomes a bisection. The ends are assumed to bracket the root until a
    step leaves on an end's side: that end is then evaluated, refused when
    its sign is wrong, and iterated from otherwise. The iteration stops
    once a step moves t by no more than `_CALIBRATION_T_TOL`; a bisection
    step counts only once both ends of the bracket have been evaluated. It
    also stops at an evaluation whose log bf01 is within rounding of the
    target's: near t = 0, t = sqrt(df (e^y - 1)) magnifies that rounding
    far beyond the step tolerance, so steps would only jitter.
    """
    prior = CauchyPrior(prior_scale)
    if bf01_target > 0:
        log_target = math.log(bf01_target)
        # log bf01 this near the target is on it to within rounding
        rounding = 4.0 * sys.float_info.epsilon * max(1.0, abs(log_target))
    else:
        # no t reaches a nonpositive target; the bracket check below refuses it
        log_target, rounding = math.inf, 0.0
    df = 2 * n - 2

    def t_of(y: float) -> float:
        return math.sqrt(df * math.expm1(y))

    def objective(y: float) -> tuple[float, float]:
        stats = SufficientStats(t=t_of(y), df=df, n_eff=n / 2, n1=n, n2=n)
        bf = jzs_bayes_factor(stats, prior)
        return bf.log_bf01 - log_target, bf.log_bf01_slope

    lo, hi = 0.0, math.log1p(100.0 / df)
    # bracket ends not evaluated yet
    unchecked = {lo, hi}
    y = _laplace_start(log_target, df, n / 2, prior_scale, hi)
    step = before_last = hi - lo
    for _ in range(_CALIBRATION_MAX_STEPS):
        fy, slope = objective(y)
        if y in unchecked and not (fy > 0 if y == lo else fy < 0):
            raise ConvergenceError(
                f"Bayes-factor target {bf01_target} not bracketed on t in [0, 10]"
            )
        if abs(fy) <= rounding:
            return t_of(y)
        if fy > 0:
            lo = y
        else:
            hi = y
        unchecked.discard(y)
        newton = y - fy / slope if slope else math.nan
        if lo <= newton <= hi and abs(t_of(newton) - t_of(y)) <= _CALIBRATION_T_TOL:
            return t_of(newton)
        if lo < newton < hi and abs(2.0 * fy) <= abs(before_last * slope):
            nxt = newton
        elif newton >= hi and hi in unchecked:
            nxt = hi
        elif newton <= lo and lo in unchecked:
            nxt = lo
        else:
            nxt = 0.5 * (lo + hi)
            # a root between two evaluated ends lies within half the bracket
            if (lo not in unchecked and hi not in unchecked
                    and abs(t_of(nxt) - t_of(y)) <= _CALIBRATION_T_TOL):
                return t_of(nxt)
        before_last, step = step, abs(nxt - y)
        y = nxt
    raise ConvergenceError(
        f"t calibration for target {bf01_target} did not converge in "
        f"{_CALIBRATION_MAX_STEPS} steps"
    )


def reference_analysis() -> dict[str, Any]:
    """Calibrated posterior grid plus every index the reference reports."""
    t_star = calibrate_reference_t()
    stats = SufficientStats(
        t=t_star,
        df=2 * REFERENCE_N - 2,
        n_eff=REFERENCE_N / 2,
        n1=REFERENCE_N,
        n2=REFERENCE_N,
    )
    analysis = analyze(stats, AnalysisConfig(
        prior_scale=REFERENCE_PRIOR_SCALE, rope=REFERENCE_ROPE, hpd_mass=REFERENCE_HPD_MASS,
    ))
    ind = analysis.require(
        "density_at_null", "bf01_savage_dickey", "map_location", "p_map", "pd",
        "ev_against_flat", "ev_against_prior", "hpd_lower", "hpd_upper", "rope_mass",
        "rope_mass_total",
    )
    return {
        "t_star": t_star,
        "bf01_analytic": analysis.bayes_factor().bf01,
        "stats": stats,
        "posterior": analysis.posterior,
        "prior_grid": analysis.prior_grid,
        "density_at_null": ind["density_at_null"],
        "savage_dickey_bf01": ind["bf01_savage_dickey"],
        "map_location": ind["map_location"],
        "p_map": ind["p_map"],
        "pd": ind["pd"],
        "ev_against_flat": ind["ev_against_flat"],
        "ev_against_prior": ind["ev_against_prior"],
        "hpd": (ind["hpd_lower"], ind["hpd_upper"]),
        "rope_mass": ind["rope_mass"],
        "rope_verdict": analysis.block.verdicts["rope"],
        "mass_in_rope_total": ind["rope_mass_total"],
    }


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    expected: Any
    observed: Any
    tolerance: Any
    passed: bool
    delta: Any


@dataclass
class ReplicationReport:
    profile: str
    t_star: float
    bf01_analytic: float
    rows: list[ComparisonRow]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "t_star": self.t_star,
            "bf01_analytic": self.bf01_analytic,
            "all_passed": self.all_passed,
            "comparisons": [
                {
                    "name": r.name,
                    "expected": r.expected,
                    "observed": r.observed,
                    "tolerance": r.tolerance,
                    "delta": r.delta,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    def to_text(self) -> str:
        lines = [
            "reference replication "
            f"(profile {self.profile}, calibrated t = {self.t_star:.6f}, "
            f"bf01 = {self.bf01_analytic:.4f})",
        ]
        for r in self.rows:
            if r.name == "hpd":
                expect = f"[{r.expected[0]:.4g}, {r.expected[1]:.4g}]"
                seen = f"[{r.observed[0]:.4f}, {r.observed[1]:.4f}]"
                delta = f"({r.delta[0]:+.4f}, {r.delta[1]:+.4f})"
            else:
                expect = f"{r.expected:.4g}"
                seen = f"{r.observed:.4f}"
                delta = f"{r.delta:+.4f}"
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"  {status}  {r.name:<20} expected {expect:<20} "
                f"observed {seen:<20} delta {delta}"
            )
        lines.append("result: " + ("all comparisons passed" if self.all_passed
                                   else "one or more comparisons FAILED"))
        return "\n".join(lines) + "\n"


def run_replication(
    profile: str = "strict",
    reference: dict[str, tuple] | None = None,
) -> ReplicationReport:
    """Compare the calibrated analysis with the published reference values.

    ``reference`` overrides the built-in expected-value table (used by the
    harness self-test)."""
    if profile not in TOLERANCE_PROFILES:
        raise InvalidArgumentError(
            f"unknown tolerance profile {profile!r}; choose from {sorted(TOLERANCE_PROFILES)}"
        )
    widen = TOLERANCE_PROFILES[profile]
    table = REFERENCE_VALUES if reference is None else reference
    computed = reference_analysis()
    rows: list[ComparisonRow] = []
    for name, (expected, tol) in table.items():
        observed = computed[name]
        if name == "hpd":
            deltas = tuple(o - e for o, e in zip(observed, expected))
            tols = tuple(t * widen for t in tol)
            passed = all(abs(d) <= t for d, t in zip(deltas, tols))
            rows.append(ComparisonRow(name, expected, observed, tols, passed, deltas))
        else:
            delta = observed - expected
            tolerance = tol * widen
            rows.append(ComparisonRow(name, expected, observed, tolerance,
                                      abs(delta) <= tolerance, delta))
    return ReplicationReport(
        profile=profile,
        t_star=computed["t_star"],
        bf01_analytic=computed["bf01_analytic"],
        rows=rows,
    )
