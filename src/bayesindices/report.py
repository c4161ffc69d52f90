"""Analysis configuration, the one analysis pipeline, and the index report.

`analyze` builds the prior, the posterior and prior grids and the index
block (`run_all_indices`) once; the `analyze` report, the plot export and
the replication check are views of its `Analysis`.

Reports are plain nested dictionaries wrapped in a small dataclass so they
serialize to JSON byte-identically across runs: no wall-clock fields are
written unless explicitly requested by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import __version__
from .errors import BayesIndicesError, FloatRangeError, InvalidArgumentError
from .indices import (
    ALL_SCALES,
    Rope,
    categorize_bf,
    fbst_evalue,
    map_p_value,
    posterior_median,
    probability_of_direction,
    rope_decision,
    rope_mass,
    rope_verdict,
    savage_dickey_bf,
)
from .posterior import MIN_GRID_POINTS, DensityGrid, ReferenceFunction, grid_mean, map_estimate
from .ttest import (
    DEFAULT_GRID_SIZE,
    TWO_SIDED,
    BayesFactor,
    CauchyPrior,
    SufficientStats,
    TwoSampleData,
    cohen_d,
    jzs_bayes_factor,
    posterior_density_grid,
)


@dataclass(frozen=True)
class Thresholds:
    """Decision cutoffs; purely conventional and always overridable."""

    pd: float = 0.95
    p_map: float = 0.05
    ev: float = 0.95

    def __post_init__(self):
        for name in ("pd", "p_map", "ev"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidArgumentError(f"threshold {name} must lie in (0, 1)")


def _is_number(value: Any) -> bool:
    """JSON's true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one analysis run depends on besides the data."""

    prior_scale: float | None = None
    prior_preset: str | None = None
    rope: Rope = field(default_factory=Rope)
    hpd_mass: float = 0.95
    null_value: float = 0.0
    alternative: str = TWO_SIDED
    grid_size: int = DEFAULT_GRID_SIZE
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        if self.prior_scale is not None and self.prior_preset is not None:
            raise InvalidArgumentError("prior_scale and prior_preset are mutually exclusive")
        if self.prior_scale is not None and not self.prior_scale > 0:
            raise InvalidArgumentError("prior_scale must be positive")
        # the prior checks the preset and the alternative
        floor, ceiling = self.prior.support
        if not 0.0 < self.hpd_mass < 1.0:
            raise InvalidArgumentError("hpd_mass must lie in (0, 1)")
        if self.grid_size < MIN_GRID_POINTS:
            raise InvalidArgumentError(f"grid_size must be at least {MIN_GRID_POINTS}")
        if not math.isfinite(self.null_value):
            raise InvalidArgumentError("null_value must be finite")
        if not self.rope.contains(self.null_value):
            raise InvalidArgumentError("ROPE must contain the null value")
        if not floor <= self.null_value <= ceiling:
            raise InvalidArgumentError(
                f"null value {self.null_value:g} lies outside the {self.alternative} "
                "alternative's half-line"
            )

    @property
    def prior(self) -> CauchyPrior:
        """The Cauchy prior of the alternative, with its scale resolved."""
        if self.prior_preset is not None:
            return CauchyPrior.from_preset(self.prior_preset, self.alternative)
        return CauchyPrior(1.0 if self.prior_scale is None else self.prior_scale, self.alternative)

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable form: only one of prior_scale/prior_preset is set."""
        return {
            "prior_scale": None if self.prior_preset is not None else self.prior.scale,
            "prior_preset": self.prior_preset,
            "rope": [self.rope.lower, self.rope.upper],
            "hpd_mass": self.hpd_mass,
            "null_value": self.null_value,
            "alternative": self.alternative,
            "grid_size": self.grid_size,
            "thresholds": {
                "pd": self.thresholds.pd,
                "p_map": self.thresholds.p_map,
                "ev": self.thresholds.ev,
            },
        }

    def echo(self) -> dict[str, Any]:
        """Report form: the prior scale is always resolved to a number."""
        return {**self.to_dict(), "prior_scale": self.prior.scale}

    # each config key: what it holds in JSON, and the test of that
    _KEYS = {
        "prior_scale": ("a number", _is_number),
        "prior_preset": ("a string", lambda v: isinstance(v, str)),
        "rope": ("a pair of numbers",
                 lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
        "hpd_mass": ("a number", _is_number),
        "null_value": ("a number", _is_number),
        "alternative": ("a string", lambda v: isinstance(v, str)),
        "grid_size": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
        "thresholds": ("an object of numbers",
                       lambda v: isinstance(v, dict) and all(map(_is_number, v.values()))),
    }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "AnalysisConfig":
        """The config of a JSON object; a null value keeps the default."""
        unknown = set(raw) - set(cls._KEYS)
        if unknown:
            raise InvalidArgumentError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in raw.items() if v is not None}
        for key, value in kwargs.items():
            kind, holds = cls._KEYS[key]
            if not holds(value):
                raise InvalidArgumentError(f"config key {key!r} must be {kind}")
        if "rope" in kwargs:
            kwargs["rope"] = Rope(*map(float, kwargs["rope"]))
        if "thresholds" in kwargs:
            thr = kwargs["thresholds"]
            extra = set(thr) - {"pd", "p_map", "ev"}
            if extra:
                raise InvalidArgumentError(f"unknown threshold key(s): {', '.join(sorted(extra))}")
            kwargs["thresholds"] = Thresholds(**thr)
        return cls(**kwargs)


def package_versions() -> dict[str, str]:
    return {
        "bayesindices": __version__,
        "numpy": np.__version__,
    }


def derive_verdicts(indices: dict[str, Any], thresholds: Thresholds, rope: Rope) -> dict[str, Any]:
    """Recompute every verdict from raw index values and thresholds.

    Kept as a standalone function so reports can be audited: rebuilding the
    verdict block from the indices block must reproduce it exactly.
    """
    verdicts: dict[str, Any] = {}
    hpd_lower = indices.get("hpd_lower")
    hpd_upper = indices.get("hpd_upper")
    verdicts["rope"] = (None if hpd_lower is None or hpd_upper is None
                        else rope_verdict(hpd_lower, hpd_upper, rope))
    p_map = indices.get("p_map")
    verdicts["p_map_reject"] = None if p_map is None else bool(p_map < thresholds.p_map)
    pd = indices.get("pd")
    verdicts["pd_reject"] = None if pd is None else bool(pd >= thresholds.pd)
    for key in ("ev_against_flat", "ev_against_prior"):
        ev = indices.get(key)
        verdicts[f"{key}_reject"] = None if ev is None else bool(ev >= thresholds.ev)
    return verdicts


@dataclass
class IndexReport:
    """All computed indices, verdicts and provenance for one analysis."""

    config: dict[str, Any]
    indices: dict[str, Any]
    verdicts: dict[str, Any]
    diagnostics: dict[str, Any]
    # the exception each failed index raised, by index name
    failures: dict[str, Exception]
    versions: dict[str, str]
    data: dict[str, Any] | None = None
    # analytic bf10 from the Bayes-factor owner, for the text report only
    analytic_bf10: float | None = None
    # surprise curve of each FBST index that ran, by index name, for the
    # plot export only
    surprise: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @property
    def errors(self) -> dict[str, str]:
        """The failures as messages, the report's ``errors`` block."""
        return {name: f"{type(exc).__name__}: {exc}" for name, exc in self.failures.items()}

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "data": self.data,
            "indices": self.indices,
            "verdicts": self.verdicts,
            "diagnostics": self.diagnostics,
            "errors": self.errors,
            "versions": self.versions,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    def to_text(self) -> str:
        ind = self.indices
        lines = ["Bayesian posterior index report", "=" * 32]
        if self.data:
            d = self.data
            lines.append(
                f"data: n1={d['n1']} n2={d['n2']}  "
                f"mean1={d['mean1']:.4g} sd1={d['sd1']:.4g}  "
                f"mean2={d['mean2']:.4g} sd2={d['sd2']:.4g}"
            )
            lines.append(
                f"      t={d['t']:.4f} df={d['df']} n_eff={d['n_eff']:.4g} "
                f"cohen_d={d['cohen_d']:.4f}"
            )
        cfg = self.config
        scale = cfg.get("prior_scale")
        scale_txt = f"{scale:.6g}" if scale is not None else "n/a"
        lines.append(
            f"model: Cauchy prior scale {scale_txt}, "
            f"null at {cfg['null_value']:g}, {cfg['alternative']} alternative"
        )
        lines.append("")

        def fmt(key: str, digits: int = 4) -> str:
            v = ind.get(key)
            return "n/a" if v is None else f"{v:.{digits}f}"

        lines.append(f"posterior: mean {fmt('mean')}  median {fmt('median')}  "
                     f"MAP {fmt('map_location')}")
        lines.append(f"{100 * cfg['hpd_mass']:g}% HPD: "
                     f"[{fmt('hpd_lower')}, {fmt('hpd_upper')}]")
        lines.append("")
        lines.append("Bayes factor - how strongly should the data shift beliefs "
                     "between the hypotheses?")
        bf_a = ind.get("bf01_analytic")
        if bf_a is not None:
            bf10 = self.analytic_bf10 if self.analytic_bf10 is not None else 1 / bf_a
            lines.append(f"  bf01 = {bf_a:.4f} (predictive ratio), bf10 = {bf10:.4f}")
        lines.append(f"  bf01 = {fmt('bf01_savage_dickey')} (density ratio at the null)")
        for scale_name, cat in (ind.get("bf_labels") or {}).items():
            lines.append(f"    {scale_name}: {cat['label']} ({cat['direction']})")
        lines.append("ROPE - is the effect practically equivalent to the null?")
        lines.append(f"  verdict: {self.verdicts.get('rope')}   "
                     f"mass in ROPE: {fmt('rope_mass_total')}   "
                     f"share of HPD mass in ROPE: {fmt('rope_mass')}")
        lines.append("MAP-based p-value - how plausible is the null next to the "
                     "posterior mode?")
        lines.append(f"  p_map = {fmt('p_map')}  (reject below "
                     f"{cfg['thresholds']['p_map']:g}: {self.verdicts.get('p_map_reject')})")
        lines.append("Probability of direction - how certain is the sign of the effect?")
        lines.append(f"  pd = {fmt('pd')}  (reject at or above "
                     f"{cfg['thresholds']['pd']:g}: {self.verdicts.get('pd_reject')})")
        lines.append("Surprise-based e-value - how much evidence lies against the "
                     "point null?")
        lines.append(f"  ev_against (flat reference)  = {fmt('ev_against_flat')}  "
                     f"(reject at or above {cfg['thresholds']['ev']:g}: "
                     f"{self.verdicts.get('ev_against_flat_reject')})")
        lines.append(f"  ev_against (prior reference) = {fmt('ev_against_prior')}  "
                     f"(reject at or above {cfg['thresholds']['ev']:g}: "
                     f"{self.verdicts.get('ev_against_prior_reject')})")
        if self.errors:
            lines.append("")
            lines.append("per-index failures:")
            for name, msg in self.errors.items():
                lines.append(f"  {name}: {msg}")
        return "\n".join(lines) + "\n"


# the index-block keys each trapped index fills, by index name
_INDEX_KEYS = {
    "savage_dickey": ("bf01_savage_dickey", "bf10_savage_dickey", "bf_labels"),
    "rope": ("hpd_lower", "hpd_upper", "rope_mass_total", "rope_mass"),
    "p_map": ("p_map",),
    "fbst_flat": ("ev_against_flat", "ev_for_flat", "s_star_flat"),
    "fbst_prior": ("ev_against_prior", "ev_for_prior", "s_star_prior"),
}


def run_all_indices(
    posterior: DensityGrid, prior: DensityGrid, config: AnalysisConfig
) -> IndexReport:
    """Compute every index on a shared posterior/prior pair.

    Individual index failures are trapped and kept under ``failures`` while
    the remaining indices still run; the corresponding index fields are left
    as None. ``bf01_analytic`` is None too: the analytic Bayes factor is not
    read off the grids (`Analysis.report` adds it).
    """
    null = config.null_value
    indices: dict[str, Any] = {"bf01_analytic": None}
    failures: dict[str, Exception] = {}
    surprise: dict[str, np.ndarray] = {}

    def attempt(name: str, fn) -> None:
        try:
            values = fn()
        except (BayesIndicesError, ZeroDivisionError) as exc:
            failures[name] = exc
            values = (None,) * len(_INDEX_KEYS[name])
        indices.update(zip(_INDEX_KEYS[name], values))

    def savage_dickey():
        bf01 = savage_dickey_bf(posterior, prior, null)
        bf10 = 1.0 / bf01
        if math.isinf(bf10):
            raise FloatRangeError(
                f"Savage-Dickey bf10 = 1/{bf01:.3g} is outside the double-precision range"
            )
        labels = {
            scale.name: {"label": cat.label, "direction": cat.direction}
            for scale in ALL_SCALES
            for cat in (categorize_bf(bf01, scale),)
        }
        return bf01, bf10, labels

    def rope():
        decision = rope_decision(posterior, config.rope, config.hpd_mass)
        return (decision.hpd.lower, decision.hpd.upper, decision.mass_in_rope,
                rope_mass(posterior, config.rope, hpd=decision.hpd))

    def fbst(name: str, reference: ReferenceFunction):
        result = fbst_evalue(posterior, reference, null)
        surprise[name] = result.surprise
        return result.ev_against, result.ev_for, result.s_star

    attempt("savage_dickey", savage_dickey)
    attempt("rope", rope)
    peak = map_estimate(posterior)
    indices["map_location"] = peak.location
    indices["map_density"] = peak.density
    attempt("p_map", lambda: (map_p_value(posterior, null, peak),))

    median = posterior_median(posterior)
    indices["pd"] = probability_of_direction(posterior, median)
    indices["median"] = median
    indices["mean"] = grid_mean(posterior)
    indices["density_at_null"] = (
        float(posterior.density_at(null))
        if posterior.support[0] <= null <= posterior.support[1]
        else None
    )
    attempt("fbst_flat", lambda: fbst("fbst_flat", ReferenceFunction.flat()))
    attempt("fbst_prior", lambda: fbst("fbst_prior", ReferenceFunction.from_prior(prior)))

    diagnostics: dict[str, Any] = {
        "map_at_boundary": peak.at_boundary,
        "degenerate_direction": median == 0.0,
        "posterior_edge_density_ratio": float(
            max(posterior.densities[0], posterior.densities[-1]) / posterior.densities.max()
        ),
        "grid_points": int(posterior.points.size),
        "support": [posterior.support[0], posterior.support[1]],
    }
    return IndexReport(
        config=config.echo(),
        indices=indices,
        verdicts=derive_verdicts(indices, config.thresholds, config.rope),
        diagnostics=diagnostics,
        failures=failures,
        versions=package_versions(),
        surprise=surprise,
    )


def _data_digest(data: TwoSampleData, stats: SufficientStats) -> dict[str, Any]:
    (mean1, var1), (mean2, var2) = data.moments
    return {
        "n1": int(data.group1.size),
        "n2": int(data.group2.size),
        "mean1": float(mean1),
        "sd1": math.sqrt(var1),
        "mean2": float(mean2),
        "sd2": math.sqrt(var2),
        "t": stats.t,
        "df": stats.df,
        "n_eff": stats.n_eff,
        "cohen_d": cohen_d(data),
    }


@dataclass(frozen=True)
class Analysis:
    """One analysis: the prior, the posterior and prior grids, and the index
    block (`run_all_indices`) read off them."""

    config: AnalysisConfig
    stats: SufficientStats
    prior: CauchyPrior
    posterior: DensityGrid
    prior_grid: DensityGrid
    block: IndexReport

    @property
    def failures(self) -> dict[str, Exception]:
        """The exception each failed index raised, by index name."""
        return self.block.failures

    def require(self, *keys: str) -> dict[str, Any]:
        """The named index-block values. A value whose index failed
        re-raises that index's own exception instead."""
        for name, exc in self.failures.items():
            if not set(keys).isdisjoint(_INDEX_KEYS[name]):
                raise exc
        return {key: self.block.indices[key] for key in keys}

    @property
    def surprise(self) -> dict[str, np.ndarray]:
        """The surprise curve on the posterior grid of each FBST index that
        ran (``fbst_flat``, ``fbst_prior``), as the index block computed it.
        No report writes it; the plot export does."""
        return self.block.surprise

    def bayes_factor(self) -> BayesFactor | None:
        """The analytic Bayes factor, which tests the zero null only."""
        if self.config.null_value != 0.0:
            return None
        return jzs_bayes_factor(self.stats, self.prior)

    def report(self, data: TwoSampleData | None = None) -> IndexReport:
        """The `analyze` report: the index block plus the analytic Bayes
        factor and, given the data behind ``stats``, their digest."""
        bf = self.bayes_factor()
        return replace(
            self.block,
            indices=dict(self.block.indices, bf01_analytic=None if bf is None else bf.bf01),
            diagnostics=dict(self.block.diagnostics,
                             bf01_quadrature_rel_error=None if bf is None else bf.rel_error),
            data=None if data is None else _data_digest(data, self.stats),
            analytic_bf10=None if bf is None else bf.bf10,
        )


def analyze(stats: SufficientStats, config: AnalysisConfig) -> Analysis:
    """Build the prior and the posterior and prior grids for ``stats`` and
    run the index block on them."""
    prior = config.prior
    posterior = posterior_density_grid(
        stats, prior, grid_size=config.grid_size,
        anchors=(config.null_value, config.rope.lower, config.rope.upper),
    )
    prior_grid = prior.on_grid(posterior.points)
    return Analysis(config, stats, prior, posterior, prior_grid,
                    run_all_indices(posterior, prior_grid, config))
