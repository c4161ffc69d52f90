"""Bayesian posterior indices for two-group effect-size hypothesis testing.

Given two-group data (or a ready posterior density), the package computes
the Bayes factor (analytic and as a density ratio at the null), the
HPD-versus-ROPE decision, the MAP-based p-value, the probability of
direction, and the surprise-based e-value, together with the decision each
index implies under configurable thresholds.
"""

__version__ = "0.1.0"

from .errors import (
    BayesIndicesError,
    ConvergenceError,
    DegenerateDataError,
    DegenerateDensityError,
    FloatRangeError,
    InputError,
    InvalidArgumentError,
    MultimodalHpdError,
    OutOfSupportError,
    TruncatedSupportError,
)
from .posterior import (
    CredibleInterval,
    DensityGrid,
    MapEstimate,
    ReferenceFunction,
    grid_mean,
    grid_quantile,
    hpd_interval,
    level_set_mass,
    map_estimate,
    mass_in_interval,
    normalize_grid,
)
from .ttest import (
    BayesFactor,
    CauchyPrior,
    SufficientStats,
    TwoSampleData,
    central_t_pdf,
    cohen_d,
    cohen_d_from_moments,
    jzs_bayes_factor,
    noncentral_t_pdf,
    posterior_density_grid,
    simulate_two_sample,
    sufficient_stats,
)
from .indices import (
    ALL_SCALES,
    BF01_CUTPOINTS,
    DEFAULT_EFFECT_SIZE_ROPE,
    EvidenceScale,
    FbstResult,
    GOODMAN1999,
    HELD_OTT2016,
    JEFFREYS1961,
    LEE_WAGENMAKERS2013,
    Rope,
    RopeDecision,
    categorize_bf,
    fbst_evalue,
    map_p_value,
    posterior_median,
    probability_of_direction,
    rope_decision,
    rope_mass,
    rope_verdict,
    savage_dickey_bf,
    surprise_function,
)
from .report import (
    Analysis,
    AnalysisConfig,
    IndexReport,
    Thresholds,
    analyze,
    derive_verdicts,
    run_all_indices,
)
from .replicate import (
    ReplicationReport,
    calibrate_reference_t,
    reference_analysis,
    run_replication,
)

__all__ = [
    "__version__",
    # errors
    "BayesIndicesError", "ConvergenceError", "DegenerateDataError",
    "DegenerateDensityError", "FloatRangeError", "InputError",
    "InvalidArgumentError", "MultimodalHpdError", "OutOfSupportError",
    "TruncatedSupportError",
    # the posterior grid and its geometry
    "CredibleInterval", "DensityGrid", "MapEstimate", "ReferenceFunction",
    "grid_mean", "grid_quantile", "hpd_interval", "level_set_mass",
    "map_estimate", "mass_in_interval", "normalize_grid",
    # two-sample model
    "BayesFactor", "CauchyPrior", "SufficientStats",
    "TwoSampleData", "central_t_pdf", "cohen_d", "cohen_d_from_moments",
    "jzs_bayes_factor", "noncentral_t_pdf", "posterior_density_grid",
    "simulate_two_sample", "sufficient_stats",
    # indices
    "ALL_SCALES", "BF01_CUTPOINTS", "DEFAULT_EFFECT_SIZE_ROPE",
    "EvidenceScale", "FbstResult", "GOODMAN1999",
    "HELD_OTT2016", "JEFFREYS1961", "LEE_WAGENMAKERS2013", "Rope",
    "RopeDecision", "categorize_bf", "fbst_evalue", "map_p_value",
    "posterior_median", "probability_of_direction", "rope_decision",
    "rope_mass", "rope_verdict", "savage_dickey_bf", "surprise_function",
    # the analysis pipeline and its report
    "Analysis", "AnalysisConfig", "IndexReport", "Thresholds", "analyze",
    "derive_verdicts", "run_all_indices",
    # replication harness
    "ReplicationReport", "calibrate_reference_t", "reference_analysis",
    "run_replication",
]
