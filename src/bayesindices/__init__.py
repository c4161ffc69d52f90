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
    InsufficientSamplesError,
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
    SampleSet,
    grid_mean,
    grid_quantile,
    hpd_interval,
    kde_density,
    level_set_mass,
    map_estimate,
    mass_in_interval,
    normalize_grid,
    sample_from_grid,
    silverman_bandwidth,
)
from .ttest import (
    BayesFactor,
    CauchyPrior,
    Hypotheses,
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
    savage_dickey_bf,
    surprise_function,
)
from .report import (
    AnalysisConfig,
    IndexReport,
    Thresholds,
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
    "InsufficientSamplesError", "InvalidArgumentError", "MultimodalHpdError",
    "OutOfSupportError", "TruncatedSupportError",
    # posterior representations and geometry
    "CredibleInterval", "DensityGrid", "MapEstimate", "ReferenceFunction",
    "SampleSet", "grid_mean", "grid_quantile", "hpd_interval", "kde_density",
    "level_set_mass", "map_estimate", "mass_in_interval", "normalize_grid",
    "sample_from_grid", "silverman_bandwidth",
    # two-sample model
    "BayesFactor", "CauchyPrior", "Hypotheses", "SufficientStats",
    "TwoSampleData", "central_t_pdf", "cohen_d", "cohen_d_from_moments",
    "jzs_bayes_factor", "noncentral_t_pdf", "posterior_density_grid",
    "simulate_two_sample", "sufficient_stats",
    # indices
    "ALL_SCALES", "BF01_CUTPOINTS", "DEFAULT_EFFECT_SIZE_ROPE",
    "EvidenceScale", "FbstResult", "GOODMAN1999",
    "HELD_OTT2016", "JEFFREYS1961", "LEE_WAGENMAKERS2013", "Rope",
    "RopeDecision", "categorize_bf", "fbst_evalue", "map_p_value",
    "posterior_median", "probability_of_direction", "rope_decision",
    "rope_mass", "savage_dickey_bf", "surprise_function",
    # report plumbing
    "AnalysisConfig", "IndexReport", "Thresholds", "derive_verdicts",
    "run_all_indices",
    # replication harness
    "ReplicationReport", "calibrate_reference_t", "reference_analysis",
    "run_replication",
]
