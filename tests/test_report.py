import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bayesindices import (
    AnalysisConfig,
    CauchyPrior,
    DensityGrid,
    Rope,
    SufficientStats,
    Thresholds,
    analyze,
    derive_verdicts,
    jzs_bayes_factor,
    normalize_grid,
    run_all_indices,
)
from bayesindices.errors import InvalidArgumentError, MultimodalHpdError


def narrow_grid(mu=0.0, sd=1.0):
    x = np.linspace(mu - 8 * sd, mu + 8 * sd, 1501)
    return normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - mu) / sd) ** 2)))


# ---------------------------------------------------------------- config

def test_config_defaults():
    cfg = AnalysisConfig()
    assert cfg.prior.scale == 1.0
    assert cfg.rope.lower == -0.1 and cfg.rope.upper == 0.1
    assert cfg.thresholds.pd == 0.95


def test_config_preset_resolution():
    cfg = AnalysisConfig(prior_preset="medium")
    assert cfg.prior.scale == pytest.approx(math.sqrt(2) / 2)
    cfg = AnalysisConfig(prior_preset="ultrawide")
    assert cfg.prior.scale == pytest.approx(math.sqrt(2))


def test_config_scale_and_preset_exclusive():
    with pytest.raises(InvalidArgumentError):
        AnalysisConfig(prior_scale=0.5, prior_preset="wide")


def test_config_rejects_unknown_key():
    with pytest.raises(InvalidArgumentError, match="bananas"):
        AnalysisConfig.from_dict({"bananas": 1})


def test_config_rejects_unknown_threshold_key():
    with pytest.raises(InvalidArgumentError, match="alpha"):
        AnalysisConfig.from_dict({"thresholds": {"alpha": 0.05}})


def test_config_rope_must_contain_null():
    with pytest.raises(InvalidArgumentError):
        AnalysisConfig(null_value=0.5, rope=Rope(-0.1, 0.1))


def test_config_rejects_unknown_alternative():
    AnalysisConfig(alternative="two-sided")
    with pytest.raises(InvalidArgumentError, match="alternative"):
        AnalysisConfig(alternative="sideways")


def test_config_prior_carries_the_preset_and_the_alternative():
    cfg = AnalysisConfig(prior_preset="medium", alternative="less")
    assert cfg.prior == CauchyPrior.from_preset("medium", "less")
    assert AnalysisConfig(prior_scale=0.3, alternative="greater").prior == CauchyPrior(0.3, "greater")
    assert AnalysisConfig().prior == CauchyPrior(1.0)
    with pytest.raises(InvalidArgumentError, match="unknown prior preset"):
        AnalysisConfig(prior_preset="narrow")


@pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
def test_analysis_reads_one_prior(alternative):
    # the posterior grid, the prior grid and the Bayes factor share one prior
    config = AnalysisConfig(alternative=alternative)
    stats = SufficientStats(t=1.5, df=98, n_eff=25.0, n1=50, n2=50)
    analysis = analyze(stats, config)
    assert analysis.prior.alternative == config.alternative
    assert np.array_equal(analysis.prior_grid.densities,
                          analysis.prior.density(analysis.posterior.points))
    assert analysis.bayes_factor() == jzs_bayes_factor(stats, analysis.prior)


@pytest.mark.parametrize("hpd_mass, label", [
    (0.57, "57% HPD"), (0.29, "29% HPD"), (0.58, "58% HPD"), (0.975, "97.5% HPD"),
    (0.95, "95% HPD"),
])
def test_text_report_labels_the_hpd_mass(hpd_mass, label):
    stats = SufficientStats(t=2.0, df=98, n_eff=25.0, n1=50, n2=50)
    text = analyze(stats, AnalysisConfig(hpd_mass=hpd_mass)).report().to_text()
    assert f"\n{label}: [" in text


def test_config_round_trip():
    cfg = AnalysisConfig(prior_preset="medium", hpd_mass=0.9, alternative="less")
    again = AnalysisConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# ---------------------------------------------------------------- run_all_indices

def test_no_data_case_posterior_equals_prior(normal_grid):
    grid = normalize_grid(normal_grid)
    report = run_all_indices(grid, grid, AnalysisConfig())
    assert report.indices["bf01_savage_dickey"] == pytest.approx(1.0, abs=1e-12)
    assert report.indices["pd"] == pytest.approx(0.5, abs=1e-3)
    assert report.indices["p_map"] == pytest.approx(1.0, abs=1e-9)
    assert report.indices["ev_against_flat"] == pytest.approx(0.0, abs=1e-9)
    assert report.errors == {}


def test_error_aggregation_keeps_going():
    # posterior support excludes the null: null-anchored indices fail,
    # the rest still report
    grid = narrow_grid(mu=5.0, sd=0.5)
    prior = DensityGrid(grid.points, np.full(grid.points.size, 0.05))
    report = run_all_indices(grid, prior, AnalysisConfig())
    assert "savage_dickey" in report.errors
    assert "p_map" in report.errors
    assert "fbst_flat" in report.errors
    assert report.indices["bf01_savage_dickey"] is None
    assert report.indices["p_map"] is None
    assert report.indices["hpd_lower"] is not None
    assert report.indices["pd"] == 1.0
    assert report.verdicts["rope"] == "reject_null"
    assert report.verdicts["p_map_reject"] is None


def test_verdict_coherence(reference):
    thresholds = Thresholds()
    rope = Rope(-0.1, 0.1)
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"],
        AnalysisConfig(rope=rope, thresholds=thresholds),
    )
    rebuilt = derive_verdicts(report.indices, thresholds, rope)
    assert rebuilt == report.verdicts
    # the reference example: undecided ROPE, p_map keeps the null,
    # pd and both e-values reject
    assert report.verdicts["rope"] == "undecided"
    assert report.verdicts["p_map_reject"] is False
    assert report.verdicts["pd_reject"] is True
    assert report.verdicts["ev_against_flat_reject"] is True
    assert report.verdicts["ev_against_prior_reject"] is True


def test_run_all_indices_matches_reference_values(reference):
    report = run_all_indices(reference["posterior"], reference["prior_grid"], AnalysisConfig())
    ind = report.indices
    assert ind["bf01_savage_dickey"] == pytest.approx(reference["savage_dickey_bf01"], rel=1e-12)
    assert ind["p_map"] == pytest.approx(reference["p_map"], rel=1e-12)
    assert ind["pd"] == pytest.approx(reference["pd"], rel=1e-12)
    assert ind["ev_against_flat"] == pytest.approx(reference["ev_against_flat"], rel=1e-12)
    assert ind["ev_against_prior"] == pytest.approx(reference["ev_against_prior"], rel=1e-12)
    assert ind["hpd_lower"] == pytest.approx(reference["hpd"][0], rel=1e-9)
    assert ind["hpd_upper"] == pytest.approx(reference["hpd"][1], rel=1e-9)
    assert ind["rope_mass"] == pytest.approx(reference["rope_mass"], rel=1e-12)
    assert ind["map_location"] == pytest.approx(reference["map_location"], rel=1e-12)


def test_run_all_indices_finds_map_and_median_once(reference, monkeypatch):
    from bayesindices import indices, posterior, report

    calls = {"map_estimate": 0, "grid_quantile": 0}

    def counted(name):
        original = getattr(posterior, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (indices, report):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    run_all_indices(reference["posterior"], reference["prior_grid"], AnalysisConfig())
    assert calls == {"map_estimate": 1, "grid_quantile": 1}


def test_given_map_and_median_give_identical_indices(reference):
    from bayesindices import map_estimate, map_p_value, posterior_median, probability_of_direction

    grid = reference["posterior"]
    for null in (0.0, 0.05, -0.1):
        assert map_p_value(grid, null, map_estimate(grid)) == map_p_value(grid, null)
    assert probability_of_direction(grid, posterior_median(grid)) == probability_of_direction(grid)


def test_report_serializes_to_json(reference):
    report = run_all_indices(reference["posterior"], reference["prior_grid"], AnalysisConfig())
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "data", "indices", "verdicts",
                            "diagnostics", "errors", "versions"}
    assert payload["indices"]["bf_labels"]["HeldOtt2016"]["label"] == "Weak"
    assert payload["versions"]["bayesindices"]


def test_report_text_renders(reference):
    report = run_all_indices(reference["posterior"], reference["prior_grid"], AnalysisConfig())
    text = report.to_text()
    assert "Bayes factor" in text
    assert "ev_against" in text


def test_report_text_uses_the_given_bf10(reference):
    report = run_all_indices(reference["posterior"], reference["prior_grid"], AnalysisConfig())
    report = replace(report, indices=dict(report.indices, bf01_analytic=0.5), analytic_bf10=2.5)
    assert "bf01 = 0.5000 (predictive ratio), bf10 = 2.5000" in report.to_text()
    assert "analytic_bf10" not in report.to_json()


# ---------------------------------------------------------------- analyze

def test_config_block_is_the_config_echo(reference):
    config = AnalysisConfig(prior_preset="medium", rope=Rope(-0.2, 0.3), hpd_mass=0.9)
    report = run_all_indices(reference["posterior"], reference["prior_grid"], config)
    assert report.config == config.echo()


def test_analyze_is_the_index_block_on_its_own_grids(reference):
    analysis = analyze(reference["stats"], AnalysisConfig())
    assert np.array_equal(analysis.posterior.densities, reference["posterior"].densities)
    assert np.array_equal(analysis.prior_grid.densities, reference["prior_grid"].densities)
    block = run_all_indices(analysis.posterior, analysis.prior_grid, analysis.config)
    assert analysis.block.to_dict() == block.to_dict()
    # the analytic Bayes factor is added by the report view only
    assert analysis.block.indices["bf01_analytic"] is None
    report = analysis.report()
    assert report.indices["bf01_analytic"] == reference["bf01_analytic"]
    assert list(report.indices) == list(block.indices)
    assert "bf01_quadrature_rel_error" in report.diagnostics


def test_report_view_skips_the_bayes_factor_for_a_nonzero_null(reference):
    analysis = analyze(reference["stats"], AnalysisConfig(null_value=0.05))
    assert analysis.bayes_factor() is None
    report = analysis.report()
    assert report.indices["bf01_analytic"] is None
    assert report.diagnostics["bf01_quadrature_rel_error"] is None


def test_require_reraises_the_failed_index():
    # n = 200 per group, t = 4, prior scale 1e-3: a prior spike at 0 and a
    # likelihood bump near 0.34 make the 95% HPD region two segments
    stats = SufficientStats(t=4.0, df=398, n_eff=100.0, n1=200, n2=200)
    analysis = analyze(stats, AnalysisConfig(prior_scale=1e-3))
    failure = analysis.failures["rope"]
    assert isinstance(failure, MultimodalHpdError)
    assert analysis.report().errors["rope"] == f"MultimodalHpdError: {failure}"
    with pytest.raises(MultimodalHpdError) as caught:
        analysis.require("map_location", "hpd_upper")
    assert caught.value is failure
    assert analysis.require("pd", "s_star_flat")["pd"] == analysis.block.indices["pd"]
