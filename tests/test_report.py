import json
import math

import numpy as np
import pytest

from bayesindices import (
    AnalysisConfig,
    DensityGrid,
    Hypotheses,
    Rope,
    Thresholds,
    derive_verdicts,
    normalize_grid,
    run_all_indices,
)
from bayesindices.errors import InvalidArgumentError


def narrow_grid(mu=0.0, sd=1.0):
    x = np.linspace(mu - 8 * sd, mu + 8 * sd, 1501)
    return normalize_grid(DensityGrid(x, np.exp(-0.5 * ((x - mu) / sd) ** 2)))


# ---------------------------------------------------------------- config

def test_config_defaults():
    cfg = AnalysisConfig()
    assert cfg.scale == 1.0
    assert cfg.rope.lower == -0.1 and cfg.rope.upper == 0.1
    assert cfg.thresholds.pd == 0.95


def test_config_preset_resolution():
    cfg = AnalysisConfig(prior_preset="medium")
    assert cfg.scale == pytest.approx(math.sqrt(2) / 2)
    cfg = AnalysisConfig(prior_preset="ultrawide")
    assert cfg.scale == pytest.approx(math.sqrt(2))


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


def test_config_round_trip():
    cfg = AnalysisConfig(prior_preset="medium", hpd_mass=0.9, seed=4)
    again = AnalysisConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# ---------------------------------------------------------------- run_all_indices

def test_no_data_case_posterior_equals_prior(normal_grid):
    grid = normalize_grid(normal_grid)
    report = run_all_indices(grid, grid, Hypotheses(0.0), Rope(-0.1, 0.1))
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
    report = run_all_indices(grid, prior, Hypotheses(0.0), Rope(-0.1, 0.1))
    assert "savage_dickey" in report.errors
    assert "p_map" in report.errors
    assert "fbst_flat" in report.errors
    assert report.indices["bf01_savage_dickey"] is None
    assert report.indices["p_map"] is None
    assert report.indices["hpd_lower"] is not None
    assert report.indices["pd"] == 1.0
    assert report.verdicts["rope"] == "reject_null"
    assert report.verdicts["p_map_reject"] is None


def test_rope_must_contain_null_value(normal_grid):
    grid = normalize_grid(normal_grid)
    with pytest.raises(InvalidArgumentError):
        run_all_indices(grid, grid, Hypotheses(0.7), Rope(-0.1, 0.1))


def test_verdict_coherence(reference):
    thresholds = Thresholds()
    rope = Rope(-0.1, 0.1)
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"], Hypotheses(0.0), rope,
        thresholds=thresholds, analytic_bf01=reference["bf01_analytic"],
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
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"], Hypotheses(0.0), Rope(-0.1, 0.1),
        analytic_bf01=reference["bf01_analytic"],
    )
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
    run_all_indices(reference["posterior"], reference["prior_grid"], Hypotheses(0.0), Rope())
    assert calls == {"map_estimate": 1, "grid_quantile": 1}


def test_given_map_and_median_give_identical_indices(reference):
    from bayesindices import map_estimate, map_p_value, posterior_median, probability_of_direction

    grid = reference["posterior"]
    for null in (0.0, 0.05, -0.1):
        assert map_p_value(grid, null, map_estimate(grid)) == map_p_value(grid, null)
    assert probability_of_direction(grid, posterior_median(grid)) == probability_of_direction(grid)


def test_report_serializes_to_json(reference):
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"], Hypotheses(0.0), Rope(-0.1, 0.1)
    )
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "data", "indices", "verdicts",
                            "diagnostics", "errors", "versions"}
    assert payload["indices"]["bf_labels"]["HeldOtt2016"]["label"] == "Weak"
    assert payload["versions"]["bayesindices"]


def test_report_text_renders(reference):
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"], Hypotheses(0.0), Rope(-0.1, 0.1)
    )
    text = report.to_text()
    assert "Bayes factor" in text
    assert "ev_against" in text


def test_report_text_uses_the_given_bf10(reference):
    report = run_all_indices(
        reference["posterior"], reference["prior_grid"], Hypotheses(0.0), Rope(-0.1, 0.1),
        analytic_bf01=0.5, analytic_bf10=2.5,
    )
    assert "bf01 = 0.5000 (predictive ratio), bf10 = 2.5000" in report.to_text()
    assert "analytic_bf10" not in report.to_json()
