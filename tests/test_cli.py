import json

import numpy as np
import pytest

from bayesindices.cli import main, read_two_group_csv
from bayesindices.errors import InputError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def sim_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["simulate", "--seed", "7", "--out", str(out)]) == 0
    return str(out)


# ---------------------------------------------------------------- ingest

def test_read_csv_first_appearance_order(tmp_path):
    path = write(tmp_path / "d.csv",
                 "group,value\nb,1.0\nb,2.0\na,9.0\nb,3.5\na,8.0\n")
    data = read_two_group_csv(path)
    assert list(data.group1) == [1.0, 2.0, 3.5]
    assert list(data.group2) == [9.0, 8.0]


def test_read_csv_crlf_and_blank_lines(tmp_path):
    path = write(tmp_path / "d.csv",
                 "group,value\r\nx,1.0\r\n\r\nx,2.0\r\ny,3.0\r\ny,4.0\r\n")
    data = read_two_group_csv(path)
    assert data.group1.size == 2 and data.group2.size == 2


def test_read_csv_bad_header(tmp_path):
    path = write(tmp_path / "d.csv", "grp,val\nx,1\n")
    with pytest.raises(InputError, match="header"):
        read_two_group_csv(path)


def test_read_csv_names_bad_line(tmp_path):
    path = write(tmp_path / "d.csv", "group,value\nx,1.0\nx,oops\ny,2.0\n")
    with pytest.raises(InputError, match="line 3"):
        read_two_group_csv(path)


def test_read_csv_third_group_names_line(tmp_path):
    path = write(tmp_path / "d.csv", "group,value\nx,1\ny,2\nz,3\n")
    with pytest.raises(InputError, match="line 4"):
        read_two_group_csv(path)


def test_read_csv_single_group(tmp_path):
    path = write(tmp_path / "d.csv", "group,value\nx,1\nx,2\nx,3\n")
    with pytest.raises(InputError, match="2 groups"):
        read_two_group_csv(path)


# ---------------------------------------------------------------- exit codes

def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_single_group_exits_2(tmp_path):
    path = write(tmp_path / "d.csv", "group,value\nx,1\nx,2\n")
    assert main(["analyze", path]) == 2


def test_analyze_constant_group_exits_3(tmp_path, capsys):
    path = write(tmp_path / "d.csv",
                 "group,value\nx,1\nx,1\nx,1\ny,1\ny,2\ny,3\n")
    assert main(["analyze", path]) == 3
    assert "zero variance" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, sim_csv, capsys):
    cfg = write(tmp_path / "c.json", json.dumps({"pd_threshold": 0.9}))
    assert main(["analyze", sim_csv, "--config", cfg]) == 2
    assert "pd_threshold" in capsys.readouterr().err


def test_config_invalid_json_exits_2(tmp_path, sim_csv):
    cfg = write(tmp_path / "c.json", "{not json")
    assert main(["analyze", sim_csv, "--config", cfg]) == 2


def test_usage_error_exits_2():
    assert main(["analyze"]) == 2  # missing data path


def test_simulate_n1_exits_2(tmp_path):
    assert main(["simulate", "--n", "1", "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------- analyze output

def test_analyze_json_report_structure(sim_csv, capsys):
    assert main(["analyze", sim_csv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["n1"] == 50
    assert payload["data"]["df"] == 98
    indices = payload["indices"]
    assert indices["bf01_analytic"] == pytest.approx(indices["bf01_savage_dickey"], rel=1e-3)
    assert 0.0 <= indices["p_map"] <= 1.0
    assert 0.5 <= indices["pd"] <= 1.0
    assert payload["errors"] == {}
    assert payload["diagnostics"]["bf01_quadrature_rel_error"] < 1e-6
    # every numeric field in the indices block is finite
    for key, value in indices.items():
        if isinstance(value, float):
            assert np.isfinite(value), key


def test_analyze_text_format(sim_csv, capsys):
    assert main(["analyze", sim_csv, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "Bayes factor" in out
    assert "ROPE" in out


def _csv_with_t(path, n, t, seed=0):
    # two groups of n normal draws, group 1 shifted so the pooled t is t
    rng = np.random.default_rng(seed)
    g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
    g1 -= g1.mean() - g2.mean()
    sp = np.sqrt((g1.var(ddof=1) + g2.var(ddof=1)) / 2.0)
    g1 += t * sp * np.sqrt(2.0 / n)
    rows = [f"a,{float(v)!r}" for v in g1] + [f"b,{float(v)!r}" for v in g2]
    return write(path, "group,value\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_bf_beyond_double_range_exits_3(tmp_path, fmt, capsys):
    # log bf10 is about 1290: bf01 underflows and bf10 overflows a double
    path = _csv_with_t(tmp_path / "d.csv", 2000, 60.0)
    assert main(["analyze", path, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert "numeric failure: FloatRangeError" in captured.err
    assert captured.out == ""


def test_analyze_flag_overrides_config_file(tmp_path, sim_csv, capsys):
    cfg = write(tmp_path / "c.json", json.dumps({"prior_scale": 0.5, "hpd_mass": 0.9}))
    assert main(["analyze", sim_csv, "--config", cfg, "--prior-scale", "1.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["prior_scale"] == 1.4
    assert payload["config"]["hpd_mass"] == 0.9


def test_analyze_preset_flag_overrides_file_scale(tmp_path, sim_csv, capsys):
    cfg = write(tmp_path / "c.json", json.dumps({"prior_scale": 0.5}))
    assert main(["analyze", sim_csv, "--config", cfg, "--prior-preset", "ultrawide"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["prior_scale"] == pytest.approx(np.sqrt(2))


def test_analyze_one_sided(sim_csv, capsys):
    assert main(["analyze", sim_csv, "--alternative", "greater"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["support"][0] == 0.0
    assert payload["indices"]["pd"] == 1.0


def test_analyze_negative_rope_flag(sim_csv, capsys):
    assert main(["analyze", sim_csv, "--rope", "-0.2", "0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["rope"] == [-0.2, 0.2]


def test_analyze_null_outside_rope_exits_2(sim_csv, capsys):
    assert main(["analyze", sim_csv, "--null-value", "0.5"]) == 2
    assert "ROPE" in capsys.readouterr().err


def test_plotdata_one_sided(tmp_path, sim_csv):
    out_dir = tmp_path / "plots"
    assert main(["plotdata", sim_csv, "--out", str(out_dir),
                 "--alternative", "greater"]) == 0
    rows = [line.split(",") for line
            in (out_dir / "density.csv").read_text().splitlines()[2:]]
    grid = np.array([float(r[0]) for r in rows])
    prior = np.array([float(r[1]) for r in rows])
    assert grid[0] == 0.0
    # half-line prior carries twice the full-line density
    assert prior[0] == pytest.approx(2 / np.pi, abs=1e-12)


# ---------------------------------------------------------------- determinism

def test_simulate_round_trip_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--seed", "11", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["analyze", str(a), "--out", str(ra)]) == 0
    assert main(["analyze", str(b), "--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()


def test_simulate_output_reingests_cleanly(sim_csv):
    data = read_two_group_csv(sim_csv)
    assert data.group1.size == 50
    assert data.group2.size == 50
    with open(sim_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 101  # header plus one row per observation


# ---------------------------------------------------------------- replicate

def test_replicate_paper_passes_strict(capsys):
    assert main(["replicate-paper", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_replicate_loose_passes_when_strict_does():
    assert main(["replicate-paper", "--profile", "loose"]) == 0


def test_replicate_tampered_reference_fails():
    from bayesindices.replicate import REFERENCE_VALUES, run_replication
    tampered = dict(REFERENCE_VALUES)
    tampered["pd"] = (0.5, 0.005)
    report = run_replication(reference=tampered)
    assert not report.all_passed
    assert sum(not r.passed for r in report.rows) == 1


def test_replicate_tampered_reference_exits_1(monkeypatch, capsys):
    from bayesindices import replicate
    tampered = dict(replicate.REFERENCE_VALUES)
    tampered["p_map"] = (0.9, 0.001)
    monkeypatch.setattr(replicate, "REFERENCE_VALUES", tampered)
    assert main(["replicate-paper", "--format", "text"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_replicate_json_structure(capsys):
    assert main(["replicate-paper"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["comparisons"]) == 9


# ---------------------------------------------------------------- plotdata

def test_plotdata_outputs(tmp_path, sim_csv):
    out_dir = tmp_path / "plots"
    assert main(["plotdata", sim_csv, "--out", str(out_dir), "--grid-size", "4097"]) == 0
    density = (out_dir / "density.csv").read_text().splitlines()
    assert density[0].startswith("#")
    assert density[1] == "grid,prior,posterior,surprise_flat,surprise_prior"
    rows = [line.split(",") for line in density[2:]]
    grid = np.array([float(r[0]) for r in rows])
    prior = np.array([float(r[1]) for r in rows])
    posterior = np.array([float(r[2]) for r in rows])
    # prior column carries the true Cauchy height at the zero grid point
    zero_idx = int(np.argmin(np.abs(grid)))
    assert grid[zero_idx] == 0.0
    assert prior[zero_idx] == pytest.approx(1 / np.pi, abs=1e-12)
    assert np.trapezoid(posterior, grid) == pytest.approx(1.0, abs=1e-6)

    annotations = (out_dir / "annotations.csv").read_text().splitlines()
    assert annotations[0].startswith("#")
    names = {line.split(",")[0] for line in annotations[2:]}
    assert {"null_value", "map", "hpd_lower", "hpd_upper",
            "rope_lower", "rope_upper", "s_star_flat", "s_star_prior"} <= names


def test_plotdata_reference_annotations(tmp_path):
    # a dataset calibrated near the reference example lands the HPD close
    # to the published bounds
    from bayesindices.replicate import reference_analysis
    ref = reference_analysis()
    ann = {
        "hpd_lower": ref["hpd"][0],
        "hpd_upper": ref["hpd"][1],
    }
    assert ann["hpd_lower"] == pytest.approx(0.03, abs=0.02)
    assert ann["hpd_upper"] == pytest.approx(0.80, abs=0.02)
