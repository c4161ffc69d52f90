import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesindices import cli
from bayesindices.cli import main, read_two_group_csv
from bayesindices.errors import BayesIndicesError, InputError


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


# ---------------------------------------------------------------- ingest parity
# The public reader parses plain files in bulk blocks and hands every other
# file to the csv.reader path; on every input both must give bit-identical
# arrays or the same error.

def _outcome(reader, path):
    try:
        data = reader(path)
    except BayesIndicesError as exc:
        return type(exc).__name__, str(exc)
    return data.group1.tobytes(), data.group2.tobytes()


def _bulk_declines(path):
    try:
        return cli._read_blocks(path) is None
    except BayesIndicesError:
        return False  # parsed in bulk, then refused by TwoSampleData


_ROWS = "".join(f"{'xy'[i % 2]},{i * 0.37 - 5!r}\n" for i in range(40))
# 6554 rows of 10 characters just overfill a 64 KiB block
_BLOCK = "".join(f"x,{i:07d}\n" for i in range(6554))

# name: (file bytes, whether the bulk path declines it)
INGEST_CORPUS = {
    "first_appearance_order": (b"group,value\nb,1.0\nb,2.0\na,9.0\nb,3.5\na,8.0\n", False),
    "crlf_and_blank_lines": (b"group,value\r\nx,1.0\r\n\r\nx,2.0\r\ny,3.0\r\ny,4.0\r\n", True),
    "bad_header": (b"grp,val\nx,1\n", True),
    "bad_value": (b"group,value\nx,1.0\nx,oops\ny,2.0\n", True),
    "third_group": (b"group,value\nx,1\ny,2\nz,3\n", True),
    "single_group": (b"group,value\nx,1\nx,2\nx,3\n", True),
    "constant_group": (b"group,value\nx,1\nx,1\nx,1\ny,1\ny,2\ny,3\n", False),
    "empty_file": (b"", True),
    "header_only": (b"group,value\n", True),
    "header_case_and_spaces": (b" Group , VALUE \n" + _ROWS.encode(), False),
    "bom": (b"\xef\xbb\xbfgroup,value\n" + _ROWS.encode(), False),
    "crlf": (("group,value\n" + _ROWS).replace("\n", "\r\n").encode(), True),
    "lone_cr": (("group,value\n" + _ROWS[:36] + "\r" + _ROWS[37:]).encode(), True),
    "trailing_blank_line": (("group,value\n" + _ROWS + "\n").encode(), False),
    "blank_lines": (("group,value\n\n" + _ROWS.replace("\n", "\n\n\n", 5)).encode(), False),
    "whitespace_line": (("group,value\n" + _ROWS + "  \n").encode(), True),
    "no_final_line_end": (("group,value\n" + _ROWS[:-1]).encode(), False),
    "quoted_value": (('group,value\nx,"1.5"\n' + _ROWS).encode(), True),
    "quoted_label": (b'group,value\n"x",1\n"x",2\nx,3\nx,4\n', True),
    "underscore_value": (("group,value\nx,1_000\n" + _ROWS).encode(), False),
    "padded_value": (("group,value\nx, 1.5\n" + _ROWS).encode(), False),
    "nan": (("group,value\nx,nan\n" + _ROWS).encode(), False),
    "inf": (("group,value\ny,inf\n" + _ROWS).encode(), False),
    "overflowing_value": (("group,value\nx,1e400\n" + _ROWS).encode(), False),
    "ragged_rows_that_cancel": (b"group,value\nx,1,x\n1\ny,2\ny,3\nx,5\n", True),
    "padded_label": (b"group,value\nx ,1\nx ,2\nx,3\nx,4\n", True),
    "empty_label": (b"group,value\n,1\n,2\nx,3\nx,4\n", True),
    "nul_in_label": (b"group,value\nx\x00,1\nx\x00,2\ny,3\ny,4\n", True),
    "third_group_after_first_block": (
        ("group,value\n" + _BLOCK + "y,1\n" + _BLOCK + "z,2\n").encode(), True),
    "second_group_in_block_3": (
        ("group,value\n" + _BLOCK * 2 + "x,0.5\ny,1\ny,2\nx,3\n").encode(), False),
    "not_utf8": (("group,value\n" + _ROWS).encode() + b"caf\xe9,1\n", True),
    "overlong_field": (("group,value\n" + _ROWS + "x," + "1" * 131073 + "\n").encode(), True),
}


@pytest.mark.parametrize("name", sorted(INGEST_CORPUS))
def test_ingest_corpus_parity(tmp_path, monkeypatch, capsys, name):
    content, declined = INGEST_CORPUS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(content)
    assert _bulk_declines(path) is declined
    assert _outcome(read_two_group_csv, path) == _outcome(cli._read_two_group_csv_exact, path)
    runs = []
    for reader in (read_two_group_csv, cli._read_two_group_csv_exact):
        monkeypatch.setattr(cli, "read_two_group_csv", reader)
        runs.append((main(["analyze", str(path), "--format", "text"]), capsys.readouterr()))
    assert runs[0] == runs[1]


def test_ragged_rows_that_cancel_exit_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(INGEST_CORPUS["ragged_rows_that_cancel"][0])
    assert main(["analyze", str(path)]) == 2
    assert "line 2: expected 2 columns, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("name, message", [
    ("not_utf8", "not UTF-8 text (byte 0xe9: invalid continuation byte)"),
    ("overlong_field", "line 42: field larger than field limit (131072)"),
])
def test_unreadable_file_exits_2(tmp_path, capsys, name, message):
    path = tmp_path / "d.csv"
    path.write_bytes(INGEST_CORPUS[name][0])
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


_LABEL = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                               exclude_characters=',"'), min_size=1, max_size=6)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(labels=st.lists(_LABEL, min_size=2, max_size=2, unique=True),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                       max_size=300),
       split=st.integers(2, 1000), interleave=st.booleans(),
       block_chars=st.integers(1, 512), data=st.data())
def test_well_formed_files_parse_identically_in_bulk(
        tmp_path_factory, labels, values, split, interleave, block_chars, data):
    n1 = min(split, len(values) - 2)
    rows = [labels[0]] * n1 + [labels[1]] * (len(values) - n1)
    if interleave:
        rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))))]
    path = tmp_path_factory.mktemp("wellformed") / "d.csv"
    path.write_text("group,value\n" + "".join(f"{a},{v!r}\n" for a, v in zip(rows, values)),
                    encoding="utf-8")
    with mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
        assert not _bulk_declines(path)
        assert _outcome(read_two_group_csv, path) == _outcome(cli._read_two_group_csv_exact, path)


# mostly well-formed rows, so that one irregular piece is often the only
# thing that could set the two paths apart; "x,1,y\n2\n" holds as many
# commas as line ends
_PIECES = (["x,1\n", "y,2.5\n", "x,-3e1\n", "y,1_0\n"] * 12
           + ["x,1,y\n2\n", "x,1,y\n", "2\n", "z,1\n", "x", " ", ",", "\n", "\r", '"',
              "nan", "\x00", "\xe9"])


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=40),
       block_chars=st.integers(1, 64))
def test_arbitrary_files_give_the_same_arrays_or_error(tmp_path_factory, pieces, block_chars):
    path = tmp_path_factory.mktemp("arbitrary") / "d.csv"
    path.write_text("group,value\n" + "".join(pieces), encoding="utf-8")
    with mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
        assert _outcome(read_two_group_csv, path) == _outcome(cli._read_two_group_csv_exact, path)


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


def test_analyze_near_constant_groups_exits_0(tmp_path, capsys):
    # three observations per group with sd 1e-5 give t = 184768: the grid's
    # noncentral-t integrands are narrow and far apart, one node row each
    path = str(tmp_path / "d.csv")
    assert main(["simulate", "--seed", "11", "--n", "3", "--sd1", "1e-5", "--sd2", "1e-5",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["t"] == pytest.approx(184768.0, rel=1e-6)
    assert report["errors"] == {}
    assert report["verdicts"]["rope"] == "reject_null"


def test_analyze_variance_overflow_exits_2(tmp_path, capsys):
    import warnings

    path = write(tmp_path / "d.csv",
                 "group,value\nx,1e200\nx,2e200\nx,3e200\ny,1\ny,2\ny,3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: group1 has a variance beyond the double-precision range\n"
    assert caught == []


def test_unknown_config_key_exits_2(tmp_path, sim_csv, capsys):
    cfg = write(tmp_path / "c.json", json.dumps({"pd_threshold": 0.9}))
    assert main(["analyze", sim_csv, "--config", cfg]) == 2
    assert "pd_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("raw, key", [
    ({"rope": [0.1]}, "rope"), ({"rope": "ab"}, "rope"), ({"hpd_mass": "0.9"}, "hpd_mass"),
    ({"prior_scale": "1"}, "prior_scale"), ({"grid_size": 100.5}, "grid_size"),
    ({"thresholds": [1]}, "thresholds"),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, sim_csv, capsys, raw, key):
    cfg = write(tmp_path / "c.json", json.dumps(raw))
    assert main(["analyze", sim_csv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} must be ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def _csv_with_t(path, n, t, seed=0, n2=None):
    # groups of n and n2 (default n) normal draws, group 1 shifted so the
    # pooled t is t
    n2 = n if n2 is None else n2
    rng = np.random.default_rng(seed)
    g1, g2 = rng.standard_normal(n), rng.standard_normal(n2)
    g1 -= g1.mean() - g2.mean()
    sp = np.sqrt(((n - 1) * g1.var(ddof=1) + (n2 - 1) * g2.var(ddof=1)) / (n + n2 - 2))
    g1 += t * sp * np.sqrt(1.0 / n + 1.0 / n2)
    rows = [f"a,{float(v)!r}" for v in g1] + [f"b,{float(v)!r}" for v in g2]
    return write(path, "group,value\n" + "\n".join(rows) + "\n")


def test_analyze_savage_dickey_beyond_double_range_is_a_named_failure(tmp_path, capsys):
    # the Savage-Dickey bf01 is about 3e-312, so 1/bf01 overflows: the index
    # fails on its own and the report, a valid JSON document, exits 0
    path = _csv_with_t(tmp_path / "d.csv", 4488, -43.0, n2=185)
    argv = ["analyze", path, "--prior-scale", "1.36", "--null-value", "-0.119",
            "--rope", "-0.2", "0.0"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["errors"]["savage_dickey"].startswith("FloatRangeError: ")
    assert report["indices"]["bf01_savage_dickey"] is None
    assert report["indices"]["bf10_savage_dickey"] is None
    assert report["indices"]["p_map"] is not None


def test_analyze_grid_size_sets_the_grid_points(sim_csv, capsys):
    for size in ("1024", "3000"):
        assert main(["analyze", sim_csv, "--grid-size", size, "--alternative", "greater"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["grid_points"] == int(size)


@pytest.mark.parametrize("alternative, log_bf01", [
    ("greater", -430.69488474181657),
    ("less", 13.794293939892945),
])
def test_analyze_one_sided_bf_at_t30_with_a_wide_prior(tmp_path, capsys, alternative, log_bf01):
    # n = 1e4 per group, t = 30, scale 300: the likelihood peak is ~1e-6 of
    # the prior's width. log bf01 values from a skew-t g-mixture oracle
    # (tests/test_ttest.py)
    path = _csv_with_t(tmp_path / "d.csv", 10_000, 30.0)
    assert main(["analyze", path, "--alternative", alternative, "--prior-scale", "300"]) == 0
    indices = json.loads(capsys.readouterr().out)["indices"]
    assert np.log(indices["bf01_analytic"]) == pytest.approx(log_bf01, abs=1e-6)
    if alternative == "greater":
        assert indices["bf01_savage_dickey"] == pytest.approx(indices["bf01_analytic"], rel=1e-6)


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


def test_plotdata_computes_each_surprise_curve_once(tmp_path, sim_csv):
    # the FBST indices build both curves; the export reuses them
    from bayesindices import indices
    with mock.patch.object(indices, "surprise_function",
                           wraps=indices.surprise_function) as spy:
        assert main(["plotdata", sim_csv, "--out", str(tmp_path / "plots")]) == 0
    assert [c.args[1].kind for c in spy.call_args_list] == ["flat", "prior"]


def _annotations(out_dir):
    rows = (out_dir / "annotations.csv").read_text().splitlines()[2:]
    return {name: float(value) for name, _, value in (row.split(",") for row in rows)}


@pytest.mark.parametrize("flags", [[], ["--alternative", "greater"],
                                   ["--alternative", "less", "--prior-scale", "0.4"],
                                   ["--null-value", "0.05", "--prior-preset", "wide"]])
def test_plotdata_annotations_equal_the_report(tmp_path, sim_csv, capsys, flags):
    assert main(["analyze", sim_csv, *flags]) == 0
    indices = json.loads(capsys.readouterr().out)["indices"]
    out_dir = tmp_path / "plots"
    assert main(["plotdata", sim_csv, "--out", str(out_dir), *flags]) == 0
    marks = _annotations(out_dir)
    for mark, key in (("map", "map_location"), ("hpd_lower", "hpd_lower"),
                      ("hpd_upper", "hpd_upper"), ("s_star_flat", "s_star_flat"),
                      ("s_star_prior", "s_star_prior")):
        assert marks[mark] == indices[key], mark


@pytest.mark.parametrize("flags", [[], ["--alternative", "greater"]])
def test_plotdata_never_evaluates_the_bayes_factor(tmp_path, capsys, flags):
    # bf10 = exp(814.6) lies outside the double range: the report refuses,
    # the plot export, which shows no Bayes factor, does not
    path = _csv_with_t(tmp_path / "d.csv", 2000, 45.0)
    assert main(["analyze", path, *flags]) == 3
    assert "numeric failure: FloatRangeError" in capsys.readouterr().err
    with mock.patch("bayesindices.report.jzs_bayes_factor",
                    side_effect=AssertionError("Bayes factor evaluated")):
        assert main(["plotdata", path, "--out", str(tmp_path / "plots"), *flags]) == 0
    assert _annotations(tmp_path / "plots")["hpd_lower"] > 0


def test_underflowing_density_at_a_nonzero_null_is_an_index_failure(tmp_path, capsys):
    # the posterior density at the null underflows to 0, so bf10 = 1/bf01
    # fails; the other indices still report
    path = _csv_with_t(tmp_path / "d.csv", 2000, 45.0)
    assert main(["analyze", path, "--null-value", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == {"savage_dickey": "ZeroDivisionError: float division by zero"}
    assert payload["indices"]["bf01_savage_dickey"] is None
    assert payload["indices"]["p_map"] == 0.0


@pytest.mark.parametrize("n, t, flags, err", [
    (200, 4.0, ["--prior-scale", "0.001"],
     "numeric failure: MultimodalHpdError: highest-density region at mass 0.95 splits "
     "into 2 segments; grid HPD assumes a unimodal density\n"),
])
def test_plotdata_refuses_with_the_index_error(tmp_path, capsys, n, t, flags, err):
    path = _csv_with_t(tmp_path / "d.csv", n, t)
    out_dir = tmp_path / "plots"
    assert main(["plotdata", path, "--out", str(out_dir), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""
    # the refusal comes before any file is written
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["analyze", "plotdata"])
@pytest.mark.parametrize("alternative, null, rope", [
    ("less", "0.05", ["-0.05", "0.15"]),
    ("greater", "-0.05", ["-0.15", "0.05"]),
])
def test_null_outside_the_one_sided_half_line_exits_2(tmp_path, capsys, command,
                                                       alternative, null, rope):
    # the half-line prior is zero there: no index at that null is defined
    path = _csv_with_t(tmp_path / "d.csv", 50, 2.0)
    out = tmp_path / "out"
    assert main([command, path, "--alternative", alternative, "--null-value", null,
                 "--rope", *rope, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: null value {null} lies outside the {alternative} "
                            "alternative's half-line\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "DATA", "--seed", "7"],
    ["plotdata", "DATA", "--seed", "7"],
    ["plotdata", "DATA", "--format", "json"],
    ["replicate-paper", "--seed", "7"],
    ["replicate-paper", "--config", "/nonexistent.json"],
    ["simulate", "--config", "/nonexistent.json"],
])
def test_deleted_options_exit_2(tmp_path, sim_csv, capsys, argv):
    argv = [sim_csv if a == "DATA" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_seed_key_exits_2(tmp_path, sim_csv, capsys):
    cfg = write(tmp_path / "c.json", json.dumps({"seed": 7}))
    assert main(["analyze", sim_csv, "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s): seed\n"


def test_report_config_has_no_seed(sim_csv, capsys):
    assert main(["analyze", sim_csv]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)["config"]


def test_consecutive_calls_share_the_parser_not_the_flags(sim_csv, capsys):
    assert cli._parser() is cli._parser()
    runs = []
    for flags in ([], ["--alternative", "greater", "--hpd-mass", "0.9"], []):
        assert main(["analyze", sim_csv, *flags]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[2]
    first, second = (json.loads(out)["config"] for out in runs[:2])
    assert (first["alternative"], first["hpd_mass"]) == ("two-sided", 0.95)
    assert (second["alternative"], second["hpd_mass"]) == ("greater", 0.9)


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
