"""Output checks applied to every timed operation.

A check returns ``(status, detail)``. ``status`` is one of

- ``"ok"``: the output passed every check;
- ``"refused"``: the program failed loudly (nonzero exit, an exception,
  or a report whose ``errors`` block names failed indices);
- ``"wrong"``: the program claimed success but its output failed a check.

Both ``refused`` and ``wrong`` count as failed operations; only ``wrong``
makes a run incorrect, since it is an answer that should not be trusted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# index keys every successful analyze report must carry as finite numbers
INDEX_KEYS = (
    "bf01_savage_dickey", "bf10_savage_dickey", "hpd_lower", "hpd_upper",
    "rope_mass_total", "rope_mass", "map_location", "map_density", "p_map",
    "pd", "median", "mean", "density_at_null", "ev_against_flat",
    "ev_for_flat", "s_star_flat", "ev_against_prior", "ev_for_prior",
    "s_star_prior",
)
UNIT_INTERVAL_KEYS = ("ev_against_flat", "ev_for_flat", "ev_against_prior", "ev_for_prior")

BF_XCHECK_REL = 0.01
CALIBRATION_REL = 1e-6


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_analyze(code: int | None, stdout: str) -> tuple[str, str]:
    if code != 0:
        return "refused", f"exit {code}"
    try:
        report = json.loads(stdout)
        indices = report["indices"]
        errors = report["errors"]
        null_value = report["config"]["null_value"]
    except (ValueError, KeyError, TypeError) as exc:
        return "wrong", f"unreadable report: {exc}"
    if errors:
        return "refused", "errors block: " + ", ".join(sorted(errors))
    keys = INDEX_KEYS + (("bf01_analytic",) if null_value == 0.0 else ())
    for key in keys:
        if not _finite(indices.get(key)):
            return "wrong", f"{key} = {indices.get(key)!r}"
    if not 0.5 <= indices["pd"] <= 1.0:
        return "wrong", f"pd = {indices['pd']!r} outside [0.5, 1]"
    for key in UNIT_INTERVAL_KEYS:
        if not 0.0 <= indices[key] <= 1.0:
            return "wrong", f"{key} = {indices[key]!r} outside [0, 1]"
    if not indices["hpd_lower"] <= indices["hpd_upper"]:
        return "wrong", "hpd_lower > hpd_upper"
    return "ok", ""


def bf_xcheck(stdout: str) -> bool | None:
    """True when the report's Savage-Dickey and analytic bf01 differ by
    more than 1%; None when the report carries no analytic bf01."""
    try:
        indices = json.loads(stdout)["indices"]
    except (ValueError, KeyError, TypeError):
        return None
    analytic = indices.get("bf01_analytic")
    sd = indices.get("bf01_savage_dickey")
    if not (_finite(analytic) and analytic > 0 and _finite(sd)):
        return None
    return abs(sd - analytic) / analytic > BF_XCHECK_REL


def check_plotdata(code: int | None, out_dir: Path) -> tuple[str, str]:
    if code != 0:
        return "refused", f"exit {code}"
    try:
        density = (out_dir / "density.csv").read_text(encoding="utf-8").splitlines()
        notes = (out_dir / "annotations.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return "wrong", f"missing plot file: {exc}"
    if density[1] != "grid,prior,posterior,surprise_flat,surprise_prior" or len(density) < 66:
        return "wrong", "density.csv header or length"
    for row in density[2:]:
        values = [float(v) for v in row.split(",")]
        if len(values) != 5 or not all(map(math.isfinite, values)) or min(values[1:3]) < 0:
            return "wrong", f"density row {row!r}"
    marks = dict(line.split(",", 2)[0::2] for line in notes[2:])
    if not float(marks["hpd_lower"]) <= float(marks["hpd_upper"]):
        return "wrong", "hpd_lower > hpd_upper"
    return "ok", ""


def check_replicate(code: int | None, stdout: str) -> tuple[str, str]:
    # the CLI prints the report and exits 1 when a reference value is
    # missed; that is a wrong replication, not a refusal
    try:
        passed = json.loads(stdout)["all_passed"]
    except (ValueError, KeyError, TypeError) as exc:
        if code != 0:
            return "refused", f"exit {code}"
        return "wrong", f"unreadable replication report: {exc}"
    if passed is not True:
        return "wrong", "all_passed is not true"
    if code != 0:
        return "refused", f"exit {code}"
    return "ok", ""


def check_calibrate(t: float | None) -> tuple[str, str]:
    if t is None:
        return "refused", "raised"
    if not (_finite(t) and 0.0 <= t <= 10.0):
        return "wrong", f"t = {t!r}"
    return "ok", ""


def calibration_mismatch(bf01: float, target: float) -> bool:
    return not abs(bf01 - target) <= CALIBRATION_REL * target
