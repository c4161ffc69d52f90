"""Seeded inputs for the three workloads.

Everything the program receives is generated here from the workload seed:
two-group CSV files written into the run's work directory and the argument
lists of the operations. The same seed gives byte-identical files and the
same operation list. Nothing here imports the package under test.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-cold", "design-sweep", "calibrate")

# CSV pool: POOL_SIZE designs whose total row counts sit on a log grid from
# 6 to 2e5 rows (3 to 1e5 per group). Total rows set the ingestion cost and
# the slowest operations, so they are fixed; the group split, the sign of
# the effect, spreads and values are drawn per seed. The largest design is
# always 1e5 per group, the top of the range the package claims.
POOL_SIZE = 16
MIN_PER_GROUP = 3
MAX_PER_GROUP = 100_000
# Each design's data are shifted so that its pooled two-sample t is drawn
# exactly from the |t| range of its effect class; the analysis depends on
# the data only through t, the group sizes and the digest, so a design's
# outcome does not hang on sampling noise. The classes cycle down the size
# grid from the largest design: large, none, small.
EFFECTS = ("large", "none", "small")
T_RANGES = {"none": (0.0, 1.0), "small": (1.0, 2.5), "large": (2.5, 15.0)}
# The timed workloads stay inside the designs the package handles; the
# designs it fails on are run by the defect probe instead (``defect_ops``).
# The analytic and Savage-Dickey bf01 underflow once t lies ~30 from the
# null in t units at 1e5 per group, hence the large class's cap of 15.
# Below this effective n (n1 n2 / (n1 + n2)) a large effect is drawn from
# the small class, and a large effect's prior scale is at least
# LARGE_T_MIN_WIDTH / sqrt(n_eff): at |t| >= 3 with a prior narrower than
# ~0.36 / sqrt(n_eff) the posterior turns bimodal and the HPD search raises
# MultimodalHpdError (errors block: rope).
LARGE_T_MIN_N_EFF = 40.0
LARGE_T_MIN_WIDTH = 1.0
# Nonzero nulls lie within +-min(NULL_MAX, NULL_T / sqrt(n_eff)): within
# NULL_T of 0 in t units (the underflow above), and near enough to 0 that
# the ROPE (null +- 0.1) holds 0, since a prior scale near 1e-3 puts no
# posterior mass in a ROPE that misses 0.
NULL_T = 5.0
NULL_MAX = 0.08
# All prior scales are capped at SCALE_CAP / sqrt(n_eff): the analytic bf01
# overflows to inf from about 2.7e4 / sqrt(n_eff) (scale 122 at 1e5 per
# group, 1000 at 1.1e3 per group).
SCALE_CAP = 7000.0

PRESETS = ("medium", "wide", "ultrawide")

# calibrate: n per group on [5, 1e4], prior scale on [0.1, 10] and target
# bf01 on [CAL_TARGET_LO, CAL_TARGET_HI], each cut into CAL_LEVELS equal
# log strata; every cell of the 3-way grid is one operation, log-uniform
# within its cell. Cost grows with n and scale together, so a full grid
# keeps each seed's mix alike. bf01(t=0) is smallest (1.129) and bf01(t=10)
# largest (0.0054) at n=5, scale 0.1, so this target range brackets the
# root on [0, 10] for every design; a wider one makes calibrate_reference_t
# refuse by design.
CAL_LEVELS = 5
CAL_N = (5, 10_000)
CAL_SCALE = (0.1, 10.0)
CAL_TARGET_LO = 0.006
CAL_TARGET_HI = 1.1


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), WORKLOADS.index(workload)])


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _group_sizes(rng: np.random.Generator) -> list[tuple[int, int]]:
    sizes = []
    totals = np.geomspace(2 * MIN_PER_GROUP, 2 * MAX_PER_GROUP, POOL_SIZE)
    for k, total in enumerate(totals):
        if k == POOL_SIZE - 1:
            sizes.append((MAX_PER_GROUP, MAX_PER_GROUP))
            continue
        total = int(round(total))
        n1 = int(round(total * rng.uniform(0.3, 0.7)))
        n1 = min(max(n1, MIN_PER_GROUP), total - MIN_PER_GROUP, MAX_PER_GROUP)
        sizes.append((n1, total - n1))
    return sizes


def _n_eff(n1: int, n2: int) -> float:
    return n1 * n2 / (n1 + n2)


def _csv_path(out_dir: Path, k: int) -> Path:
    return out_dir / f"design{k:02d}.csv"


def write_design(rng: np.random.Generator, path: Path, n1: int, n2: int, t: float) -> None:
    """Write a two-group CSV whose pooled two-sample t statistic is ``t``."""
    sd1 = _log_uniform(rng, 0.5, 2.0)
    sd2 = _log_uniform(rng, 0.5, 2.0)
    g1 = rng.normal(0.0, sd1, size=n1)
    g2 = rng.normal(float(rng.normal(0.0, 5.0)), sd2, size=n2)
    sp2 = ((n1 - 1) * g1.var(ddof=1) + (n2 - 1) * g2.var(ddof=1)) / (n1 + n2 - 2)
    g1 += g2.mean() - g1.mean() + t * math.sqrt(sp2 / _n_eff(n1, n2))
    labels = ("control", "treatment") if rng.random() < 0.5 else ("treatment", "control")
    lines = ["group,value"]
    lines.extend(f"{labels[0]},{float(v)!r}" for v in g1)
    lines.extend(f"{labels[1]},{float(v)!r}" for v in g2)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pool(rng: np.random.Generator, out_dir: Path) -> list[tuple[str, float, float]]:
    """Write the CSV pool; return (file path, effective n, |t|) per design."""
    out_dir.mkdir(parents=True, exist_ok=False)
    pool = []
    for k, (n1, n2) in enumerate(_group_sizes(rng)):
        n_eff = _n_eff(n1, n2)
        effect = EFFECTS[(POOL_SIZE - 1 - k) % len(EFFECTS)]
        if effect == "large" and n_eff < LARGE_T_MIN_N_EFF:
            effect = "small"
        lo, hi = T_RANGES[effect]
        size = rng.uniform(lo, hi) if lo == 0.0 else _log_uniform(rng, lo, hi)
        path = _csv_path(out_dir, k)
        write_design(rng, path, n1, n2, float(rng.choice((-1, 1)) * size))
        pool.append((str(path), n_eff, size))
    return pool


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws on [0, 1), one in each of ``count`` equal strata, in
    random order. Pairing such columns gives a Latin hypercube, so a run's
    mix of designs barely changes from seed to seed."""
    return (rng.permutation(count) + rng.random(count)) / count


def _shares(rng: np.random.Generator, count: int, weights: dict[str, float]) -> list[str]:
    """``count`` labels in fixed proportions (largest remainder), shuffled."""
    exact = {k: count * w / sum(weights.values()) for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[:count - sum(counts.values())]:
        counts[k] += 1
    labels = [k for k, c in counts.items() for _ in range(c)]
    return [labels[i] for i in rng.permutation(count)]


def _flag_sets(rng: np.random.Generator, prior_kinds: list[str],
               pool: list[tuple[str, float, float]]) -> list[list[str]]:
    """Analysis flags, one set per entry of ``prior_kinds`` (preset,
    moderate or extreme prior scale) for the design of the same index in
    ``pool``, with alternatives and nonzero nulls in fixed proportions.
    Scales are log-uniform over the kind's range, narrowed to what the
    design allows (see SCALE_CAP and LARGE_T_MIN_WIDTH)."""
    count = len(prior_kinds)
    presets = iter(_shares(rng, prior_kinds.count("preset"), {p: 1 for p in PRESETS}))
    scales = {kind: (iter(_stratified(rng, prior_kinds.count(kind))), lo, hi)
              for kind, (lo, hi) in (("moderate", (0.2, 5.0)), ("extreme", (1e-3, 1e3)))}
    tests = _shares(rng, count, {"two-sided": 0.45, "null": 0.15, "greater": 0.2, "less": 0.2})
    out = []
    for k, kind in enumerate(prior_kinds):
        _, n_eff, size = pool[k]
        if kind == "preset":
            flags = ["--prior-preset", next(presets)]
        else:
            units, lo, hi = scales[kind]
            hi = min(hi, SCALE_CAP / math.sqrt(n_eff))
            if size > T_RANGES["small"][1]:
                lo = max(lo, LARGE_T_MIN_WIDTH / math.sqrt(n_eff))
            scale = math.exp(math.log(lo) + next(units) * math.log(hi / lo))
            flags = ["--prior-scale", f"{scale:.6g}"]
        if tests[k] in ("greater", "less"):
            flags += ["--alternative", tests[k]]
        elif tests[k] == "null":
            bound = min(NULL_MAX, NULL_T / math.sqrt(n_eff))
            null = round(float(rng.uniform(-bound, bound)), 3)
            flags += ["--null-value", repr(null),
                      "--rope", repr(round(null - 0.1, 3)), repr(round(null + 0.1, 3))]
        out.append(flags)
    return out


def build_ops(workload: str, seed: int, work_dir: Path) -> list[dict]:
    """The seeded rotation of operations for one workload.

    Each operation is a dict with ``kind`` and its arguments; a run repeats
    the rotation whole, so every operation runs equally often.
    """
    rng = _rng(seed, workload)
    if workload == "calibrate":
        ranges = (CAL_N, CAL_SCALE, (CAL_TARGET_LO, CAL_TARGET_HI))
        ops = []
        for cell in itertools.product(range(CAL_LEVELS), repeat=3):
            n, scale, target = (
                math.exp(math.log(lo) + (c + rng.random()) / CAL_LEVELS * math.log(hi / lo))
                for c, (lo, hi) in zip(cell, ranges))
            ops.append({"kind": "calibrate", "target": target, "n": int(round(n)),
                        "scale": scale})
        return [ops[i] for i in rng.permutation(len(ops))]
    pool = write_pool(rng, work_dir / "csv")
    if workload == "design-sweep":
        # every CSV once under each kind of prior
        kinds = ["preset", "moderate", "extreme"]
        jobs = [(design, kind) for design in pool for kind in kinds]
        flags = _flag_sets(rng, [kind for _, kind in jobs], [design for design, _ in jobs])
        ops = [{"kind": "analyze", "argv": ["analyze", design[0], *f]}
               for (design, _), f in zip(jobs, flags)]
    elif workload == "cli-cold":
        kinds = _shares(rng, len(pool) + 1, {"preset": 1, "moderate": 1})
        plot_design = pool[int(rng.integers(len(pool)))]
        flags = _flag_sets(rng, kinds, pool + [plot_design])
        ops = [{"kind": "analyze", "argv": ["analyze", design[0], *f]}
               for design, f in zip(pool, flags)]
        ops.append({"kind": "plotdata", "argv": ["plotdata", plot_design[0], *flags[-1]]})
        ops.append({"kind": "replicate", "argv": ["replicate-paper"]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warmup_op(workload: str, work_dir: Path) -> dict:
    """The untimed operation every worker runs once before it is ready.

    It is the same cheap operation for every seed (the smallest CSV under a
    preset prior, or the cheapest corner of the calibration grid), so that
    ``setup_s`` measures start-up and not which operation a seed put first.
    Call after ``build_ops``, which writes the CSV pool.
    """
    if workload == "calibrate":
        return {"kind": "calibrate", "target": 0.1, "n": CAL_N[0], "scale": CAL_SCALE[0]}
    return {"kind": "analyze",
            "argv": ["analyze", str(_csv_path(work_dir / "csv", 0)), "--prior-preset", "medium"]}


# Designs the package is known to fail on, with the failure each shows
# today: (label, n per group, t, flags). The defect probe runs each once per
# traced run, untimed, so the failures stay in view while the timed
# workloads keep to designs that succeed.
DEFECTS = (
    ("bf01-overflow", 8000, 1.0, ["--prior-scale", "500"]),     # bf01 = inf, to_json raises
    ("bf01-underflow", 100_000, 100.0, ["--prior-preset", "medium"]),  # d ~ 0.45, exit 3
    ("posterior-vanished", 100_000, 100.0, ["--alternative", "less"]),  # exit 3
    ("hpd-multimodal", 200, 4.0, ["--prior-scale", "0.001"]),  # errors block: rope
)


def defect_ops(work_dir: Path) -> list[dict]:
    """Write the defect probe's CSVs (the same for every seed); return its
    operations."""
    rng = np.random.default_rng(0)
    out_dir = work_dir / "defects"
    out_dir.mkdir(parents=True, exist_ok=False)
    paths: dict[tuple[int, float], Path] = {}
    ops = []
    for label, n, t, flags in DEFECTS:
        if (n, t) not in paths:
            paths[n, t] = out_dir / f"n{n}-t{t:g}.csv"
            write_design(rng, paths[n, t], n, n, t)
        ops.append({"kind": "analyze", "label": label,
                    "argv": ["analyze", str(paths[n, t]), *flags]})
    return ops
