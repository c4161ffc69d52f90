"""Command-line front end: ingestion, orchestration, reports, plot data.

Commands
--------
analyze          two-group CSV in, full index report out
replicate-paper  check the built-in reference analysis against its
                 published values
simulate         write a seeded synthetic two-group dataset
plotdata         export density curves and annotation positions as CSV
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    BayesIndicesError,
    InputError,
    InvalidArgumentError,
)
from .indices import fbst_evalue, rope_decision, surprise_function
from .posterior import ReferenceFunction, map_estimate
from .report import AnalysisConfig, IndexReport, run_all_indices
from .replicate import run_replication
from .ttest import (
    GREATER,
    LESS,
    TWO_SIDED,
    CauchyPrior,
    TwoSampleData,
    cohen_d,
    jzs_bayes_factor,
    posterior_density_grid,
    simulate_two_sample,
    sufficient_stats,
)

_INPUT_ERRORS = (InputError, InvalidArgumentError, OSError, json.JSONDecodeError)


# Plain files are parsed in blocks of about this many characters, each cut
# at a line end. A block's token lists are the parse's peak memory (over 40 MB
# for a whole 2e5-row file at once), so keep it at 64 KiB or below.
_BLOCK_CHARS = 1 << 16
# Deleting all but these five bytes from a plain block leaves ",\n" per line.
# A quote, a carriage return or a NUL (which csv refuses before Python 3.11)
# sends the file to the csv.reader path, and so does a row with too many or
# too few commas, even when the rows around it make up the count.
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b',\n"\r\x00')))


def read_two_group_csv(path: str | Path) -> TwoSampleData:
    """Parse a `group,value` CSV; group labels map to group1/group2 in
    first-appearance order.

    Plain files (one comma per line, LF line ends, no quotes or padded
    labels; empty lines are skipped) are parsed block by block in bulk.
    Any other file, and every malformed one, is parsed by the row-by-row
    csv.reader path, which words every error. Both give the same arrays,
    since every value goes through ``float()``.
    """
    path = Path(path)
    data = _read_blocks(path)
    return data if data is not None else _read_two_group_csv_exact(path)


def _read_blocks(path: Path) -> TwoSampleData | None:
    """The bulk parse; None for a file that is not plain or that the
    csv.reader path would refuse."""
    limit = csv.field_size_limit()
    parts: dict[str, list[np.ndarray]] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = fh.readline()
            if len(header) > limit or not _alternates(header):
                return None
            if [h.strip().lower() for h in header[:-1].split(",")] != ["group", "value"]:
                return None
            while block := fh.read(_BLOCK_CHARS):
                if not block.endswith("\n"):
                    block += fh.readline()
                if not block.endswith("\n"):  # a last line with no line end
                    block += "\n"
                # csv.reader yields empty lines as empty rows, which are
                # skipped; dropping them here keeps a file that ends in a
                # blank line from being parsed twice
                while "\n\n" in block:
                    block = block.replace("\n\n", "\n")
                block = block.lstrip("\n")
                if not block:
                    continue
                if len(block) > limit or not _alternates(block):
                    return None
                tokens = block.replace("\n", ",").split(",")
                labels, values = tokens[:-1:2], tokens[1::2]
                present = list(dict.fromkeys(labels))
                for label in present:
                    if label not in parts:
                        if not label or label != label.strip() or len(parts) == 2:
                            return None
                        parts[label] = []
                try:
                    parsed = np.fromiter(map(float, values), dtype=float, count=len(values))
                except ValueError:
                    return None
                if len(present) == 1:
                    parts[present[0]].append(parsed)
                else:
                    first, second = parts
                    in_first = np.fromiter(map(first.__eq__, labels), dtype=bool,
                                           count=len(labels))
                    parts[first].append(parsed[in_first])
                    parts[second].append(parsed[~in_first])
    except UnicodeDecodeError:
        return None
    if len(parts) < 2:
        return None
    group1, group2 = (np.concatenate(arrays) for arrays in parts.values())
    return TwoSampleData(group1=group1, group2=group2)


def _alternates(lines: str) -> bool:
    """Whether ``lines`` (which end with a line end) hold one comma per line
    and none of the other characters csv treats specially."""
    seps = lines.encode().translate(None, _NOT_SEPARATORS)
    return seps == b",\n" * (len(seps) // 2)


def _read_two_group_csv_exact(path: Path) -> TwoSampleData:
    """The row-by-row csv.reader parse: the reference for the bulk path, and
    the path for every file that path declines."""
    groups: dict[str, list[float]] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["group", "value"]:
                raise InputError(f"{path}: first line must be the header 'group,value'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise InputError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
                label = row[0].strip()
                if not label:
                    raise InputError(f"{path}: line {lineno}: empty group label")
                try:
                    value = float(row[1])
                except ValueError:
                    raise InputError(
                        f"{path}: line {lineno}: value {row[1]!r} is not a number"
                    ) from None
                if label not in groups:
                    if len(order) >= 2:
                        raise InputError(
                            f"{path}: line {lineno}: third group {label!r} found; "
                            f"expected exactly two groups ({order[0]!r}, {order[1]!r})"
                        )
                    order.append(label)
                    groups[label] = []
                groups[label].append(value)
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
    if len(order) < 2:
        raise InputError(f"{path}: need exactly 2 groups, found {len(order)}")
    return TwoSampleData(group1=groups[order[0]], group2=groups[order[1]])


def _load_config(args: argparse.Namespace) -> AnalysisConfig:
    raw: dict[str, Any] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
    # command-line flags override file values
    overrides: dict[str, Any] = {
        "prior_scale": args.prior_scale,
        "prior_preset": args.prior_preset,
        "hpd_mass": args.hpd_mass,
        "null_value": args.null_value,
        "alternative": args.alternative,
        "grid_size": args.grid_size,
        "seed": args.seed,
    }
    if args.rope is not None:
        overrides["rope"] = list(args.rope)
    thr = dict(raw.get("thresholds") or {})
    for key, flag in (("pd", args.pd_threshold), ("p_map", args.p_map_threshold),
                      ("ev", args.ev_threshold)):
        if flag is not None:
            thr[key] = flag
    if thr:
        overrides["thresholds"] = thr
    if args.prior_scale is not None:
        raw.pop("prior_preset", None)
    if args.prior_preset is not None:
        raw.pop("prior_scale", None)
    merged = dict(raw)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return AnalysisConfig.from_dict(merged)


def _data_digest(data: TwoSampleData, stats: SufficientStats) -> dict[str, Any]:
    return {
        "n1": int(data.group1.size),
        "n2": int(data.group2.size),
        "mean1": float(data.group1.mean()),
        "sd1": float(data.group1.std(ddof=1)),
        "mean2": float(data.group2.mean()),
        "sd2": float(data.group2.std(ddof=1)),
        "t": stats.t,
        "df": stats.df,
        "n_eff": stats.n_eff,
        "cohen_d": cohen_d(data),
    }


def _build_analysis(data: TwoSampleData, config: AnalysisConfig):
    stats = sufficient_stats(data)
    prior = CauchyPrior(config.scale)
    posterior = posterior_density_grid(
        stats, prior, grid_size=config.grid_size, alternative=config.alternative
    )
    prior_grid = prior.on_grid(posterior.points, config.alternative)
    return stats, prior, posterior, prior_grid


def _analyze_report(data: TwoSampleData, config: AnalysisConfig) -> IndexReport:
    stats, prior, posterior, prior_grid = _build_analysis(data, config)
    # the analytic Bayes factor tests the zero null only
    bf = None
    if config.null_value == 0.0:
        bf = jzs_bayes_factor(stats, prior, config.alternative)
    report = run_all_indices(
        posterior,
        prior_grid,
        config.hypotheses(),
        config.rope,
        config.hpd_mass,
        config.thresholds,
        analytic_bf01=None if bf is None else bf.bf01,
        analytic_bf10=None if bf is None else bf.bf10,
        extra_diagnostics={"bf01_quadrature_rel_error": None if bf is None else bf.rel_error},
    )
    report.config = config.echo()
    report.data = _data_digest(data, stats)
    return report


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args)
    data = read_two_group_csv(args.data)
    report = _analyze_report(data, config)
    rendered = report.to_json() + "\n" if args.format == "json" else report.to_text()
    _emit(rendered, args.out)
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    report = run_replication(profile=args.profile)
    rendered = report.to_json() + "\n" if args.format == "json" else report.to_text()
    _emit(rendered, args.out)
    return 0 if report.all_passed else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    data = simulate_two_sample(args.mean1, args.sd1, args.mean2, args.sd2, args.n, seed)
    lines = ["group,value"]
    for label, values in (("group1", data.group1), ("group2", data.group2)):
        lines.extend(f"{label},{float(value)!r}" for value in values)
    out = args.out or "simulated.csv"
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    realized = cohen_d(data)
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"path": str(out), "n_per_group": args.n, "seed": seed,
             "cohen_d": realized}) + "\n")
    else:
        sys.stdout.write(f"wrote {out} ({args.n} observations per group, seed {seed}); "
                         f"realized cohen_d = {realized:.4f}\n")
    return 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    config = _load_config(args)
    data = read_two_group_csv(args.data)
    stats, prior, posterior, prior_grid = _build_analysis(data, config)

    flat_surprise = surprise_function(posterior, ReferenceFunction.flat())
    prior_surprise = surprise_function(posterior, ReferenceFunction.from_prior(prior_grid))
    out_dir = Path(args.out or "plotdata")
    out_dir.mkdir(parents=True, exist_ok=True)

    density_rows = ["# columns: grid = effect size; prior / posterior = densities; "
                    "surprise_flat / surprise_prior = posterior-to-reference ratios",
                    "grid,prior,posterior,surprise_flat,surprise_prior"]
    for i in range(posterior.points.size):
        density_rows.append(
            f"{float(posterior.points[i])!r},{float(prior_grid.densities[i])!r},"
            f"{float(posterior.densities[i])!r},{float(flat_surprise[i])!r},"
            f"{float(prior_surprise[i])!r}"
        )
    (out_dir / "density.csv").write_text("\n".join(density_rows) + "\n", encoding="utf-8")

    decision = rope_decision(posterior, config.rope, config.hpd_mass)
    peak = map_estimate(posterior)
    s_flat = fbst_evalue(posterior, ReferenceFunction.flat(), config.null_value)
    s_prior = fbst_evalue(posterior, ReferenceFunction.from_prior(prior_grid), config.null_value)
    annotation_rows = [
        "# columns: name = annotation id; kind = vertical (effect-size axis) "
        "or horizontal (density/surprise axis); value = position",
        "name,kind,value",
        f"null_value,vertical,{config.null_value!r}",
        f"map,vertical,{peak.location!r}",
        f"hpd_lower,vertical,{decision.hpd.lower!r}",
        f"hpd_upper,vertical,{decision.hpd.upper!r}",
        f"rope_lower,vertical,{config.rope.lower!r}",
        f"rope_upper,vertical,{config.rope.upper!r}",
        f"s_star_flat,horizontal,{s_flat.s_star!r}",
        f"s_star_prior,horizontal,{s_prior.s_star!r}",
    ]
    (out_dir / "annotations.csv").write_text("\n".join(annotation_rows) + "\n",
                                             encoding="utf-8")
    sys.stdout.write(f"wrote {out_dir / 'density.csv'} and {out_dir / 'annotations.csv'}\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", help="write output here instead of stdout")


def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    prior = parser.add_mutually_exclusive_group()
    prior.add_argument("--prior-scale", type=float, default=None,
                       help="Cauchy prior scale on the effect size")
    prior.add_argument("--prior-preset", choices=("medium", "wide", "ultrawide"),
                       default=None)
    parser.add_argument("--rope", nargs=2, type=float, metavar=("LO", "HI"),
                        default=None, help="practical-equivalence bounds")
    parser.add_argument("--hpd-mass", type=float, default=None)
    parser.add_argument("--null-value", type=float, default=None)
    parser.add_argument("--alternative", choices=(TWO_SIDED, GREATER, LESS), default=None)
    parser.add_argument("--grid-size", type=int, default=None)
    parser.add_argument("--pd-threshold", type=float, default=None)
    parser.add_argument("--p-map-threshold", type=float, default=None)
    parser.add_argument("--ev-threshold", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesindices",
        description="Bayesian posterior indices for two-group effect-size inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute all indices for a two-group CSV")
    p.add_argument("data", help="CSV file with a group,value header")
    _add_common(p)
    _add_analysis_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "replicate-paper",
        help="verify the built-in reference example against its published values",
    )
    p.add_argument("--profile", choices=("strict", "loose"), default="strict")
    _add_common(p)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("simulate", help="write a seeded synthetic dataset")
    p.add_argument("--mean1", type=float, default=2.51)
    p.add_argument("--sd1", type=float, default=1.81)
    p.add_argument("--mean2", type=float, default=1.72)
    p.add_argument("--sd2", type=float, default=1.51)
    p.add_argument("--n", type=int, default=50, help="observations per group")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plotdata", help="export density curves and annotations as CSV")
    p.add_argument("data", help="CSV file with a group,value header")
    _add_common(p)
    _add_analysis_options(p)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BayesIndicesError, ZeroDivisionError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
