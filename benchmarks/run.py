"""Benchmark of the bayesindices package.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload design-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 25 [--trace 1]
    python3 benchmarks/run.py --smoke

Workloads (closed loop, one client, no threads):

- ``cli-cold``: fresh ``python -m bayesindices.cli`` processes, one after
  another, with PYTHONPATH=src; mostly ``analyze`` over a seeded CSV pool,
  plus one ``plotdata`` and one ``replicate-paper`` per rotation. Import is
  most of each run, so this is where import-time work shows.
- ``design-sweep``: ``bayesindices.cli.main(["analyze", ...])`` in-process,
  stdout captured to memory, over the same kind of pool with prior scales
  down to 1e-3 and up to 1e3 (capped where the package is known to fail;
  see ``benchmarks/NOTES.md``). The posterior grid, the Bayes-factor
  quadratures, the HPD/index block and CSV ingestion are the work.
- ``calibrate``: in-process ``calibrate_reference_t`` over seeded designs;
  about 16 Bayes-factor evaluations (about 260 small G7/K15 panels) per
  operation, so per-call overhead in the t-test and quadrature layers is
  the work.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from a traced run (half the time
untraced, half traced, the difference being the tracing overhead), and
the defect probe runs the designs the package is known to fail on. See
``benchmarks/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import designs

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# analyze operations rerun after the loop, cold against in-process
CROSS_CHECKS = 2
# an untraced run goes on past --seconds until it has this many operations,
# so that ten latency samples lie beyond p90
MIN_OPS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("share"):
        return "ratio"
    return "count"


def _spawn(root: Path, spec_path: Path, timeout: float) -> tuple[float, dict, str]:
    """Start a worker; return (seconds until READY, READY payload, rest of stdout)."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("READY "):
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    return ready, json.loads(line[len("READY "):]), rest


def _smoke_ops(ops: list[dict], count: int) -> list[dict]:
    """The first operation of each kind, then the rest in order, up to count."""
    firsts = {}
    for i, op in enumerate(ops):
        firsts.setdefault(op["kind"], i)
    chosen = sorted(firsts.values())
    chosen += [i for i in range(len(ops)) if i not in chosen][:max(0, count - len(chosen))]
    return [ops[i] for i in sorted(chosen)]


def _import_profile(root: Path) -> float:
    """Cumulative ms of ``scipy.optimize`` inside ``import bayesindices.cli``."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bayesindices.cli"],
                          cwd=root, env=env, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
                          text=True, timeout=60)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            return int(parts[1]) / 1e3
    return 0.0


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 smoke_ops: int = 0, tamper: bool = False) -> dict:
    work_root = BENCH_DIR / "_work"
    stamp = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    work = work_root / stamp
    work.mkdir(parents=True)
    try:
        ops = designs.build_ops(workload, seed, work)
        if smoke_ops:
            ops = _smoke_ops(ops, smoke_ops)
        analyze = [i for i, op in enumerate(ops) if op["kind"] == "analyze"]
        keep = (list(range(len(ops))) if workload == "calibrate"
                else analyze[:: max(1, len(analyze) // CROSS_CHECKS)][:CROSS_CHECKS])
        spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "ops": ops, "warmup": designs.warmup_op(workload, work),
                "min_ops": 0 if smoke_ops or trace else MIN_OPS,
                "keep": keep, "work_dir": str(work), "tamper": tamper,
                "defects": designs.defect_ops(work) if trace else [],
                "trace_file": str(work_root / "traces" / f"{stamp}.jsonl"), "probe": True}
        probe_path = work / "probe.json"
        probe_path.write_text(json.dumps(spec), encoding="utf-8")
        # the loop (twice when traced), one overshooting rotation and the
        # cross-checks, with room to spare
        timeout = 2 * seconds + 120
        setup, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            ready, payload, _ = _spawn(root, probe_path, timeout)
            setup.append(ready)
            imports.append(payload["import_s"])
        spec["probe"] = False
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        ready, payload, rest = _spawn(root, spec_path, timeout)
        setup.append(ready)
        imports.append(payload["import_s"])
        lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
        if not lines:
            raise BenchmarkError("worker printed no result")
        result = json.loads(lines[-1][len("RESULT "):])
        result["setup_s"] = setup
        result["import_s"] = imports
        result["rotation"] = len(ops)
        if trace:
            result["scipy_optimize_import_ms"] = _import_profile(root)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: dict) -> dict[str, tuple[float, str, int]]:
    lat_ms = [1e3 * v for v in result["latencies_s"]]
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1] if n > 1 else lat_ms[0]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s", len(result["setup_s"])),
        "latency_ms.p50": (statistics.median(lat_ms), "ms", n),
        "latency_ms.p90": (p90, "ms", n),
        "throughput_ops_per_s": (result["throughput"], "1/s", n),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "error_share": (result["failed"] / n, "ratio", n),
        "bf_xcheck_miss_share": (result["xcheck_miss"] / result["xcheck_total"]
                                 if result["xcheck_total"] else 0.0, "ratio",
                                 result["xcheck_total"]),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str, int]]:
    traced = result["traced"]
    n = traced["attempted"]
    out = {
        "import.cli_ms": (1e3 * statistics.median(result["import_s"]), "ms",
                          len(result["import_s"])),
        "import.scipy_optimize_ms": (result["scipy_optimize_import_ms"], "ms", 1),
    }
    out.update({name: (value, layer_unit(name), n)
                for name, value in sorted(traced["layers"].items())})
    shares = end_to_end(result)
    for name in ("error_share", "bf_xcheck_miss_share"):
        out[name] = shares[name]
    out["defect_probe.failed"] = (sum(d["status"] != "ok" for d in result["defects"]), "count",
                                  len(result["defects"]))
    out["trace.overhead_share"] = (1.0 - traced["throughput"] / result["throughput"], "ratio",
                                   result["attempted"] + n)
    return out


def verdict(result: dict) -> tuple[bool, int, int]:
    traced = result.get("traced") or {"attempted": 0, "failed": 0, "wrong": 0}
    correct = result["wrong"] == 0 and traced["wrong"] == 0 and not result["problems"]
    return (correct, result["attempted"] + traced["attempted"],
            result["failed"] + traced["failed"])


def report(workload: str, seed: int, result: dict, trace: bool) -> dict:
    """Print the human-readable block; return the machine-readable summary."""
    metrics = per_layer(result) if trace else end_to_end(result)
    correct, attempted, failed = verdict(result)
    print(f"workload {workload}, seed {seed}: {result['attempted']} operations "
          f"({result['attempted'] // result['rotation']} rotations of {result['rotation']}), "
          f"{result['failed']} failed, correct={correct}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={samples}")
    for line in result["refusals"]:
        print(f"  refused: {line}")
    for line in result["wrong_details"] + result["problems"]:
        print(f"  WRONG: {line}")
    for d in result.get("defects", ()):
        print(f"  known defect {d['label']}: {d['status']} {d['detail']}".rstrip())
    if trace:
        print(f"  spans: {result['traced']['spans_written']} written to "
              f"{result['traced']['spans_file']}")
    env = dict(result["environment"], seed=seed, workload=workload,
               attempted=attempted, failed=failed, rotation=result["rotation"])
    print("environment " + json.dumps(env, sort_keys=True))
    keys = [name for name, _ in END_TO_END] if not trace else list(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys}}


def smoke(root: Path) -> int:
    """A few operations per workload: every metric named in BENCHMARK.json
    is printed with its unit, and a tampered output counts as failed."""
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    problems = []
    for workload in designs.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            summary = report(workload, 0, run_workload(root, workload, 0, 0.0, trace, 3), trace)
            for metric in config[section]:
                got = summary["metrics"].get(metric["name"])
                if got is None or got["unit"] != units[metric["name"]]:
                    problems.append(f"{workload}: {metric['name']} missing or wrong unit")
            if not summary["correct"]:
                problems.append(f"{workload}: untampered run not correct")
        result = run_workload(root, workload, 0, 0.0, False, 3, tamper=True)
        summary = report(workload, 0, result, False)
        if summary["failed"] != summary["attempted"] or summary["correct"]:
            problems.append(f"{workload}: tampered outputs were not all counted as failed")
    for problem in problems:
        print("SMOKE FAIL: " + problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=designs.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--smoke", action="store_true", help="self-test on a few operations")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bayesindices" / "cli.py").is_file():
        print(f"error: {root} holds no src/bayesindices; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        workloads = designs.WORKLOADS if args.all else (args.workload,)
        if workloads == (None,):
            parser.error("give --workload, --all or --smoke")
        summaries = {}
        for workload in workloads:
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            summaries[workload] = report(workload, args.seed, result, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summaries[args.workload] if not args.all else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
