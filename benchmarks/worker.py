"""One benchmark process: set up, run the timed loop, check, report.

Usage: python benchmarks/worker.py SPEC.json   (from the checkout root,
with PYTHONPATH=src). ``run.py`` writes the spec and starts this process
fresh, so set-up is measured from interpreter start. The process prints a
``READY`` line once ``bayesindices.cli`` is imported and one untimed
warm-up operation has finished; a probe stops there. Otherwise it runs the
workload's rotation of operations until the measuring time is up and at
least ``min_ops`` operations are done (always whole rotations, so every
operation runs equally often and shares repeat exactly for a seed), checks
every output, and prints one ``RESULT`` line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
from tracing import KEEP_SPANS, Counters, Tracer, write_spans

CHILD_TIMEOUT_S = 120


class Outcome:
    """What one operation produced."""

    __slots__ = ("code", "stdout", "value", "files")

    def __init__(self, code=None, stdout="", value=None, files=None):
        self.code = code
        self.stdout = stdout
        self.value = value
        self.files = files


class Runner:
    def __init__(self, spec: dict, package: SimpleNamespace):
        self.spec = spec
        # modules are looked up on every call, so wrappers installed by the
        # tracer are picked up
        self.package = package
        self.root = Path.cwd()
        self.work = Path(spec["work_dir"])
        self.traced = False
        self.tracer: Tracer | None = None
        self.child_counters = Counters()
        self.child_spans: list = []
        self._fresh = 0

    def fresh_path(self, stem: str) -> Path:
        # never reuse a path: overwriting a file costs far more than
        # creating one on some filesystems and would distort the timing
        self._fresh += 1
        return self.work / f"{stem}{self._fresh:06d}"

    # -- executing -------------------------------------------------------
    def execute(self, op: dict) -> Outcome:
        kind = op["kind"]
        if kind == "calibrate":
            return self._calibrate(op)
        argv = list(op["argv"])
        out_dir = None
        if kind == "plotdata":
            out_dir = self.fresh_path("plot")
            argv += ["--out", str(out_dir)]
        if self.spec["workload"] == "cli-cold":
            outcome = self._cold(argv)
        else:
            outcome = self.in_process(argv)
        outcome.files = out_dir
        return outcome

    def _calibrate(self, op: dict) -> Outcome:
        if self.tracer:
            self.tracer.begin_op()
        try:
            t = self.package.replicate.calibrate_reference_t(op["target"], op["n"], op["scale"])
            return Outcome(code=0, value=t, stdout=repr(t))
        except Exception:
            return Outcome(code=1)
        finally:
            if self.tracer:
                self.tracer.end_op()

    def in_process(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.begin_op()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.package.cli.main(argv)
        except Exception:
            # an exception escaping main is what a cold process reports
            # as exit status 1
            code = 1
        finally:
            if self.tracer:
                self.tracer.end_op()
        return Outcome(code=code, stdout=out.getvalue())

    def _cold(self, argv: list[str]) -> Outcome:
        if self.traced:
            spans_path = self.fresh_path("spans")
            cmd = [sys.executable, str(self.root / "benchmarks" / "coldchild.py"),
                   str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "bayesindices.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if self.traced:
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            self.child_counters.merge(Counters(data["counters"]))
            if len(self.child_spans) < KEEP_SPANS:
                op = self.child_counters.sums["ops"] - 1
                self.child_spans.extend([op, *span[1:]] for span in data["spans"])
        return Outcome(code=proc.returncode, stdout=proc.stdout)

    # -- judging ---------------------------------------------------------
    def digest(self, op: dict, outcome: Outcome) -> str:
        h = hashlib.blake2b(f"{outcome.code}\n".encode())
        if op["kind"] == "plotdata":
            for name in ("density.csv", "annotations.csv"):
                path = outcome.files / name
                h.update(path.read_bytes() if path.exists() else b"-")
        else:
            h.update(outcome.stdout.encode())
        return h.hexdigest()

    def judge(self, op: dict, outcome: Outcome) -> tuple[str, str]:
        kind = op["kind"]
        if kind == "analyze":
            return checks.check_analyze(outcome.code, outcome.stdout)
        if kind == "plotdata":
            return checks.check_plotdata(outcome.code, outcome.files)
        if kind == "replicate":
            return checks.check_replicate(outcome.code, outcome.stdout)
        return checks.check_calibrate(outcome.value if outcome.code == 0 else None)


def tamper(op: dict, outcome: Outcome) -> Outcome:
    """Corrupt an output the way a wrong program would (smoke test only)."""
    if op["kind"] == "calibrate" and outcome.value is not None:
        outcome.value = -outcome.value - 1.0
    elif op["kind"] == "plotdata" and outcome.files is not None and outcome.files.exists():
        with open(outcome.files / "density.csv", "a", encoding="utf-8") as fh:
            fh.write("nan,nan,nan,nan,nan\n")
    elif outcome.stdout:
        report = json.loads(outcome.stdout)
        if op["kind"] == "replicate":
            report["all_passed"] = False
        else:
            report["indices"]["pd"] = 1.5
        outcome.stdout = json.dumps(report, indent=2) + "\n"
    return outcome


class Loop:
    """Runs whole rotations until ``seconds`` have passed and at least
    ``min_ops`` operations are done; judges outputs."""

    def __init__(self, runner: Runner, ops: list[dict], keep: set[int]):
        self.runner = runner
        self.ops = ops
        self.keep = keep
        self.first: dict[int, tuple[str, str, str, bool | None]] = {}
        self.kept_outcomes: dict[int, Outcome] = {}
        self.nondeterministic: set[int] = set()

    def run(self, seconds: float, min_ops: int = 0) -> dict:
        runner, spec = self.runner, self.runner.spec
        latencies: list[float] = []
        failed = wrong = xcheck_total = xcheck_miss = 0
        wrong_details: list[str] = []
        judging = 0.0
        start = time.perf_counter()
        while True:
            for i, op in enumerate(self.ops):
                t0 = time.perf_counter()
                outcome = runner.execute(op)
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                if spec.get("tamper"):
                    outcome = tamper(op, outcome)
                digest = runner.digest(op, outcome)
                if i not in self.first:
                    status, detail = runner.judge(op, outcome)
                    miss = checks.bf_xcheck(outcome.stdout) if op["kind"] == "analyze" else None
                    self.first[i] = (digest, status, detail, miss)
                    if i in self.keep:
                        self.kept_outcomes[i] = outcome
                elif self.first[i][0] != digest:
                    self.nondeterministic.add(i)
                _, status, detail, miss = self.first[i]
                failed += status != "ok"
                if status == "wrong":
                    wrong += 1
                    wrong_details.append(f"op {i}: {detail}")
                if miss is not None:
                    xcheck_total += 1
                    xcheck_miss += miss
                judging += time.perf_counter() - t1
            if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
                break
        wall = time.perf_counter() - start - judging
        return {
            "latencies_s": latencies,
            "attempted": len(latencies),
            "failed": failed,
            "wrong": wrong,
            "wrong_details": sorted(set(wrong_details))[:10],
            "wall_s": wall,
            "throughput": len(latencies) / wall,
            "xcheck_total": xcheck_total,
            "xcheck_miss": xcheck_miss,
            "refusals": sorted({f"op {i}: {v[2]}" for i, v in self.first.items()
                                if v[1] == "refused"}),
        }


def cross_check(runner: Runner, loop: Loop) -> list[str]:
    """Problems found by the untimed checks that follow the loop."""
    problems = [f"op {i}: output differs between repeats" for i in sorted(loop.nondeterministic)]
    workload = runner.spec["workload"]
    if workload == "calibrate":
        ttest = runner.package.ttest
        for i, op in enumerate(loop.ops):
            outcome = loop.kept_outcomes.get(i)
            if outcome is None or outcome.value is None or outcome.code != 0:
                continue
            n = op["n"]
            stats = ttest.SufficientStats(t=outcome.value, df=2 * n - 2, n_eff=n / 2, n1=n, n2=n)
            bf01 = ttest.jzs_bayes_factor(stats, ttest.CauchyPrior(op["scale"])).bf01
            if checks.calibration_mismatch(bf01, op["target"]):
                problems.append(f"op {i}: bf01 {bf01!r} at calibrated t misses target "
                                f"{op['target']!r}")
        return problems
    for i in sorted(loop.keep):
        op, first = loop.ops[i], loop.kept_outcomes.get(i)
        if first is None or op["kind"] != "analyze":
            continue
        if workload == "cli-cold":
            other = runner.in_process(op["argv"])
        else:
            proc = subprocess.run([sys.executable, "-m", "bayesindices.cli", *op["argv"]],
                                  cwd=runner.root, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            other = Outcome(code=proc.returncode, stdout=proc.stdout)
        if (other.code, other.stdout) != (first.code, first.stdout):
            problems.append(f"op {i}: cold and in-process reports differ")
    return problems


def defect_probe(runner: Runner, ops: list[dict]) -> list[dict]:
    """Run each known-failing design once, untimed, and judge it."""
    found = []
    for op in ops:
        outcome = runner.in_process(op["argv"])
        status, detail = checks.check_analyze(outcome.code, outcome.stdout)
        found.append({"label": op["label"], "status": status, "detail": detail})
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    info: dict = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = _blas_threads()
    info["blas_thread_env"] = {k: os.environ.get(k) for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    return info


def _blas_threads() -> int | None:
    """Default thread count of the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import bayesindices.cli as cli
    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bayesindices imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import bayesindices.replicate
    import bayesindices.ttest

    runner = Runner(spec, SimpleNamespace(cli=cli, replicate=bayesindices.replicate,
                                          ttest=bayesindices.ttest))
    ops = spec["ops"]
    runner.execute(spec["warmup"])
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if spec["probe"]:
        return 0

    workload, trace = spec["workload"], spec["trace"]
    keep = set(spec["keep"])
    seconds = spec["seconds"] / 2 if trace else spec["seconds"]
    loop = Loop(runner, ops, keep)
    result = loop.run(seconds, spec["min_ops"])
    result["peak_rss_mb"] = _peak_rss_mb(workload)
    problems = cross_check(runner, loop)
    if trace:
        result["defects"] = defect_probe(runner, spec["defects"])
        problems += [f"defect probe {d['label']}: {d['detail']}" for d in result["defects"]
                     if d["status"] == "wrong"]
        if workload == "cli-cold":
            runner.traced = True
        else:
            runner.tracer = Tracer()
            runner.tracer.install()
        traced_loop = Loop(runner, ops, set())
        # tracing must not change a single output byte
        traced_loop.first = loop.first
        traced = traced_loop.run(seconds)
        problems += [f"traced {p}" for p in cross_check(runner, traced_loop)]
        counters = runner.child_counters if workload == "cli-cold" else runner.tracer.counters
        spans = runner.child_spans if workload == "cli-cold" else runner.tracer.kept
        spans_path = Path(spec["trace_file"])
        write_spans(spans_path, spans)
        result["traced"] = {
            "throughput": traced["throughput"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "wrong": traced["wrong"],
            "layers": counters.layer_metrics(),
            "spans_file": str(spans_path),
            "spans_written": len(spans),
        }
    result["problems"] = problems
    result["environment"] = environment()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
