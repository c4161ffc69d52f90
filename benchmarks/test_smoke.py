"""Self-test of the benchmark: ``python -m pytest benchmarks`` from the root.

Runs every workload on a few operations, checks that each metric named in
BENCHMARK.json is printed with its unit, and that tampered outputs are
counted as failed operations.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke passed")
