"""Run one bayesindices CLI command in a fresh process with tracing on.

Usage: python benchmarks/coldchild.py SPANS.json ARGS...   (from the
checkout root, with PYTHONPATH=src). Behaves like
``python -m bayesindices.cli ARGS...`` (same stdout, same exit status) and
afterwards writes the operation's counters and spans to SPANS.json, a path
that must not exist yet.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    out_path = Path(sys.argv[1])
    import bayesindices.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        return bayesindices.cli.main(sys.argv[2:])
    finally:
        tracer.end_op()
        with open(out_path, "x", encoding="utf-8") as fh:
            json.dump({"counters": tracer.counters.to_dict(), "spans": tracer.kept}, fh)


if __name__ == "__main__":
    sys.exit(main())
