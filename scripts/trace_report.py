#!/usr/bin/env python
"""Render a text flame summary of a JSONL span trace.

Usage::

    PYTHONPATH=src python scripts/trace_report.py trace.jsonl
    PYTHONPATH=src python scripts/trace_report.py trace.jsonl --max-depth 4

Traces come from ``SPLITQUANT_TRACE=trace.jsonl`` (any entry point),
``repro.api.Session(trace_path=...)`` or ``Tracer.write``.  The summary
prints each span path's count, wall, self and CPU time; the counts of
one run are the span attributes in the JSONL itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Text flame summary of a repro.obs JSONL trace."
    )
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument(
        "--max-depth",
        type=int,
        default=8,
        help="deepest span-path level to print (default: 8)",
    )
    args = parser.parse_args(argv)

    from repro.obs import flame_summary

    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace: {path}", file=sys.stderr)
        return 2
    sys.stdout.write(flame_summary(str(path), max_depth=args.max_depth))
    return 0


if __name__ == "__main__":
    sys.exit(main())
