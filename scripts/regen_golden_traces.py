#!/usr/bin/env python
"""Regenerate the golden-trace fixtures in tests/data/.

Run after an *intentional* change to the discrete-event simulator, the
degraded-recovery mirror, the observability span taxonomy, the planner
or the fleet scheduler, then review the fixture diffs like any other
code change:

    PYTHONPATH=src python scripts/regen_golden_traces.py

``tests/test_golden_traces.py`` compares the degraded-simulation JSON
fixtures byte-for-byte; ``tests/test_golden_heuristic_plans.py`` the
heuristic-tier plan grid; ``tests/test_golden_planner_paths.py`` the
DP tier, verify re-score, objective re-rank and incremental re-plan
results; ``tests/test_golden_fleet_schedules.py`` small greedy and
beam fleet schedules, an online fleet replay and the online fleet
contention grid; ``tests/test_golden_fault_demo_trace.py`` and
``tests/test_golden_online_demo_trace.py`` compare the normalized span
traces of the fault-tolerance and online serving demos.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.obs import normalize_trace  # noqa: E402
from tests.golden_utils import regenerate_all  # noqa: E402


def _regen_demo_trace(demo: str, fixture_name: str) -> Path:
    """Traced subprocess run of a demo -> normalized fixture."""
    fixture = REPO / "tests" / "data" / fixture_name
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "demo.jsonl"
        env = dict(os.environ)
        env["SPLITQUANT_TRACE"] = str(trace_path)
        env["PYTHONPATH"] = str(REPO / "src")
        subprocess.run(
            [sys.executable, str(REPO / "examples" / demo)],
            env=env,
            check=True,
            cwd=str(REPO),
            stdout=subprocess.DEVNULL,
        )
        fixture.write_text(normalize_trace(trace_path))
    return fixture


def regen_fault_demo_trace() -> Path:
    return _regen_demo_trace(
        "fault_tolerance_demo.py", "fault_demo_trace.norm.jsonl"
    )


def regen_online_demo_trace() -> Path:
    return _regen_demo_trace(
        "online_serving_demo.py", "online_demo_trace.norm.jsonl"
    )


def main() -> int:
    for name, path in regenerate_all().items():
        print(f"wrote {path.relative_to(REPO)}  ({name})")
    path = regen_fault_demo_trace()
    print(f"wrote {path.relative_to(REPO)}  (fault_demo_trace)")
    path = regen_online_demo_trace()
    print(f"wrote {path.relative_to(REPO)}  (online_demo_trace)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
