"""Golden normalized span trace of ``examples/online_serving_demo.py``.

The online demo is deterministic end to end (seeded Poisson arrivals,
ShareGPT-sampled lengths, pure-arithmetic simulator timing), so its
*normalized* trace — ancestor paths, names, statuses and attributes,
with every timestamp, duration, thread name and span id stripped — is
byte-stable across runs and platforms.  The fixture pins the observable
span taxonomy of the whole online path: planning, the degenerate
offline-equivalence check, steady serving, and SLO load shedding.  A
silent change to what gets traced (or to group formation / admission
control flow) fails this test.

Regenerate after an intentional change with
``PYTHONPATH=src python scripts/regen_golden_traces.py`` and review the
fixture diff like any other code change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import normalize_trace
from tests.golden_utils import assert_same_lines

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "examples" / "online_serving_demo.py"
FIXTURE = REPO / "tests" / "data" / "online_demo_trace.norm.jsonl"

REGEN_HINT = (
    "normalized online-demo trace changed; if intentional run "
    "`PYTHONPATH=src python scripts/regen_golden_traces.py` and review "
    "the fixture diff"
)


def run_demo_trace(tmp_path: Path) -> str:
    """Run the demo traced in a subprocess; return the normalized trace."""
    trace_path = tmp_path / "online_demo.jsonl"
    env = dict(os.environ)
    env["SPLITQUANT_TRACE"] = str(trace_path)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(DEMO)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The demo's own differential contract check must have passed.
    assert "bit-identical" in proc.stdout
    assert "SLO attainment" in proc.stdout
    return normalize_trace(trace_path)


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory) -> str:
    return run_demo_trace(tmp_path_factory.mktemp("online_demo"))


def test_online_demo_trace_matches_golden(demo_trace):
    assert FIXTURE.exists(), f"missing fixture {FIXTURE}; run the regen script"
    assert_same_lines(demo_trace, FIXTURE.read_text(), REGEN_HINT)


def test_fixture_is_normalized_canonical():
    """The committed fixture is already in normalized canonical form."""
    text = FIXTURE.read_text()
    records = [json.loads(line) for line in text.splitlines()]
    assert records, "fixture is empty"
    # renumbered, sorted, and stripped of timing/scheduling fields
    assert [r["i"] for r in records] == list(range(len(records)))
    for r in records:
        assert set(r) == {"path", "name", "status", "attrs", "i"}
    keys = [
        (r["path"], json.dumps(r["attrs"], sort_keys=True), r["status"])
        for r in records
    ]
    assert keys == sorted(keys)


def test_trace_covers_the_online_serving_story(demo_trace):
    """The span taxonomy includes plan→serve→group-formation spans."""
    names = {json.loads(line)["name"] for line in demo_trace.splitlines()}
    for expected in (
        "planner.plan",
        "sim.online",
        "sim.online.group",
        "sim.run",
    ):
        assert expected in names, f"span {expected!r} missing from demo trace"
