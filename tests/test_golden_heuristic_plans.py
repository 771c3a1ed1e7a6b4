"""Golden heuristic-tier plans.

``tests/data/heuristic_plans.json`` holds one line per (model,
Table-III cluster, quality budget) grid point: the plan the
bitwidth-transfer tier chooses and its predicted latency, quality and
throughput (floats rounded to 12 significant digits).  The exact tier
is pinned by ``tests/planner_oracle.py``; this fixture pins the
heuristic tier, whose plans depend on its warm start and hill climb.  A mismatch means
heuristic plans changed — review the fixture diff, and if intentional
regenerate with ``PYTHONPATH=src python scripts/regen_golden_traces.py``.
"""

from tests.golden_utils import (
    HEURISTIC_PLANS,
    assert_same_lines,
    fixture_path,
    heuristic_plans,
)

REGEN_HINT = (
    "heuristic-tier plans changed; if intentional run "
    "`PYTHONPATH=src python scripts/regen_golden_traces.py` and review "
    "the fixture diff"
)


def test_heuristic_plans_match_fixture():
    path = fixture_path(HEURISTIC_PLANS)
    assert path.exists(), f"missing fixture {path}; run the regen script"
    assert_same_lines(heuristic_plans(), path.read_text(), REGEN_HINT)
