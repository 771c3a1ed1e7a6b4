"""Golden planner paths.

``tests/data/planner_paths.json`` holds one line per planner path the
heuristic-plan fixture does not reach: the DP tier (both solve
backends, all three objectives), the heuristic exact tier's verify
re-score and energy/cost re-rank, and the ClusterDelta / JobDelta
incremental re-plans.  Each line records the plan, its tier and tier
reason, and its predicted latency, quality, throughput, gap bound,
energy and cost (floats rounded to 12 significant digits).  A mismatch
means a planner path changed its output — review the fixture diff, and
if intentional regenerate with
``PYTHONPATH=src python scripts/regen_golden_traces.py``.
"""

from tests.golden_utils import (
    PLANNER_PATHS,
    assert_same_lines,
    fixture_path,
    planner_paths,
)

REGEN_HINT = (
    "planner-path results changed; if intentional run "
    "`PYTHONPATH=src python scripts/regen_golden_traces.py` and review "
    "the fixture diff"
)


def test_planner_paths_match_fixture():
    path = fixture_path(PLANNER_PATHS)
    assert path.exists(), f"missing fixture {path}; run the regen script"
    assert_same_lines(planner_paths(), path.read_text(), REGEN_HINT)
