"""Golden fleet schedules.

``tests/data/fleet_schedules.json`` pins a small greedy and beam
schedule of the same four-job queue on a 9-GPU mixed inventory, under
the throughput objective and under the cost objective with one
spot-priced GPU type: per run, the schedule makespan, the unscheduled
jobs and the simulated fleet makespan, tokens, energy and cost; per job,
its GPU group, its slot on the timeline and its plan.  It also pins one
seeded online fleet replay: per job its group, start and end, then the
drops and the makespan (floats rounded to 12 significant digits).
``tests/data/online_fleet_grid.json`` pins the online fleet on a seeded
contention grid the same way, in start order and with each run's
event count, so the timeline's event order stays fixed.  A
mismatch means the fleet scheduler, its planner pool, the online fleet
or the fleet simulator changed its output — review the fixture diff, and if
intentional regenerate with
``PYTHONPATH=src python scripts/regen_golden_traces.py``.
"""

from tests.golden_utils import (
    FLEET_SCHEDULES,
    ONLINE_FLEET_GRID,
    assert_same_lines,
    fixture_path,
    fleet_schedules,
    online_fleet_grid,
)

REGEN_HINT = (
    "fleet schedules changed; if intentional run "
    "`PYTHONPATH=src python scripts/regen_golden_traces.py` and review "
    "the fixture diff"
)


def test_fleet_schedules_match_fixture():
    path = fixture_path(FLEET_SCHEDULES)
    assert path.exists(), f"missing fixture {path}; run the regen script"
    assert_same_lines(fleet_schedules(), path.read_text(), REGEN_HINT)


def test_online_fleet_grid_matches_fixture():
    path = fixture_path(ONLINE_FLEET_GRID)
    assert path.exists(), f"missing fixture {path}; run the regen script"
    assert_same_lines(online_fleet_grid(), path.read_text(), REGEN_HINT)
