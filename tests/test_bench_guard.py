"""The ledger comparator of ``scripts/check_bench_regression.py``.

CI runs the performance ledger on the base commit and on the change,
alternating, on one runner, and ``--base ... --change ...`` fails the
change when the median of an end-to-end metric is worse than its
``BENCHMARK.json`` bound, a workload or metric is missing, a change run
is not correct, or it fails a larger share of operations.  These tests
drive the comparator on synthetic ledgers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", REPO / "scripts" / "check_bench_regression.py"
)
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)

SPEC = {
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def _record(workload, wall_s=1.0, rate=100.0, correct=True, failed=0,
            attempted=20):
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": [] if correct else ["outputs differ"],
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "rate": {"value": rate, "unit": "1/s"},
        },
    }


def _ledger(*records):
    return {"git_sha": "x", "records": list(records)}


BASE = _ledger(_record("alpha"), _record("beta"))


def _compare(change, base=BASE, spec=SPEC):
    return guard.compare_ledgers([base], [change], spec)


def test_identical_ledgers_pass():
    assert _compare(BASE) == []


@pytest.mark.parametrize("wall_s, ok", [
    (1.0, True),
    (0.5, True),     # better
    (1.24, True),    # inside the 25% bound
    (1.26, False),   # just past it
    (2.0, False),
])
def test_lower_is_better_bound(wall_s, ok):
    change = _ledger(_record("alpha", wall_s=wall_s), _record("beta"))
    failures = _compare(change)
    assert (failures == []) is ok
    if not ok:
        assert len(failures) == 1 and "alpha: wall_s" in failures[0]


@pytest.mark.parametrize("rate, ok", [
    (100.0, True),
    (150.0, True),   # better
    (91.0, True),    # inside the 10% bound
    (89.0, False),   # just past it
])
def test_higher_is_better_bound(rate, ok):
    change = _ledger(_record("alpha"), _record("beta", rate=rate))
    failures = _compare(change)
    assert (failures == []) is ok
    if not ok:
        assert len(failures) == 1 and "beta: rate" in failures[0]


@pytest.mark.parametrize("side", ["base", "change"])
def test_missing_workload_fails(side):
    short = _ledger(_record("alpha"))
    failures = (
        _compare(BASE, base=short) if side == "base" else _compare(short)
    )
    assert failures == [f"beta: missing from the {side} ledgers"]


def test_missing_metric_fails():
    rec = _record("beta")
    del rec["metrics"]["rate"]
    failures = _compare(_ledger(_record("alpha"), rec))
    assert failures == ["beta: metric rate missing"]


def test_incorrect_change_fails():
    change = _ledger(_record("alpha", correct=False), _record("beta"))
    failures = _compare(change)
    assert len(failures) == 1
    assert "alpha: change run not correct" in failures[0]


@pytest.mark.parametrize("base_failed, change_failed, ok", [
    (0, 0, True),
    (2, 2, True),
    (2, 1, True),
    (0, 1, False),
    (1, 2, False),
])
def test_failed_share_may_not_rise(base_failed, change_failed, ok):
    base = _ledger(_record("alpha", failed=base_failed), _record("beta"))
    change = _ledger(_record("alpha", failed=change_failed), _record("beta"))
    failures = _compare(change, base=base)
    assert (failures == []) is ok
    if not ok:
        assert "alpha: failed share rose" in failures[0]


def test_nothing_attempted_counts_as_failed():
    change = _ledger(_record("alpha", attempted=0), _record("beta"))
    assert "alpha: failed share rose" in _compare(change)[0]


def test_workload_only_the_change_declares_is_checked_for_correctness():
    """A workload the spec (the base's BENCHMARK.json) does not declare
    has no base to be timed against: it must be correct, nothing more."""
    slow_new = _ledger(
        _record("alpha"), _record("beta"), _record("gamma", wall_s=9.0)
    )
    assert _compare(slow_new) == []
    bad_new = _ledger(
        _record("alpha"), _record("beta"), _record("gamma", correct=False)
    )
    assert _compare(bad_new) == [
        "gamma: change run not correct (outputs differ)"
    ]


def test_medians_over_several_runs():
    """One noisy change run among three does not fail; a slowdown in
    the median does, and so does one incorrect run."""
    bases = [BASE, BASE, BASE]

    def change(*walls):
        return [
            _ledger(_record("alpha", wall_s=w), _record("beta"))
            for w in walls
        ]

    assert guard.compare_ledgers(bases, change(1.0, 1.0, 2.0), SPEC) == []
    slow = guard.compare_ledgers(bases, change(1.0, 1.3, 2.0), SPEC)
    assert len(slow) == 1 and "alpha: wall_s" in slow[0]
    bad = change(1.0, 1.0, 1.0)
    bad[1]["records"][0]["correct"] = False
    assert "alpha: change run not correct" in guard.compare_ledgers(
        bases, bad, SPEC
    )[0]
    # One ledger per workload pools the same way as whole ledgers.
    split = [_ledger(_record("alpha", wall_s=w)) for w in (1.0, 1.3, 1.3)]
    split.append(_ledger(_record("beta")))
    slow = guard.compare_ledgers(bases, split, SPEC)
    assert len(slow) == 1 and "alpha: wall_s" in slow[0]


def test_cli_exit_status(tmp_path):
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps(BASE))
    change.write_text(json.dumps(BASE))
    # The CLI reads the repository's BENCHMARK.json: a ledger naming
    # none of its workloads fails as missing.
    assert guard.main(["--base", str(base), "--change", str(change)]) == 1
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": 1.0, "unit": m["unit"]}
        for m in declared["end_to_end"]
    }
    full = _ledger(*(
        dict(_record(w["name"]), metrics=metrics)
        for w in declared["workloads"]
    ))
    base.write_text(json.dumps(full))
    change.write_text(json.dumps(full))
    assert guard.main(["--base", str(base), "--change", str(change)]) == 0
    with pytest.raises(SystemExit):
        guard.main(["--base", str(base)])


def test_cli_bounds_come_from_spec(tmp_path):
    """``--spec`` decides the workloads and bounds: CI passes the base
    commit's BENCHMARK.json, so a change that widens its own bound is
    still held to the base's."""
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps(BASE))
    change.write_text(json.dumps(
        _ledger(_record("alpha", wall_s=1.3), _record("beta"))
    ))
    strict, wide = tmp_path / "strict.json", tmp_path / "wide.json"
    strict.write_text(json.dumps(SPEC))
    widened = json.loads(json.dumps(SPEC))
    widened["end_to_end"][0]["bound"] = 0.5
    wide.write_text(json.dumps(widened))
    args = ["--base", str(base), "--change", str(change), "--spec"]
    assert guard.main([*args, str(strict)]) == 1
    assert guard.main([*args, str(wide)]) == 0
