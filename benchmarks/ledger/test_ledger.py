"""Tests of the ledger harness.

    PYTHONPATH=src python -m pytest -q benchmarks/ledger
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import run
import spans

HERE = Path(__file__).resolve().parent


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import repro.core.ilp as ilp
    import repro.core.search as search
    import repro.workloads as workloads
    from repro.cache import ResultCache

    original = ilp.solve_partition_lp_relaxation
    original_get = ResultCache.__dict__["get"]
    spans.import_all()
    layers = spans.LayerTrace()
    layers.install()
    try:
        wrapped = ilp.solve_partition_lp_relaxation
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert search.solve_partition_lp_relaxation is wrapped
        assert ResultCache.__dict__["get"].__wrapped__ is original_get
        workloads.poisson_trace(1.0, 5.0, seed=0)  # through a re-export
        taken = layers.take()["layers"]
        assert taken["workloads.arrivals.poisson_trace"][0] == 1
    finally:
        layers.restore()
    assert search.solve_partition_lp_relaxation is original
    assert ilp.solve_partition_lp_relaxation is original
    assert ResultCache.__dict__["get"] is original_get


def test_self_time_subtracts_wrapped_children_and_floors_at_zero():
    records = [
        {"i": 1, "parent": 0, "name": "child", "wall_s": 0.25},
        {"i": 3, "parent": 2, "name": "leaf", "wall_s": 0.125},
        {"i": 2, "parent": 0, "name": "child", "wall_s": 0.5},
        {"i": 0, "parent": None, "name": "root", "wall_s": 1.0},
        {"i": 5, "parent": 4, "name": "leaf", "wall_s": 0.5},
        {"i": 4, "parent": None, "name": "skewed", "wall_s": 0.25},
    ]
    assert spans.self_times(records) == {
        "root": [1, 0.25],
        "child": [2, 0.625],
        "leaf": [2, 0.625],
        "skewed": [1, 0.0],
    }


def test_tail_is_the_sample_with_exactly_ten_above():
    assert run.tail([1.0] * 10) is None
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail(list(range(11))) == (0, pytest.approx(100 / 11))


def test_traced_calls_return_what_untraced_calls_return():
    spans.import_all()
    workload = cases.WORKLOADS["frontier-500"]()
    workload.setup(seed=3)
    plain = workload.call()
    layers = spans.LayerTrace()
    layers.install()
    try:
        traced = workload.call()
    finally:
        layers.restore()
    assert traced == plain
    taken = layers.take()
    assert taken["layers"]["costmodel.energy.plan_energy"][0] == len(plain)
    assert taken["ratios"]["pipeline.batchsim.fallback_frac"] == [0, len(plain)]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_has_no_failed_calls(tmp_path, trace):
    out = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", trace,
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    records = json.loads(out.read_text())["records"]
    assert {r["workload"] for r in records} == set(cases.WORKLOADS)
    assert all(r["ops_failed_frac"] == 0 for r in records)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "frontier-500"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
