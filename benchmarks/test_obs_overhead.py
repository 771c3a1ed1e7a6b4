"""Bench: the observability layer's disabled-mode cost is negligible.

The contract (DESIGN.md "Observability"): with no tracer installed,
every hook in the hot paths costs one attribute check plus — at span
sites — one no-op context manager.  This bench quantifies that on the
Table-VI planning configuration (OPT-30B on Table III cluster 5, the
ledger's ``plan-table6`` workload):

1. run the planner with tracing *enabled* to count how many hooks the
   workload actually hits (spans opened);
2. microbenchmark the *disabled* per-hook costs (``trace.enabled``
   check; full ``with trace.span(...)`` no-op round-trip);
3. run the planner with tracing disabled and assert the estimated
   total hook cost (hits x per-hook cost, with a 3x safety factor for
   the guarded metric updates that ride along) is **< 2%** of the
   measured planning wall-clock.

The per-hook estimate is used instead of differencing two wall-clock
runs because the planner's run-to-run variance (thread scheduling,
HiGHS) exceeds the effect being measured; the estimate is conservative
(kwargs are built even for no-op spans) and machine-independent.

Writes the measured record to ``benchmarks/BENCH_obs.json`` (a CI
artifact, not tracked).
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.core import PlannerConfig, SplitQuantPlanner
from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.obs import NOOP_SPAN, Tracer, current_tracer, trace, use_tracer
from repro.workloads import BatchWorkload

OUT = Path(__file__).resolve().parent / "BENCH_obs.json"

#: Disabled hooks must cost less than this fraction of planning wall.
OVERHEAD_BUDGET = 0.02

#: Guarded attribute sets and marker spans (``if trace.enabled: ...``)
#: ride along with span sites; budget three hook-checks per span,
#: conservatively.
HOOKS_PER_SPAN = 3


def _per_op_s(fn, n: int = 200_000) -> float:
    """Mean seconds per call over ``n`` iterations (min of 3 repeats)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def _noop_span_roundtrip() -> None:
    with trace.span("bench.noop", a=1, b=2):
        pass


def _enabled_check() -> None:
    if trace.enabled:  # pragma: no cover - never true in this bench
        raise AssertionError


def test_disabled_observability_overhead_under_2pct():
    assert current_tracer() is None, "bench requires tracing disabled"

    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)
    workload = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    base = PlannerConfig(
        group_size=3,
        max_orderings=6,
        microbatch_candidates=(8, 16, 32),
        verify_top_k=1,
        time_limit_s=30.0,
    )
    seed_planner = SplitQuantPlanner(spec, cluster, base)
    cfg = dataclasses.replace(
        base, quality_budget=seed_planner.uniform_quality(4)
    )

    def make_planner() -> SplitQuantPlanner:
        return SplitQuantPlanner(
            spec, cluster, cfg,
            cost_model=seed_planner.cost_model,
            omega_layers=seed_planner.omega_layers,
        )

    # 1. Hook hit count: how many spans does this workload open?
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        enabled_planner = make_planner()
        t0 = time.perf_counter()
        enabled_result = enabled_planner.plan(workload)
        enabled_wall_s = time.perf_counter() - t0
    spans = tracer.spans_started
    assert enabled_result is not None
    assert spans > 0, "Table-VI planning opened no spans — hooks missing?"

    # 2. Disabled per-hook microbench.
    assert trace.span("bench.check") is NOOP_SPAN
    span_cost_s = _per_op_s(_noop_span_roundtrip)
    check_cost_s = _per_op_s(_enabled_check)

    # 3. Disabled-mode planning wall.
    disabled_planner = make_planner()
    t0 = time.perf_counter()
    disabled_result = disabled_planner.plan(workload)
    disabled_wall_s = time.perf_counter() - t0
    assert disabled_result is not None
    assert disabled_result.plan == enabled_result.plan, (
        "tracing must not change the chosen plan"
    )

    estimated_overhead_s = spans * (
        span_cost_s + HOOKS_PER_SPAN * check_cost_s
    )
    overhead_fraction = estimated_overhead_s / disabled_wall_s

    record = {
        "bench": "obs_disabled_overhead",
        "model": spec.name,
        "cluster": cluster.name,
        "workload": {
            "batch": workload.batch,
            "prompt_len": workload.prompt_len,
            "output_len": workload.output_len,
        },
        "spans_opened": spans,
        "noop_span_cost_ns": round(span_cost_s * 1e9, 1),
        "enabled_check_cost_ns": round(check_cost_s * 1e9, 1),
        "hooks_per_span_budgeted": HOOKS_PER_SPAN,
        "enabled_wall_s": round(enabled_wall_s, 4),
        "disabled_wall_s": round(disabled_wall_s, 4),
        "estimated_overhead_s": round(estimated_overhead_s, 6),
        "overhead_fraction": round(overhead_fraction, 6),
        "budget_fraction": OVERHEAD_BUDGET,
        "plan_identical": disabled_result.plan == enabled_result.plan,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")

    assert overhead_fraction < OVERHEAD_BUDGET, (
        f"disabled observability hooks cost an estimated "
        f"{overhead_fraction:.2%} of planning wall-clock "
        f"(budget {OVERHEAD_BUDGET:.0%}): {record}"
    )
