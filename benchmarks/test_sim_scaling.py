"""Bench: the closed-form fast simulator vs the discrete-event engine.

Measures both pipeline-simulation backends on a fleet-scale
configuration (OPT-30B on Table III cluster 7 — six stages — with a
64-request batch decoding 256 tokens: ~12k heap events per event-driven
run), asserts the fast path returns *bit-identical* results at
>= 11.67x less wall-clock, and times the persistent result cache's
effect on a cost-model fit (cold fit vs warm restore).  Writes the
measured record to ``benchmarks/BENCH_sim.json`` (a CI artifact, not
tracked).

Memory checking is disabled for the timing loop: the bench measures
engine speed, not feasibility (both backends share the identical
``check_plan_memory`` path anyway).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import simulate_plan
from repro.plan import uniform_plan
from repro.workloads import BatchWorkload

OUT = Path(__file__).resolve().parent / "BENCH_sim.json"

#: The fast path must beat the event loop by at least this factor:
#: 0.75 x the 15.56x measured on a 2-vCPU host, and never below 5x.
MIN_SPEEDUP = 11.67
ROUNDS = 5


def _fleet_scale_config():
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(7)  # 4x T4 + 2x V100: six stages
    plan = uniform_plan(
        spec.name,
        spec.num_layers,
        [((d.device_id,), d.gpu.name) for d in cluster.devices],
        bits=4,
        prefill_microbatch=16,
        decode_microbatch=8,
    )
    workload = BatchWorkload(
        batch=64, prompt_len=512, output_len=256, chunk_tokens=512
    )
    return spec, cluster, plan, workload


def _wall(fn, rounds: int = ROUNDS) -> float:
    """Best-of-``rounds`` wall-clock of one call (seconds)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_sim_scaling():
    spec, cluster, plan, workload = _fleet_scale_config()

    run_event = lambda: simulate_plan(  # noqa: E731
        plan, cluster, spec, workload,
        check_memory=False, sim_backend="event",
    )
    run_fast = lambda: simulate_plan(  # noqa: E731
        plan, cluster, spec, workload,
        check_memory=False, sim_backend="fast",
    )

    ev = run_event()
    fa = run_fast()
    # Hard parity requirement: the fast path is a reimplementation of
    # the same schedule, never an approximation.
    assert ev == fa
    assert ev.events_processed == fa.events_processed
    assert ev.events_processed > 10_000  # fleet-scale, not a toy

    event_wall_s = _wall(run_event)
    fast_wall_s = _wall(run_fast)
    speedup = event_wall_s / fast_wall_s
    assert speedup >= MIN_SPEEDUP, (
        f"fast backend only {speedup:.1f}x faster "
        f"(need >= {MIN_SPEEDUP}x): event {event_wall_s * 1e3:.2f}ms "
        f"vs fast {fast_wall_s * 1e3:.2f}ms"
    )

    # -- persistent cache: cold cost-model fit vs warm restore ----------
    from repro.experiments.common import _cost_model_cached

    saved = os.environ.get("SPLITQUANT_CACHE_DIR")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["SPLITQUANT_CACHE_DIR"] = tmp
        try:
            _cost_model_cached.cache_clear()
            t0 = time.perf_counter()
            cold = _cost_model_cached("opt-30b", ("T4-16G", "V100-32G"))
            cold_s = time.perf_counter() - t0
            _cost_model_cached.cache_clear()
            t0 = time.perf_counter()
            warm = _cost_model_cached("opt-30b", ("T4-16G", "V100-32G"))
            warm_s = time.perf_counter() - t0
            _cost_model_cached.cache_clear()
        finally:
            if saved is None:
                os.environ.pop("SPLITQUANT_CACHE_DIR", None)
            else:
                os.environ["SPLITQUANT_CACHE_DIR"] = saved
    assert cold.fitted_keys() == warm.fitted_keys()
    assert warm_s < cold_s, (
        f"warm cache restore ({warm_s:.3f}s) not faster than "
        f"cold fit ({cold_s:.3f}s)"
    )

    record = {
        "bench": "sim_scaling",
        "model": spec.name,
        "cluster": cluster.name,
        "workload": {
            "batch": workload.batch,
            "prompt_len": workload.prompt_len,
            "output_len": workload.output_len,
            "chunk_tokens": workload.chunk_tokens,
        },
        "stages": plan.num_stages,
        "events_per_run": ev.events_processed,
        "event_wall_s": round(event_wall_s, 5),
        "fast_wall_s": round(fast_wall_s, 5),
        "speedup": round(speedup, 2),
        "results_identical": ev == fa,
        "cache": {
            "cost_model_cold_fit_s": round(cold_s, 4),
            "cost_model_warm_restore_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 2),
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
