"""Bench: the closed-form fast simulator vs the discrete-event engine.

Measures both pipeline-simulation backends on a fleet-scale
configuration (OPT-30B on Table III cluster 7 — six stages — with a
64-request batch decoding 256 tokens: ~12k heap events per event-driven
run), and asserts the fast path returns *bit-identical* results at
>= 11.67x less CPU time.  Writes the measured record to
``benchmarks/BENCH_sim.json`` (a CI artifact, not tracked).

The two backends run in interleaved rounds, each timed with the
process's CPU clock, and the ratio compares each backend's fastest
round: a busy neighbour on a shared host slows whichever round it
lands on, not one backend's whole measurement.

Memory checking is disabled for the timing loop: the bench measures
engine speed, not feasibility (both backends share the identical
``check_plan_memory`` path anyway).
"""

from __future__ import annotations

import json
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
ROUNDS = 21


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


def _cpu_best(*fns):
    """Fastest CPU time (seconds) of each of ``fns`` over ``ROUNDS``
    interleaved rounds."""
    best = [float("inf")] * len(fns)
    for _ in range(ROUNDS):
        for i, fn in enumerate(fns):
            t0 = time.process_time()
            fn()
            best[i] = min(best[i], time.process_time() - t0)
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

    event_cpu_s, fast_cpu_s = _cpu_best(run_event, run_fast)
    speedup = event_cpu_s / fast_cpu_s
    assert speedup >= MIN_SPEEDUP, (
        f"fast backend only {speedup:.1f}x faster "
        f"(need >= {MIN_SPEEDUP}x): event {event_cpu_s * 1e3:.2f}ms "
        f"vs fast {fast_cpu_s * 1e3:.2f}ms"
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
        "rounds": ROUNDS,
        "event_cpu_s": round(event_cpu_s, 5),
        "fast_cpu_s": round(fast_cpu_s, 5),
        "speedup": round(speedup, 2),
        "results_identical": ev == fa,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
