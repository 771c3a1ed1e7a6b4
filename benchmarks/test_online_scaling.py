"""Bench: the epoch-vectorized online fast path vs the event engine.

Measures ``repro.pipeline.simulate_online`` with ``sim_backend="fast"``
against the discrete-event backend on two realistic arrival streams over
the 7-GPU Table-III cluster serving OPT-30B:

* **steady** — 150k requests/day for 60 s (the sustainable regime from
  the online fleet demo), and
* **overload** — 2M requests/day for 30 s with an 8 s TTFT SLO, so the
  admission controller admits a deep backlog and still sheds ~96% of
  the stream (the regime where the event engine burns the most events
  per completed request).

Both backends read the same memoized durations (the shared
:class:`~repro.pipeline.topology.PipelineTopology` memo); caches are
cleared once per backend and the best of ``ROUNDS`` is kept, so the first round pays
table construction and the best round measures the driver itself — the
same thing either backend costs inside a warm serving loop.

Results must be *bit-identical* (the fast path is a speed knob, not a
fidelity one).  The speedup is recorded, not gated: the absolute wall
time of the fast backend is the ledger's ``online-overload`` and
``online-sustain`` workloads, which CI compares against the base
commit.  Emits ``benchmarks/BENCH_online.json``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import (
    OnlineConfig,
    clear_table_caches,
    simulate_online,
)
from repro.plan import uniform_plan
from repro.workloads import poisson_trace, rate_for_daily

OUT = Path(__file__).resolve().parent / "BENCH_online.json"

ROUNDS = 5


def _bench_cases():
    """(name, plan, cluster, spec, trace, config) rows for both streams."""
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(7)
    plan = uniform_plan(
        spec.name,
        spec.num_layers,
        [((d.device_id,), d.gpu.name) for d in cluster.devices],
        bits=4,
        prefill_microbatch=8,
        decode_microbatch=8,
    )
    steady = poisson_trace(
        rate_for_daily(150_000), duration_s=60.0, seed=42
    )
    overload = poisson_trace(
        rate_for_daily(2_000_000), duration_s=30.0, seed=7
    )
    return [
        (
            "steady",
            plan, cluster, spec, steady,
            OnlineConfig(chunk_tokens=512, admission="kv"),
        ),
        (
            "overload",
            plan, cluster, spec, overload,
            OnlineConfig(
                chunk_tokens=512, admission="kv", ttft_slo_s=8.0
            ),
        ),
    ]


def _measure_case(plan, cluster, spec, arrivals, config,
                  rounds: int = ROUNDS):
    """(event_wall_s, fast_wall_s, event_result, fast_result).

    Each backend starts from cold duration caches and keeps its best
    round, so the comparison is driver-vs-driver on warm tables.  A
    collection runs before each backend so a stale-heap GC pause from
    an earlier bench section cannot land inside a timed round.
    """

    def wall(backend):
        clear_table_caches()
        gc.collect()
        best, res = float("inf"), None
        for _ in range(rounds):
            t0 = time.perf_counter()
            res = simulate_online(
                plan, cluster, spec, arrivals,
                config=config, sim_backend=backend,
            )
            best = min(best, time.perf_counter() - t0)
        return best, res

    event_wall, event_res = wall("event")
    fast_wall, fast_res = wall("fast")
    return event_wall, fast_wall, event_res, fast_res


def _section(name, plan, cluster, spec, arrivals, config):
    event_wall, fast_wall, event_res, fast_res = _measure_case(
        plan, cluster, spec, arrivals, config
    )
    assert fast_res == event_res, f"{name}: fast backend diverged"
    speedup = event_wall / fast_wall
    return {
        "requests": arrivals.n_requests,
        "completed": event_res.completed,
        "rejected": event_res.rejected,
        "events_per_run": event_res.events_processed,
        "event_wall_s": round(event_wall, 5),
        "fast_wall_s": round(fast_wall, 5),
        "speedup": round(speedup, 2),
        "results_identical": True,
    }


def test_online_scaling():
    record = {"bench": "online_scaling"}
    for name, plan, cluster, spec, arrivals, config in _bench_cases():
        record[name] = _section(
            name, plan, cluster, spec, arrivals, config
        )
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
