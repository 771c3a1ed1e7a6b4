"""Shared builders for the golden regression fixtures.

A golden trace is the canonical JSON rendering
(:func:`repro.serialization.dumps_degraded_result`) of one degraded
discrete-event simulation.  The scenarios below are fully deterministic:
pure-arithmetic :class:`~repro.pipeline.stage.RooflineTiming` (no fitted
least-squares models, no RNG) and floats rounded to 12 significant
digits at serialization.  ``tests/test_golden_traces.py`` compares the
fixture files byte-for-byte; ``scripts/regen_golden_traces.py``
regenerates them after an intentional simulator change.

The heuristic-plan fixture pins the bitwidth-transfer planner tier the
same way: one line per (model, Table-III cluster, quality budget) grid
point with the chosen plan and its predicted figures, compared exactly
by ``tests/test_golden_heuristic_plans.py``.  The planner-paths fixture
pins the paths that fixture does not reach: the DP tier, the verify
re-score, the energy/cost re-rank and both incremental re-plan deltas
(``tests/test_golden_planner_paths.py``).  The fleet-schedule fixture
pins small greedy and beam schedules under the throughput and the cost
objective: each job's group, timeline slot and plan, and the simulated
fleet makespan, energy and cost; and one seeded online fleet replay
(``tests/test_golden_fleet_schedules.py``).  The online-fleet-grid
fixture pins the online fleet on a seeded contention grid, event
counts included (same test module).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict

from repro.core import (
    ClusterDelta,
    JobDelta,
    PlannerConfig,
    SplitQuantPlanner,
)
from repro.fleet import (
    FleetScheduler,
    default_fleet_config,
    make_job_arrivals,
    make_job_queue,
    simulate_online_fleet,
    simulate_schedule,
)
from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro.pipeline import simulate_degraded
from repro.pipeline.stage import RooflineTiming
from repro.plan import InfeasibleError, uniform_plan
from repro.runtime import FaultPlan, FaultSpec
from repro.serialization import _round_floats, dumps_degraded_result, to_dict
from repro.workloads import BatchWorkload

DATA_DIR = Path(__file__).parent / "data"


def _base(num_stages: int):
    spec = get_model("opt-13b")
    if num_stages == 2:
        cluster = make_cluster(
            "golden", [("A100-40G", 1), ("V100-32G", 1)]
        )
        groups = [((0,), "A100-40G"), ((1,), "V100-32G")]
    else:
        cluster = make_cluster(
            "golden", [("A100-40G", 2), ("V100-32G", 2)]
        )
        groups = [
            ((0,), "A100-40G"),
            ((1,), "A100-40G"),
            ((2,), "V100-32G"),
            ((3,), "V100-32G"),
        ]
    plan = uniform_plan(
        model_name=spec.name,
        num_layers=spec.num_layers,
        device_groups=groups,
        bits=4,
        prefill_microbatch=8,
        decode_microbatch=8,
    )
    wl = BatchWorkload(batch=16, prompt_len=512, output_len=32)
    return spec, cluster, plan, wl


def _trace(fault_plan: FaultPlan, num_stages: int = 2) -> str:
    spec, cluster, plan, wl = _base(num_stages)
    res = simulate_degraded(
        plan,
        cluster,
        spec,
        wl,
        fault_plan,
        timing=RooflineTiming(spec=spec, bit_kv=plan.bit_kv),
        check_memory=False,
        detection_overhead_s=0.5,
    )
    return dumps_degraded_result(res)


def trace_kill_mid_decode() -> str:
    """Kill the last stage at decode step 10 of 32 (the canonical demo)."""
    return _trace(FaultPlan.single_kill(stage=1, step=10))


def trace_kill_prefill() -> str:
    """Kill stage 0 while prefill micro-batch 1 is in flight."""
    return _trace(
        FaultPlan(specs=(FaultSpec("kill", 0, "prefill", 1),))
    )


def trace_drop_rebuild() -> str:
    """A lost message at decode step 5: rebuild on the same plan."""
    return _trace(FaultPlan(specs=(FaultSpec("drop", 0, "decode", 5),)))


def trace_slow_absorbed() -> str:
    """A 2s transient slowdown, absorbed without recovery."""
    return _trace(
        FaultPlan(specs=(FaultSpec("slow", 1, "decode", 8, delay_s=2.0),))
    )


def trace_double_kill_four_stages() -> str:
    """Two successive kills on a 4-stage pipeline (two replans)."""
    return _trace(
        FaultPlan(
            specs=(
                FaultSpec("kill", 3, "decode", 6),
                FaultSpec("kill", 0, "decode", 20),
            )
        ),
        num_stages=4,
    )


GOLDEN_SCENARIOS: Dict[str, Callable[[], str]] = {
    "degraded_kill_mid_decode": trace_kill_mid_decode,
    "degraded_kill_prefill": trace_kill_prefill,
    "degraded_drop_rebuild": trace_drop_rebuild,
    "degraded_slow_absorbed": trace_slow_absorbed,
    "degraded_double_kill_4stage": trace_double_kill_four_stages,
}


HEURISTIC_PLANS = "heuristic_plans"
HEURISTIC_MODELS = ("opt-13b", "opt-30b", "qwen2.5-7b")
HEURISTIC_CLUSTERS = tuple(range(1, 11))
HEURISTIC_WORKLOAD = BatchWorkload(batch=16, prompt_len=256, output_len=64)


def heuristic_planners(spec, cluster) -> Dict[str, SplitQuantPlanner]:
    """Heuristic-tier planners keyed by quality budget (``"none"``,
    ``"uniform4"``): the fleet's planner configuration with two
    micro-batch sizes, so each ordering has several (eta, xi) candidates.
    """
    cfg = dataclasses.replace(
        default_fleet_config(), microbatch_candidates=(4, 8)
    )
    free = SplitQuantPlanner(spec, cluster, cfg)
    budgeted = SplitQuantPlanner(
        spec,
        cluster,
        dataclasses.replace(cfg, quality_budget=free.uniform_quality(4)),
        cost_model=free.cost_model,
        omega_layers=free.omega_layers,
    )
    return {"none": free, "uniform4": budgeted}


def heuristic_plans() -> str:
    """Heuristic-tier plans over models x Table-III clusters x
    :func:`heuristic_planners`, one grid point per line."""
    lines = []
    for model in HEURISTIC_MODELS:
        spec = get_model(model)
        for idx in HEURISTIC_CLUSTERS:
            planners = heuristic_planners(spec, table_iii_cluster(idx))
            for budget, planner in planners.items():
                res = planner.plan(HEURISTIC_WORKLOAD)
                entry = None if res is None else {
                    "plan": to_dict(res.plan),
                    "predicted_latency_s": res.predicted_latency_s,
                    "predicted_quality": res.predicted_quality,
                    "throughput_tokens_s": res.throughput_tokens_s,
                }
                key = f"{model}/cluster-{idx}/budget={budget}"
                lines.append(
                    json.dumps(key)
                    + ": "
                    + json.dumps(_round_floats(entry), sort_keys=True)
                )
    return "{\n" + ",\n".join(lines) + "\n}\n"


PLANNER_PATHS = "planner_paths"
PATHS_MODEL = "opt-13b"
PATHS_WORKLOAD = BatchWorkload(batch=8, prompt_len=256, output_len=32)
PATHS_OBJECTIVES = ("throughput", "energy", "cost")
PATHS_DP_CLUSTERS = {
    "8xV100+4xT4": [("V100-32G", 8), ("T4-16G", 4)],
    "4xA100+4xV100+4xT4": [
        ("A100-40G", 4), ("V100-32G", 4), ("T4-16G", 4)
    ],
}
PATHS_EXACT_CLUSTERS = (3, 5, 7)
PATHS_REPLAN_CLUSTER = [("A100-40G", 1), ("V100-32G", 1), ("T4-16G", 1)]
PATHS_JOB_BATCHES = (4, 16, 32)


def _paths_entry(run: Callable[[], object]) -> object:
    """One planner result as a fixture entry (``None`` when nothing
    fits, the exception type name when planning raises)."""
    try:
        res = run()
    except InfeasibleError as exc:
        return {"error": type(exc).__name__}
    if res is None:
        return None
    return {
        "plan": to_dict(res.plan),
        "tier": res.tier,
        "tier_reason": res.tier_reason,
        "predicted_latency_s": res.predicted_latency_s,
        "predicted_quality": res.predicted_quality,
        "throughput_tokens_s": res.throughput_tokens_s,
        "gap_bound": res.gap_bound,
        "predicted_energy_j": res.predicted_energy_j,
        "predicted_cost_usd": res.predicted_cost_usd,
    }


def planner_paths() -> str:
    """Planner paths beyond the heuristic grid, one result per line.

    Every path runs with ``verify_top_k=3`` and two micro-batch sizes, so
    the verify re-score and the energy/cost re-rank see several
    candidates:

    - the DP tier on two 12-GPU clusters, both solve backends, all three
      objectives;
    - the heuristic exact tier on Table-III clusters 3, 5 and 7, all
      three objectives, plus the throughput objective under a hard
      quality budget;
    - incremental re-planning on a 3-GPU cluster: a ClusterDelta killing
      each device (and one killing two, which forces the re-solve), and
      a JobDelta to each new batch size.
    """
    spec = get_model(PATHS_MODEL)
    base = PlannerConfig(microbatch_candidates=(4, 8), verify_top_k=3)
    wl = PATHS_WORKLOAD
    entries = []
    for name, groups in PATHS_DP_CLUSTERS.items():
        cluster = make_cluster(name, groups)
        for heur in (False, True):
            planner = SplitQuantPlanner(
                spec, cluster, dataclasses.replace(base, use_heuristic=heur)
            )
            for obj in PATHS_OBJECTIVES:
                entries.append((
                    f"dp/{name}/heuristic={heur}/{obj}",
                    _paths_entry(
                        lambda: planner.plan(wl, tier="dp", objective=obj)
                    ),
                ))
    for idx in PATHS_EXACT_CLUSTERS:
        planner = SplitQuantPlanner(
            spec,
            table_iii_cluster(idx),
            dataclasses.replace(base, use_heuristic=True),
        )
        for obj in PATHS_OBJECTIVES:
            entries.append((
                f"exact-heuristic/cluster-{idx}/{obj}",
                _paths_entry(
                    lambda: planner.plan(wl, tier="exact", objective=obj)
                ),
            ))
        # Under a hard quality budget the verify pick scores latency alone.
        budgeted = SplitQuantPlanner(
            spec,
            planner.cluster,
            dataclasses.replace(
                planner.config, quality_budget=planner.uniform_quality(4)
            ),
            cost_model=planner.cost_model,
            omega_layers=planner.omega_layers,
        )
        entries.append((
            f"exact-heuristic/cluster-{idx}/budget=uniform4",
            _paths_entry(lambda: budgeted.plan(wl, tier="exact")),
        ))
    cluster = make_cluster("replan", PATHS_REPLAN_CLUSTER)
    planner = SplitQuantPlanner(
        spec,
        cluster,
        dataclasses.replace(
            base, enable_tp=False, microbatch_candidates=(2, 4, 8)
        ),
    )
    prev = planner.plan(wl)
    entries.append(("replan/initial", _paths_entry(lambda: prev)))
    # Single kills repair; losing the A100 and the V100 together leaves
    # the T4 alone, where the repair cannot fit and the re-solve runs.
    kills = [(d.device_id,) for d in cluster.devices] + [(0, 1)]
    for removed in kills:
        delta = ClusterDelta(removed_device_ids=removed)
        entries.append((
            "replan/cluster-delta/kill-" + "+".join(map(str, removed)),
            _paths_entry(lambda: planner.replan(prev, delta)),
        ))
    for batch in PATHS_JOB_BATCHES:
        delta = JobDelta(
            BatchWorkload(batch=batch, prompt_len=256, output_len=48)
        )
        entries.append((
            f"replan/job-delta/batch={batch}",
            _paths_entry(lambda: planner.replan(prev, delta)),
        ))
    return _render(entries)


def _render(entries) -> str:
    """One ``"key": entry`` JSON line per entry, floats rounded."""
    lines = [
        json.dumps(key) + ": " + json.dumps(_round_floats(entry), sort_keys=True)
        for key, entry in entries
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


FLEET_SCHEDULES = "fleet_schedules"
FLEET_INVENTORY = {"V100-32G": 3, "T4-16G": 4, "P100-12G": 2}
#: (key prefix, allocator, FleetScheduler keyword arguments).
FLEET_RUNS = (
    ("greedy", "greedy", {}),
    ("beam", "beam", {}),
    ("cost-greedy", "greedy", {"objective": "cost", "spot_types": ("T4-16G",)}),
    ("cost-beam", "beam", {"objective": "cost", "spot_types": ("T4-16G",)}),
)
#: The online replay: a 3-GPU inventory and a seeded stream dense
#: enough that jobs queue, plus an OPT-66B job that one arrival drops.
FLEET_ONLINE_INVENTORY = {"V100-32G": 1, "T4-16G": 2}
FLEET_ONLINE_MODELS = ("opt-1.3b", "bloom-3b", "opt-66b")


def fleet_schedules() -> str:
    """Small greedy and beam fleet schedules and one online replay.

    Four seeded jobs (OPT-1.3B and BLOOM-3B) on a 9-GPU mixed
    inventory, as in ``tests/test_fleet.py``, scheduled by each
    allocator under the throughput objective and under the cost
    objective with T4s spot-priced.  Each job records its group, its
    slot on the timeline and its plan; each run's summary line records
    the schedule makespan, the unscheduled jobs and the simulated fleet
    makespan, tokens, energy and cost.  The online entries replay a
    seeded arrival stream through ``simulate_online_fleet``: per job its
    group, start and end, then the drops and the makespan.
    """
    jobs = make_job_queue(n_jobs=4, seed=0, models=("opt-1.3b", "bloom-3b"))
    entries = []
    for prefix, allocator, kwargs in FLEET_RUNS:
        scheduler = FleetScheduler(
            FLEET_INVENTORY, allocator=allocator, **kwargs
        )
        schedule = scheduler.schedule(jobs)
        sim = simulate_schedule(schedule, price_book=scheduler.price_book)
        entries.append((f"{prefix}/summary", {
            "makespan_s": schedule.makespan_s,
            "unscheduled": [job.job_id for job in schedule.unscheduled],
            "sim_makespan_s": sim.makespan_s,
            "sim_total_tokens": sim.total_tokens,
            "sim_energy_j": sim.energy_j,
            "sim_cost_usd": sim.cost_usd,
        }))
        for sj in schedule.jobs:
            entries.append((f"{prefix}/{sj.job.job_id}", {
                "group": [list(c) for c in sj.group.counts],
                "start_s": sj.start_s,
                "end_s": sj.end_s,
                "plan": to_dict(sj.assignment.result.plan),
            }))
    arrivals = make_job_arrivals(
        n_jobs=6, seed=1, mean_interarrival_s=5.0, models=FLEET_ONLINE_MODELS
    )
    online = simulate_online_fleet(FLEET_ONLINE_INVENTORY, arrivals)
    entries.extend(_online_job_entries("online", online))
    entries.append(("online/summary", {
        "dropped": list(online.dropped),
        "makespan_s": online.makespan_s,
    }))
    return _render(entries)


def _online_job_entries(prefix: str, result):
    """Per served job, in start order: its group, start and end."""
    return [
        (f"{prefix}/{rec.job_id}", {
            "group": [list(c) for c in rec.group_counts],
            "start_s": rec.start_s,
            "end_s": rec.end_s,
        })
        for rec in result.jobs
    ]


ONLINE_FLEET_GRID = "online_fleet_grid"
#: The online contention grid: both fleet inventories above, three
#: seeds, and a dense (1 s) and a sparse (30 s) mean gap between ten
#: arrivals.  Jobs queue on both inventories; the 3-GPU one drops
#: OPT-66B jobs.
ONLINE_GRID_INVENTORIES = {"3gpu": FLEET_ONLINE_INVENTORY, "9gpu": FLEET_INVENTORY}
ONLINE_GRID_SEEDS = (0, 1, 2)
ONLINE_GRID_GAPS_S = (1.0, 30.0)


def online_grid_runs():
    """``(key, inventory, arrivals)`` per point of the contention grid."""
    for name, inventory in ONLINE_GRID_INVENTORIES.items():
        for seed in ONLINE_GRID_SEEDS:
            for gap in ONLINE_GRID_GAPS_S:
                arrivals = make_job_arrivals(
                    n_jobs=10,
                    seed=seed,
                    mean_interarrival_s=gap,
                    models=FLEET_ONLINE_MODELS,
                )
                yield f"{name}/seed={seed}/gap={gap:g}", inventory, arrivals


def online_fleet_grid() -> str:
    """The online fleet replay of every contention-grid point.

    Per served job, in start order, its group, start and end; per point
    the drops, the makespan and the events replayed, so a change in the
    order the timeline starts jobs shows.
    """
    entries = []
    for key, inventory, arrivals in online_grid_runs():
        result = simulate_online_fleet(inventory, arrivals)
        entries.extend(_online_job_entries(key, result))
        entries.append((f"{key}/summary", {
            "dropped": list(result.dropped),
            "makespan_s": result.makespan_s,
            "events_processed": result.events_processed,
        }))
    return _render(entries)


def fixture_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


def regenerate_all() -> Dict[str, Path]:
    """(Re)write every fixture; returns the paths written."""
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    written = {}
    builders = {
        **GOLDEN_SCENARIOS,
        HEURISTIC_PLANS: heuristic_plans,
        PLANNER_PATHS: planner_paths,
        FLEET_SCHEDULES: fleet_schedules,
        ONLINE_FLEET_GRID: online_fleet_grid,
    }
    for name, build in builders.items():
        path = fixture_path(name)
        path.write_text(build())
        written[name] = path
    return written


def assert_same_lines(actual: str, expected: str, hint: str) -> None:
    """Exact text equality, checked line by line.

    A mismatch fails with the first differing line, both line counts
    and ``hint`` instead of letting pytest render a diff of two whole
    traces, which on a several-hundred-line fixture takes many minutes.
    """
    got = actual.splitlines(keepends=True)
    want = expected.splitlines(keepends=True)
    if got == want:
        return
    n = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )
    end = "<end of text>"
    raise AssertionError(
        f"first difference at line {n + 1}:\n"
        f"  actual:   {got[n] if n < len(got) else end!r}\n"
        f"  expected: {want[n] if n < len(want) else end!r}\n"
        f"actual has {len(got)} lines, expected {len(want)}\n{hint}"
    )
