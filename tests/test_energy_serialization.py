"""Serialization round-trips for the energy/cost result fields.

The convention under test: ``energy_j``/``cost_usd`` are emitted
*only when set* on pipeline/online/fleet result dicts, dicts written
before the fields existed still load (fields default to ``None``)
without any deprecation noise, and the planner provenance fields
(``objective``/``budget``/``predicted_*``) round-trip while staying
``compare=False`` — provenance never changes plan equality.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.core import PlannerResult
from repro.fleet import FleetSimResult
from repro.pipeline import OnlineSimResult, PipelineSimResult
from repro.plan import uniform_plan
from repro.serialization import from_dict, to_dict
from repro.workloads import BatchWorkload, poisson_trace


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def _stable(obj):
    """to_dict is a fixed point of from_dict(to_dict(.)) and JSON-safe."""
    d = to_dict(obj)
    json.loads(json.dumps(d))
    assert to_dict(from_dict(type(obj), d)) == d
    return d


def _legacy_load(cls, d, *fields):
    """Load a pre-energy dict (keys stripped) — no warnings allowed."""
    legacy = {k: v for k, v in d.items() if k not in fields}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return from_dict(cls, legacy)


@pytest.fixture(scope="module")
def pipeline_sim(cluster5, opt13b):
    from repro.pipeline import simulate_plan

    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 8, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=16)
    return simulate_plan(plan, cluster5, opt13b, wl, check_memory=False)


def test_pipeline_sim_energy_round_trip(pipeline_sim):
    d = _stable(pipeline_sim)
    assert d["energy_j"] > 0.0
    assert d["cost_usd"] > 0.0
    back = from_dict(PipelineSimResult, d)
    assert back.energy_j == d["energy_j"]
    assert back.cost_usd == d["cost_usd"]


def test_pipeline_sim_legacy_dict_loads(pipeline_sim):
    d = to_dict(pipeline_sim)
    back = _legacy_load(PipelineSimResult, d, "energy_j", "cost_usd")
    assert back.energy_j is None
    assert back.cost_usd is None
    # Unset energy reads as zero efficiency, never a crash...
    assert back.joules_per_token == 0.0
    assert back.usd_per_mtoken == 0.0
    # ...and the only-when-set convention keeps legacy dicts stable:
    # re-serializing the legacy load must not invent the keys.
    d2 = to_dict(back)
    assert "energy_j" not in d2
    assert "cost_usd" not in d2


def test_online_energy_round_trip(cluster5, opt13b):
    from repro.pipeline import OnlineConfig, simulate_online

    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )
    trace = poisson_trace(rate_per_s=3.0, duration_s=8.0, seed=7,
                          max_prompt_len=128, max_output_len=8)
    res = simulate_online(
        plan, cluster5, opt13b, trace, config=OnlineConfig(chunk_tokens=256)
    )
    d = _stable(res)
    assert d["energy_j"] > 0.0
    assert d["cost_usd"] > 0.0
    back = _legacy_load(OnlineSimResult, d, "energy_j", "cost_usd")
    assert back.energy_j is None
    assert back.cost_usd is None
    d2 = to_dict(back)
    assert "energy_j" not in d2 and "cost_usd" not in d2


def test_fleet_energy_round_trip():
    from repro.fleet import FleetScheduler, make_job_queue, simulate_schedule

    jobs = make_job_queue(n_jobs=2, seed=1, models=("opt-1.3b",))
    sched = FleetScheduler(
        {"V100-32G": 2, "T4-16G": 2}, allocator="greedy"
    )
    sim = simulate_schedule(sched.schedule(jobs),
                            price_book=sched.price_book)
    d = _stable(sim)
    assert d["energy_j"] > 0.0
    assert d["cost_usd"] > 0.0
    back = _legacy_load(FleetSimResult, d, "energy_j", "cost_usd")
    assert back.energy_j is None
    assert back.cost_usd is None


def test_planner_provenance_round_trip(opt13b, small_cluster,
                                       cost_model_13b, small_workload):
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=5, max_orderings=2,
                        microbatch_candidates=(4,), time_limit_s=10.0)
    planner = SplitQuantPlanner(
        opt13b, small_cluster, cfg, cost_model=cost_model_13b
    )
    res = planner.plan(small_workload, objective="energy")
    assert res is not None
    d = _stable(res)
    assert d["objective"] == "energy"
    assert d["predicted_energy_j"] is not None
    assert d["predicted_cost_usd"] is not None
    back = from_dict(PlannerResult, d)
    assert back.objective == "energy"
    # Floats are written at full precision: the load is exact.
    assert back.predicted_energy_j == res.predicted_energy_j
    assert back.predicted_cost_usd == res.predicted_cost_usd
    # Provenance is compare=False: two results differing only in it are
    # still equal, so persisted planner caches stay hit-compatible.
    scrubbed = dataclasses.replace(
        back, objective="throughput", budget=None,
        predicted_energy_j=None, predicted_cost_usd=None,
    )
    assert scrubbed == back
    # Pre-energy planner dicts (no provenance keys) still load.
    legacy = _legacy_load(
        PlannerResult, d,
        "objective", "budget", "predicted_energy_j", "predicted_cost_usd",
    )
    assert legacy.objective == "throughput"
    assert legacy.budget is None
    assert legacy.plan == res.plan
