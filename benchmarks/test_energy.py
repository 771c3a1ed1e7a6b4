"""Bench: energy/cost accounting parity and the Pareto headline numbers.

Two contracts, with the measured record written to
``benchmarks/BENCH_energy.json`` (a CI artifact, not tracked):

* **Cross-backend parity** — joules and dollars are stamped by a pure
  post-pass over fields the engines already agree on, so the event,
  fast and batched backends must agree *bit-for-bit* on every grid
  point (energy participates in result equality, so ``ev == fa``
  covers it).
* **Efficiency headlines** — J/token and $/Mtoken of the
  throughput-optimal plan on the Pareto configuration, plus the
  energy- and cost-objective plans' numbers.  These are deterministic
  cost-model outputs (no wall-clock), so the bench pins the throughput
  plan's tok/s, J/token and $/Mtoken exactly at the record's rounding:
  a ceiling with slack cannot see an energy-model change (doubling
  every GPU's idle power moves J/token only 7%), and a duration drift
  in the simulator moves all three.  The energy and cost objectives
  must match or beat the throughput plan on their own metric.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import PlannerConfig, SplitQuantPlanner
from repro.experiments.common import cost_model_for
from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import PlanCase, evaluate_plans, simulate_plan
from repro.plan import uniform_plan
from repro.workloads import BatchWorkload

OUT = Path(__file__).resolve().parent / "BENCH_energy.json"

#: The throughput-optimal plan's deterministic headline, as recorded.
THROUGHPUT_PLAN = {
    "tokens_per_s": 159.231,
    "j_per_token": 2.380937,
    "usd_per_mtoken": 7.179481,
}

#: The differential grid: (cluster index, bits, workload) cases every
#: backend must score with bit-identical joules and dollars.
GRID = (
    (5, 4, BatchWorkload(batch=32, prompt_len=512, output_len=100)),
    (5, 8, BatchWorkload(batch=16, prompt_len=256, output_len=64,
                         chunk_tokens=512)),
    (7, 4, BatchWorkload(batch=64, prompt_len=512, output_len=128)),
    (7, 3, BatchWorkload(batch=8, prompt_len=128, output_len=32,
                         chunk_tokens=256)),
)


def _grid_case(cluster_idx: int, bits: int, workload: BatchWorkload):
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(cluster_idx)
    plan = uniform_plan(
        spec.name,
        spec.num_layers,
        [((d.device_id,), d.gpu.name) for d in cluster.devices],
        bits=bits,
        prefill_microbatch=16,
        decode_microbatch=8,
    )
    return spec, cluster, plan, workload


def measure_parity() -> dict:
    """Event vs fast vs batched joules/dollars across the grid."""
    points = []
    cases = [_grid_case(*g) for g in GRID]
    batched = evaluate_plans(
        [PlanCase(plan, cluster, spec, wl)
         for spec, cluster, plan, wl in cases],
        check_memory=False,
    )
    all_identical = True
    for (spec, cluster, plan, wl), ba in zip(cases, batched):
        ev = simulate_plan(plan, cluster, spec, wl,
                           check_memory=False, sim_backend="event")
        fa = simulate_plan(plan, cluster, spec, wl,
                           check_memory=False, sim_backend="fast")
        identical = ev == fa == ba and ev.energy_j == fa.energy_j == ba.energy_j
        all_identical &= identical
        points.append(
            {
                "cluster": cluster.name,
                "batch": wl.batch,
                "energy_j": ev.energy_j,
                "cost_usd": ev.cost_usd,
                "identical": identical,
            }
        )
    return {"grid_points": len(points), "all_identical": all_identical,
            "points": points}


def measure_objectives() -> dict:
    """The Pareto anchors: each objective's plan on (OPT-30B, cluster 5)."""
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)
    wl = BatchWorkload(batch=32, prompt_len=512, output_len=100)
    cfg = PlannerConfig(
        group_size=2,
        max_orderings=2,
        microbatch_candidates=(8, 16),
        time_limit_s=30.0,
    )
    planner = SplitQuantPlanner(
        spec, cluster, cfg, cost_model=cost_model_for(spec, cluster)
    )
    out = {}
    for objective in ("throughput", "energy", "cost"):
        res = planner.plan(wl, objective=objective)
        assert res is not None, f"{objective} objective found no plan"
        assert res.objective == objective
        sim = simulate_plan(res.plan, cluster, spec, wl, check_memory=False)
        out[objective] = {
            "tokens_per_s": round(sim.throughput_tokens_s, 3),
            "j_per_token": round(sim.joules_per_token, 6),
            "usd_per_mtoken": round(sim.usd_per_mtoken, 6),
        }
        if objective != "throughput":
            assert res.predicted_energy_j is not None
            assert res.predicted_cost_usd is not None
    return out


def test_energy_bench():
    parity = measure_parity()
    # Hard contract: one energy model, three backends, zero divergence.
    assert parity["all_identical"], parity

    objectives = measure_objectives()
    throughput = objectives["throughput"]
    assert throughput == THROUGHPUT_PLAN, throughput
    # The energy objective can only improve J/token over the default,
    # and the cost objective can only improve $/Mtoken (same frontier,
    # re-ranked by the respective metric).
    assert (
        objectives["energy"]["j_per_token"]
        <= throughput["j_per_token"] + 1e-9
    )
    assert (
        objectives["cost"]["usd_per_mtoken"]
        <= throughput["usd_per_mtoken"] + 1e-9
    )

    record = {
        "bench": "energy",
        "model": "opt-30b",
        "cluster": "cluster-5",
        "workload": {"batch": 32, "prompt_len": 512, "output_len": 100},
        "parity": parity,
        "objectives": objectives,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
