"""Energy/$-cost accounting: the power model, parity, and objectives.

The contract (DESIGN.md, "Energy & cost accounting"): joules and dollars
are a *pure post-pass* over fields the event, fast and batched backends
already agree on bit-for-bit, so every assertion on cross-backend parity
here is ``==`` on raw floats.  The planner's non-throughput objectives
re-rank the candidate frontier, and the default objective must keep
every existing plan bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.costmodel.energy import (
    DEFAULT_PRICES,
    GPUPrice,
    default_price_book,
    plan_cost,
    plan_energy,
    stage_occupancies,
)
from repro.pipeline import (
    OnlineConfig,
    PlanCase,
    evaluate_plans,
    simulate_online,
    simulate_plan,
)
from repro.plan import InfeasibleError, uniform_plan
from repro.simgpu.roofline import layer_occupancy
from repro.workloads import BatchWorkload, poisson_trace


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


@pytest.fixture(scope="module")
def case13b(cluster5, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 8, 4
    )
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    return plan, cluster5, opt13b, wl


# ---------------------------------------------------------------------------
# Power model primitives
# ---------------------------------------------------------------------------


def test_gpu_specs_carry_wattages(t4, v100, a100, p100):
    for gpu in (t4, v100, a100, p100):
        assert 0 < gpu.idle_watts < gpu.peak_watts


def test_layer_occupancy_bounded(t4, v100, opt13b):
    for gpu in (t4, v100):
        for phase, n_tok in (("prefill", 512), ("decode", 300)):
            occ = layer_occupancy(gpu, opt13b, 8, phase, 8, n_tok, 16)
            assert 0.0 < occ <= 1.0


def test_stage_occupancies_shape(case13b):
    plan, cluster, spec, wl = case13b
    occs = stage_occupancies(plan, cluster, spec, wl)
    assert len(occs) == len(plan.stages)
    for pre, dec in occs:
        assert 0.0 < pre <= 1.0
        assert 0.0 < dec <= 1.0


def test_plan_energy_degenerate_and_clamped(case13b):
    plan, cluster, spec, wl = case13b
    n = len(plan.stages)
    assert plan_energy(plan, cluster, spec, wl, 0.0, 0.0, 0.0, [0.0] * n) == 0.0
    assert plan_cost(plan, cluster, 0.0, 0.0) == 0.0
    # Busy time is clamped to [0, makespan]: an over-reported busy span
    # can never exceed the all-busy draw, and negative busy is idle-only.
    idle_only = plan_energy(
        plan, cluster, spec, wl, 10.0, 5.0, 5.0, [-1.0] * n
    )
    over = plan_energy(plan, cluster, spec, wl, 10.0, 5.0, 5.0, [99.0] * n)
    capped = plan_energy(plan, cluster, spec, wl, 10.0, 5.0, 5.0, [10.0] * n)
    assert idle_only < over == capped


def test_plan_energy_monotonic_in_busy(case13b):
    plan, cluster, spec, wl = case13b
    n = len(plan.stages)
    lo = plan_energy(plan, cluster, spec, wl, 10.0, 5.0, 5.0, [2.0] * n)
    hi = plan_energy(plan, cluster, spec, wl, 10.0, 5.0, 5.0, [8.0] * n)
    assert 0.0 < lo < hi


# ---------------------------------------------------------------------------
# Price book
# ---------------------------------------------------------------------------


def test_price_book_tiers():
    book = default_price_book(spot_types=("T4-16G",))
    assert book.tier_of("T4-16G") == "spot"
    assert book.tier_of("V100-32G") == "on_demand"
    t4 = DEFAULT_PRICES["T4-16G"]
    assert book.rate_usd_hr("T4-16G") == t4.spot_usd_hr
    assert book.rate_usd_hr("V100-32G") == (
        DEFAULT_PRICES["V100-32G"].on_demand_usd_hr
    )
    # Spot is the discount tier for every registered model.
    for name, price in DEFAULT_PRICES.items():
        assert price.spot_usd_hr < price.on_demand_usd_hr


def test_price_book_fallback_and_bad_tier():
    book = default_price_book()
    assert book.rate_usd_hr("H999-1T") > 0.0  # unregistered -> fallback
    with pytest.raises(ValueError):
        GPUPrice(1.0, 0.5).rate("reserved")


def test_spot_pricing_lowers_cost(case13b):
    plan, cluster, spec, wl = case13b
    sim = simulate_plan(plan, cluster, spec, wl, check_memory=False)
    spot_all = default_price_book(
        spot_types=tuple(sorted({st.gpu_name for st in plan.stages}))
    )
    cheap = plan_cost(plan, cluster, sim.makespan_s, sim.energy_j, spot_all)
    assert cheap < sim.cost_usd


# ---------------------------------------------------------------------------
# Cross-backend parity + result surface
# ---------------------------------------------------------------------------


def test_energy_bit_identical_across_backends(case13b):
    plan, cluster, spec, wl = case13b
    ev = simulate_plan(plan, cluster, spec, wl,
                       check_memory=False, sim_backend="event")
    fa = simulate_plan(plan, cluster, spec, wl,
                       check_memory=False, sim_backend="fast")
    (ba,) = evaluate_plans(
        [PlanCase(plan, cluster, spec, wl)], check_memory=False
    )
    # energy_j/cost_usd participate in dataclass equality, so `==`
    # alone would fail on any divergence; assert the fields explicitly
    # too so a failure names the culprit.
    assert ev.energy_j == fa.energy_j == ba.energy_j
    assert ev.cost_usd == fa.cost_usd == ba.cost_usd
    assert ev == fa == ba
    assert ev.energy_j > 0.0
    assert ev.cost_usd > 0.0
    assert ev.joules_per_token > 0.0
    assert ev.usd_per_mtoken > 0.0


def test_energy_matches_post_pass(case13b):
    plan, cluster, spec, wl = case13b
    sim = simulate_plan(plan, cluster, spec, wl, check_memory=False)
    assert sim.energy_j == plan_energy(
        plan, cluster, spec, wl,
        sim.makespan_s, sim.prefill_span_s, sim.decode_span_s,
        sim.stage_busy_s,
    )
    assert sim.cost_usd == plan_cost(
        plan, cluster, sim.makespan_s, sim.energy_j
    )


def test_online_result_carries_energy(cluster5, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )
    trace = poisson_trace(rate_per_s=3.0, duration_s=10.0, seed=5,
                          max_prompt_len=256, max_output_len=8)
    res = simulate_online(
        plan, cluster5, opt13b, trace, config=OnlineConfig(chunk_tokens=512)
    )
    assert res.energy_j is not None and res.energy_j > 0.0
    assert res.cost_usd is not None and res.cost_usd > 0.0
    assert res.joules_per_token > 0.0


# ---------------------------------------------------------------------------
# Cross-layer invariant: every result's energy lies in the idle/peak envelope
# ---------------------------------------------------------------------------


def assert_in_envelope(energy_j, gpus, makespan_s):
    """``sum(idle_watts) * M <= energy_j <= sum(peak_watts) * M`` over
    ``gpus`` (one entry per GPU), up to float rounding of the sums."""
    assert makespan_s > 0.0 and energy_j is not None
    lo = sum(g.idle_watts for g in gpus) * makespan_s
    hi = sum(g.peak_watts for g in gpus) * makespan_s
    slack = 1e-12 * hi
    assert lo - slack <= energy_j <= hi + slack, (lo, energy_j, hi)


@pytest.mark.parametrize("cluster_name", ["small", "cluster5"])
def test_energy_within_idle_peak_envelope(cluster_name, small_cluster,
                                          cluster5, opt13b):
    cluster = {"small": small_cluster, "cluster5": cluster5}[cluster_name]
    gpu_of = {d.device_id: d.gpu for d in cluster.devices}
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    trace = poisson_trace(rate_per_s=3.0, duration_s=10.0, seed=5,
                          max_prompt_len=256, max_output_len=8)
    plans = [
        uniform_plan(opt13b.name, opt13b.num_layers, groups_of(cluster),
                     bits, mb, mb)
        for bits in (4, 8)
        for mb in (4, 8)
    ]
    lanes = evaluate_plans(
        [PlanCase(plan, cluster, opt13b, wl) for plan in plans]
    )
    for plan, lane in zip(plans, lanes):
        gpus = [gpu_of[d] for st in plan.stages for d in st.device_ids]
        for backend in ("event", "fast"):
            res = simulate_plan(plan, cluster, opt13b, wl,
                                check_memory=False, sim_backend=backend)
            assert_in_envelope(res.energy_j, gpus, res.makespan_s)
        assert_in_envelope(lane.energy_j, gpus, lane.makespan_s)
        online = simulate_online(
            plan, cluster, opt13b, trace,
            config=OnlineConfig(chunk_tokens=512), check_memory=False,
        )
        assert_in_envelope(online.energy_j, gpus, online.makespan_s)


# ---------------------------------------------------------------------------
# Planner objectives
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def objective_planner(opt13b, small_cluster, cost_model_13b):
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=5, max_orderings=2,
                        microbatch_candidates=(4, 8), time_limit_s=10.0)
    return SplitQuantPlanner(
        opt13b, small_cluster, cfg, cost_model=cost_model_13b
    )


def test_default_objective_bit_identical(objective_planner, small_workload):
    baseline = objective_planner.plan(small_workload)
    explicit = objective_planner.plan(small_workload, objective="throughput")
    assert baseline is not None and explicit is not None
    assert explicit.plan == baseline.plan
    assert baseline.objective == "throughput"
    assert baseline.budget is None
    assert baseline.predicted_energy_j is None
    assert baseline.predicted_cost_usd is None


@pytest.mark.parametrize("objective,metric", [
    ("energy", "joules_per_token"),
    ("cost", "usd_per_mtoken"),
])
def test_objective_never_loses_on_its_metric(
    objective_planner, small_workload, small_cluster, opt13b,
    objective, metric,
):
    base = objective_planner.plan(small_workload)
    res = objective_planner.plan(small_workload, objective=objective)
    assert res is not None
    assert res.objective == objective
    assert res.predicted_energy_j is not None
    assert res.predicted_cost_usd is not None
    sim_base = simulate_plan(
        base.plan, small_cluster, opt13b, small_workload, check_memory=False
    )
    sim_obj = simulate_plan(
        res.plan, small_cluster, opt13b, small_workload, check_memory=False
    )
    assert getattr(sim_obj, metric) <= getattr(sim_base, metric) + 1e-9


def test_budgeted_objective(objective_planner, small_workload, small_cluster,
                            opt13b):
    free = objective_planner.plan(small_workload, objective="energy")
    sim = simulate_plan(
        free.plan, small_cluster, opt13b, small_workload, check_memory=False
    )
    # A budget just above the energy-optimal J/token is feasible by
    # construction: the energy-optimal candidate itself satisfies it.
    budget = sim.joules_per_token * 1.01
    res = objective_planner.plan(
        small_workload, objective="energy", budget=budget
    )
    assert res is not None
    assert res.budget == budget
    assert res.predicted_energy_j is not None


def test_budget_infeasible_raises(objective_planner, small_workload):
    with pytest.raises(InfeasibleError):
        objective_planner.plan(
            small_workload, objective="energy", budget=1e-12
        )


def test_budget_with_throughput_rejected(objective_planner, small_workload):
    with pytest.raises(ValueError):
        objective_planner.plan(
            small_workload, objective="throughput", budget=1.0
        )


def test_planner_config_validates_objective(objective_planner, small_workload,
                                            monkeypatch):
    """A bad per-call objective or budget raises before any search."""
    from repro.core import dp
    from repro.core.search import CandidateSearchEngine

    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran before validation")

    monkeypatch.setattr(CandidateSearchEngine, "search", forbidden)
    monkeypatch.setattr(dp, "dp_search", forbidden)
    monkeypatch.setattr("repro.core.planner.dp_search", forbidden)
    bad = [
        ("latency", None),
        ("energy", float("nan")),
        ("energy", -1.0),
        ("cost", 0.0),
        ("throughput", 1.0),
    ]
    for tier in ("exact", "dp"):
        for objective, budget in bad:
            with pytest.raises(ValueError):
                objective_planner.plan(
                    small_workload, tier=tier, objective=objective,
                    budget=budget,
                )


def test_dp_tier_threads_objective(opt13b, small_cluster, cost_model_13b,
                                   small_workload):
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=5, max_orderings=2,
                        microbatch_candidates=(4,), time_limit_s=10.0)
    planner = SplitQuantPlanner(
        opt13b, small_cluster, cfg, cost_model=cost_model_13b
    )
    res = planner.plan(small_workload, tier="dp", objective="energy")
    assert res is not None
    assert res.objective == "energy"
    assert res.predicted_energy_j is not None


@pytest.fixture(scope="module")
def frontier_planner(opt30b, cluster5):
    """OPT-30B on cluster 5 with ``verify_top_k=1``: pruning for the
    verified top-1 alone would leave a different energy/cost frontier
    (and a different energy plan) than the exhaustive search."""
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=3, max_orderings=2,
                        microbatch_candidates=(8, 16), verify_top_k=1,
                        time_limit_s=30.0)
    return SplitQuantPlanner(opt30b, cluster5, cfg)


@pytest.mark.parametrize("objective", ["energy", "cost"])
def test_objective_frontier_is_prune_invariant(frontier_planner, objective,
                                               monkeypatch):
    """The pruned search hands the objective re-rank the same leading
    frontier, and so the same plan, as the exhaustive serial oracle."""
    from repro.core.planner import OBJECTIVE_FRONTIER_K, SplitQuantPlanner
    from tests.planner_oracle import plan_reference

    wl = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    frontiers = []
    real = SplitQuantPlanner._select_by_objective

    def spy(self, ranked, workload, objective, budget):
        frontiers.append([
            (score, ordering, sizes, eta, xi, bit_kv,
             sol.assign_stage, sol.assign_bits)
            for score, sol, ordering, sizes, eta, xi, bit_kv in ranked
        ])
        return real(self, ranked, workload, objective, budget)

    monkeypatch.setattr(SplitQuantPlanner, "_select_by_objective", spy)
    pruned = frontier_planner.plan(wl, objective=objective)
    exhaustive = plan_reference(frontier_planner, wl, objective=objective)
    assert pruned.plan == exhaustive.plan
    k = OBJECTIVE_FRONTIER_K
    assert frontiers[0][:k] == frontiers[1][:k]


# ---------------------------------------------------------------------------
# Fleet energy/cost + spot preemption
# ---------------------------------------------------------------------------

FLEET_INVENTORY = {"V100-32G": 3, "T4-16G": 4}


@pytest.fixture(scope="module")
def fleet_setup():
    from repro.fleet import FleetScheduler, make_job_queue, simulate_schedule

    jobs = make_job_queue(n_jobs=3, seed=0, models=("opt-1.3b", "bloom-3b"))
    sched = FleetScheduler(
        FLEET_INVENTORY, allocator="greedy",
        spot_types=("T4-16G", "V100-32G"),
    )
    schedule = sched.schedule(jobs)
    return sched, schedule, simulate_schedule(
        schedule, price_book=sched.price_book
    )


def test_fleet_result_carries_energy(fleet_setup):
    _, _, sim = fleet_setup
    assert sim.energy_j is not None and sim.energy_j > 0.0
    assert sim.cost_usd is not None and sim.cost_usd > 0.0
    assert sim.joules_per_token > 0.0
    assert sim.usd_per_mtoken > 0.0
    # Fleet joules cover every job's busy draw plus inventory idle, so
    # they dominate the sum of the per-job pipeline totals.
    busy = sum(
        (rec.batch_sim.energy_j or 0.0) * rec.num_batches
        for rec in sim.jobs
    )
    assert sim.energy_j >= busy


def test_fleet_energy_within_idle_peak_envelope(fleet_setup):
    """Fleet joules: busy draw of every job plus idle draw of the rest
    of the inventory, so the whole inventory bounds them."""
    from repro.hardware.gpus import get_gpu

    _, _, sim = fleet_setup
    gpus = [get_gpu(g) for g, n in FLEET_INVENTORY.items() for _ in range(n)]
    assert_in_envelope(sim.energy_j, gpus, sim.makespan_s)


def test_fleet_spot_book_is_cheaper(fleet_setup):
    from repro.fleet import simulate_schedule

    _, schedule, spot_sim = fleet_setup
    on_demand = simulate_schedule(schedule, price_book=default_price_book())
    assert spot_sim.cost_usd < on_demand.cost_usd
    assert spot_sim.energy_j == on_demand.energy_j  # pricing only


def test_preempt_spot_validates_and_repairs(fleet_setup):
    sched, schedule, _ = fleet_setup
    with pytest.raises(KeyError):
        sched.preempt_spot(schedule, "no-such-job")
    with pytest.raises(ValueError):
        sched.preempt_spot(schedule, schedule.jobs[0].job.job_id,
                           gpu="P100-12G")  # not spot-priced
    repaired = sched.preempt_spot(schedule, schedule.jobs[0].job.job_id)
    assert len(repaired.jobs) == len(schedule.jobs)


def test_allocator_cost_objective():
    from repro.fleet import GreedyAllocator, group_rate_usd_hr

    with pytest.raises(ValueError):
        GreedyAllocator(objective="latency")
    book = default_price_book(spot_types=("T4-16G",))
    alloc = GreedyAllocator(objective="cost", price_book=book)
    assert alloc.objective == "cost"
    from repro.fleet import enumerate_groups

    groups = enumerate_groups(FLEET_INVENTORY, max_gpus=2, max_types=2)
    for g in groups:
        assert group_rate_usd_hr(g, book) == pytest.approx(
            sum(n * book.rate_usd_hr(name) for name, n in g.counts)
        )
