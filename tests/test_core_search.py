"""Tests for the candidate search engine (bounds, pruning, parity)."""

import dataclasses
import sys

import numpy as np
import pytest

from repro.core import (
    PlannerConfig,
    SplitQuantPlanner,
    analytic_lower_bound,
    lagrangian_bound,
    mckp_lp_min_cost,
    solve_partition_ilp,
    solve_partition_lp_relaxation,
)
from repro.core import ilp
from repro.core.costs import build_problem
from repro.core.enumeration import candidate_orderings
from repro.core.search import (
    _PRUNE_ABS_SLACK,
    _PRUNE_REL_SLACK,
    _water_filled_bottlenecks,
    _water_level,
)
from repro.workloads import BatchWorkload
from tests.golden_utils import HEURISTIC_WORKLOAD, heuristic_planners
from tests.planner_oracle import plan_reference

FAST = PlannerConfig(
    group_size=5,
    max_orderings=2,
    microbatch_candidates=(4, 8),
    time_limit_s=10.0,
    verify_top_k=1,
)


def _assert_same_plan(a, b):
    assert a is not None and b is not None
    assert a.plan == b.plan
    assert a.predicted_latency_s == b.predicted_latency_s
    assert a.predicted_quality == b.predicted_quality


# -- determinism regression: engine == naive serial search ---------------


@pytest.mark.parametrize("use_heuristic", [False, True])
def test_engine_matches_naive_small(opt13b, small_cluster, cost_model_13b,
                                    small_workload, use_heuristic):
    cfg = dataclasses.replace(FAST, use_heuristic=use_heuristic,
                              verify_top_k=2)
    planner = SplitQuantPlanner(opt13b, small_cluster, cfg,
                                cost_model=cost_model_13b)
    _assert_same_plan(planner.plan(small_workload),
                      plan_reference(planner, small_workload))


def test_engine_matches_naive_cluster5(opt30b, cluster5):
    """Second model/cluster pair, hard-budget mode (Sec. VI-C)."""
    base = PlannerConfig(group_size=8, max_orderings=3,
                         microbatch_candidates=(4, 8), time_limit_s=10.0,
                         verify_top_k=1)
    seed_planner = SplitQuantPlanner(opt30b, cluster5, base)
    budget = seed_planner.uniform_quality(4)
    cfg = dataclasses.replace(base, quality_budget=budget)
    planner = SplitQuantPlanner(
        opt30b, cluster5, cfg, cost_model=seed_planner.cost_model,
        omega_layers=seed_planner.omega_layers,
    )
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    _assert_same_plan(planner.plan(wl), plan_reference(planner, wl))


def test_engine_matches_naive_at_16bit_quality_match():
    """Fig. 9, cluster 3, Qwen2.5-14B on LooGLE: Uniform runs at 16 bits,
    so the Sec. VI-C quality match sets the budget to the minimum-weight
    sum (0.0).  Float residue in the MCKP bound once made it ``inf`` on
    every candidate, so pruning dropped them all and the engine planned
    nothing while the exhaustive loop found a plan."""
    from repro.experiments.common import cost_model_for, microbatch_grid
    from repro.experiments.fig09_hetero_vllm import build_workload
    from repro.hardware import table_iii_cluster
    from repro.models import get_model

    spec = get_model("qwen2.5-14b")
    cluster = table_iii_cluster(3)
    wl = build_workload("loogle", spec.name, 3)
    base = PlannerConfig(
        group_size=max(spec.num_layers // 16, 1), max_orderings=6,
        microbatch_candidates=microbatch_grid(wl.batch), time_limit_s=20.0,
    )
    seed_planner = SplitQuantPlanner(
        spec, cluster, base, cost_model=cost_model_for(spec, cluster)
    )
    budget = seed_planner.uniform_quality(16)
    assert budget == 0.0
    planner = SplitQuantPlanner(
        spec, cluster, dataclasses.replace(base, quality_budget=budget),
        cost_model=seed_planner.cost_model,
        omega_layers=seed_planner.omega_layers,
    )
    _assert_same_plan(planner.plan(wl), plan_reference(planner, wl))


def test_best_first_solves_only_competitive_candidates(opt30b, cluster5):
    """Table-VI config: best-first on lazily tightened LP bounds solves
    a candidate only when its bound is within the prune slack of the
    k-th best score, so no solve is spent on a candidate the winner's
    bound already rules out; the search prunes candidates and reuses
    its memoized cost kernels."""
    base = PlannerConfig(group_size=3, max_orderings=6,
                         microbatch_candidates=(8, 16, 32), verify_top_k=1,
                         time_limit_s=30.0)
    seed_planner = SplitQuantPlanner(opt30b, cluster5, base)
    cfg = dataclasses.replace(
        base, quality_budget=seed_planner.uniform_quality(4)
    )
    planner = SplitQuantPlanner(
        opt30b, cluster5, cfg, cost_model=seed_planner.cost_model,
        omega_layers=seed_planner.omega_layers,
    )
    wl = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    res = planner.plan(wl)
    assert res is not None
    solved = [st for st in res.stats
              if st.status not in ("pruned", "infeasible")]
    # Hard-budget mode: a candidate's score is its latency.
    kth = sorted(st.latency_s for st in solved)[cfg.verify_top_k - 1]
    limit = kth + _PRUNE_ABS_SLACK + _PRUNE_REL_SLACK * kth
    assert [st.bound_s for st in solved if st.bound_s > limit] == []
    assert res.search.pruned > 0
    assert res.search.cache_hits > 0
    _assert_same_plan(res, plan_reference(planner, wl))


# -- heuristic tier: one start protocol for plan() and plan_reference() --


def _patch_everywhere(monkeypatch, name, value):
    """Replace ``name`` in every loaded ``repro`` module that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, value)


@pytest.mark.parametrize("budget", ["none", "uniform4"])
def test_heuristic_tier_needs_no_milp(monkeypatch, opt13b, cluster5, budget):
    """With the adabits MILP unavailable, both searches still plan, from
    the same greedy starts, to the same plan."""
    planner = heuristic_planners(opt13b, cluster5)[budget]

    def no_milp(*args, **kwargs):
        raise AssertionError("heuristic tier called solve_adabits")

    _patch_everywhere(monkeypatch, "solve_adabits", no_milp)
    wl = HEURISTIC_WORKLOAD
    _assert_same_plan(planner.plan(wl), plan_reference(planner, wl))


def test_heuristic_tier_falls_back_to_milp(monkeypatch, opt13b, cluster5):
    """When the greedy finds no start, the adabits MILP supplies one."""
    planner = heuristic_planners(opt13b, cluster5)["uniform4"]
    real = ilp.solve_adabits
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    _patch_everywhere(monkeypatch, "greedy_adabits", lambda *a, **k: None)
    _patch_everywhere(monkeypatch, "solve_adabits", counted)
    wl = HEURISTIC_WORKLOAD
    res = planner.plan(wl)
    assert res is not None and calls
    _assert_same_plan(res, plan_reference(planner, wl))


def test_failed_start_is_not_rebuilt(monkeypatch):
    """A candidate whose start fails (the greedy, then the adabits MILP)
    is recorded infeasible without a backend solve, which would only
    rebuild the same failed start: one adabits MILP per such candidate,
    as in the serial reference, and the same plan."""
    from repro.fleet.scheduler import default_fleet_config
    from repro.hardware import make_cluster
    from repro.models import get_model

    spec = get_model("opt-1.3b")
    cluster = make_cluster(
        "mixed", [("A100-40G", 1), ("T4-16G", 3)], cross_node_link="eth-800g"
    )
    probe = SplitQuantPlanner(spec, cluster, default_fleet_config())
    cfg = dataclasses.replace(
        probe.config, quality_budget=probe.uniform_quality(4)
    )
    planner = SplitQuantPlanner(
        spec, cluster, cfg, cost_model=probe.cost_model,
        omega_layers=probe.omega_layers,
    )
    real = ilp.solve_adabits
    calls = []

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    _patch_everywhere(monkeypatch, "solve_adabits", counted)
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=64)
    res = planner.plan(wl)
    searched = len(calls)
    assert searched and all(sol is None for sol in calls)
    assert [s.status for s in res.stats].count("infeasible") == searched
    ref = plan_reference(planner, wl)
    assert len(calls) - searched == searched
    _assert_same_plan(res, ref)


# -- admissibility: bounds never exceed a solved candidate's score -------


def _fuzz_problems(opt13b, cost_model_13b, small_cluster, n=4,
                   phase_blind=False):
    rng = np.random.default_rng(7)
    omega = np.abs(rng.normal(size=(opt13b.num_layers, 4)))
    omega = np.sort(omega, axis=1)[:, ::-1].copy()  # decreasing in bits
    orderings = candidate_orderings(small_cluster, max_orderings=2)
    problems = []
    for i in range(n):
        wl = BatchWorkload(
            batch=int(rng.choice([8, 16])),
            prompt_len=int(rng.choice([128, 256])),
            output_len=int(rng.choice([16, 32])),
        )
        eta = int(rng.choice([4, 8]))
        xi = int(rng.choice([4, 8]))
        problems.append(build_problem(
            opt13b, small_cluster, orderings[i % len(orderings)], wl,
            cost_model_13b, omega, eta, xi, (3, 4, 8, 16), group_size=8,
            phase_blind=phase_blind,
        ))
    return problems


@pytest.fixture(scope="module")
def cluster5_problems(opt30b, cluster5, t4, v100):
    """OPT-30B at B = 64 on cluster-5 orderings, half of them phase
    blind: the V100 stage's memory caps the layers the water fill would
    pour into it."""
    from repro.costmodel.latency import LatencyCostModel
    from repro.quant import normalized_indicator_table
    from repro.simgpu import Profiler

    bits = (3, 4, 8, 16)
    cm = LatencyCostModel(opt30b)
    cm.fit([t4, v100], bits, Profiler(seed=11))
    omega = normalized_indicator_table(opt30b, bits)
    wl = BatchWorkload(batch=64, prompt_len=512, output_len=32)
    return [
        build_problem(opt30b, cluster5, ordering, wl, cm, omega, 8, 8, bits,
                      group_size=4, phase_blind=blind)
        for ordering in candidate_orderings(cluster5, max_orderings=6)[1::2]
        for blind in (False, True)
    ]


def _without_caps(problem):
    """The same problem with room for any layer count on every stage."""
    return dataclasses.replace(
        problem, capacity=np.full(problem.n_stages, 1e30)
    )


def _stage_times(problem, stages, bits):
    """Per-stage prefill and decode times of an assignment."""
    t_pre, t_dec = problem.const_pre.copy(), problem.const_dec.copy()
    for g, (j, b) in enumerate(zip(stages, bits)):
        k = problem.bit_choices.index(b)
        t_pre[j] += problem.l_pre[g, j, k]
        t_dec[j] += problem.l_dec[g, j, k]
    return t_pre, t_dec


def _resolve_budget(problem, budget):
    """A parametrized budget; the strings sit at the least achievable
    quality sum (every group at its best bitwidth), the Sec. VI-C budget
    when the matched baseline runs at 16 bits, or one ulp either side."""
    if not isinstance(budget, str):
        return budget
    exact = float(problem.omega.min(axis=1).sum())
    return {
        "min": exact,
        "above": float(np.nextafter(exact, np.inf)),
        "below": float(np.nextafter(exact, -np.inf)),
    }[budget]


@pytest.mark.parametrize("theta,budget", [
    (10.0, None), (0.0, 30.0), (0.0, "min"), (0.0, "above"), (0.0, "below"),
])
def test_bounds_admissible_on_fuzzed_problems(opt13b, cost_model_13b,
                                              small_cluster, cluster5_problems,
                                              theta, budget):
    """The analytic and LP bounds never exceed a solved score, and the
    water-filled bottleneck floors never exceed the solution's slowest
    stage, on small-cluster problems (also phase blind), cluster-5
    problems and problems with a stage that holds nothing."""
    problems = (
        _fuzz_problems(opt13b, cost_model_13b, small_cluster)
        + _fuzz_problems(opt13b, cost_model_13b, small_cluster, n=2,
                         phase_blind=True)
        + cluster5_problems
    )
    for capacity in (0.0, -1e9):
        for problem in (problems[0], cluster5_problems[0]):
            dead = problem.capacity.copy()
            dead[-1] = capacity
            problems.append(dataclasses.replace(problem, capacity=dead))
    solved = 0
    for problem in problems:
        budget = _resolve_budget(problem, budget)
        analytic = analytic_lower_bound(problem, theta, budget)
        assert not np.isnan(analytic)
        sol = solve_partition_ilp(problem, theta=theta,
                                  quality_budget=budget, time_limit_s=10.0)
        if sol is None:
            continue
        solved += 1
        score = sol.latency_s + theta * sol.quality
        assert analytic <= score * (1 + 1e-6) + 1e-9, (analytic, score)
        fills = _water_filled_bottlenecks(problem)
        times_pre_dec = _stage_times(problem, sol.assign_stage,
                                     sol.assign_bits)
        for fill, times in zip(fills, times_pre_dec):
            assert fill <= times.max() * (1 + 1e-9), (fill, times)
        lp, _ = solve_partition_lp_relaxation(problem, theta=theta,
                                              quality_budget=budget)
        assert lp is not None
        assert lp <= score * (1 + 1e-6) + 1e-9, (lp, score)
    assert solved >= 4


def test_cluster5_memory_caps_bind_the_water_fill(cluster5_problems):
    """On every cluster-5 problem the prefill floor rises when the
    stages' memory caps count (the fastest stages cannot take the
    layers their speed would draw)."""
    for problem in cluster5_problems:
        capped, _ = _water_filled_bottlenecks(problem)
        free, _ = _water_filled_bottlenecks(_without_caps(problem))
        assert capped > free * (1 + 1e-6), (capped, free)


def test_water_fill_below_every_feasible_bottleneck(opt13b, cost_model_13b,
                                                   small_cluster):
    """Exhaustively, on 6 groups (the last one short) x 2 stages x 2
    bitwidths: each floor stays below the slowest stage of every
    memory-feasible assignment, also where the caps bind."""
    import itertools

    from repro.quant import normalized_indicator_table
    from tests.exhaustive_oracle import _compositions

    bits = (4, 16)
    wl = BatchWorkload(batch=16, prompt_len=512, output_len=32)
    binding = 0
    for ordering in candidate_orderings(small_cluster, max_orderings=2):
        for blind in (False, True):
            base = build_problem(
                opt13b, small_cluster, ordering, wl, cost_model_13b,
                normalized_indicator_table(opt13b, bits), 8, 8, bits,
                group_size=7, phase_blind=blind,
            )
            for scale in (0.5, 0.6, 0.8, 1.0):
                problem = _with_capacity(
                    base, scale * float(base.mem[:, -1].sum())
                )
                fills = _water_filled_bottlenecks(problem)
                free = _water_filled_bottlenecks(_without_caps(problem))
                binding += fills[0] > free[0] or fills[1] > free[1]
                best = [np.inf, np.inf]
                for comp in _compositions(problem.n_groups, 2):
                    stages = [j for j, n in enumerate(comp) for _ in range(n)]
                    for picks in itertools.product(bits, repeat=len(stages)):
                        if not problem.memory_ok(stages, picks):
                            continue
                        times = _stage_times(problem, stages, picks)
                        for p, t in enumerate(times):
                            best[p] = min(best[p], float(t.max()))
                assert np.isfinite(best).all()
                for fill, floor in zip(fills, best):
                    assert fill <= floor * (1 + 1e-9), (fill, floor)
    assert binding > 0


def test_water_level_two_stages_by_hand():
    """Stage 0: 1 s + 1 s per layer, 4 layers fit; stage 1: 2 s per
    layer, 10 fit.  Uncapped, 8 layers level at 1.5 tau - 1 = 8, so
    tau = 6 with 5 layers on stage 0; capped, stage 0 takes its 4 and
    stage 1 the other 4 at tau = 8."""
    rate, const = np.array([1.0, 2.0]), np.array([1.0, 0.0])
    assert _water_level(rate, const, np.array([4.0, 10.0]), 8.0) == 8.0
    assert _water_level(rate, const, np.array([9.0, 10.0]), 8.0) == 6.0
    # A stage that holds nothing (zero or negative capacity) adds no
    # room; too little room overall gives no floor.
    for dead in (0.0, -3.0):
        assert _water_level(
            np.array([1.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0]),
            np.array([4.0, 10.0, dead]), 8.0,
        ) == 8.0
    assert _water_level(rate, const, np.array([4.0, 3.0]), 8.0) == 0.0


def test_analytic_bound_inf_not_nan_when_nothing_fits(opt30b, t4):
    """OPT-30B fits one T4 at no bitwidth.  At B = eta = 8 there is one
    prefill job, and ``(prefill_jobs - 1) * inf`` used to give NaN."""
    from repro.costmodel.latency import LatencyCostModel
    from repro.hardware import make_cluster
    from repro.simgpu.profiler import Profiler

    cluster = make_cluster("one-t4", [("T4-16G", 1)])
    cm = LatencyCostModel(opt30b)
    cm.fit([t4], (3, 4, 8, 16), Profiler(seed=11))
    problem = build_problem(
        opt30b, cluster, candidate_orderings(cluster)[0],
        BatchWorkload(batch=8, prompt_len=256, output_len=32), cm,
        np.zeros((opt30b.num_layers, 4)), 8, 8, (3, 4, 8, 16), group_size=8,
    )
    assert problem.prefill_jobs == 1
    for theta in (0.0, 1.0):
        assert analytic_lower_bound(problem, theta, None) == float("inf")


def test_lp_relaxation_flags_infeasible(opt13b, cost_model_13b,
                                        small_cluster):
    problem = _fuzz_problems(opt13b, cost_model_13b, small_cluster, n=1)[0]
    # Impossible quality budget: even all-16-bit quality exceeds it.
    assert solve_partition_lp_relaxation(
        problem, theta=0.0, quality_budget=-1.0
    ) == (float("inf"), None)


# -- the Lagrangian bound and the joint memory/quality screen ------------

BOUND_MODES = [(10.0, None), (0.0, 30.0)]


@pytest.mark.parametrize("theta,budget", BOUND_MODES)
def test_own_lp_multipliers_reproduce_lp_bound(opt13b, cost_model_13b,
                                               small_cluster, theta, budget):
    """Sign and scaling check: a candidate's own LP duals give back its
    LP bound through the closed form."""
    for problem in _fuzz_problems(opt13b, cost_model_13b, small_cluster):
        lp, y = solve_partition_lp_relaxation(problem, theta=theta,
                                              quality_budget=budget)
        assert lp is not None and np.isfinite(lp) and y is not None
        got = lagrangian_bound(problem, theta, budget, y)
        assert got == pytest.approx(lp, rel=1e-9)


@pytest.mark.parametrize("theta,budget", BOUND_MODES)
def test_lagrangian_bound_admissible_for_any_multipliers(
    opt13b, cost_model_13b, small_cluster, theta, budget
):
    problems = _fuzz_problems(opt13b, cost_model_13b, small_cluster)
    lps = [solve_partition_lp_relaxation(p, theta=theta,
                                         quality_budget=budget)
           for p in problems]
    rng = np.random.default_rng(11)
    checked = 0
    for problem, (lp, own) in zip(problems, lps):
        sol = solve_partition_ilp(problem, theta=theta,
                                  quality_budget=budget, time_limit_s=10.0)
        score = sol.latency_s + theta * sol.quality
        for _, y in lps:
            if y.shape != own.shape:
                continue  # a sibling shares the row space
            tries = [
                y,  # a sibling's multipliers as they are
                y * rng.lognormal(0.0, 1.0, size=y.shape),
                y * rng.choice([-1.0, 1.0], size=y.shape),
                -y,
                rng.normal(0.0, np.abs(y).max(), size=y.shape),
            ]
            for got in (lagrangian_bound(problem, theta, budget, t)
                        for t in tries):
                assert got <= lp + 1e-9 * abs(lp), (got, lp)
                assert got <= score * (1 + 1e-6) + 1e-9, (got, score)
                checked += 1
            # A stack of multipliers gives the best of its rows.
            assert lagrangian_bound(
                problem, theta, budget, np.array(tries)
            ) == max(lagrangian_bound(problem, theta, budget, t)
                     for t in tries)
    assert checked >= len(problems) * 5


def _with_capacity(problem, total):
    """The same problem with its stage capacities scaled to ``total``."""
    scale = total / float(problem.capacity.sum())
    return dataclasses.replace(problem, capacity=problem.capacity * scale)


def test_joint_screen_flags_budget_plus_memory_infeasible(
    opt13b, cost_model_13b, small_cluster
):
    """Memory alone and the budget alone are satisfiable, together they
    are not: the analytic bound and the LP both say ``inf``."""
    problem = _fuzz_problems(opt13b, cost_model_13b, small_cluster, n=1)[0]
    budget = float(problem.omega[:, -2].sum())  # all groups at 8 bits
    need = mckp_lp_min_cost(problem.mem, problem.omega, budget)
    floor = float(problem.mem.min(axis=1).sum())
    assert floor < need
    tight = _with_capacity(problem, (floor + need) / 2)
    assert np.isfinite(analytic_lower_bound(tight, 0.0, None))
    assert np.isfinite(analytic_lower_bound(problem, 0.0, budget))
    assert analytic_lower_bound(tight, 0.0, budget) == float("inf")
    assert solve_partition_lp_relaxation(
        tight, theta=0.0, quality_budget=budget
    ) == (float("inf"), None)
    assert solve_partition_ilp(tight, theta=0.0, quality_budget=budget,
                               time_limit_s=10.0) is None


def test_analytic_inf_implies_lp_inf(opt13b, cost_model_13b, small_cluster):
    flagged = 0
    for problem in _fuzz_problems(opt13b, cost_model_13b, small_cluster):
        lo = float(problem.omega.min(axis=1).sum())
        hi = float(problem.omega.max(axis=1).sum())
        floor = float(problem.mem.min(axis=1).sum())
        for frac in (0.0, 0.3, 0.7, 1.0):
            budget = lo + frac * (hi - lo)
            for cap_scale in (1.0, 1.05, 1.3):
                tight = _with_capacity(problem, floor * cap_scale)
                if analytic_lower_bound(tight, 0.0, budget) < float("inf"):
                    continue
                flagged += 1
                lp, _ = solve_partition_lp_relaxation(
                    tight, theta=0.0, quality_budget=budget
                )
                assert lp == float("inf"), (frac, cap_scale, lp)
    assert flagged > 0


def test_table6_eta32_candidates_pruned_without_lp(opt30b, cluster5,
                                                   monkeypatch):
    """On the Table-VI config every eta = 32 candidate needs more memory
    under the budget than the cluster has; the joint screen prunes all
    of them before any LP."""
    import repro.core.search as search

    base = PlannerConfig(group_size=3, max_orderings=6,
                         microbatch_candidates=(8, 16, 32), verify_top_k=1,
                         time_limit_s=30.0)
    seed_planner = SplitQuantPlanner(opt30b, cluster5, base)
    cfg = dataclasses.replace(
        base, quality_budget=seed_planner.uniform_quality(4)
    )
    planner = SplitQuantPlanner(
        opt30b, cluster5, cfg, cost_model=seed_planner.cost_model,
        omega_layers=seed_planner.omega_layers,
    )
    lp_etas = []
    real_lp = search.solve_partition_lp_relaxation

    def recording_lp(problem, **kw):
        lp_etas.append(problem.eta)
        return real_lp(problem, **kw)

    monkeypatch.setattr(search, "solve_partition_lp_relaxation",
                        recording_lp)
    res = planner.plan(BatchWorkload(batch=64, prompt_len=512,
                                     output_len=128))
    assert res is not None
    eta32 = [st for st in res.stats if st.eta == 32]
    assert len(eta32) == 18
    assert {st.status for st in eta32} == {"pruned"}
    # Pruned on the analytic screen, not on a (finite) Lagrangian bound.
    assert {st.bound_s for st in eta32} == {float("inf")}
    assert 32 not in lp_etas
    assert len(lp_etas) == res.search.lp_bounds < 30
    # Cheap bounds only ever defer the LP: a candidate is solved on its
    # LP bound, so the search still solves just 2 MILPs here.
    assert res.search.solved == 2


# -- the MCKP LP bound ---------------------------------------------------


def _mckp_exact(cost, weight, budget):
    """Integer optimum by brute force (tiny instances only)."""
    from itertools import product

    best = float("inf")
    G, K = cost.shape
    for picks in product(range(K), repeat=G):
        w = sum(weight[g, k] for g, k in enumerate(picks))
        if w <= budget:
            best = min(best, sum(cost[g, k] for g, k in enumerate(picks)))
    return best


def test_mckp_lp_lower_bounds_integer_optimum():
    rng = np.random.default_rng(3)
    for _ in range(25):
        cost = rng.uniform(0.1, 5.0, size=(3, 4))
        weight = rng.uniform(0.1, 5.0, size=(3, 4))
        budget = float(rng.uniform(1.0, 10.0))
        lp = mckp_lp_min_cost(cost, weight, budget)
        exact = _mckp_exact(cost, weight, budget)
        if exact == float("inf"):
            # LP may still be feasible fractionally, but if it is inf the
            # integer problem must be too (checked the other way below).
            continue
        assert lp <= exact + 1e-9


def test_mckp_lp_infeasible_when_weights_cannot_fit():
    cost = np.array([[1.0, 2.0]])
    weight = np.array([[5.0, 6.0]])
    assert mckp_lp_min_cost(cost, weight, 4.0) == float("inf")
    assert mckp_lp_min_cost(cost, weight, 5.0) == 1.0


def test_mckp_lp_unconstrained_picks_min_cost():
    cost = np.array([[3.0, 1.0], [2.0, 5.0]])
    weight = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert mckp_lp_min_cost(cost, weight, 100.0) == pytest.approx(3.0)


# -- observability -------------------------------------------------------


def test_search_stats_surface_on_result(opt13b, small_cluster,
                                        cost_model_13b, small_workload):
    planner = SplitQuantPlanner(opt13b, small_cluster, FAST,
                                cost_model=cost_model_13b)
    res = planner.plan(small_workload)
    s = res.search
    assert s is not None
    assert s.enumerated == res.candidates_tried == len(res.stats)
    assert s.enumerated == s.solved + s.pruned + s.infeasible
    assert s.cache_hits > 0  # repeated (eta, xi) shapes must hit the memo
    assert s.cache_misses > 0
    assert s.wall_time_s > 0
    statuses = {st.status for st in res.stats}
    assert statuses <= {"optimal", "pruned", "infeasible", "heuristic"} | {
        st.status for st in res.stats if st.status.startswith("status-")
    }
    # Naive path reports no search stats.
    assert plan_reference(planner, small_workload).search is None


def test_search_prunes_on_budget_config(opt13b, small_cluster,
                                        cost_model_13b, small_workload):
    """Hard-budget mode: the LP bound is tight enough to prune."""
    base = SplitQuantPlanner(opt13b, small_cluster, FAST,
                             cost_model=cost_model_13b)
    cfg = dataclasses.replace(
        FAST, quality_budget=base.uniform_quality(4),
        microbatch_candidates=(2, 4, 8),
    )
    planner = SplitQuantPlanner(opt13b, small_cluster, cfg,
                                cost_model=cost_model_13b)
    res = planner.plan(small_workload)
    assert res is not None
    s = res.search
    assert s.pruned > 0
    assert 0.0 < s.mean_bound_tightness <= 1.0 + 1e-6
    pruned_stats = [st for st in res.stats if st.status == "pruned"]
    assert len(pruned_stats) == s.pruned
    assert all(st.bound_s > 0 for st in pruned_stats)
    _assert_same_plan(res, plan_reference(planner, small_workload))


def test_microbatch_given_capped_and_deduped():
    from repro.core import microbatch_candidates

    # Oversized user-given sets are deduped, sorted and capped like the
    # derived power-of-two set (largest kept).
    assert microbatch_candidates(64, (1, 2, 4, 8, 16, 32, 64)) == \
        (8, 16, 32, 64)
    assert microbatch_candidates(64, (16, 8, 16, 8)) == (8, 16)
    assert microbatch_candidates(
        64, (1, 2, 4, 8, 16), max_candidates=2) == (8, 16)
    with pytest.raises(ValueError):
        microbatch_candidates(4, (8, 16))
