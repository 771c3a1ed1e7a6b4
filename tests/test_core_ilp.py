"""Tests for the partition/bitwidth ILP, cross-checked against brute force."""

import pytest

from repro.core import (
    StageGroup,
    build_problem,
    solve_adabits,
    solve_partition_ilp,
)
from repro.quant import normalized_indicator_table
from repro.workloads import BatchWorkload
from tests.exhaustive_oracle import brute_force_solve

BITS = (4, 16)  # tiny bit set keeps brute force tractable


@pytest.fixture(scope="module")
def tiny_problem(opt13b, small_cluster, cost_model_13b):
    """6 groups x 2 stages x 2 bits — exhaustively checkable."""
    ordering = tuple(
        StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
        for d in small_cluster.devices
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    omega = normalized_indicator_table(opt13b, BITS)
    return build_problem(
        opt13b, small_cluster, ordering, wl, cost_model_13b, omega,
        eta=4, xi=4, bit_choices=BITS, group_size=7,  # ceil(40/7) = 6 groups
    )


def test_ilp_matches_brute_force(tiny_problem):
    ilp = solve_partition_ilp(tiny_problem, theta=10.0, time_limit_s=30.0)
    ref = brute_force_solve(tiny_problem, theta=10.0)
    assert ilp is not None and ref is not None
    obj_ilp = tiny_problem.latency_estimate(
        ilp.assign_stage, ilp.assign_bits
    ) + 10.0 * ilp.quality
    obj_ref = tiny_problem.latency_estimate(
        ref.assign_stage, ref.assign_bits
    ) + 10.0 * ref.quality
    assert obj_ilp <= obj_ref * 1.001


def test_ilp_respects_contiguity(tiny_problem):
    sol = solve_partition_ilp(tiny_problem, theta=10.0)
    stages = list(sol.assign_stage)
    assert stages == sorted(stages)  # non-decreasing = contiguous


def test_every_stage_nonempty(tiny_problem):
    sol = solve_partition_ilp(tiny_problem, theta=10.0)
    assert set(sol.assign_stage) == {0, 1}


def test_memory_feasible(tiny_problem):
    sol = solve_partition_ilp(tiny_problem, theta=10.0)
    assert tiny_problem.memory_ok(sol.assign_stage, sol.assign_bits)


def test_quality_budget_enforced(tiny_problem):
    free = solve_partition_ilp(tiny_problem, theta=0.0)
    budget = free.quality * 0.5
    constrained = solve_partition_ilp(
        tiny_problem, theta=0.0, quality_budget=budget
    )
    if constrained is not None:
        assert constrained.quality <= budget + 1e-9


def test_zero_budget_forces_fp16_or_infeasible(tiny_problem):
    sol = solve_partition_ilp(tiny_problem, theta=0.0, quality_budget=0.0)
    if sol is not None:
        assert set(sol.assign_bits) == {16}


def test_higher_theta_not_worse_quality(tiny_problem):
    lo = solve_partition_ilp(tiny_problem, theta=0.1)
    hi = solve_partition_ilp(tiny_problem, theta=1000.0)
    assert hi.quality <= lo.quality + 1e-9


def test_adabits_maximizes_quality(tiny_problem):
    ada = solve_adabits(tiny_problem)
    assert ada is not None
    # adabits should achieve (near-)minimum achievable indicator sum.
    ref = brute_force_solve(tiny_problem, theta=1e9)  # quality-dominated
    assert ada.quality <= ref.quality * 1.01 + 1e-9


def test_infeasible_returns_none(opt30b, small_cluster, cost_model_13b):
    """A model too large even at min bits must be infeasible."""
    from repro.costmodel.latency import LatencyCostModel
    from repro.simgpu import Profiler
    from repro.hardware import make_cluster

    tiny_cluster = make_cluster("tiny", [("P100-12G", 1)])
    cm = LatencyCostModel(opt30b)
    cm.fit([tiny_cluster.devices[0].gpu], BITS, Profiler(seed=0))
    ordering = (StageGroup(device_ids=(0,), gpu=tiny_cluster.devices[0].gpu),)
    omega = normalized_indicator_table(opt30b, BITS)
    problem = build_problem(
        opt30b, tiny_cluster, ordering,
        BatchWorkload(batch=8, prompt_len=256, output_len=32),
        cm, omega, 4, 4, BITS, group_size=8,
    )
    assert solve_partition_ilp(problem, theta=10.0) is None


def test_solution_records_solve_time(tiny_problem):
    sol = solve_partition_ilp(tiny_problem, theta=10.0)
    assert sol.solve_time_s > 0
    assert sol.status in ("optimal",) or sol.status.startswith("status-")


@pytest.mark.parametrize(
    "status, bound",
    [(0, "finite"), (1, None), (2, float("inf")), (4, None)],
)
def test_lp_relaxation_bounds_only_when_optimal(
    tiny_problem, monkeypatch, status, bound
):
    """A time-limited LP point is feasible, not optimal: its value
    over-estimates the relaxation, so it must not be used to prune."""
    import numpy as np
    from scipy.optimize import OptimizeResult

    import repro.core.ilp as ilp

    def fake_linprog(c, b_ub, **_):
        x = None if status == 2 else np.zeros_like(c)
        return OptimizeResult(
            status=status, x=x, fun=1.0, success=status == 0,
            ineqlin=OptimizeResult(marginals=np.zeros_like(b_ub)),
        )

    monkeypatch.setattr(ilp, "linprog", fake_linprog)
    got, multipliers = ilp.solve_partition_lp_relaxation(tiny_problem)
    if bound == "finite":
        assert got is not None and np.isfinite(got)
        assert multipliers is not None
    else:
        assert got == bound
        assert multipliers is None


def test_brute_force_guard():
    class Fake:
        n_groups = 30
        n_stages = 4
        bit_choices = (3, 4, 8, 16)

    with pytest.raises((RuntimeError, AttributeError)):
        brute_force_solve(Fake(), max_states=100)


def test_silenced_stdout_restores_fd1(tiny_problem, monkeypatch):
    """fd 1 is muted during a solve and is the original file again after
    a solve, after nested use, and after a solve that raises."""
    import os

    from repro.core import ilp

    def fd1():
        st = os.fstat(1)
        return st.st_dev, st.st_ino

    null = os.stat(os.devnull)
    original = fd1()
    assert solve_partition_ilp(tiny_problem, theta=10.0) is not None
    assert fd1() == original
    with ilp._silenced_stdout():
        with ilp._silenced_stdout():
            assert fd1() == (null.st_dev, null.st_ino)
        assert fd1() == (null.st_dev, null.st_ino)
    assert fd1() == original

    def broken_milp(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(ilp, "milp", broken_milp)
    with pytest.raises(RuntimeError, match="solver crashed"):
        solve_partition_ilp(tiny_problem, theta=10.0)
    assert fd1() == original


# -- the solver setting: latency MILPs skip HiGHS presolve ---------------


def _presolved_milp(problem, theta, budget, latency_objective):
    """``scipy.optimize.milp`` with HiGHS presolve on (its default) over
    the very arrays the solver builds: (stage, bits) per group and the
    objective."""
    import numpy as np
    from scipy.optimize import milp

    from repro.core import ilp

    c, constraints, integrality, bounds = ilp._build_milp(
        problem, theta, budget, latency_objective
    )
    res = milp(c, constraints=constraints, integrality=integrality,
               bounds=bounds, options={"mip_rel_gap": 1e-4})
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    picks = [
        np.unravel_index(int(np.argmax(z)), (N, K))
        for z in res.x[: G * N * K].reshape(G, N * K)
    ]
    stages = tuple(int(j) for j, _ in picks)
    bits = tuple(int(problem.bit_choices[k]) for _, k in picks)
    return stages, bits, float(res.fun)


@pytest.fixture(scope="module")
def table6_solved_problems(opt30b, cluster5):
    """The two candidates the Table-VI config solves exactly, recorded
    from the planner's own MILP calls."""
    import dataclasses

    import repro.core.planner as planner_mod
    from repro.core import PlannerConfig, SplitQuantPlanner

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
    solved = []
    real = planner_mod.solve_partition_ilp

    def recording(problem, **kw):
        solved.append(problem)
        return real(problem, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner_mod, "solve_partition_ilp", recording)
        assert planner.plan(
            BatchWorkload(batch=64, prompt_len=512, output_len=128)
        ) is not None
    assert len(solved) == 2
    return solved, cfg.quality_budget


def _pin_cases(table6_solved_problems, opt13b, cost_model_13b,
               small_cluster):
    from tests.test_core_search import _fuzz_problems

    table6, budget = table6_solved_problems
    fuzz = _fuzz_problems(opt13b, cost_model_13b, small_cluster)
    return (
        [(p, 0.0, budget) for p in table6]
        + [(p, 10.0, None) for p in fuzz]
        + [(p, 0.0, 30.0) for p in fuzz]
    )


def _spy_presolve(monkeypatch):
    """Record the ``presolve`` option of every MILP the solver runs."""
    from repro.core import ilp

    seen = []
    real = ilp.milp

    def spy(*args, options, **kwargs):
        seen.append(options["presolve"])
        return real(*args, options=options, **kwargs)

    monkeypatch.setattr(ilp, "milp", spy)
    return seen


def test_latency_milp_without_presolve_matches_presolved(
    table6_solved_problems, opt13b, cost_model_13b, small_cluster,
    monkeypatch,
):
    """Latency-objective MILPs run with HiGHS presolve off; they return
    the assignment presolve-on HiGHS returns, at an objective within
    the ``mip_rel_gap`` of 1e-4."""
    seen = _spy_presolve(monkeypatch)
    for problem, theta, budget in _pin_cases(
        table6_solved_problems, opt13b, cost_model_13b, small_cluster
    ):
        sol = solve_partition_ilp(problem, theta=theta,
                                  quality_budget=budget)
        assert seen.pop() is False
        stages, bits, fun = _presolved_milp(problem, theta, budget, True)
        assert (sol.assign_stage, sol.assign_bits) == (stages, bits)
        assert sol.objective == pytest.approx(fun, rel=1e-4)


def test_adabits_milp_keeps_presolve(
    table6_solved_problems, opt13b, cost_model_13b, small_cluster,
    monkeypatch,
):
    """The quality-only MILP keeps HiGHS presolve: its result is the
    presolve-on solve's exactly."""
    seen = _spy_presolve(monkeypatch)
    for problem, _, budget in _pin_cases(
        table6_solved_problems, opt13b, cost_model_13b, small_cluster
    ):
        sol = solve_adabits(problem, quality_budget=budget)
        assert seen.pop() is True
        stages, bits, fun = _presolved_milp(problem, 1.0, budget, False)
        assert (sol.assign_stage, sol.assign_bits) == (stages, bits)
        assert sol.objective == fun
