"""Tests for the bitwidth-transfer heuristic."""

import copy

import numpy as np
import pytest

from repro.core import (
    StageGroup,
    bitwidth_transfer,
    build_problem,
    solve_adabits,
    solve_partition_ilp,
)
from repro.core.heuristic import (
    _candidate_changes,
    _objective,
    _State,
    greedy_adabits,
)
from repro.quant import normalized_indicator_table
from repro.workloads import BatchWorkload
from tests.exhaustive_oracle import brute_force_solve

BITS = (4, 16)


@pytest.fixture(scope="module")
def problem(opt13b, small_cluster, cost_model_13b):
    ordering = tuple(
        StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
        for d in small_cluster.devices
    )
    omega = normalized_indicator_table(opt13b, BITS)
    return build_problem(
        opt13b, small_cluster, ordering,
        BatchWorkload(batch=8, prompt_len=256, output_len=32),
        cost_model_13b, omega, 4, 4, BITS, group_size=5,
    )


def test_heuristic_feasible_and_contiguous(problem):
    sol = bitwidth_transfer(problem, theta=10.0)
    assert sol is not None
    assert list(sol.assign_stage) == sorted(sol.assign_stage)
    assert problem.memory_ok(sol.assign_stage, sol.assign_bits)
    assert sol.status == "heuristic"


def test_heuristic_near_optimal(problem):
    heu = bitwidth_transfer(problem, theta=10.0)
    ref = brute_force_solve(problem, theta=10.0)
    obj_h = problem.latency_estimate(heu.assign_stage, heu.assign_bits) + 10 * heu.quality
    obj_r = problem.latency_estimate(ref.assign_stage, ref.assign_bits) + 10 * ref.quality
    assert obj_h <= obj_r * 1.15


def test_heuristic_improves_on_adabits_start(problem):
    ada = solve_adabits(problem)
    heu = bitwidth_transfer(problem, theta=10.0, start=ada)
    obj_ada = problem.latency_estimate(
        ada.assign_stage, ada.assign_bits
    ) + 10 * ada.quality
    assert heu.objective <= obj_ada + 1e-9


def test_heuristic_respects_quality_budget(problem):
    budget = 2.0
    sol = bitwidth_transfer(problem, theta=0.0, quality_budget=budget)
    if sol is not None:
        assert sol.quality <= budget + 1e-9


def test_heuristic_faster_than_ilp_at_scale(opt30b, cluster5):
    """The Table VI scalability claim at a moderately large instance."""
    import time

    from repro.costmodel.latency import LatencyCostModel
    from repro.simgpu import Profiler

    gpus = {d.gpu.name: d.gpu for d in cluster5.devices}
    cm = LatencyCostModel(opt30b)
    cm.fit(gpus.values(), (3, 4, 8, 16), Profiler(seed=0))
    ordering = tuple(
        StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
        for d in cluster5.devices
    )
    omega = normalized_indicator_table(opt30b, (3, 4, 8, 16))
    problem = build_problem(
        opt30b, cluster5, ordering,
        BatchWorkload(batch=32, prompt_len=512, output_len=100),
        cm, omega, 8, 8, (3, 4, 8, 16), group_size=1,
    )
    t0 = time.perf_counter()
    heu = bitwidth_transfer(problem, theta=10.0)
    t_heu = time.perf_counter() - t0
    t0 = time.perf_counter()
    ilp = solve_partition_ilp(problem, theta=10.0, time_limit_s=60.0)
    t_ilp = time.perf_counter() - t0
    assert heu is not None and ilp is not None
    assert t_heu < t_ilp
    obj_h = problem.latency_estimate(heu.assign_stage, heu.assign_bits) + 10 * heu.quality
    obj_i = problem.latency_estimate(ilp.assign_stage, ilp.assign_bits) + 10 * ilp.quality
    assert obj_h <= obj_i * 1.25


def test_greedy_adabits_feasible(problem):
    sol = greedy_adabits(problem)
    assert sol is not None
    assert problem.memory_ok(sol.assign_stage, sol.assign_bits)
    assert list(sol.assign_stage) == sorted(sol.assign_stage)
    assert sol.status == "greedy-adabits"


def test_greedy_adabits_prefers_high_bits_when_room(problem):
    sol = greedy_adabits(problem)
    # The V100 stage has room for FP16 layers; some should be FP16.
    assert 16 in sol.assign_bits


def test_greedy_adabits_infeasible_when_too_small(opt30b, cost_model_13b):
    from repro.costmodel.latency import LatencyCostModel
    from repro.hardware import make_cluster
    from repro.simgpu import Profiler

    cluster = make_cluster("tiny", [("P100-12G", 1)])
    cm = LatencyCostModel(opt30b)
    cm.fit([cluster.devices[0].gpu], BITS, Profiler(seed=0))
    ordering = (StageGroup(device_ids=(0,), gpu=cluster.devices[0].gpu),)
    omega = normalized_indicator_table(opt30b, BITS)
    problem = build_problem(
        opt30b, cluster, ordering,
        BatchWorkload(batch=8, prompt_len=256, output_len=32),
        cm, omega, 4, 4, BITS, group_size=4,
    )
    assert greedy_adabits(problem) is None


def test_move_scores_match_fresh_build(problem):
    """Every move's score, taken without mutating the state, equals the
    objective of its assignment built from scratch, along a climb."""
    objective = _objective(problem, theta=10.0, quality_budget=None)
    G = problem.n_groups
    state = _State.build(
        problem, [0] * (G // 2) + [1] * (G - G // 2), [0] * G
    )
    finite = 0
    for _ in range(5):
        before = copy.deepcopy((state.stage, state.kidx, state.aggregates))
        scores = []
        for changes in _candidate_changes(problem, state):
            score = objective(state.moved(changes))
            stage, kidx = list(state.stage), list(state.kidx)
            for g, nj, nk in changes:
                stage[g], kidx[g] = nj, nk
            fresh = objective(_State.build(problem, stage, kidx).aggregates)
            assert score == pytest.approx(fresh, rel=1e-12)
            scores.append((score, changes))
        assert (state.stage, state.kidx, state.aggregates) == before
        finite += sum(np.isfinite(score) for score, _ in scores)
        state.apply(min(scores, key=lambda sc: sc[0])[1])
    assert finite > 0
