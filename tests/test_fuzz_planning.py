"""Randomized cross-validation of the solvers on synthetic problems.

Builds small PlanningProblems with arbitrary (seeded) cost tensors —
decoupled from any model/GPU semantics — and checks the ILP against
exhaustive enumeration, and the heuristic against feasibility and
monotonicity invariants.  This probes solver corners the structured
experiments never reach.
"""

import numpy as np
import pytest

from repro.core import solve_adabits, solve_partition_ilp
from repro.core.costs import PlanningProblem, StageGroup
from repro.core.heuristic import bitwidth_transfer, greedy_adabits
from repro.hardware import get_gpu
from repro.workloads import BatchWorkload
from tests.exhaustive_oracle import brute_force_solve

BITS = (4, 16)


def random_problem(seed: int, n_groups: int = 5, n_stages: int = 2):
    """A synthetic planning problem with random-but-consistent tensors."""
    rng = np.random.default_rng(seed)
    G, N, K = n_groups, n_stages, len(BITS)
    gpu = get_gpu("V100")
    ordering = tuple(
        StageGroup(device_ids=(j,), gpu=gpu) for j in range(N)
    )
    # Costs: per-stage speed factor x per-bit factor (lower bits faster
    # decode, slower-or-equal prefill), plus jitter.
    stage_speed = rng.uniform(0.5, 3.0, size=N)
    l_pre = np.zeros((G, N, K))
    l_dec = np.zeros((G, N, K))
    for k, b in enumerate(BITS):
        pre_f = 1.0 + (0.1 if b < 16 else 0.0)
        dec_f = b / 16.0
        for j in range(N):
            l_pre[:, j, k] = (
                0.01 * stage_speed[j] * pre_f * rng.uniform(0.8, 1.2, size=G)
            )
            l_dec[:, j, k] = (
                0.002 * stage_speed[j] * dec_f * rng.uniform(0.8, 1.2, size=G)
            )
    mem = np.zeros((G, K))
    mem[:, 0] = rng.uniform(0.5, 1.5, size=G)
    mem[:, 1] = mem[:, 0] * 4.0
    omega = np.zeros((G, K))
    omega[:, 0] = rng.uniform(0.1, 2.0, size=G)
    # Capacity: somewhere between all-min-bits and all-max-bits.
    total_min, total_max = mem[:, 0].sum(), mem[:, 1].sum()
    capacity = np.full(N, rng.uniform(total_min * 1.2, total_max) / N * 1.3)
    wl = BatchWorkload(batch=8, prompt_len=128, output_len=16)
    return PlanningProblem(
        spec=None,  # solvers never touch the spec
        workload=wl,
        ordering=ordering,
        eta=4,
        xi=4,
        bit_choices=BITS,
        group_sizes=(1,) * G,
        l_pre=l_pre,
        l_dec=l_dec,
        mem=mem,
        omega=omega,
        const_pre=rng.uniform(0, 1e-3, size=N),
        const_dec=rng.uniform(0, 1e-4, size=N),
        capacity=capacity,
        comm_pre=rng.uniform(0, 1e-3, size=N - 1),
        comm_dec=rng.uniform(0, 1e-4, size=N - 1),
    )


@pytest.mark.parametrize("seed", range(12))
def test_ilp_matches_brute_force_on_random_problems(seed):
    problem = random_problem(seed)
    theta = 0.05
    ilp = solve_partition_ilp(problem, theta=theta, time_limit_s=20.0)
    ref = brute_force_solve(problem, theta=theta)
    assert (ilp is None) == (ref is None)
    if ilp is None:
        return
    obj_ilp = problem.latency_estimate(
        ilp.assign_stage, ilp.assign_bits
    ) + theta * ilp.quality
    obj_ref = problem.latency_estimate(
        ref.assign_stage, ref.assign_bits
    ) + theta * ref.quality
    assert obj_ilp <= obj_ref * 1.002 + 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_heuristic_feasible_and_competitive(seed):
    problem = random_problem(seed)
    theta = 0.05
    heu = bitwidth_transfer(problem, theta=theta, time_limit_s=20.0)
    ref = brute_force_solve(problem, theta=theta)
    assert (heu is None) == (ref is None)
    if heu is None:
        return
    assert problem.memory_ok(heu.assign_stage, heu.assign_bits)
    assert list(heu.assign_stage) == sorted(heu.assign_stage)
    obj_heu = problem.latency_estimate(
        heu.assign_stage, heu.assign_bits
    ) + theta * heu.quality
    obj_ref = problem.latency_estimate(
        ref.assign_stage, ref.assign_bits
    ) + theta * ref.quality
    assert obj_heu <= obj_ref * 1.35 + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_adabits_quality_optimality_random(seed):
    problem = random_problem(seed)
    ada = solve_adabits(problem, time_limit_s=20.0)
    ref = brute_force_solve(problem, theta=1e9)
    assert (ada is None) == (ref is None)
    if ada is None:
        return
    assert ada.quality <= ref.quality * 1.02 + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_greedy_adabits_valid_on_random_problems(seed):
    problem = random_problem(seed)
    sol = greedy_adabits(problem)
    ref = brute_force_solve(problem, theta=1e9)
    if ref is None:
        # Greedy may only be more conservative, never less.
        assert sol is None or problem.memory_ok(
            sol.assign_stage, sol.assign_bits
        )
        return
    if sol is not None:
        assert problem.memory_ok(sol.assign_stage, sol.assign_bits)
        assert list(sol.assign_stage) == sorted(sol.assign_stage)


@pytest.mark.parametrize("seed", range(6))
def test_quality_budget_binding_random(seed):
    problem = random_problem(seed)
    free = solve_partition_ilp(problem, theta=0.0, time_limit_s=20.0)
    if free is None or free.quality == 0.0:
        return
    budget = free.quality * 0.3
    constrained = solve_partition_ilp(
        problem, theta=0.0, quality_budget=budget, time_limit_s=20.0
    )
    if constrained is not None:
        assert constrained.quality <= budget + 1e-9
        # Tightening the budget can only slow the plan down.
        assert constrained.latency_s >= free.latency_s - 1e-9


def test_three_stage_random_problem():
    problem = random_problem(99, n_groups=6, n_stages=3)
    ilp = solve_partition_ilp(problem, theta=0.05, time_limit_s=20.0)
    ref = brute_force_solve(problem, theta=0.05)
    assert (ilp is None) == (ref is None)
    if ilp is not None:
        assert set(ilp.assign_stage) == {0, 1, 2}
