"""Differential test: the bitwidth-transfer climb against its oracle.

:func:`repro.core.heuristic.bitwidth_transfer` scores each move from
the state's aggregates without mutating the state.
``tests/heuristic_oracle.py`` keeps the apply / score / revert climb it
replaced.  On random small planning problems both must pick the same
plan.  The objectives may differ in the last bits, because the oracle's
reverts leave rounding residue in its accumulators.  The stage bands
reach 8-10 stages, where numpy's ``sum`` (in the oracle) switches to
pairwise summation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costs import PlanningProblem, StageGroup
from repro.core.heuristic import bitwidth_transfer, greedy_adabits
from repro.core.ilp import ILPSolution
from repro.hardware import get_gpu
from repro.workloads import BatchWorkload
from tests import heuristic_oracle

BIT_LADDER = (3, 4, 8, 16)


def random_problem(
    seed: int, n_stages: int, n_groups: int, n_bits: int, identical: bool
):
    """A synthetic problem: heterogeneous stage speeds and capacities,
    cost and memory rising with bits, quality loss falling to zero.

    ``identical`` gives every group the same time and memory costs, as
    a model's repeated layers have, so many moves tie and the climb's
    scan order decides between them.
    """
    rng = np.random.default_rng(seed)
    G, N, K = n_groups, n_stages, n_bits
    jitter = (lambda: rng.uniform(0.8, 1.2)) if identical else (
        lambda: rng.uniform(0.8, 1.2, G)
    )
    bits = BIT_LADDER[-K:]
    gpu = get_gpu("V100")
    speed = rng.uniform(0.5, 3.0, size=N)
    l_pre = np.empty((G, N, K))
    l_dec = np.empty((G, N, K))
    for k, b in enumerate(bits):
        pre_f = 1.0 + (0.1 if b < 16 else 0.0)
        for j in range(N):
            l_pre[:, j, k] = 0.01 * speed[j] * pre_f * jitter()
            l_dec[:, j, k] = 0.002 * speed[j] * (b / 16.0) * jitter()
    base = np.full(G, rng.uniform(0.5, 1.5)) if identical else rng.uniform(
        0.5, 1.5, size=G
    )
    mem = np.stack([base * b / bits[0] for b in bits], axis=1)
    omega = np.stack(
        [rng.uniform(0.1, 2.0, size=G) * (16 - b) / 13.0 for b in bits], axis=1
    )
    # Total capacity between all-min-bits and all-max-bits, split unevenly.
    total = rng.uniform(mem[:, 0].sum() * 1.3, mem[:, -1].sum() * 1.2)
    share = rng.uniform(0.5, 1.5, size=N)
    return PlanningProblem(
        spec=None,  # solvers never touch the spec
        workload=BatchWorkload(batch=8, prompt_len=128, output_len=16),
        ordering=tuple(StageGroup(device_ids=(j,), gpu=gpu) for j in range(N)),
        eta=4,
        xi=4,
        bit_choices=bits,
        group_sizes=(1,) * G,
        l_pre=l_pre,
        l_dec=l_dec,
        mem=mem,
        omega=omega,
        const_pre=rng.uniform(0, 1e-3, size=N),
        const_dec=rng.uniform(0, 1e-4, size=N),
        capacity=total * share / share.sum(),
        comm_pre=rng.uniform(0, 1e-3, size=N - 1),
        comm_dec=rng.uniform(0, 1e-4, size=N - 1),
    )


def random_start(problem: PlanningProblem, seed: int) -> ILPSolution:
    """A contiguous assignment with random bits; it may violate memory,
    which sends both climbs to their own start."""
    rng = np.random.default_rng(seed)
    G, N = problem.n_groups, problem.n_stages
    cuts = np.sort(rng.choice(np.arange(1, G), size=N - 1, replace=False))
    stage = tuple(int(np.searchsorted(cuts, g, side="right")) for g in range(G))
    bits = tuple(int(b) for b in rng.choice(problem.bit_choices, size=G))
    return ILPSolution(
        assign_stage=stage,
        assign_bits=bits,
        objective=0.0,
        latency_s=problem.latency_estimate(stage, bits),
        quality=problem.quality_sum(bits),
        solve_time_s=0.0,
        status="random",
    )


@pytest.mark.parametrize("stage_band", [(1, 3), (4, 7), (8, 10)])
@given(data=st.data())
def test_climb_matches_oracle(stage_band, data):
    n_stages = data.draw(st.integers(*stage_band), label="n_stages")
    problem = random_problem(
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        n_stages=n_stages,
        n_groups=data.draw(st.integers(n_stages, n_stages + 5), label="n_groups"),
        n_bits=data.draw(st.integers(2, 4), label="n_bits"),
        identical=data.draw(st.booleans(), label="identical"),
    )
    theta = data.draw(st.sampled_from([0.0, 0.01, 1.0]), label="theta")
    budget = None
    if data.draw(st.booleans(), label="budgeted"):
        lo, hi = problem.omega[:, -1].sum(), problem.omega[:, 0].sum()
        budget = lo + data.draw(st.floats(0.0, 1.0), label="budget_frac") * (hi - lo)
    start_kind = data.draw(st.sampled_from([None, "greedy", "random"]), label="start")
    start = None
    if start_kind == "greedy":
        start = greedy_adabits(problem)
    elif start_kind == "random":
        start = random_start(
            problem, data.draw(st.integers(0, 2**32 - 1), label="start_seed")
        )
    kwargs = dict(
        theta=theta,
        quality_budget=budget,
        max_iters=data.draw(st.sampled_from([200, 3, 1, 0]), label="max_iters"),
        start=start,
    )

    got = bitwidth_transfer(problem, **kwargs)
    want = heuristic_oracle.bitwidth_transfer(problem, **kwargs)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.assign_stage == want.assign_stage
    assert got.assign_bits == want.assign_bits
    assert got.latency_s == want.latency_s
    assert got.quality == want.quality
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
