"""Property-based tests for degrade-and-replan.

The contract under test: for ANY valid plan and ANY proper subset of
dead GPUs, :func:`repro.plan.degrade_plan` either returns a feasible
degraded plan (contiguous layers, fixed bitwidths, surviving devices
only, per-group caps held) or raises an explicit
:class:`~repro.plan.InfeasibleError` — it never crashes with anything
else and never silently violates a constraint.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import (
    ExecutionPlan,
    InfeasibleError,
    StagePlan,
    degrade_plan,
)

GPUS = ("T4-16G", "V100-32G", "A100-40G", "P100-12G")
BITS = (3, 4, 8, 16)


@st.composite
def plans(draw, max_stages=5, max_layers_per_stage=4):
    n_stages = draw(st.integers(2, max_stages))
    stages = []
    start = 0
    dev = 0
    for _ in range(n_stages):
        tp = draw(st.sampled_from([1, 1, 1, 2]))
        count = draw(st.integers(1, max_layers_per_stage))
        bits = tuple(draw(st.sampled_from(BITS)) for _ in range(count))
        stages.append(
            StagePlan(
                device_ids=tuple(range(dev, dev + tp)),
                gpu_name=draw(st.sampled_from(GPUS)),
                layer_start=start,
                layer_bits=bits,
            )
        )
        dev += tp
        start += count
    return ExecutionPlan(
        model_name="random",
        stages=tuple(stages),
        prefill_microbatch=draw(st.sampled_from([1, 2, 4])),
        decode_microbatch=draw(st.sampled_from([1, 2, 4])),
        bit_kv=draw(st.sampled_from([8, 16])),
    )


@st.composite
def plans_with_dead_devices(draw):
    """A plan plus a non-empty proper subset of its devices marked dead."""
    plan = draw(plans())
    devices = sorted({d for st_ in plan.stages for d in st_.device_ids})
    n_dead = draw(st.integers(1, len(devices) - 1))
    dead = draw(
        st.lists(
            st.sampled_from(devices),
            min_size=n_dead,
            max_size=n_dead,
            unique=True,
        )
    )
    return plan, set(dead)


def check_degraded_invariants(plan, degraded, surviving):
    # 1. Bitwidth sequence is untouched (bit-exactness precondition).
    assert degraded.bits_per_layer == plan.bits_per_layer
    # 2. Only surviving devices appear, in the original pipeline order.
    used = [st_.device_ids for st_ in degraded.stages]
    original_order = [
        st_.device_ids
        for st_ in plan.stages
        if all(d in surviving for d in st_.device_ids)
    ]
    assert used == original_order[: len(used)]
    for devs in used:
        assert all(d in surviving for d in devs)
    # 3. Contiguous cover of all layers, >= 1 layer per stage.
    expect_start = 0
    for st_ in degraded.stages:
        assert st_.layer_start == expect_start
        assert st_.num_layers >= 1
        expect_start += st_.num_layers
    assert expect_start == plan.num_layers
    # 4. Micro-batching and KV bitwidth carried over.
    assert degraded.prefill_microbatch == plan.prefill_microbatch
    assert degraded.decode_microbatch == plan.decode_microbatch
    assert degraded.bit_kv == plan.bit_kv


@given(case=plans_with_dead_devices())
@settings(max_examples=120, deadline=None)
def test_degrade_plan_feasible_or_explicit_infeasible(case):
    """Killing 1..n-1 GPUs yields a valid degraded plan or InfeasibleError."""
    plan, dead = case
    surviving = {
        d for st_ in plan.stages for d in st_.device_ids if d not in dead
    }
    try:
        degraded = degrade_plan(plan, surviving)
    except InfeasibleError:
        # Explicit infeasibility is a legal outcome; it must mean either
        # no stage group survived intact or fewer groups than needed.
        intact = [
            st_
            for st_ in plan.stages
            if all(d in surviving for d in st_.device_ids)
        ]
        assert not intact
        return
    check_degraded_invariants(plan, degraded, surviving)


@given(case=plans_with_dead_devices(), cap_scale=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_degrade_plan_with_caps_never_violates_them(case, cap_scale):
    """With per-device caps, any returned plan respects every group cap."""
    plan, dead = case
    surviving = {
        d for st_ in plan.stages for d in st_.device_ids if d not in dead
    }
    layer_cost = lambda i, b: b  # noqa: E731 - bytes proxy
    caps = {
        d: cap_scale * 8
        for st_ in plan.stages
        for d in st_.device_ids
    }
    try:
        degraded = degrade_plan(
            plan, surviving, capacity_bytes=caps, layer_cost=layer_cost
        )
    except InfeasibleError:
        return  # explicit refusal is always acceptable here
    check_degraded_invariants(plan, degraded, surviving)
    for st_ in degraded.stages:
        load = sum(layer_cost(0, b) for b in st_.layer_bits)
        cap = sum(caps[d] for d in st_.device_ids)
        assert load <= cap, "degrade_plan returned a cap-violating stage"


@given(seed=st.integers(0, 10_000), n_faults=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_fault_plans_are_replayable(seed, n_faults):
    from repro.runtime import FaultPlan
    from repro.serialization import dumps, loads

    fp = FaultPlan.random(
        seed=seed,
        num_stages=4,
        n_tokens=16,
        n_faults=n_faults,
        kinds=("kill", "slow", "drop"),
    )
    assert len(fp.specs) == n_faults
    assert fp == FaultPlan.random(
        seed=seed,
        num_stages=4,
        n_tokens=16,
        n_faults=n_faults,
        kinds=("kill", "slow", "drop"),
    )
    assert loads(FaultPlan, dumps(fp)) == fp
    for spec in fp.specs:
        assert 0 <= spec.stage < 4
        assert 1 <= spec.step < 16


@pytest.mark.parametrize("kill", [(0,), (1,), (0, 1), (1, 2), (0, 2)])
def test_planner_replan_on_reduced_cluster(kill):
    """Planner.replan after a ClusterDelta plans a valid degraded topology
    (or raises InfeasibleError explicitly)."""
    from repro.core import ClusterDelta, PlannerConfig, SplitQuantPlanner
    from repro.hardware import make_cluster
    from repro.models import get_model
    from repro.workloads import BatchWorkload

    spec = get_model("opt-13b")
    cluster = make_cluster(
        "prop", [("A100-40G", 1), ("V100-32G", 1), ("T4-16G", 1)]
    )
    cfg = PlannerConfig(
        use_heuristic=True, microbatch_candidates=(4,), verify_top_k=1,
        enable_tp=False,
    )
    planner = SplitQuantPlanner(spec, cluster, cfg)
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    surviving = [
        d.device_id for d in cluster.devices if d.device_id not in kill
    ]
    from repro.plan import InfeasibleError as IE

    prev = planner.plan(wl)
    assert prev is not None
    try:
        res = planner.replan(prev, ClusterDelta(removed_device_ids=kill))
    except IE:
        return
    assert res.tier in ("incremental-repair", "incremental-resolve")
    plan = res.plan
    assert plan.num_layers == spec.num_layers
    for st_ in plan.stages:
        assert all(d in surviving for d in st_.device_ids)
