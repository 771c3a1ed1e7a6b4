"""The scalable DP planning tier: routing, identity, and gap bounds."""

import numpy as np
import pytest

from repro.core import (
    PlannerConfig,
    SplitQuantPlanner,
    build_problem,
    scalable_orderings,
    segment_partition,
)
from repro.core.dp import flow_relaxed_span
from repro.costmodel.latency import LatencyCostModel
from repro.hardware import make_cluster
from repro.hardware.cluster import table_iii_cluster
from repro.models import get_model
from repro.quant.sensitivity import normalized_indicator_table
from repro.workloads import BatchWorkload

WL = BatchWorkload(batch=8, prompt_len=256, output_len=32)
FAST = PlannerConfig(
    use_heuristic=True, microbatch_candidates=(4, 8), verify_top_k=1
)


# ---------------------------------------------------------------------------
# Tier routing & provenance
# ---------------------------------------------------------------------------


def test_auto_routes_small_to_exact_and_large_to_dp():
    spec = get_model("opt-13b")
    small = SplitQuantPlanner(
        spec, make_cluster("s", [("V100-32G", 2)]), FAST
    )
    assert small.resolve_tier("auto") == ("exact", "auto: 2 devices <= 8")
    big = SplitQuantPlanner(
        spec,
        make_cluster("b", [("V100-32G", 8), ("T4-16G", 4)]),
        FAST,
    )
    tier, reason = big.resolve_tier("auto")
    assert tier == "dp" and "12 devices > 8" in reason
    assert big.resolve_tier("exact") == ("exact", "requested")
    with pytest.raises(ValueError, match="unknown planner tier"):
        big.resolve_tier("milp")


def test_config_tier_validation():
    planner = SplitQuantPlanner(
        get_model("opt-13b"), make_cluster("s", [("V100-32G", 2)]), FAST
    )
    with pytest.raises(ValueError, match="unknown planner tier"):
        planner.plan(WL, tier="fast")


def test_result_provenance_fields():
    spec = get_model("opt-1.3b")
    planner = SplitQuantPlanner(
        spec, make_cluster("p", [("V100-32G", 2)]), FAST
    )
    exact = planner.plan(WL)
    assert exact.tier == "exact"
    assert exact.gap_bound is None
    assert exact.workload == WL
    dp = planner.plan(WL, tier="dp")
    assert dp.tier == "dp"
    assert dp.tier_reason == "requested"
    assert dp.gap_bound is not None and dp.gap_bound >= 1.0
    # Provenance fields never affect result equality (compare=False).
    import dataclasses

    restamped = dataclasses.replace(
        exact, tier="dp", tier_reason="x", gap_bound=2.0
    )
    assert restamped == exact


# ---------------------------------------------------------------------------
# DP vs exact: bit-identical where forced, bounded gap on the grid
# ---------------------------------------------------------------------------


def test_dp_exact_identity_forced_assignment():
    """K=1 bits, one deduplicated ordering, G == N: the assignment is
    forced, so DP and exact MILP must return bit-identical plans."""
    spec = get_model("opt-1.3b")
    cluster = make_cluster("forced", [("V100-32G", 2)])
    cfg = PlannerConfig(
        bit_choices=(4,),
        group_size=spec.num_layers // 2,
        use_heuristic=False,
        microbatch_candidates=(8,),
        tie_microbatches=True,
        verify_top_k=1,
        enable_tp=False,
    )
    planner = SplitQuantPlanner(spec, cluster, cfg)
    exact = planner.plan(WL, tier="exact")
    dp = planner.plan(WL, tier="dp")
    assert exact is not None and dp is not None
    assert dp.plan == exact.plan


@pytest.mark.parametrize("idx", [2, 3, 5, 9])
def test_dp_vs_exact_differential_grid(idx):
    """Across the fastsim grid the DP tier's throughput stays within a
    bounded gap of the exact tier (empirically it matches it)."""
    spec = get_model("opt-1.3b")
    planner = SplitQuantPlanner(spec, table_iii_cluster(idx), FAST)
    exact = planner.plan(WL, tier="exact")
    dp = planner.plan(WL, tier="dp")
    assert (exact is None) == (dp is None)
    if exact is None:
        return
    assert dp.throughput_tokens_s >= 0.7 * exact.throughput_tokens_s
    assert dp.gap_bound is not None
    assert 1.0 <= dp.gap_bound < 25.0
    assert dp.plan.num_layers == spec.num_layers


def test_dp_vs_milp_oracle_small_instance():
    spec = get_model("opt-13b")
    cfg = PlannerConfig(
        use_heuristic=False,
        microbatch_candidates=(4,),
        verify_top_k=1,
        group_size=4,
    )
    planner = SplitQuantPlanner(spec, table_iii_cluster(3), cfg)
    exact = planner.plan(WL, tier="exact")
    dp = planner.plan(WL, tier="dp")
    assert exact is not None and dp is not None
    assert dp.throughput_tokens_s >= 0.9 * exact.throughput_tokens_s


def test_dp_plans_cluster_exact_cannot_enumerate():
    """A 24-GPU mixed cluster: candidate_orderings would need to permute
    >= 6 node groups; the DP tier plans it in well under a minute."""
    spec = get_model("opt-13b")
    cluster = make_cluster(
        "big",
        [("A100-40G", 8), ("V100-32G", 8), ("T4-16G", 8)],
    )
    planner = SplitQuantPlanner(spec, cluster, FAST)
    result = planner.plan(WL)
    assert result is not None
    assert result.tier == "dp"
    assert result.plan.num_layers == spec.num_layers
    used = [d for st in result.plan.stages for d in st.device_ids]
    assert len(used) == len(set(used))


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _small_problem(n_devices=3):
    spec = get_model("opt-1.3b")
    cluster = make_cluster("sp", [("V100-32G", n_devices)])
    ordering = scalable_orderings(cluster, enable_tp=False)[0]
    cm = LatencyCostModel(spec)
    cm.fit([cluster.devices[0].gpu], (3, 4, 8, 16))
    omega = normalized_indicator_table(spec, (3, 4, 8, 16))
    return build_problem(
        spec, cluster, ordering, WL, cm, omega, 4, 4, (3, 4, 8, 16),
        group_size=2,
    )


def test_segment_partition_contiguous_and_feasible():
    problem = _small_problem()
    stage = segment_partition(problem)
    assert stage is not None
    assert len(stage) == problem.n_groups
    # Contiguous, monotone, every stage non-empty.
    assert stage == sorted(stage)
    assert set(stage) == set(range(problem.n_stages))
    # Min-bits memory respected per stage.
    for j in range(problem.n_stages):
        mem = sum(
            problem.mem[g, 0] for g in range(problem.n_groups)
            if stage[g] == j
        )
        assert mem <= problem.capacity[j] + 1e-6


def test_segment_partition_infeasible_when_more_stages_than_groups():
    problem = _small_problem()
    # A fake problem with fewer groups than stages cannot be partitioned.
    import dataclasses

    shrunk = dataclasses.replace(
        problem,
        l_pre=problem.l_pre[:1],
        l_dec=problem.l_dec[:1],
        mem=problem.mem[:1],
        omega=problem.omega[:1],
        group_sizes=problem.group_sizes[:1],
    )
    assert segment_partition(shrunk) is None


def test_flow_relaxed_span_scales_with_rates():
    u = np.full(2, 1e-3)
    comm = np.zeros(1)
    fast = flow_relaxed_span(u, u, comm, comm, 24, 4, 2, 32)
    slow = flow_relaxed_span(2 * u, 2 * u, comm, comm, 24, 4, 2, 32)
    assert slow == pytest.approx(2 * fast)
    assert fast > 0


def test_scalable_orderings_cover_and_dedup():
    cluster = make_cluster(
        "so", [("A100-40G", 4), ("V100-32G", 2), ("T4-16G", 1)]
    )
    orderings = scalable_orderings(cluster, enable_tp=True)
    assert orderings
    all_ids = {d.device_id for d in cluster.devices}
    keys = set()
    for ordering in orderings:
        used = [d for sg in ordering for d in sg.device_ids]
        assert sorted(used) == sorted(all_ids)
        key = tuple(sg.key() for sg in ordering)
        assert key not in keys
        keys.add(key)
    # The cap is respected.
    assert len(scalable_orderings(cluster, max_orderings=2)) <= 2


def test_scalable_orderings_scale():
    """O(D log D): a 1000-GPU cluster enumerates in well under a second."""
    import time

    cluster = make_cluster(
        "huge",
        [("A100-40G", 400), ("V100-32G", 300), ("T4-16G", 300)],
    )
    t0 = time.perf_counter()
    orderings = scalable_orderings(cluster)
    assert orderings
    assert time.perf_counter() - t0 < 1.0
