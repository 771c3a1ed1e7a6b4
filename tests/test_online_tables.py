"""The stage-duration model and its memo against the per-layer
reference.

``StageExecutionModel`` is the one stage-duration implementation every
simulator shares: one timing lookup per distinct layer bitwidth, then an
in-order layer sum.  ``PipelineTopology`` memoizes its results in one
module dict keyed by interned stage structure, so identical stages —
of one plan or of plans on different clusters — share one entry.  The
event == fast differentials cannot catch an error in either — every
backend reads the same durations — so these tests pin both directly to
``tests/stage_oracle.py``, the literal one-call-per-layer sum, with
``==`` on raw floats, and pin what the memo's key may and may not
share.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro.pipeline import (
    CostModelTiming,
    OnlineConfig,
    PlanCase,
    RooflineTiming,
    clear_table_caches,
    evaluate_plans,
    fastsim,
    simulate_online,
    simulate_plan,
    topology,
)
from repro.pipeline.stage import StageExecutionModel
from repro.pipeline.topology import shared_topology
from repro.plan import ExecutionPlan, StagePlan, uniform_plan
from repro.workloads import ArrivalTrace, BatchWorkload, Request
from tests import stage_oracle

#: Nine layers with repeated, interleaved bitwidths: long enough that a
#: pairwise (non-sequential) sum or a per-bitwidth ``count * t`` product
#: rounds differently from the in-order layer sum.
MIXED_BITS = (3, 4, 4, 8, 16, 4, 3, 8, 4)
N_OUTS = (1, 2, 9, 10, 128)  # direct probes up to 10, interpolated after
SIZES = (1, 8)
PROMPT_LEN = 256
CHUNK_LEN = 512


@pytest.fixture(scope="module", params=["roofline-kv16", "roofline-kv8",
                                        "cost-model"])
def timing(request, opt13b, cost_model_13b):
    if request.param == "cost-model":
        return CostModelTiming(cost_model=cost_model_13b, spec=opt13b)
    bit_kv = 16 if request.param == "roofline-kv16" else 8
    return RooflineTiming(spec=opt13b, bit_kv=bit_kv)


@pytest.mark.parametrize("bits", [MIXED_BITS, (4,) * 8])
@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize(
    "is_first, is_last", list(itertools.product((False, True), repeat=2))
)
@pytest.mark.parametrize("gpu_name", ["T4", "V100"])
def test_shared_functions_equal_stage_model(
    request, opt13b, timing, bits, tp, is_first, is_last, gpu_name
):
    gpu = request.getfixturevalue(gpu_name.lower())
    stage = StagePlan(
        device_ids=tuple(range(tp)), gpu_name=gpu.name, layer_start=0,
        layer_bits=bits,
    )
    sm = StageExecutionModel(
        stage=stage, gpu=gpu, spec=opt13b, timing=timing,
        is_first=is_first, is_last=is_last,
    )
    for size in SIZES:
        assert sm.prefill_chunk_time(size, CHUNK_LEN) == (
            stage_oracle.prefill_chunk_time(sm, size, CHUNK_LEN)
        )
        for n_out in N_OUTS:
            assert sm.decode_time_series(size, PROMPT_LEN, n_out) == (
                stage_oracle.decode_time_series(sm, size, PROMPT_LEN, n_out)
            )


# -- structure keying on cluster 7 (four T4s on node 0, two V100s on 1) --


@pytest.fixture(scope="module")
def opt30b_spec():
    return get_model("opt-30b")


@pytest.fixture(scope="module")
def cluster7():
    return table_iii_cluster(7)


def _plan(spec, stages):
    """A plan from ``(device_ids, gpu_name, layer_bits)`` per stage."""
    built, start = [], 0
    for dev_ids, gpu_name, bits in stages:
        built.append(StagePlan(dev_ids, gpu_name, start, bits))
        start += len(bits)
    assert start == spec.num_layers
    return ExecutionPlan(spec.name, tuple(built), 8, 8)


def _plans(spec, cluster):
    t4, v100 = "T4-16G", "V100-32G"
    groups = [((d.device_id,), d.gpu.name) for d in cluster.devices]
    return {
        # Stages 0-3 share the T4, 4-5 the V100: only position differs.
        "uniform": uniform_plan(spec.name, spec.num_layers, groups, 4, 8, 8),
        # Stages 1 and 2 differ only in bits, 4 and 5 only in position.
        "bits": _plan(spec, [
            ((0,), t4, (4,) * 8), ((1,), t4, (4,) * 8),
            ((2,), t4, (8,) * 8), ((3,), t4, MIXED_BITS[:8]),
            ((4,), v100, (4,) * 8), ((5,), v100, (4,) * 8),
        ]),
        # Stages 1 and 2 differ only in TP degree.
        "tp": _plan(spec, [
            ((0,), t4, (4,) * 10), ((1, 2), t4, (4,) * 10),
            ((3,), t4, (4,) * 10), ((4,), v100, (4,) * 9),
            ((5,), v100, (4,) * 9),
        ]),
    }


def _topology(plan, cluster, spec):
    return shared_topology(
        plan, cluster, spec, RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
    )


def _entries(topo):
    """The memo's (prefill, decode) entries for ``topo``'s structures."""
    sids = set(topo.struct_ids)
    keys = [k for k in topology._DURATIONS if k[0] in sids]
    return (
        sum(1 for k in keys if len(k) == 3),
        sum(1 for k in keys if len(k) == 4),
    )


@pytest.mark.parametrize("name", ["uniform", "bits", "tp"])
def test_tables_equal_topology_per_stage(name, opt30b_spec, cluster7):
    clear_table_caches()
    plan = _plans(opt30b_spec, cluster7)[name]
    topo = _topology(plan, cluster7, opt30b_spec)
    # Every stage is queried through one memo, so a key that merged two
    # different structures would hand the later stage a wrong entry.
    for size, (pad, max_n) in itertools.product((1, 8), ((256, 9), (64, 40))):
        for j in range(topo.num_stages):
            sm = topo.stage_models[j]
            assert topo.prefill_time(j, size, CHUNK_LEN) == (
                stage_oracle.prefill_chunk_time(sm, size, CHUNK_LEN)
            )
            ref = stage_oracle.decode_time_series(sm, size, pad, max_n)
            assert topo.decode_series(j, size, pad, max_n) == ref


@pytest.mark.parametrize("name, j, k", [
    ("uniform", 0, 1),  # first vs middle, same GPU and bits
    ("uniform", 4, 5),  # middle vs last
    ("bits", 1, 2),
    ("tp", 1, 2),
])
def test_structures_that_differ_get_their_own_entry(
    name, j, k, opt30b_spec, cluster7
):
    plan = _plans(opt30b_spec, cluster7)[name]
    topo = _topology(plan, cluster7, opt30b_spec)
    assert topo.struct_ids[j] != topo.struct_ids[k]
    assert topo.prefill_time(j, 8, CHUNK_LEN) != (
        topo.prefill_time(k, 8, CHUNK_LEN)
    )
    assert topo.decode_series(j, 8, 256, 9) != (
        topo.decode_series(k, 8, 256, 9)
    )


def test_identical_stages_share_one_entry(opt30b_spec, cluster7):
    clear_table_caches()
    plan = _plans(opt30b_spec, cluster7)["uniform"]
    topo = _topology(plan, cluster7, opt30b_spec)
    for j in range(plan.num_stages):
        topo.prefill_time(j, 8, CHUNK_LEN)
        topo.decode_series(j, 8, 256, 9)
    # First T4, middle T4 (x3), middle V100, last V100: 4 structures.
    assert len(set(topo.struct_ids)) == 4
    assert _entries(topo) == (4, 4)


def _count_stage_calls(monkeypatch):
    calls = {"prefill": 0, "decode": 0}
    prefill = StageExecutionModel.prefill_chunk_time
    decode = StageExecutionModel.decode_time_series

    def counted_prefill(self, *args):
        calls["prefill"] += 1
        return prefill(self, *args)

    def counted_decode(self, *args):
        calls["decode"] += 1
        return decode(self, *args)

    monkeypatch.setattr(
        StageExecutionModel, "prefill_chunk_time", counted_prefill
    )
    monkeypatch.setattr(
        StageExecutionModel, "decode_time_series", counted_decode
    )
    return calls


def test_clusters_sharing_a_structure_compute_it_once(
    monkeypatch, opt30b_spec, cluster7
):
    # The same GPUs behind a slower cross-node link: other link delays,
    # the same stage structures.
    slow7 = make_cluster(
        "cluster-7-slow", [("T4-16G", 4), ("V100-32G", 2)],
        cross_node_link="eth-100g",
    )
    plan = _plans(opt30b_spec, cluster7)["uniform"]
    clear_table_caches()
    calls = _count_stage_calls(monkeypatch)
    fast = _topology(plan, cluster7, opt30b_spec)
    slow = _topology(plan, slow7, opt30b_spec)
    assert slow is not fast
    assert slow.struct_ids == fast.struct_ids
    for topo in (fast, slow):
        for j in range(plan.num_stages):
            topo.prefill_time(j, 8, CHUNK_LEN)
            topo.decode_series(j, 8, 256, 9)
    assert calls == {"prefill": 4, "decode": 4}
    assert fast.prefill_comm(3, 8, CHUNK_LEN) < (
        slow.prefill_comm(3, 8, CHUNK_LEN)
    )


def _small_workload():
    return BatchWorkload(batch=8, prompt_len=256, output_len=9)


def _all_at_zero(workload):
    return ArrivalTrace(tuple(
        Request(i, 0.0, workload.prompt_len, workload.output_len)
        for i in range(workload.batch)
    ))


def test_clear_table_caches_leaves_nothing_memoized(opt30b_spec, cluster7):
    plan = _plans(opt30b_spec, cluster7)["uniform"]
    wl = _small_workload()
    simulate_plan(plan, cluster7, opt30b_spec, wl, check_memory=False)
    evaluate_plans([PlanCase(plan, cluster7, opt30b_spec, wl)])
    simulate_online(
        plan, cluster7, opt30b_spec, _all_at_zero(wl), check_memory=False
    )
    memos = (
        fastsim._DEFAULT_MEMOS, topology._TOPOLOGIES,
        topology._STRUCTURE_IDS, topology._DURATIONS,
    )
    assert all(memos)
    clear_table_caches()
    assert not any(memos)


def test_wrong_model_name_raises_after_a_warm_cache(opt30b_spec, cluster7):
    plan = _plans(opt30b_spec, cluster7)["uniform"]
    wl = _small_workload()
    arrivals = _all_at_zero(wl)
    config = OnlineConfig(chunk_tokens=CHUNK_LEN)
    # Warm every memo on the right plan: the memo keys hold the stages,
    # not the model name, so a hit must not skip the model check.
    simulate_plan(plan, cluster7, opt30b_spec, wl)
    evaluate_plans([PlanCase(plan, cluster7, opt30b_spec, wl)])
    simulate_online(plan, cluster7, opt30b_spec, arrivals, config)
    wrong = dataclasses.replace(plan, model_name="opt-13b")
    assert wrong.stages == plan.stages
    with pytest.raises(ValueError, match="opt-13b"):
        simulate_plan(wrong, cluster7, opt30b_spec, wl)
    with pytest.raises(ValueError, match="opt-13b"):
        simulate_online(wrong, cluster7, opt30b_spec, arrivals, config)
    with pytest.raises(ValueError, match="opt-13b"):
        evaluate_plans([PlanCase(wrong, cluster7, opt30b_spec, wl)])
