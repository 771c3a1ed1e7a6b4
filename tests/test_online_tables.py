"""The stage-duration model and the online tables against the per-layer
reference.

``StageExecutionModel`` is the one stage-duration implementation every
simulator shares: one timing lookup per distinct layer bitwidth, then an
in-order layer sum.  ``OnlineTables`` fills its misses from it and keys
them by stage structure, so identical stages share one entry.  The
event == fast differentials cannot catch an error in either — every
backend reads the same durations — so these tests pin both directly to
``tests/stage_oracle.py``, the literal one-call-per-layer sum, with
``==`` on raw floats.
"""

from __future__ import annotations

import itertools

import pytest

from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import CostModelTiming, OnlineTables, RooflineTiming
from repro.pipeline.stage import StageExecutionModel
from repro.pipeline.topology import PipelineTopology
from repro.plan import ExecutionPlan, StagePlan, uniform_plan
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


@pytest.mark.parametrize("name", ["uniform", "bits", "tp"])
def test_tables_equal_topology_per_stage(name, opt30b_spec, cluster7):
    plan = _plans(opt30b_spec, cluster7)[name]
    topo = PipelineTopology.build(plan, cluster7, opt30b_spec)
    tables = OnlineTables(topo)
    # Every stage is queried on one bundle, so a key that merged two
    # different structures would hand the later stage a wrong entry.
    for size, (pad, max_n) in itertools.product((1, 8), ((256, 9), (64, 40))):
        for j in range(topo.num_stages):
            sm = topo.stage_models[j]
            assert tables.pre_time(j, size, CHUNK_LEN) == (
                stage_oracle.prefill_chunk_time(sm, size, CHUNK_LEN)
            )
            ref = stage_oracle.decode_time_series(sm, size, pad, max_n)
            assert tables.dec_series(j, size, pad, max_n) == ref
            for t in (1, max_n - 1):
                assert tables.dec_step(j, size, pad, max_n, t) == ref[t - 1]


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
    tables = OnlineTables(PipelineTopology.build(plan, cluster7, opt30b_spec))
    assert tables.pre_time(j, 8, CHUNK_LEN) != tables.pre_time(k, 8, CHUNK_LEN)
    assert tables.dec_series(j, 8, 256, 9) != tables.dec_series(k, 8, 256, 9)


def test_identical_stages_share_one_entry(opt30b_spec, cluster7):
    plan = _plans(opt30b_spec, cluster7)["uniform"]
    tables = OnlineTables(PipelineTopology.build(plan, cluster7, opt30b_spec))
    for j in range(plan.num_stages):
        tables.pre_time(j, 8, CHUNK_LEN)
        tables.dec_series(j, 8, 256, 9)
    # First T4, middle T4 (x3), middle V100, last V100: 4 structures.
    assert len(tables._pre_time) == 4
    assert len(tables._dec_series) == 4
