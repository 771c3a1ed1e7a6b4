"""Tests for execution-plan structures."""

import pytest

from repro.plan import KV_BITS, ExecutionPlan, StagePlan, uniform_plan
from repro.serialization import dumps_plan, loads_plan


def make_plan():
    return ExecutionPlan(
        model_name="opt-13b",
        stages=(
            StagePlan((0,), "T4-16G", 0, (8, 8, 4)),
            StagePlan((1, 2), "T4-16G", 3, (4, 4)),
            StagePlan((3,), "V100-32G", 5, (16,)),
        ),
        prefill_microbatch=4,
        decode_microbatch=8,
    )


def test_basic_properties():
    plan = make_plan()
    assert plan.num_layers == 6
    assert plan.num_stages == 3
    assert plan.bits_per_layer == (8, 8, 4, 4, 4, 16)
    assert plan.layers_per_stage() == (3, 2, 1)
    assert plan.stages[1].tp_degree == 2


def test_stage_of_layer():
    plan = make_plan()
    assert plan.stage_of_layer(0) == 0
    assert plan.stage_of_layer(3) == 1
    assert plan.stage_of_layer(5) == 2
    with pytest.raises(IndexError):
        plan.stage_of_layer(6)


def test_bits_histogram():
    assert make_plan().bits_histogram() == {8: 2, 4: 3, 16: 1}


def test_describe_readable():
    d = make_plan().describe()
    assert "T4-16G" in d and "tp2" in d and "eta=4" in d


def test_non_contiguous_rejected():
    with pytest.raises(ValueError, match="contiguous"):
        ExecutionPlan(
            model_name="m",
            stages=(
                StagePlan((0,), "T4-16G", 0, (8,)),
                StagePlan((1,), "T4-16G", 2, (8,)),  # gap at layer 1
            ),
            prefill_microbatch=1,
            decode_microbatch=1,
        )


def test_duplicate_device_rejected():
    with pytest.raises(ValueError, match="two stages"):
        ExecutionPlan(
            model_name="m",
            stages=(
                StagePlan((0,), "T4-16G", 0, (8,)),
                StagePlan((0,), "T4-16G", 1, (8,)),
            ),
            prefill_microbatch=1,
            decode_microbatch=1,
        )


def test_empty_stage_rejected():
    with pytest.raises(ValueError):
        StagePlan((0,), "T4-16G", 0, ())


def test_bad_microbatch_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan(
            model_name="m",
            stages=(StagePlan((0,), "T4-16G", 0, (8,)),),
            prefill_microbatch=0,
            decode_microbatch=1,
        )


@pytest.mark.parametrize("bad", [0, 3, 7, -4])
def test_bad_bit_kv_rejected(bad):
    """A KV bitwidth outside KV_BITS would price the cache at a wrong
    (at -4, negative) size; the constructor and the loader refuse it."""
    stages = (StagePlan((0,), "T4-16G", 0, (8,)),)
    with pytest.raises(ValueError, match="bit_kv"):
        ExecutionPlan("m", stages, 1, 1, bit_kv=bad)
    text = dumps_plan(ExecutionPlan("m", stages, 1, 1, bit_kv=KV_BITS[0]))
    with pytest.raises(ValueError, match="bit_kv"):
        loads_plan(text.replace(f'"bit_kv": {KV_BITS[0]}', f'"bit_kv": {bad}'))


def test_uniform_plan_even_split():
    groups = [((0,), "T4-16G"), ((1,), "T4-16G"), ((2,), "V100-32G")]
    plan = uniform_plan("opt-13b", 10, groups, 8, 4, 4)
    assert plan.layers_per_stage() == (4, 3, 3)
    assert set(plan.bits_per_layer) == {8}


def test_uniform_plan_exact_split():
    groups = [((0,), "A"), ((1,), "A")]
    plan = uniform_plan("m", 8, groups, 16, 2, 2)
    assert plan.layers_per_stage() == (4, 4)


def test_uniform_plan_fewer_layers_than_stages():
    with pytest.raises(ValueError):
        uniform_plan("m", 1, [((0,), "A"), ((1,), "A")], 16, 1, 1)


def test_uniform_plan_needs_groups():
    with pytest.raises(ValueError):
        uniform_plan("m", 4, [], 16, 1, 1)
