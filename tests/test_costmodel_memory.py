"""Tests for the memory cost model (Sec. IV-A)."""

import pytest

from repro.costmodel import layer_memory_bytes, stage_overhead_bytes
from repro.costmodel.memory import (
    activation_workspace_bytes,
    embedding_memory_bytes,
)
from repro.models import kv_cache_bytes, weight_storage_bytes
from repro.models.layers import FP16_BYTES


def test_layer_memory_is_weights_plus_kv(opt13b):
    got = layer_memory_bytes(opt13b, 4, batch=8, context=600)
    expect = weight_storage_bytes(opt13b, 4) + kv_cache_bytes(opt13b, 8, 600)
    assert got == expect


def test_layer_memory_monotone_in_bits(opt13b):
    mems = [layer_memory_bytes(opt13b, b, 8, 600) for b in (3, 4, 8, 16)]
    assert mems == sorted(mems)


def test_kv_dominates_at_large_batch_small_bits(opt13b):
    m = layer_memory_bytes(opt13b, 3, batch=256, context=2048)
    kv = kv_cache_bytes(opt13b, 256, 2048)
    assert kv / m > 0.8


def test_negative_inputs_rejected(opt13b):
    with pytest.raises(ValueError):
        layer_memory_bytes(opt13b, 4, batch=-1, context=100)


def test_activation_workspace_scales(opt13b):
    a = activation_workspace_bytes(opt13b, 4, 512)
    b = activation_workspace_bytes(opt13b, 8, 512)
    c = activation_workspace_bytes(opt13b, 4, 1024)
    assert b == 2 * a
    assert c == 2 * a


def test_embedding_memory_includes_logits_workspace(opt13b):
    small = embedding_memory_bytes(opt13b, microbatch=1)
    big = embedding_memory_bytes(opt13b, microbatch=64)
    assert big - small == 63 * opt13b.vocab_size * 2


def _stage_bytes(spec, bits, j, n_stages, microbatch=4, batch=8, ctx=600,
                 chunk=536):
    """A stage's peak as check_plan_memory sums it."""
    return sum(
        layer_memory_bytes(spec, b, batch, ctx) for b in bits
    ) + stage_overhead_bytes(spec, j, n_stages, microbatch, chunk)


def test_stage_bytes_sums_layers(opt13b):
    one = _stage_bytes(opt13b, [4], j=1, n_stages=3)
    three = _stage_bytes(opt13b, [4, 4, 4], j=1, n_stages=3)
    assert three - one == 2 * layer_memory_bytes(opt13b, 4, 8, 600)


def test_stage_bytes_embedding_flag(opt13b, qwen7b):
    for spec in (opt13b, qwen7b):
        middle = stage_overhead_bytes(spec, 1, 3, 4, 600)
        assert middle == activation_workspace_bytes(spec, 4, 600)
        first = stage_overhead_bytes(spec, 0, 3, 4, 600)
        assert first - middle == embedding_memory_bytes(spec, 4)
        last = stage_overhead_bytes(spec, 2, 3, 4, 600)
        assert last - middle == spec.lm_head_elements * FP16_BYTES
        # A lone stage is first and last: M_emb already holds the head.
        assert stage_overhead_bytes(spec, 0, 1, 4, 600) == first
    assert qwen7b.lm_head_elements > 0


def test_fits_constraint(opt13b, v100):
    from repro.hardware import make_cluster
    from repro.pipeline.simulator import check_plan_memory
    from repro.plan import ExecutionPlan, StagePlan
    from repro.simgpu import OutOfMemoryError
    from repro.workloads import BatchWorkload

    cluster = make_cluster("one-v100", [("V100-32G", 1)])
    plan = ExecutionPlan(
        opt13b.name,
        (StagePlan((0,), "V100-32G", 0, (4,) * opt13b.num_layers),),
        4, 4,
    )
    wl = BatchWorkload(batch=8, prompt_len=536, output_len=64)
    need = _stage_bytes(opt13b, plan.bits_per_layer, 0, 1)
    assert check_plan_memory(plan, cluster, opt13b, wl) == (need,)
    assert need <= v100.usable_mem_bytes
    big = BatchWorkload(batch=64, prompt_len=536, output_len=64)
    with pytest.raises(OutOfMemoryError):
        check_plan_memory(plan, cluster, opt13b, big)


def test_kv_bitwidth_halves_reservation(opt13b):
    full = layer_memory_bytes(opt13b, 16, 8, 600, bit_kv=16)
    half = layer_memory_bytes(opt13b, 16, 8, 600, bit_kv=8)
    assert full - half == kv_cache_bytes(opt13b, 8, 600, 16) - kv_cache_bytes(
        opt13b, 8, 600, 8
    )
