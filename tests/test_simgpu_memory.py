"""Tests for the simulated out-of-memory error."""

import pytest

from repro.hardware import make_cluster
from repro.pipeline.simulator import check_plan_memory
from repro.plan import ExecutionPlan, StagePlan
from repro.simgpu import OutOfMemoryError
from repro.workloads import BatchWorkload


def test_oom_raises_with_details(opt13b, t4):
    cluster = make_cluster("one-t4", [("T4-16G", 1)])
    plan = ExecutionPlan(
        opt13b.name,
        (StagePlan((0,), "T4-16G", 0, (16,) * opt13b.num_layers),),
        4, 4,
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    with pytest.raises(OutOfMemoryError) as exc:
        check_plan_memory(plan, cluster, opt13b, wl)
    assert exc.value.device == "stage0(T4-16G)"
    assert exc.value.available == t4.usable_mem_bytes
    assert exc.value.requested > exc.value.available
    assert "OOM on stage0(T4-16G)" in str(exc.value)
