"""Tests for variable-output-length workloads and their simulation."""

import pytest

from repro.pipeline import simulate_plan, simulate_plan_variable
from repro.plan import uniform_plan
from repro.workloads import BatchWorkload, VariableBatchWorkload


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


@pytest.fixture(scope="module")
def vworkload():
    return VariableBatchWorkload(
        prompt_len=256, output_lens=(10, 20, 20, 40, 40, 40, 80, 80)
    )


def test_properties(vworkload):
    assert vworkload.batch == 8
    assert vworkload.max_output == 80
    assert vworkload.mean_output == pytest.approx(41.25)
    assert vworkload.total_output_tokens == 330
    assert vworkload.context_len == 256 + 80


def test_validation():
    with pytest.raises(ValueError):
        VariableBatchWorkload(prompt_len=10, output_lens=())
    with pytest.raises(ValueError):
        VariableBatchWorkload(prompt_len=10, output_lens=(5, 0))
    with pytest.raises(ValueError):
        VariableBatchWorkload(prompt_len=0, output_lens=(5,))


def test_planning_views(vworkload):
    mean = vworkload.planning_view("mean")
    assert mean.output_len == 41
    assert mean.reserve_output_len == 80
    assert mean.context_len == vworkload.context_len
    mx = vworkload.planning_view("max")
    assert mx.output_len == 80
    with pytest.raises(ValueError):
        vworkload.planning_view("p99")


def test_reserve_output_len_validation():
    with pytest.raises(ValueError, match="reserve_output_len"):
        BatchWorkload(batch=1, prompt_len=10, output_len=50,
                      reserve_output_len=20)


def test_variable_simulation_basic(small_cluster, opt13b, vworkload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    res = simulate_plan_variable(plan, small_cluster, opt13b, vworkload)
    assert res.total_tokens == vworkload.total_output_tokens
    assert res.makespan_s > 0
    assert res.throughput_tokens_s > 0


def test_variable_cheaper_than_uniform_max(small_cluster, opt13b, vworkload):
    """Early retirement must beat padding everyone to the longest request."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    var = simulate_plan_variable(plan, small_cluster, opt13b, vworkload)
    mx = simulate_plan(
        plan, small_cluster, opt13b, vworkload.planning_view("max")
    )
    assert var.makespan_s < mx.makespan_s


def test_uniform_lengths_match_uniform_simulator(small_cluster, opt13b):
    """A uniform batch is the equal-lengths variable batch: the variable
    event engine and the uniform fast path agree bit-for-bit."""
    vwl = VariableBatchWorkload(prompt_len=256, output_lens=(32,) * 8)
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    var = simulate_plan_variable(
        plan, small_cluster, opt13b, vwl, sim_backend="event"
    )
    uni = simulate_plan(
        plan, small_cluster, opt13b,
        BatchWorkload(batch=8, prompt_len=256, output_len=32),
        sim_backend="fast",
    )
    assert (var.sim_backend, uni.sim_backend) == ("event", "fast")
    assert var == uni
    assert var.total_tokens == uni.total_tokens
    assert var.makespan_s == uni.makespan_s
    assert var.stage_busy_s == uni.stage_busy_s
    assert var.events_processed == uni.events_processed
    assert var.energy_j is not None and var.energy_j == uni.energy_j
    assert var.cost_usd == uni.cost_usd


def test_single_step_requests(small_cluster, opt13b):
    """Requests generating exactly one token need no decode at all."""
    vwl = VariableBatchWorkload(prompt_len=128, output_lens=(1, 1, 1, 1))
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    res = simulate_plan_variable(plan, small_cluster, opt13b, vwl)
    assert res.decode_span_s == 0.0
    assert res.total_tokens == 4


def test_memory_checked_at_max_context(small_cluster, opt30b):
    from repro.simgpu import OutOfMemoryError

    vwl = VariableBatchWorkload(prompt_len=256, output_lens=(8, 2000))
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 2, 2
    )
    with pytest.raises(OutOfMemoryError):
        simulate_plan_variable(plan, small_cluster, opt30b, vwl)


def test_describe(vworkload):
    d = vworkload.describe()
    assert "10..80" in d and "mean 41" in d
