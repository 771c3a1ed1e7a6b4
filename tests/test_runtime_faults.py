"""Differential tests for the fault-tolerant runtime.

Every scenario here runs the threaded pipeline under an injected
:class:`~repro.runtime.faults.FaultPlan` and asserts the generated tokens
are *bit-identical* to the fault-free single-process reference on the
same quantized weights — the core guarantee of the degrade-and-replan
recovery path.
"""

import time

import numpy as np
import pytest

from repro.plan import ExecutionPlan, InfeasibleError, StagePlan, degrade_plan
from repro.runtime import (
    Channel,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    PipelineEngine,
    StageFailure,
    StageMessage,
    StageWorker,
    reference_generate,
    tinylm_layer_bytes,
)
from repro.serialization import dumps, from_dict, loads, to_dict


def tiny_plan(layers_per_stage, bits=8, mb=2, gpu="T4-16G"):
    stages = []
    start = 0
    dev = 0
    for n in layers_per_stage:
        stages.append(StagePlan((dev,), gpu, start, (bits,) * n))
        start += n
        dev += 1
    return ExecutionPlan(
        model_name="tiny", stages=tuple(stages),
        prefill_microbatch=mb, decode_microbatch=mb,
    )


def run_engine(tiny_model, plan, prompts, n_tokens, fault_plan=None, **kw):
    kw.setdefault("recv_timeout_s", 5.0)
    kw.setdefault("stall_timeout_s", 0.3)
    with PipelineEngine(tiny_model, plan, fault_plan=fault_plan, **kw) as eng:
        res = eng.generate(prompts, n_tokens=n_tokens)
    return res, eng


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec semantics
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec("explode", 0)
    with pytest.raises(ValueError, match="phase"):
        FaultSpec("kill", 0, phase="warmup")
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec("kill", 0, phase="decode", step=0)
    with pytest.raises(ValueError, match="delay_s"):
        FaultSpec("slow", 0, delay_s=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["slow", "kill"])
def test_fault_spec_rejects_non_finite_delay(kind, bad):
    # A NaN delay made simulated makespans NaN; an infinite one kept the
    # injector sleeping (and heartbeating) forever.
    with pytest.raises(ValueError, match="delay_s"):
        FaultSpec(kind, 0, delay_s=bad)


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_loaded_fault_plan_rejects_non_finite_delay(token):
    text = dumps(FaultPlan(specs=(FaultSpec("slow", 0, delay_s=0.5),)))
    assert '"delay_s": 0.5' in text
    with pytest.raises(ValueError, match="delay_s"):
        loads(FaultPlan, text.replace('"delay_s": 0.5', f'"delay_s": {token}'))


def test_fault_plan_random_is_deterministic():
    a = FaultPlan.random(seed=9, num_stages=3, n_tokens=12, n_faults=4,
                         kinds=("kill", "slow", "drop"))
    b = FaultPlan.random(seed=9, num_stages=3, n_tokens=12, n_faults=4,
                         kinds=("kill", "slow", "drop"))
    assert a == b
    c = FaultPlan.random(seed=10, num_stages=3, n_tokens=12, n_faults=4,
                         kinds=("kill", "slow", "drop"))
    assert a != c


def test_fault_plan_round_trip_serialization():
    fp = FaultPlan(
        specs=(
            FaultSpec("kill", 1, "decode", 3),
            FaultSpec("slow", 0, "decode", 2, delay_s=0.25),
            FaultSpec("drop", 0, "prefill", 1, mb_id=None),
        ),
        seed=42,
    )
    assert from_dict(FaultPlan, to_dict(fp)) == fp
    assert loads(FaultPlan, dumps(fp)) == fp


def test_injector_fires_each_spec_once():
    inj = FaultInjector(FaultPlan.single_kill(stage=0, step=2))
    inj.on_job(0, "decode", 1, 0)  # no match
    with pytest.raises(InjectedFault):
        inj.on_job(0, "decode", 2, 0)
    # Replay of the same step after a rebuild must NOT refire.
    inj.on_job(0, "decode", 2, 0)
    assert inj.exhausted
    assert [s.kind for s in inj.fired] == ["kill"]


# ---------------------------------------------------------------------------
# Channel failure semantics (satellite bugfix coverage)
# ---------------------------------------------------------------------------


def test_recv_from_dead_sender_raises_real_error_fast():
    ch = Channel("w->m")
    boom = RuntimeError("cuda ate my tensor")
    ch.bind_sender(3, lambda: boom)
    t0 = time.monotonic()
    with pytest.raises(StageFailure) as ei:
        ch.recv(timeout=30.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, "dead sender must surface well before the timeout"
    assert ei.value.stage == 3
    assert "stage-3" in str(ei.value)
    assert ei.value.__cause__ is boom


def test_recv_close_from_dying_sender_surfaces_error():
    ch = Channel("w->m")
    boom = ValueError("nan in layer 2")
    ch.bind_sender(1, lambda: boom)
    ch.close()  # what a dying worker does after capturing its error
    with pytest.raises(StageFailure) as ei:
        ch.recv(timeout=1.0)
    assert ei.value.__cause__ is boom


def test_recv_healthy_sender_times_out_plainly():
    ch = Channel("w->m")
    ch.bind_sender(0, lambda: None)
    with pytest.raises(TimeoutError):
        ch.recv(timeout=0.05)
    assert ch.recv_retries > 0


def test_channel_drop_hook_discards_matching_send():
    inj = FaultInjector(
        FaultPlan(specs=(FaultSpec("drop", 0, "decode", 2),))
    )
    ch = Channel("s0->s1")
    ch.bind_sender(0, lambda: None, fault_hook=inj.drop_hook(0))
    ch.send(StageMessage("decode", 0, np.zeros((1, 1, 2)), step=1))
    ch.send(StageMessage("decode", 0, np.zeros((1, 1, 2)), step=2))  # dropped
    ch.send(StageMessage("decode", 0, np.zeros((1, 1, 2)), step=2))  # fires once
    assert ch.dropped == 1
    assert ch.pending == 2


def test_worker_busy_time_charged_on_injected_kill(tiny_model):
    """busy_time accounting survives the job that kills the worker."""
    inj = FaultInjector(FaultPlan.single_kill(stage=0, step=1))
    in_ch, out_ch = Channel("in"), Channel("out")
    w = StageWorker(0, tiny_model.config, tiny_model.layers[:2],
                    in_ch, out_ch, injector=inj, poll_s=0.02)
    w.start()
    x = np.zeros((1, 4, tiny_model.config.hidden))
    in_ch.send(StageMessage("prefill", 0, x))
    in_ch.send(StageMessage("decode", 0, x[:, :1], step=1))
    w.join(timeout=5.0)
    assert not w.is_alive()
    assert isinstance(w.error, InjectedFault)
    assert w.busy_time > 0.0  # prefill work was charged before the kill
    assert w.jobs == 1  # the killed decode job never completed


# ---------------------------------------------------------------------------
# Differential grid: faulty pipeline == fault-free reference, bit for bit
# ---------------------------------------------------------------------------


GRID = [
    # (layers_per_stage, bits, fault specs, expected replans)
    ([2, 2], 8, [("kill", 1, "decode", 3)], 1),
    ([2, 2], 8, [("kill", 0, "decode", 2)], 1),
    ([1, 2, 1], 8, [("kill", 1, "decode", 4)], 1),
    ([1, 2, 1], 8, [("kill", 2, "prefill", 0)], 1),
    ([2, 2], 8, [("drop", 0, "decode", 3)], 1),
    ([2, 2], 8, [("slow", 1, "decode", 2)], 0),
    ([1, 2, 1], 8, [("kill", 2, "decode", 2), ("kill", 1, "decode", 4)], 2),
    ([2, 2], 8, [("slow", 0, "decode", 2), ("kill", 1, "decode", 4)], 1),
]


@pytest.mark.parametrize("layers_per_stage,bits,specs,expected_replans", GRID)
def test_faulty_generation_bit_exact(
    tiny_model, rng, layers_per_stage, bits, specs, expected_replans
):
    plan = tiny_plan(layers_per_stage, bits=bits)
    fp = FaultPlan(
        specs=tuple(
            FaultSpec(kind, stage, phase, step,
                      delay_s=0.15 if kind == "slow" else 0.0)
            for kind, stage, phase, step in specs
        )
    )
    prompts = rng.integers(0, tiny_model.config.vocab, size=(4, 8))
    n_tokens = 6
    res, eng = run_engine(tiny_model, plan, prompts, n_tokens,
                          fault_plan=fp, max_replans=3)
    ref = reference_generate(
        tiny_model.quantized(list(plan.bits_per_layer)), prompts, n_tokens
    )
    assert np.array_equal(res.tokens, ref), "degraded output diverged"
    assert res.replans == expected_replans
    assert len(res.fault_events) == expected_replans
    # Bitwidths are frozen across every recovery.
    for p in eng.plan_history:
        assert p.bits_per_layer == plan.bits_per_layer


def test_kill_records_dead_devices_and_degraded_plan(tiny_model, rng):
    plan = tiny_plan([2, 2])
    fp = FaultPlan.single_kill(stage=1, step=3)
    prompts = rng.integers(0, tiny_model.config.vocab, size=(4, 8))
    res, eng = run_engine(tiny_model, plan, prompts, 6, fault_plan=fp)
    assert res.replans == 1
    rec = res.fault_events[0]
    assert rec.kind == "stage-failure"
    assert rec.dead_stages == (1,)
    assert rec.dead_devices == (1,)
    assert rec.action == "replan"
    assert rec.committed_tokens >= 0
    final = eng.plan_history[-1]
    assert final.num_stages == 1
    assert final.stages[0].device_ids == (0,)
    assert final.num_layers == plan.num_layers


def test_drop_fault_classified_as_stall_rebuild(tiny_model, rng):
    plan = tiny_plan([2, 2])
    fp = FaultPlan(specs=(FaultSpec("drop", 0, "decode", 2),))
    prompts = rng.integers(0, tiny_model.config.vocab, size=(3, 7))
    res, eng = run_engine(tiny_model, plan, prompts, 5, fault_plan=fp,
                          recv_timeout_s=1.0)
    assert res.replans == 1
    rec = res.fault_events[0]
    assert rec.kind == "stall"
    assert rec.action == "rebuild"
    assert rec.dead_devices == ()
    # A rebuild keeps the same plan.
    assert eng.plan_history[-1] == plan
    ref = reference_generate(tiny_model.quantized([8] * 4), prompts, 5)
    assert np.array_equal(res.tokens, ref)


def test_slow_fault_absorbed_without_replan(tiny_model, rng):
    plan = tiny_plan([2, 2])
    fp = FaultPlan(specs=(FaultSpec("slow", 1, "decode", 2, delay_s=0.2),))
    prompts = rng.integers(0, tiny_model.config.vocab, size=(2, 6))
    res, eng = run_engine(tiny_model, plan, prompts, 4, fault_plan=fp)
    assert res.replans == 0
    assert res.fault_events == ()
    ref = reference_generate(tiny_model.quantized([8] * 4), prompts, 4)
    assert np.array_equal(res.tokens, ref)


def test_memory_capped_replan_respects_caps(tiny_model, rng):
    """With explicit device capacities the degraded plan must fit them."""
    plan = tiny_plan([1, 2, 1])
    cfg = tiny_model.config
    per_layer = tinylm_layer_bytes(cfg, 8)
    # Caps sized so survivors 0 and 1 can hold 1 and 3 layers respectively.
    caps = {0: per_layer, 1: 3 * per_layer, 2: per_layer}
    fp = FaultPlan.single_kill(stage=2, step=2)
    prompts = rng.integers(0, cfg.vocab, size=(3, 6))
    res, eng = run_engine(tiny_model, plan, prompts, 5, fault_plan=fp,
                          device_capacity_bytes=caps)
    ref = reference_generate(tiny_model.quantized([8] * 4), prompts, 5)
    assert np.array_equal(res.tokens, ref)
    final = eng.plan_history[-1]
    for st in final.stages:
        used = sum(tinylm_layer_bytes(cfg, b) for b in st.layer_bits)
        cap = sum(caps[d] for d in st.device_ids)
        assert used <= cap, f"stage {st.device_ids} exceeds its cap"


def test_exhausted_replan_budget_reraises(tiny_model, rng):
    plan = tiny_plan([2, 2])
    fp = FaultPlan.single_kill(stage=1, step=2)
    prompts = rng.integers(0, tiny_model.config.vocab, size=(2, 6))
    eng = PipelineEngine(tiny_model, plan, fault_plan=fp, max_replans=0,
                         recv_timeout_s=5.0, stall_timeout_s=0.3)
    with eng:
        with pytest.raises((StageFailure, TimeoutError)):
            eng.generate(prompts, n_tokens=5)


def test_all_stages_killed_is_infeasible(tiny_model, rng):
    # Stage indices are relative to the pipeline at fire time: after the
    # first kill the degraded pipeline is renumbered, so the second spec
    # targets the (only) surviving stage 0 at a later replayed step.
    plan = tiny_plan([2, 2])
    fp = FaultPlan(
        specs=(
            FaultSpec("kill", 0, "decode", 2),
            FaultSpec("kill", 0, "decode", 3),
        )
    )
    prompts = rng.integers(0, tiny_model.config.vocab, size=(2, 6))
    eng = PipelineEngine(tiny_model, plan, fault_plan=fp, max_replans=3,
                         recv_timeout_s=5.0, stall_timeout_s=0.3)
    with pytest.raises(InfeasibleError):
        with eng:
            eng.generate(prompts, n_tokens=5)


def test_engine_survives_fault_then_reuses_degraded_pipeline(tiny_model, rng):
    """After a recovery, the same engine serves the next batch correctly."""
    plan = tiny_plan([2, 2])
    fp = FaultPlan.single_kill(stage=1, step=2)
    p1 = rng.integers(0, tiny_model.config.vocab, size=(2, 6))
    p2 = rng.integers(0, tiny_model.config.vocab, size=(3, 8))
    with PipelineEngine(tiny_model, plan, fault_plan=fp,
                        recv_timeout_s=5.0, stall_timeout_s=0.3) as eng:
        r1 = eng.generate(p1, n_tokens=4)
        r2 = eng.generate(p2, n_tokens=5)
    q = tiny_model.quantized([8] * 4)
    assert np.array_equal(r1.tokens, reference_generate(q, p1, 4))
    assert np.array_equal(r2.tokens, reference_generate(q, p2, 5))
    assert r1.replans == 1
    assert r2.replans == 0  # the fault fired once, ever


def test_retired_busy_time_accounted_once(tiny_model, rng):
    plan = tiny_plan([2, 2])
    fp = FaultPlan.single_kill(stage=1, step=3)
    prompts = rng.integers(0, tiny_model.config.vocab, size=(3, 7))
    res, eng = run_engine(tiny_model, plan, prompts, 5, fault_plan=fp)
    assert eng.retired_busy_s > 0.0  # the torn-down pipeline's work
    assert res.replans == 1


# ---------------------------------------------------------------------------
# degrade_plan unit behaviour
# ---------------------------------------------------------------------------


def make_plan(stage_devices, layer_bits_per_stage, mb=2, model_name="tiny"):
    stages = []
    start = 0
    for devs, lb in zip(stage_devices, layer_bits_per_stage):
        stages.append(StagePlan(tuple(devs), "T4-16G", start, tuple(lb)))
        start += len(lb)
    return ExecutionPlan(
        model_name=model_name, stages=tuple(stages),
        prefill_microbatch=mb, decode_microbatch=mb,
    )


def test_degrade_plan_drops_dead_stage_and_repartitions():
    plan = make_plan([(0,), (1,), (2,)], [(8, 8), (4, 4), (16, 16)])
    out = degrade_plan(plan, [0, 2])
    assert out.num_stages == 2
    assert out.bits_per_layer == plan.bits_per_layer
    assert [st.device_ids for st in out.stages] == [(0,), (2,)]
    # Contiguity: layer_start chains.
    assert out.stages[0].layer_start == 0
    assert out.stages[1].layer_start == out.stages[0].num_layers


def test_degrade_plan_no_survivors_raises():
    plan = make_plan([(0,), (1,)], [(8, 8), (8, 8)])
    with pytest.raises(InfeasibleError):
        degrade_plan(plan, [])


def test_degrade_plan_infeasible_caps_raise():
    plan = make_plan([(0,), (1,)], [(8, 8), (8, 8)])
    caps = {0: 10, 1: 10}
    with pytest.raises(InfeasibleError):
        degrade_plan(plan, [0, 1], capacity_bytes=caps,
                     layer_cost=lambda i, b: 100)


def test_degrade_plan_contiguous_feasibility_needs_dp():
    """A case where greedy proportional splitting fails but a feasible
    contiguous partition exists: the DP must find it."""
    plan = make_plan([(0,), (1,)], [(8,), (8, 8, 8)])
    costs = [1, 1, 1, 10]
    caps = {0: 3, 1: 10}  # group 0 must take exactly the 3 cheap layers
    out = degrade_plan(plan, [0, 1], capacity_bytes=caps,
                       layer_cost=lambda i, b: costs[i])
    assert [st.num_layers for st in out.stages] == [3, 1]


def test_degrade_plan_keeps_surviving_group_order():
    plan = make_plan([(0, 1), (2,), (3,)], [(8, 8), (8,), (8,)])
    out = degrade_plan(plan, [0, 1, 3])
    assert [st.device_ids for st in out.stages] == [(0, 1), (3,)]
    assert out.num_layers == 4


# ---------------------------------------------------------------------------
# Planned-vs-executed cross-validation (runtime vs discrete-event mirror)
# ---------------------------------------------------------------------------


def test_runtime_and_simulator_agree_on_plan_sequence(tiny_model, rng):
    """The threaded engine and the discrete-event mirror, driven by the
    same fault plan and the same replan function, must walk the identical
    plan sequence."""
    from repro.hardware import make_cluster
    from repro.models import get_model
    from repro.pipeline import simulate_degraded
    from repro.workloads import BatchWorkload

    # --- executed: TinyLM engine under a kill at decode step 3 ---
    plan = tiny_plan([2, 2])
    fp = FaultPlan.single_kill(stage=1, step=3)
    prompts = rng.integers(0, tiny_model.config.vocab, size=(3, 7))
    shared_replan = lambda cur, surviving: degrade_plan(cur, surviving)  # noqa: E731
    res, eng = run_engine(tiny_model, plan, prompts, 6, fault_plan=fp,
                          replan=shared_replan)
    ref = reference_generate(tiny_model.quantized([8] * 4), prompts, 6)
    assert np.array_equal(res.tokens, ref)

    # --- planned: discrete-event mirror of the same campaign ---
    spec = get_model("opt-125m")  # any spec; timing only
    cluster = make_cluster("xval", [("T4-16G", 2)])
    sim_plan = make_plan(
        [(0,), (1,)],
        [(8,) * (spec.num_layers // 2), (8,) * (spec.num_layers // 2)],
        model_name=spec.name,
    )
    wl = BatchWorkload(batch=4, prompt_len=64, output_len=6)
    deg = simulate_degraded(
        cluster=cluster, spec=spec, workload=wl, plan=sim_plan,
        fault_plan=fp, check_memory=False, replan=shared_replan,
    )
    # Same recovery structure: one replan, and both degraded plans are the
    # shared replan function applied to the respective initial plans.
    assert deg.replans == res.replans == 1
    assert len(deg.plans) == len(eng.plan_history) == 2
    assert eng.plan_history[1] == shared_replan(plan, (0,))
    assert deg.plans[1] == shared_replan(sim_plan, (0,))
    assert [ev.action for ev in deg.fault_events] == [
        rec.action for rec in res.fault_events
    ]
