"""Differential grid: ragged closed batches vs the event oracle.

A closed batch whose requests generate different token counts retires
requests mid-decode, so the uniform max-plus recurrence of
:mod:`repro.pipeline.fastsim` does not apply.  The online fast driver
(:mod:`repro.pipeline.online_fast`) replays the online event driver on
any arrival trace, and a closed batch is the trace with every request
at t=0 and admission off.  This seeded grid pins that replay against
``simulate_plan_variable(sim_backend="event")`` on every compared field,
energy included, with ``==`` on raw floats — and the offline dispatch
(``"auto"`` and ``"fast"``), which runs every such batch on that driver.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import plan_uniform_baseline
from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import OnlineConfig, simulate_online, simulate_plan_variable
from repro.workloads import ArrivalTrace, Request
from repro.workloads.spec import VariableBatchWorkload

CLUSTERS = (2, 5, 7, 9)
BATCHES = (8, 32, 128)
MAX_OUTPUTS = (64, 256)
PROMPT = 512

#: (cluster, batch, longest output) triples whose uniform baseline fits:
#: 128 requests of 512-token prompts fit cluster 5 at no bitwidth, and
#: cluster 7 only with outputs up to 64.
TRIPLES = [
    (c, b, n)
    for n in MAX_OUTPUTS
    for b in BATCHES
    for c in CLUSTERS
    if not (b == 128 and (c == 5 or (c == 7 and n == 256)))
]

#: 60 seeded members cycling over the triples (each at least twice),
#: output lengths drawn uniformly from 1..longest.
GRID = [(seed,) + TRIPLES[seed % len(TRIPLES)] for seed in range(60)]


def _member(seed, cluster_idx, batch, max_out):
    rng = random.Random(seed)
    cluster = table_iii_cluster(cluster_idx)
    spec = get_model("opt-13b")
    lens = tuple(rng.randint(1, max_out) for _ in range(batch))
    wl = VariableBatchWorkload(prompt_len=PROMPT, output_lens=lens)
    base = plan_uniform_baseline(spec, cluster, wl.planning_view("max"))
    assert base is not None
    return base.plan, cluster, spec, wl


def _closed_trace(wl):
    return ArrivalTrace(tuple(
        Request(i, 0.0, wl.prompt_len, n)
        for i, n in enumerate(wl.output_lens)
    ))


@pytest.mark.parametrize(
    "seed,cluster_idx,batch,max_out", GRID,
    ids=[f"s{s}-c{c}-b{b}-n{n}" for s, c, b, n in GRID],
)
def test_ragged_closed_batch_matches_event_oracle(
    seed, cluster_idx, batch, max_out
):
    plan, cluster, spec, wl = _member(seed, cluster_idx, batch, max_out)
    assert len(set(wl.output_lens)) > 1  # the batch really retires
    oracle = simulate_plan_variable(
        plan, cluster, spec, wl, sim_backend="event"
    )
    assert oracle.sim_backend == "event"

    online = simulate_online(
        plan, cluster, spec, _closed_trace(wl),
        OnlineConfig(chunk_tokens=wl.chunk_tokens, admission="none"),
        check_memory=False, sim_backend="fast",
    )
    assert online.sim_backend == "fast"
    assert online.groups_formed == 1
    assert online.makespan_s == oracle.makespan_s
    assert online.prefill_span_s == oracle.prefill_span_s
    assert online.decode_span_s == oracle.decode_span_s
    assert online.total_tokens == oracle.total_tokens == sum(wl.output_lens)
    assert online.stage_busy_s == oracle.stage_busy_s
    assert online.events_processed == oracle.events_processed
    assert online.energy_j == oracle.energy_j
    assert online.cost_usd == oracle.cost_usd

    # The offline dispatch runs exactly that replay.
    for backend in ("auto", "fast"):
        res = simulate_plan_variable(
            plan, cluster, spec, wl, sim_backend=backend
        )
        assert res.sim_backend == "fast"
        assert res.makespan_s == oracle.makespan_s
        assert res.stage_busy_s == oracle.stage_busy_s
        assert res.stage_memory_bytes == oracle.stage_memory_bytes
        assert res.energy_j == oracle.energy_j
        assert res == oracle
