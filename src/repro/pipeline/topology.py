"""The shared pipeline topology: LLM semantics over the generic event core.

:mod:`repro.pipeline.events` stays deliberately generic (a heap-ordered
loop plus FIFO servers); this module holds what the one event driver
(:mod:`repro.pipeline.online`) and the max-plus kernels need on top of
it — the per-stage execution models, the inter-stage and feedback links,
and the transfer-time functions — all pure functions of ``(plan,
cluster, spec, timing)``, so every backend computes bit-identical
durations from the same code.

It is also every simulator's one duration memo.  :func:`shared_topology`
keeps one topology per ``(plan stages, cluster, spec, timing)``, which
memoizes its link delays and the table bundles
:func:`~repro.pipeline.fastsim.build_plan_tables` assembles.  Stage
durations live in one module dict keyed by a small structure id (the
interned timing and :func:`_stage_key`) plus the shape, so identical
stages of different plans and clusters compute each duration once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..hardware.cluster import ClusterSpec, Device
from ..models.architectures import ModelSpec
from ..models import layers as L
from ..plan import ExecutionPlan
from .events import EventLoop, Server
from .stage import RooflineTiming, StageExecutionModel, TimingSource

__all__ = [
    "FEEDBACK_BYTES_PER_REQ",
    "PipelineTopology",
    "microbatch_sizes",
    "shared_topology",
    "stage_devices",
]

#: Bytes of sampled token ids fed back from LM head to the first stage.
FEEDBACK_BYTES_PER_REQ = 4

# Bounded memos (FIFO eviction).  Topologies keep their timing alive,
# and so do structure ids (``(sid, timing)`` values), so an id-based
# timing token can never alias a collected object while its entry
# exists; ids are never reused, so an evicted structure only costs a
# recomputation.
_TOPOLOGIES: Dict[Any, "PipelineTopology"] = {}
_TOPOLOGIES_MAX = 1024
_STRUCTURE_IDS: Dict[Any, Tuple[int, TimingSource]] = {}
_STRUCTURE_IDS_MAX = 4096
_SID_COUNTER = itertools.count()
#: Prefill chunk times keyed ``(sid, size, chunk_len)`` and decode step
#: series keyed ``(sid, size, prompt_len, n_out)``.  Sized so a whole
#: online serving run (about 3k entries) never evicts.
_DURATIONS: Dict[Tuple[int, ...], Any] = {}
_DURATIONS_MAX = 8192
#: Table bundles kept per topology: a whole planner frontier's chunk and
#: micro-batch variants (30 on the Table-VI frontier) stay resident.
_BUNDLES_MAX = 64


def _bounded_put(cache: Dict, limit: int, key: Any, value: Any) -> None:
    if len(cache) >= limit:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _timing_token(timing: TimingSource) -> Any:
    """A hashable stand-in for ``timing`` in cache keys.

    Value-hashable sources (the frozen timing dataclasses) key by value
    so equal configurations share entries; everything else keys by
    object identity, with the object itself kept alive in the cache
    entry so the id cannot be recycled while the entry exists.
    """
    try:
        hash(timing)
    except TypeError:
        return ("timing-id", id(timing))
    return timing


def _stage_key(sm: StageExecutionModel) -> Tuple[Any, ...]:
    """What a stage's timing actually depends on.

    Device ids and the stage's position in the layer range don't enter
    any per-stage time, so keying on (bitwidths, TP degree, GPU spec,
    boundary flags) lets structurally identical stages share across
    different clusters and layer offsets — e.g. every 10-layer INT4 T4
    stage in a fleet sweep, wherever it sits.  The key holds the whole
    :class:`GPUSpec`, not its name: a ``GPUSpec.replace`` copy keeps the
    name but not the timing.
    """
    return (
        sm.spec, sm.stage.layer_bits, sm.stage.tp_degree, sm.gpu,
        sm.is_first, sm.is_last,
    )


def _structure_id(sm: StageExecutionModel, token: Any) -> int:
    key = (token, _stage_key(sm))
    hit = _STRUCTURE_IDS.get(key)
    if hit is not None:
        return hit[0]
    sid = next(_SID_COUNTER)
    _bounded_put(_STRUCTURE_IDS, _STRUCTURE_IDS_MAX, key, (sid, sm.timing))
    return sid


def microbatch_sizes(total: int, micro: int) -> List[int]:
    """Split ``total`` requests into micro-batches of at most ``micro``.

    A burst smaller than one micro-batch yields a single short
    micro-batch; zero requests yield no micro-batches at all (the online
    driver schedules empty admission rounds); a non-positive ``micro``
    is a caller bug and raises rather than dividing by zero.
    """
    if micro <= 0:
        raise ValueError(f"micro-batch size must be positive, got {micro}")
    if total < 0:
        raise ValueError(f"total requests must be non-negative, got {total}")
    sizes = [micro] * (total // micro)
    if total % micro:
        sizes.append(total % micro)
    return sizes


def stage_devices(
    plan: ExecutionPlan, cluster: ClusterSpec
) -> List[Tuple[Device, ...]]:
    """Each stage's devices in ``cluster``.

    Raises ``ValueError`` when the plan was made for another cluster: a
    stage names a device id the cluster lacks, or a device whose GPU is
    not the stage's ``gpu_name``.
    """
    by_id: Dict[int, Device] = {d.device_id: d for d in cluster.devices}
    out = []
    for j, st in enumerate(plan.stages):
        devs = tuple(by_id.get(d) for d in st.device_ids)
        for d, dev in zip(st.device_ids, devs):
            if dev is None or dev.gpu.name != st.gpu_name:
                found = "no such device" if dev is None else dev.gpu.name
                raise ValueError(
                    f"stage {j} expects a {st.gpu_name} as device {d}; "
                    f"cluster {cluster.name!r} has {found}"
                )
        out.append(devs)
    return out


def check_plan_model(plan: ExecutionPlan, spec: ModelSpec) -> None:
    """Raise ``ValueError`` unless ``plan`` was made for model ``spec``."""
    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, "
            f"model has {spec.num_layers}"
        )
    if plan.model_name != spec.name:
        raise ValueError(
            f"plan is for model {plan.model_name!r}, not {spec.name!r}"
        )


@dataclass(eq=False)
class PipelineTopology:
    """Stage models and links of one plan on one cluster, with memoized
    durations.

    Get shared instances from :func:`shared_topology`: one serves every
    plan with the same stages (micro-batch variants of one partition),
    so ``plan`` is the first such plan and only its stages are read.
    """

    plan: ExecutionPlan
    cluster: ClusterSpec
    spec: ModelSpec
    timing: TimingSource
    stage_models: List[StageExecutionModel]
    fwd_links: list
    feedback_link: Optional[object]
    #: Per stage, the interned structure id its durations are keyed by.
    struct_ids: Tuple[int, ...]
    #: Link and feedback delays, keyed ``(j, size, chunk_len)`` (prefill),
    #: ``(j, size)`` (decode) and ``size`` (feedback).
    delays: Dict[Any, float] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Per-phase table bundles of
    #: :func:`~repro.pipeline.fastsim.build_plan_tables` (at most
    #: ``_BUNDLES_MAX``).
    bundles: Dict[Any, Any] = field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def build(
        cls,
        plan: ExecutionPlan,
        cluster: ClusterSpec,
        spec: ModelSpec,
        timing: Optional[TimingSource] = None,
    ) -> "PipelineTopology":
        check_plan_model(plan, spec)
        timing = timing or RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
        heads = [devs[0] for devs in stage_devices(plan, cluster)]
        n_stages = plan.num_stages
        stage_models = [
            StageExecutionModel(
                stage=st,
                gpu=heads[j].gpu,
                spec=spec,
                timing=timing,
                is_first=(j == 0),
                is_last=(j == n_stages - 1),
            )
            for j, st in enumerate(plan.stages)
        ]
        fwd_links = [
            cluster.link_between(heads[j], heads[j + 1])
            for j in range(n_stages - 1)
        ]
        feedback_link = (
            cluster.link_between(heads[-1], heads[0])
            if n_stages > 1
            else None
        )
        token = _timing_token(timing)
        return cls(
            plan=plan,
            cluster=cluster,
            spec=spec,
            timing=timing,
            stage_models=stage_models,
            fwd_links=fwd_links,
            feedback_link=feedback_link,
            struct_ids=tuple(_structure_id(sm, token) for sm in stage_models),
        )

    @property
    def num_stages(self) -> int:
        return self.plan.num_stages

    def make_servers(
        self, loop: EventLoop, record_jobs: bool = False
    ) -> List[Server]:
        """One FIFO server per pipeline stage, bound to ``loop``."""
        return [Server(loop, f"stage{j}", record_jobs=record_jobs)
                for j in range(self.num_stages)]

    # -- memoized durations ---------------------------------------------

    def prefill_time(self, j: int, size: int, chunk_len: int) -> float:
        """Stage ``j``'s time for one prefill chunk of ``size`` requests."""
        key = (self.struct_ids[j], size, chunk_len)
        t = _DURATIONS.get(key)
        if t is None:
            t = self.stage_models[j].prefill_chunk_time(size, chunk_len)
            _bounded_put(_DURATIONS, _DURATIONS_MAX, key, t)
        return t

    def decode_series(
        self, j: int, size: int, prompt_len: int, n_out: int
    ) -> List[float]:
        """Stage ``j``'s decode step times for t = 1..n_out-1."""
        key = (self.struct_ids[j], size, prompt_len, n_out)
        series = _DURATIONS.get(key)
        if series is None:
            series = self.stage_models[j].decode_time_series(
                size, prompt_len, n_out
            )
            _bounded_put(_DURATIONS, _DURATIONS_MAX, key, series)
        return series

    def prefill_comm(self, j: int, size: int, chunk_len: int) -> float:
        """Hidden-state transfer of one prefill chunk over link ``j``."""
        key = (j, size, chunk_len)
        t = self.delays.get(key)
        if t is None:
            t = self.delays[key] = self.fwd_links[j].transfer_time(
                L.hidden_state_bytes(self.spec, size, chunk_len)
            )
        return t

    def decode_comm(self, j: int, size: int) -> float:
        """Single-token hidden-state transfer over link ``j``."""
        key = (j, size)
        t = self.delays.get(key)
        if t is None:
            t = self.delays[key] = self.fwd_links[j].transfer_time(
                L.hidden_state_bytes(self.spec, size, 1)
            )
        return t

    def feedback_delay(self, size: int) -> float:
        """Sampled-token feedback from the LM head to stage 0."""
        if self.feedback_link is None:
            return 0.0
        t = self.delays.get(size)
        if t is None:
            t = self.delays[size] = self.feedback_link.transfer_time(
                size * FEEDBACK_BYTES_PER_REQ
            )
        return t

    def stage_capacities(self) -> Tuple[int, ...]:
        """Usable bytes per stage (TP groups pool their devices)."""
        return tuple(
            sum(d.gpu.usable_mem_bytes for d in devs)
            for devs in stage_devices(self.plan, self.cluster)
        )


def shared_topology(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    timing: TimingSource,
) -> PipelineTopology:
    """The memoized topology of ``plan``'s stages on ``cluster``.

    The key holds the stages, not the plan, so the model check runs on
    every call: a plan for another model never rides on a cached entry.
    """
    check_plan_model(plan, spec)
    key = (plan.stages, cluster, spec, _timing_token(timing))
    topo = _TOPOLOGIES.get(key)
    if topo is None:
        topo = PipelineTopology.build(plan, cluster, spec, timing)
        _bounded_put(_TOPOLOGIES, _TOPOLOGIES_MAX, key, topo)
    return topo
