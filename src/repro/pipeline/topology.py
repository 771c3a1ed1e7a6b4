"""The shared pipeline topology: LLM semantics over the generic event core.

:mod:`repro.pipeline.events` stays deliberately generic (a heap-ordered
loop plus FIFO servers); this module holds what the one event driver
(:mod:`repro.pipeline.online`) and the max-plus kernels need on top of
it — the per-stage execution models, the inter-stage and feedback links,
and the transfer-time functions — all pure functions of ``(plan,
cluster, spec, timing)``, so every backend computes bit-identical
durations from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    "stage_devices",
]

#: Bytes of sampled token ids fed back from LM head to the first stage.
FEEDBACK_BYTES_PER_REQ = 4


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


@dataclass
class PipelineTopology:
    """Stage models and links of one plan on one cluster.

    Built once per configuration; callers memoize the returned durations
    in their own tables (:class:`~repro.pipeline.online.OnlineTables`,
    :class:`~repro.pipeline.fastsim.PlanTables`).
    """

    plan: ExecutionPlan
    cluster: ClusterSpec
    spec: ModelSpec
    timing: TimingSource
    stage_models: List[StageExecutionModel]
    fwd_links: list
    feedback_link: Optional[object]

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
        return cls(
            plan=plan,
            cluster=cluster,
            spec=spec,
            timing=timing,
            stage_models=stage_models,
            fwd_links=fwd_links,
            feedback_link=feedback_link,
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

    # -- pure transfer-time functions -----------------------------------
    # Compute times come from ``stage_models``; callers memoize the
    # returned floats per (stage, size).

    def prefill_comm(self, j: int, size: int, chunk_len: int) -> float:
        """Hidden-state transfer of one prefill chunk over link ``j``."""
        return self.fwd_links[j].transfer_time(
            L.hidden_state_bytes(self.spec, size, chunk_len)
        )

    def decode_comm(self, j: int, size: int) -> float:
        """Single-token hidden-state transfer over link ``j``."""
        return self.fwd_links[j].transfer_time(
            L.hidden_state_bytes(self.spec, size, 1)
        )

    def feedback_delay(self, size: int) -> float:
        """Sampled-token feedback from the LM head to stage 0."""
        if self.feedback_link is None:
            return 0.0
        return self.feedback_link.transfer_time(size * FEEDBACK_BYTES_PER_REQ)

    def stage_capacities(self) -> Tuple[int, ...]:
        """Usable bytes per stage (TP groups pool their devices)."""
        return tuple(
            sum(d.gpu.usable_mem_bytes for d in devs)
            for devs in stage_devices(self.plan, self.cluster)
        )
