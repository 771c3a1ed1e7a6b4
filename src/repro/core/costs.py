"""Planning-problem construction: cost tensors for one candidate config.

Given a device-topology ordering, micro-batch sizes and the fitted cost
models, this module materializes everything the ILP/heuristic needs:
per-(group, stage, bitwidth) prefill/decode latencies, per-(group,
bitwidth) memory, per-group quality indicators, per-stage constants
(embedding/LM-head work, communication), and capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..costmodel.memory import layer_memory_bytes, stage_overhead_bytes
from ..hardware.cluster import ClusterSpec, Device
from ..hardware.gpus import GPUSpec
from ..hardware.interconnect import LinkSpec
from ..models.architectures import ModelSpec
from ..models import layers as L
from ..pipeline.stage import CostModelTiming, TimingSource
from ..simgpu import roofline
from ..workloads.spec import BatchWorkload


@dataclass(frozen=True)
class StageGroup:
    """One pipeline stage candidate: a device or an intra-node TP group."""

    device_ids: Tuple[int, ...]
    gpu: GPUSpec

    @property
    def tp_degree(self) -> int:
        return len(self.device_ids)

    @property
    def capacity_bytes(self) -> int:
        return self.gpu.usable_mem_bytes * self.tp_degree

    def key(self) -> Tuple[str, int]:
        """Symmetry key: orderings are deduped on (gpu model, tp degree)."""
        return (self.gpu.name, self.tp_degree)


@dataclass
class PlanningProblem:
    """All numbers for one (ordering, eta, xi) planning subproblem."""

    spec: ModelSpec
    workload: BatchWorkload
    ordering: Tuple[StageGroup, ...]
    eta: int
    xi: int
    bit_choices: Tuple[int, ...]
    #: Layer-group sizes (groups of consecutive decoder layers).
    group_sizes: Tuple[int, ...]
    #: l_pre[g, j, k]: per-chunk prefill time of group g on stage j at bits k.
    l_pre: np.ndarray
    #: l_dec[g, j, k]: per-token decode time at the average context s + n/2.
    l_dec: np.ndarray
    #: mem[g, k]: weights + KV reservation of group g at bits k.
    mem: np.ndarray
    #: omega[g, k]: summed variance indicator of group g at bits k.
    omega: np.ndarray
    #: Per-stage constants added to every chunk / decode step (embed, head).
    const_pre: np.ndarray
    const_dec: np.ndarray
    #: Per-stage capacity after subtracting workspace (and M_emb on stage 0).
    capacity: np.ndarray
    #: Per-boundary communication times (prefill chunk / decode step).
    comm_pre: np.ndarray
    comm_dec: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def n_stages(self) -> int:
        return len(self.ordering)

    @property
    def n_bits(self) -> int:
        return len(self.bit_choices)

    @property
    def mu_pre(self) -> int:
        return -(-self.workload.batch // self.eta)

    @property
    def mu_dec(self) -> int:
        return -(-self.workload.batch // self.xi)

    @property
    def prefill_jobs(self) -> int:
        """Total chunk jobs flowing through the pipeline in prefill."""
        return self.mu_pre * self.workload.kappa

    def latency_estimate(
        self, assign_stage: Sequence[int], assign_bits: Sequence[int]
    ) -> float:
        """Analytic end-to-end latency of a concrete assignment.

        Mirrors the ILP objective: prefill pipeline span plus the decode
        span as the max of the bottleneck-bound and round-trip-bound terms.
        Used by the heuristic and for reporting.
        """
        t_pre = self.const_pre.copy()
        t_dec = self.const_dec.copy()
        bit_idx = {b: k for k, b in enumerate(self.bit_choices)}
        for g, (j, b) in enumerate(zip(assign_stage, assign_bits)):
            k = bit_idx[int(b)]
            t_pre[j] += self.l_pre[g, j, k]
            t_dec[j] += self.l_dec[g, j, k]
        n = self.workload.output_len
        pre_bottleneck = max(
            float(np.max(t_pre)),
            float(np.max(self.comm_pre)) if self.comm_pre.size else 0.0,
        )
        prefill_span = float(t_pre.sum() + self.comm_pre.sum()) + (
            self.prefill_jobs - 1
        ) * pre_bottleneck
        dec_bottleneck = max(
            float(np.max(t_dec)),
            float(np.max(self.comm_dec)) if self.comm_dec.size else 0.0,
        )
        round_trip = float(t_dec.sum() + self.comm_dec.sum())
        decode_span = (n - 1) * max(self.mu_dec * dec_bottleneck, round_trip)
        return prefill_span + decode_span

    def quality_sum(
        self, assign_bits: Sequence[int]
    ) -> float:
        """Summed variance indicator of a concrete assignment."""
        bit_idx = {b: k for k, b in enumerate(self.bit_choices)}
        return float(
            sum(self.omega[g, bit_idx[int(b)]] for g, b in enumerate(assign_bits))
        )

    def memory_ok(
        self, assign_stage: Sequence[int], assign_bits: Sequence[int]
    ) -> bool:
        """Constraints (12)-(13) for a concrete assignment."""
        bit_idx = {b: k for k, b in enumerate(self.bit_choices)}
        used = np.zeros(self.n_stages)
        for g, (j, b) in enumerate(zip(assign_stage, assign_bits)):
            used[j] += self.mem[g, bit_idx[int(b)]]
        return bool(np.all(used <= self.capacity + 1e-6))


def group_layers(num_layers: int, group_size: int) -> Tuple[int, ...]:
    """Split ``num_layers`` into consecutive groups of ``group_size``."""
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    full, rem = divmod(num_layers, group_size)
    sizes = [group_size] * full
    if rem:
        sizes.append(rem)
    return tuple(sizes)


def group_indicator(
    omega_layers: np.ndarray, group_sizes: Sequence[int]
) -> np.ndarray:
    """Sum a per-layer indicator table over consecutive layer groups."""
    out = np.zeros((len(group_sizes), omega_layers.shape[1]))
    start = 0
    for g, size in enumerate(group_sizes):
        out[g] = omega_layers[start : start + size].sum(axis=0)
        start += size
    return out


@dataclass
class ProblemInvariants:
    """Everything about a candidate subproblem that does NOT depend on
    the micro-batch pair ``(eta, xi)``.

    The planner sweeps a grid of micro-batch pairs per (ordering, KV
    bitwidth); the memory table, grouped indicator, stage capacities and
    inter-stage links are identical across that whole grid.  The search
    engine materializes these once per (ordering, bit_kv) and specializes
    only the eta/xi-dependent arrays per candidate — the arrays here are
    shared read-only between candidates, never mutated.
    """

    ordering: Tuple[StageGroup, ...]
    bit_choices: Tuple[int, ...]
    group_sizes: Tuple[int, ...]
    #: mem[g, k]: weights + KV reservation of group g at bits k.
    mem: np.ndarray
    #: omega[g, k]: grouped variance indicator.
    omega: np.ndarray
    #: Raw per-stage capacity before eta-dependent deductions.
    cap_base: np.ndarray
    #: Inter-stage links (n_stages - 1 of them).
    links: Tuple[LinkSpec, ...]


def problem_invariants(
    spec: ModelSpec,
    cluster: ClusterSpec,
    ordering: Sequence[StageGroup],
    workload: BatchWorkload,
    omega_layers: np.ndarray,
    bit_choices: Sequence[int],
    group_size: int = 1,
    bit_kv: int = 16,
) -> ProblemInvariants:
    """Precompute the (eta, xi)-independent parts of a subproblem."""
    ordering = tuple(ordering)
    n_stages = len(ordering)
    bit_choices = tuple(bit_choices)
    group_sizes = group_layers(spec.num_layers, group_size)
    gs = np.array(group_sizes, dtype=float)

    mem = np.zeros((len(group_sizes), len(bit_choices)))
    for k, b in enumerate(bit_choices):
        mem[:, k] = gs * layer_memory_bytes(
            spec, b, workload.batch, workload.context_len, bit_kv
        )

    omega = group_indicator(omega_layers, group_sizes)

    cap_base = np.array(
        [float(sg.capacity_bytes) for sg in ordering], dtype=float
    )

    by_id: Dict[int, Device] = {d.device_id: d for d in cluster.devices}
    links = tuple(
        cluster.link_between(
            by_id[ordering[j].device_ids[0]],
            by_id[ordering[j + 1].device_ids[0]],
        )
        for j in range(n_stages - 1)
    )
    return ProblemInvariants(
        ordering=ordering,
        bit_choices=bit_choices,
        group_sizes=group_sizes,
        mem=mem,
        omega=omega,
        cap_base=cap_base,
        links=links,
    )


def build_problem(
    spec: ModelSpec,
    cluster: ClusterSpec,
    ordering: Sequence[StageGroup],
    workload: BatchWorkload,
    cost_model: LatencyCostModel,
    omega_layers: np.ndarray,
    eta: int,
    xi: int,
    bit_choices: Sequence[int],
    group_size: int = 1,
    bit_kv: int = 16,
    phase_blind: bool = False,
    timing: Optional[TimingSource] = None,
    invariants: Optional[ProblemInvariants] = None,
) -> PlanningProblem:
    """Materialize the planning subproblem for one candidate configuration.

    ``phase_blind=True`` builds the ablation variant that ignores the
    decode phase's distinct device profile: decode costs are replaced by
    prefill costs rescaled to the same total magnitude, so partitioning
    balances on prefill ratios alone (what encoder-oriented heterogeneous
    partitioners do, Sec. II-B).

    ``timing`` lets a caller inject a (possibly memoized) timing source;
    ``invariants`` reuses precomputed (eta, xi)-independent tensors from
    :func:`problem_invariants`.  Both produce bit-identical problems to
    the self-contained call — the cached values are the very floats the
    uncached path computes.
    """
    if eta <= 0 or xi <= 0:
        raise ValueError("micro-batch sizes must be positive")
    ordering = tuple(ordering)
    n_stages = len(ordering)
    bit_choices = tuple(bit_choices)
    if invariants is None:
        invariants = problem_invariants(
            spec,
            cluster,
            ordering,
            workload,
            omega_layers,
            bit_choices,
            group_size=group_size,
            bit_kv=bit_kv,
        )
    group_sizes = invariants.group_sizes
    n_bits = len(bit_choices)

    if timing is None:
        timing = CostModelTiming(cost_model=cost_model, spec=spec)
    chunk = workload.chunk_len
    avg_ctx = workload.prompt_len + workload.output_len // 2

    # Per-layer, per-stage, per-bit unit costs, then scale by group size.
    unit_pre = np.zeros((n_stages, n_bits))
    unit_dec = np.zeros((n_stages, n_bits))
    for j, sg in enumerate(ordering):
        for k, b in enumerate(bit_choices):
            unit_pre[j, k] = timing.prefill(sg.gpu, b, eta, chunk, sg.tp_degree)
            unit_dec[j, k] = timing.decode(sg.gpu, b, xi, avg_ctx, sg.tp_degree)
    if phase_blind:
        # Keep the decode phase's overall magnitude but impose prefill's
        # cross-device/bit ratios on it.
        scale = unit_dec.sum() / max(unit_pre.sum(), 1e-12)
        unit_dec = unit_pre * scale
    gs = np.array(group_sizes, dtype=float)
    l_pre = gs[:, None, None] * unit_pre[None, :, :]
    l_dec = gs[:, None, None] * unit_dec[None, :, :]

    mem = invariants.mem
    omega = invariants.omega

    const_pre = np.zeros(n_stages)
    const_dec = np.zeros(n_stages)
    const_pre[0] += roofline.embedding_time(ordering[0].gpu, spec, eta * chunk)
    const_dec[0] += roofline.embedding_time(ordering[0].gpu, spec, xi)
    const_pre[-1] += roofline.lm_head_time(ordering[-1].gpu, spec, eta)
    const_dec[-1] += roofline.lm_head_time(ordering[-1].gpu, spec, xi)

    ctx_chunk = min(chunk, workload.context_len)
    capacity = invariants.cap_base - [
        stage_overhead_bytes(spec, j, n_stages, eta, ctx_chunk)
        for j in range(n_stages)
    ]

    comm_pre = np.zeros(max(n_stages - 1, 0))
    comm_dec = np.zeros(max(n_stages - 1, 0))
    pre_bytes = L.hidden_state_bytes(spec, eta, chunk)
    dec_bytes = L.hidden_state_bytes(spec, xi, 1)
    for j, link in enumerate(invariants.links):
        comm_pre[j] = link.transfer_time(pre_bytes)
        comm_dec[j] = link.transfer_time(dec_bytes)

    return PlanningProblem(
        spec=spec,
        workload=workload,
        ordering=ordering,
        eta=eta,
        xi=xi,
        bit_choices=bit_choices,
        group_sizes=group_sizes,
        l_pre=l_pre,
        l_dec=l_dec,
        mem=mem,
        omega=omega,
        const_pre=const_pre,
        const_dec=const_dec,
        capacity=capacity,
        comm_pre=comm_pre,
        comm_dec=comm_dec,
    )
