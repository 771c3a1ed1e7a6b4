"""Execution plans: the assigner's output, the runtime's input.

A plan maps a contiguous range of decoder layers (each with its own
quantization bitwidth) to every pipeline stage, names the devices forming
each stage (one device, or an intra-node tensor-parallel group), and fixes
the prefill/decode micro-batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: KV-cache bitwidths a plan, a planner or the TinyLM runtime may store at.
KV_BITS: Tuple[int, ...] = (4, 8, 16)


class InfeasibleError(RuntimeError):
    """No execution plan satisfies the constraints (memory/quality/devices).

    Raised instead of returning a silently-wrong plan: callers asking for a
    degraded plan after GPU failures must either get a feasible plan or
    this explicit error — never a crash or a constraint violation.
    """


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage."""

    #: Cluster device ids forming the stage (len > 1 means TP).
    device_ids: Tuple[int, ...]
    #: GPU model name of the stage's devices (TP groups are homogeneous).
    gpu_name: str
    #: Global index of the stage's first decoder layer.
    layer_start: int
    #: Bitwidth per layer held by the stage, in model order.
    layer_bits: Tuple[int, ...]

    def __post_init__(self):
        if not self.device_ids:
            raise ValueError("stage needs at least one device")
        if not self.layer_bits:
            raise ValueError("stage must hold at least one layer")

    def __hash__(self):
        # Stages (and the plans holding them) are hashed on every
        # simulator memo lookup; cache the field hash once per object.
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            h = hash(
                (self.device_ids, self.gpu_name, self.layer_start,
                 self.layer_bits)
            )
            object.__setattr__(self, "_hash_cache", h)
            return h

    @property
    def num_layers(self) -> int:
        return len(self.layer_bits)

    @property
    def layer_end(self) -> int:
        """One past the stage's last layer."""
        return self.layer_start + self.num_layers

    @property
    def tp_degree(self) -> int:
        return len(self.device_ids)


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete serving plan for one model on one cluster."""

    model_name: str
    stages: Tuple[StagePlan, ...]
    #: Prefill micro-batch size (paper's eta).
    prefill_microbatch: int
    #: Decode micro-batch size (paper's xi).
    decode_microbatch: int
    bit_kv: int = 16

    def __post_init__(self):
        if not self.stages:
            raise ValueError("plan needs at least one stage")
        if self.prefill_microbatch <= 0 or self.decode_microbatch <= 0:
            raise ValueError("micro-batch sizes must be positive")
        if self.bit_kv not in KV_BITS:
            raise ValueError(f"bit_kv must be one of {KV_BITS}, got {self.bit_kv}")
        expect = 0
        for st in self.stages:
            if st.layer_start != expect:
                raise ValueError(
                    f"stages not contiguous: stage starts at {st.layer_start}, "
                    f"expected {expect}"
                )
            expect = st.layer_end
        seen: set = set()
        for st in self.stages:
            for d in st.device_ids:
                if d in seen:
                    raise ValueError(f"device {d} used by two stages")
                seen.add(d)

    def __hash__(self):
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            h = hash(
                (self.model_name, self.stages, self.prefill_microbatch,
                 self.decode_microbatch, self.bit_kv)
            )
            object.__setattr__(self, "_hash_cache", h)
            return h

    @property
    def num_layers(self) -> int:
        return self.stages[-1].layer_end

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def bits_per_layer(self) -> Tuple[int, ...]:
        """Global per-layer bitwidth assignment in model order."""
        out: List[int] = []
        for st in self.stages:
            out.extend(st.layer_bits)
        return tuple(out)

    def stage_of_layer(self, layer: int) -> int:
        for j, st in enumerate(self.stages):
            if st.layer_start <= layer < st.layer_end:
                return j
        raise IndexError(f"layer {layer} outside plan (L={self.num_layers})")

    def layers_per_stage(self) -> Tuple[int, ...]:
        return tuple(st.num_layers for st in self.stages)

    def bits_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for b in self.bits_per_layer:
            hist[b] = hist.get(b, 0) + 1
        return hist

    def describe(self) -> str:
        parts = []
        for st in self.stages:
            tp = f" tp{st.tp_degree}" if st.tp_degree > 1 else ""
            bits = "/".join(str(b) for b in sorted(set(st.layer_bits)))
            parts.append(
                f"{st.gpu_name}{tp}[{st.layer_start}:{st.layer_end}]@{bits}b"
            )
        return (
            f"{self.model_name}: "
            + " -> ".join(parts)
            + f" (eta={self.prefill_microbatch}, xi={self.decode_microbatch})"
        )


def uniform_plan(
    model_name: str,
    num_layers: int,
    device_groups: Sequence[Tuple[Tuple[int, ...], str]],
    bits: int,
    prefill_microbatch: int,
    decode_microbatch: int,
    bit_kv: int = 16,
) -> ExecutionPlan:
    """Evenly partition ``num_layers`` at a uniform bitwidth.

    ``device_groups`` lists (device_ids, gpu_name) per pipeline stage in
    order.  The first stages receive the remainder layers, as frameworks
    commonly do.
    """
    n_stages = len(device_groups)
    if n_stages == 0:
        raise ValueError("need at least one device group")
    if num_layers < n_stages:
        raise ValueError("fewer layers than stages")
    base = num_layers // n_stages
    rem = num_layers % n_stages
    stages: List[StagePlan] = []
    start = 0
    for j, (dev_ids, gpu_name) in enumerate(device_groups):
        count = base + (1 if j < rem else 0)
        stages.append(
            StagePlan(
                device_ids=tuple(dev_ids),
                gpu_name=gpu_name,
                layer_start=start,
                layer_bits=(bits,) * count,
            )
        )
        start += count
    return ExecutionPlan(
        model_name=model_name,
        stages=tuple(stages),
        prefill_microbatch=prefill_microbatch,
        decode_microbatch=decode_microbatch,
        bit_kv=bit_kv,
    )


def degrade_plan(
    plan: ExecutionPlan,
    surviving_device_ids: Iterable[int],
    capacity_bytes: Optional[Dict[int, int]] = None,
    layer_cost: Optional[Callable[[int, int], int]] = None,
) -> ExecutionPlan:
    """Redistribute a plan's layers over the surviving devices.

    The fault-tolerant runtime calls this when stage workers die mid-batch:
    every stage whose devices all survive keeps its device group, stages
    touching a dead device are dropped, and the *same* per-layer bitwidth
    sequence (quantized weights already exist — re-quantization is an
    offline operation) is re-partitioned contiguously over the surviving
    groups in pipeline order.  Keeping the bitwidths fixed is what makes
    degraded generation bit-exact against the fault-free reference.

    ``capacity_bytes`` maps device id to usable bytes and ``layer_cost``
    maps ``(layer_index, bits)`` to that layer's resident bytes; when both
    are given the partition respects the per-group memory caps.  An exact
    suffix-feasibility table (contiguous-partition DP, cheap at these
    sizes) guarantees a cap-respecting partition is found whenever one
    exists, with boundaries placed as close to a capacity-proportional
    balance as feasibility allows.  Raises :class:`InfeasibleError` when
    no surviving group remains or the layers cannot fit.
    """
    surviving = set(surviving_device_ids)
    groups: List[StagePlan] = [
        st for st in plan.stages if all(d in surviving for d in st.device_ids)
    ]
    if not groups:
        raise InfeasibleError(
            f"no surviving stage groups (survivors={sorted(surviving)})"
        )
    bits = plan.bits_per_layer
    L = len(bits)
    G = len(groups)
    if L < G:
        groups = groups[:L]
        G = L

    def cost(i: int) -> float:
        if layer_cost is not None:
            return float(layer_cost(i, bits[i]))
        return float(bits[i])  # proxy weight: resident bytes scale with bits

    weights = [cost(i) for i in range(L)]
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    caps: List[float]
    if capacity_bytes is not None:
        caps = [
            float(sum(capacity_bytes.get(d, 0) for d in g.device_ids))
            for g in groups
        ]
        total_cap = sum(caps)
    else:
        caps = [float("inf")] * G
        total_cap = float(G)

    def load(a: int, b: int) -> float:
        return prefix[b] - prefix[a]

    # feasible[j][i]: layers[i:] can be contiguously assigned to
    # groups[j:] with >= 1 layer per group and per-group capacity held.
    feasible = [[False] * (L + 1) for _ in range(G + 1)]
    feasible[G][L] = True
    for j in range(G - 1, -1, -1):
        for i in range(L - 1, -1, -1):
            for k in range(i + 1, L + 1):
                if load(i, k) > caps[j]:
                    break
                if feasible[j + 1][k]:
                    feasible[j][i] = True
                    break
    if not feasible[0][0]:
        raise InfeasibleError(
            f"{load(0, L):.3g} bytes of layers do not fit any contiguous "
            f"partition over {G} surviving stage group(s) "
            f"(total capacity {total_cap:.3g})"
        )

    counts: List[int] = []
    start = 0
    for j in range(G):
        left = L - start
        if j == G - 1:
            counts.append(left)
            start = L
            continue
        share = (
            (caps[j] / total_cap)
            if capacity_bytes is not None
            else 1.0 / G
        )
        target = min(max(round(L * share), 1), left - (G - j - 1))
        # Admissible counts: fit this group's cap and leave a feasible
        # suffix.  Pick the admissible count closest to the balanced
        # target (ties toward taking fewer layers here).
        best: Optional[int] = None
        for count in range(1, left):  # later groups still need >= 1 layer
            if load(start, start + count) > caps[j]:
                break
            if not feasible[j + 1][start + count]:
                continue
            if best is None or abs(count - target) < abs(best - target):
                best = count
        assert best is not None, "DP said feasible but no admissible count"
        counts.append(best)
        start += best

    stages: List[StagePlan] = []
    start = 0
    for g, count in zip(groups, counts):
        stages.append(
            StagePlan(
                device_ids=g.device_ids,
                gpu_name=g.gpu_name,
                layer_start=start,
                layer_bits=tuple(bits[start : start + count]),
            )
        )
        start += count
    return ExecutionPlan(
        model_name=plan.model_name,
        stages=tuple(stages),
        prefill_microbatch=plan.prefill_microbatch,
        decode_microbatch=plan.decode_microbatch,
        bit_kv=plan.bit_kv,
    )
