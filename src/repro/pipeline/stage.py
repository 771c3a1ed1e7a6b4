"""Per-stage execution timing, backed by the roofline truth or a cost model.

The simulator asks each stage two questions: how long one prefill chunk of
a micro-batch takes, and how long each decode step of a micro-batch takes
as its context grows.  Both are sums over the stage's layers at their
assigned bitwidths, plus embedding / LM-head work on the first / last
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..hardware.gpus import GPUSpec
from ..hardware.interconnect import intra_node_link
from ..models.architectures import ModelSpec
from ..simgpu import roofline
from ..plan import StagePlan


class TimingSource(Protocol):
    """Anything that can time one layer on one device."""

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int
    ) -> float: ...

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int
    ) -> float: ...


@dataclass(frozen=True)
class RooflineTiming:
    """Ground-truth timing straight from the kernel simulator."""

    spec: ModelSpec
    bit_kv: int = 16

    def _tp_bw(self, gpu: GPUSpec) -> float:
        return intra_node_link(gpu.name).bandwidth_bytes_s

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        return roofline.tp_layer_time(
            gpu, self.spec, bits, "prefill", batch, seq, tp, self._tp_bw(gpu),
            self.bit_kv,
        )

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        return roofline.tp_layer_time(
            gpu, self.spec, bits, "decode", batch, context, tp, self._tp_bw(gpu),
            self.bit_kv,
        )


@dataclass(frozen=True)
class CostModelTiming:
    """Timing through the fitted latency regressions (the planner's view).

    Tensor parallelism is approximated by dividing the single-device time
    by the TP degree and adding the all-reduce term — the same model the
    assigner uses when enumerating TP meshes.
    """

    cost_model: LatencyCostModel
    spec: ModelSpec

    def _with_tp(self, base: float, gpu: GPUSpec, tokens: int, tp: int) -> float:
        if tp <= 1:
            return base
        link = intra_node_link(gpu.name)
        msg = tokens * self.spec.hidden * 2
        allreduce = 2.0 * (2.0 * (tp - 1) / tp) * msg / link.bandwidth_bytes_s
        return base / tp + allreduce

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        base = self.cost_model.prefill_time(gpu, bits, batch, seq)
        return self._with_tp(base, gpu, batch * seq, tp)

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        base = self.cost_model.decode_time(gpu, bits, batch, context)
        return self._with_tp(base, gpu, batch, tp)


@dataclass
class MemoizedTiming:
    """A memo layer over any :class:`TimingSource` (the planner's cache).

    Unit layer costs depend only on ``(phase, gpu spec, bits, batch,
    seq/context, tp degree)``, yet the candidate search evaluates the same
    tuples over and over: identical ``(gpu, tp)`` stage groups recur across
    device orderings, and each ``(eta, xi)`` micro-batch pair revisits every
    bitwidth.  Wrapping the timing source in a dict makes repeat lookups
    free *and* bit-identical to the uncached call — the cached value is the
    very float the source returned — so a memoized search stays exactly
    reproducible against the naive one.  Planning is single-threaded, so
    the memo takes no lock.
    """

    source: TimingSource

    def __post_init__(self) -> None:
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        key = ("p", gpu, bits, batch, seq, tp)
        val = self._cache.get(key)
        if val is None:
            val = self.source.prefill(gpu, bits, batch, seq, tp)
            self._cache[key] = val
            self.misses += 1
        else:
            self.hits += 1
        return val

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        key = ("d", gpu, bits, batch, context, tp)
        val = self._cache.get(key)
        if val is None:
            val = self.source.decode(gpu, bits, batch, context, tp)
            self._cache[key] = val
            self.misses += 1
        else:
            self.hits += 1
        return val


def _layer_sum(per_layer: np.ndarray) -> np.ndarray:
    """Sequential left-to-right sum over the trailing (layer) axis.

    ``np.cumsum`` accumulates strictly in order (no pairwise reduction),
    so taking the last partial sum reproduces the scalar
    ``total = 0.0; total += layer`` chain bit-for-bit (``0.0 + x == x``).
    """
    return np.cumsum(per_layer, axis=-1)[..., -1]


@dataclass
class StageExecutionModel:
    """Timing of one pipeline stage under a plan.

    A stage's time is the sum of its layers' costs at their assigned
    bitwidths.  Each *distinct* bitwidth costs one timing lookup (the
    timing sources are pure in exactly those arguments), and the layer
    sum runs in layer order as one sequential ``np.cumsum``.
    """

    stage: StagePlan
    gpu: GPUSpec
    spec: ModelSpec
    timing: TimingSource
    is_first: bool = False
    is_last: bool = False

    def prefill_chunk_time(self, microbatch: int, chunk_len: int) -> float:
        """Time for one prefill chunk of ``microbatch`` requests."""
        bits_seq = self.stage.layer_bits
        tp = self.stage.tp_degree
        per_bits = {
            b: self.timing.prefill(self.gpu, b, microbatch, chunk_len, tp)
            for b in set(bits_seq)
        }
        total = float(
            _layer_sum(
                np.asarray([per_bits[b] for b in bits_seq], dtype=np.float64)
            )
        )
        if self.is_first:
            total += roofline.embedding_time(
                self.gpu, self.spec, microbatch * chunk_len
            )
        if self.is_last:
            # Only the final chunk needs logits, but engines project the
            # chunk tail each time under chunked prefill; cost one head call.
            total += roofline.lm_head_time(self.gpu, self.spec, microbatch)
        return total

    def decode_time_series(
        self, microbatch: int, prompt_len: int, n_tokens: int, samples: int = 9
    ) -> List[float]:
        """Decode-step times for t = 1..n_tokens-1, by interpolation.

        Per-step cost is piecewise-linear in context length, so sampling a
        few contexts and interpolating is exact up to the roofline kink.
        """
        steps = np.arange(1, max(n_tokens, 2))
        contexts = prompt_len + steps
        direct = len(contexts) <= samples
        if direct:
            probe = contexts
        else:
            probe = np.unique(
                np.linspace(contexts[0], contexts[-1], samples).astype(int)
            )
        bits_seq = self.stage.layer_bits
        tp = self.stage.tp_degree
        per_bits = {
            b: [
                self.timing.decode(self.gpu, b, microbatch, int(c), tp)
                for c in probe
            ]
            for b in set(bits_seq)
        }
        vals = np.empty((len(probe), len(bits_seq)), dtype=np.float64)
        for j, b in enumerate(bits_seq):
            vals[:, j] = per_bits[b]
        times = _layer_sum(vals)
        if self.is_first:
            times = times + roofline.embedding_time(
                self.gpu, self.spec, microbatch
            )
        if self.is_last:
            times = times + roofline.lm_head_time(
                self.gpu, self.spec, microbatch
            )
        if direct:
            return times.tolist()
        return np.interp(contexts, probe, times).tolist()
