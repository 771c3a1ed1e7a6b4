"""Profiling API: noisy "measurements" from the simulated testbed.

The assigner fits its cost models from a small set of GPU calibration
payloads (Sec. III).  This module plays the role of those payloads: it
returns roofline latencies perturbed by seeded multiplicative measurement
noise, plus memory readings with allocator page granularity, so that fitting
and validation (Fig. 8) exercise a realistic estimation problem rather than
reading the ground truth back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

from ..hardware.gpus import GPUSpec
from ..models.architectures import ModelSpec
from ..models import layers as L
from .memory import PAGE_BYTES
from .roofline import layer_time

#: Relative std-dev of simulated latency measurements.
LATENCY_NOISE_SIGMA = 0.03
#: Noisy timings per measurement; a measurement reports their median.
REPEATS = 3


@dataclass(frozen=True)
class LatencySample:
    """One profiled layer execution."""

    phase: str
    bits: int
    batch: int
    seq: int
    time_s: float


@dataclass
class Profiler:
    """Measurement front-end over the roofline simulator (one seeded
    noise stream, :data:`REPEATS` lognormal variates per measurement)."""

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def _median_noise(self, points: int) -> np.ndarray:
        """Median multiplicative noise of ``points`` measurements."""
        noise = self._rng.lognormal(
            mean=0.0, sigma=LATENCY_NOISE_SIGMA, size=(points, REPEATS)
        )
        return np.sort(noise, axis=1)[:, REPEATS // 2]

    def measure_layer(
        self,
        gpu: GPUSpec,
        spec: ModelSpec,
        bits: int,
        phase: str,
        batch: int,
        seq: int,
        bit_kv: int = 16,
    ) -> float:
        """Median of :data:`REPEATS` noisy timings of one layer execution."""
        truth = layer_time(gpu, spec, bits, phase, batch, seq, bit_kv)
        return float(truth * self._median_noise(1)[0])

    def measure_memory(
        self,
        spec: ModelSpec,
        bits_per_layer: Sequence[int],
        batch: int,
        context: int,
        bit_kv: int = 16,
    ) -> int:
        """Observed bytes for a stage holding the given quantized layers.

        Weights and the KV reservation are pooled into one arena each (as
        caching allocators do) and page-rounded — the two components the
        Fig. 8 memory-fidelity experiment compares.
        """
        weights = sum(L.weight_storage_bytes(spec, bits) for bits in bits_per_layer)
        kv = len(list(bits_per_layer)) * L.kv_cache_bytes(
            spec, batch, context, bit_kv
        )
        rounded_w = -(-weights // PAGE_BYTES) * PAGE_BYTES
        rounded_kv = -(-kv // PAGE_BYTES) * PAGE_BYTES
        return rounded_w + rounded_kv

    def profile_grid(
        self,
        gpu: GPUSpec,
        spec: ModelSpec,
        bits: int,
        phase: str,
        batches: Iterable[int] = (1, 2, 4, 8, 16),
        seqs: Iterable[int] = (64, 128, 256, 512, 1024),
        bit_kv: int = 16,
    ) -> List[LatencySample]:
        """Calibration payload: measure a (batch x seq) grid for one config.

        For decode, ``seqs`` are past context lengths.  The grid's noise
        is drawn in one call; the samples equal :meth:`measure_layer` over
        the grid in batch-major order.
        """
        points = list(itertools.product(batches, seqs))
        noise = self._median_noise(len(points))
        return [
            LatencySample(
                phase, bits, v, s,
                float(layer_time(gpu, spec, bits, phase, v, s, bit_kv) * m),
            )
            for (v, s), m in zip(points, noise)
        ]
