"""Simulated GPU testbed: roofline kernels, OOM semantics, profiling."""

from .memory import PAGE_BYTES, OutOfMemoryError
from .profiler import LATENCY_NOISE_SIGMA, LatencySample, Profiler
from .roofline import (
    KERNELS_PER_LAYER,
    effective_bandwidth,
    embedding_time,
    layer_time,
    lm_head_time,
    tp_layer_time,
)

__all__ = [
    "PAGE_BYTES",
    "OutOfMemoryError",
    "LATENCY_NOISE_SIGMA",
    "LatencySample",
    "Profiler",
    "KERNELS_PER_LAYER",
    "effective_bandwidth",
    "embedding_time",
    "layer_time",
    "lm_head_time",
    "tp_layer_time",
]
