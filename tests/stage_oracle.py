"""Per-layer reference for the stage-duration model.

A stage's time is the sum of its layers' costs at their assigned
bitwidths.  ``StageExecutionModel`` computes that sum with one timing
lookup per distinct bitwidth and one in-order ``np.cumsum``; these
functions keep the literal definition — one timing call per layer, a
scalar ``total +=`` chain — as the oracle the tests compare against
with ``==`` on raw floats.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.pipeline.stage import StageExecutionModel
from repro.simgpu import roofline


def prefill_chunk_time(
    sm: StageExecutionModel, microbatch: int, chunk_len: int
) -> float:
    """One prefill chunk of ``microbatch`` requests, layer by layer."""
    total = 0.0
    for bits in sm.stage.layer_bits:
        total += sm.timing.prefill(
            sm.gpu, bits, microbatch, chunk_len, sm.stage.tp_degree
        )
    if sm.is_first:
        total += roofline.embedding_time(sm.gpu, sm.spec, microbatch * chunk_len)
    if sm.is_last:
        total += roofline.lm_head_time(sm.gpu, sm.spec, microbatch)
    return total


def decode_step_time(
    sm: StageExecutionModel, microbatch: int, context: int
) -> float:
    """One decode step at total ``context`` length, layer by layer."""
    total = 0.0
    for bits in sm.stage.layer_bits:
        total += sm.timing.decode(
            sm.gpu, bits, microbatch, context, sm.stage.tp_degree
        )
    if sm.is_first:
        total += roofline.embedding_time(sm.gpu, sm.spec, microbatch)
    if sm.is_last:
        total += roofline.lm_head_time(sm.gpu, sm.spec, microbatch)
    return total


def decode_time_series(
    sm: StageExecutionModel,
    microbatch: int,
    prompt_len: int,
    n_tokens: int,
    samples: int = 9,
) -> List[float]:
    """Decode-step times for t = 1..n_tokens-1: the same probe contexts
    and interpolation as the stage model, each probe timed per layer."""
    steps = np.arange(1, max(n_tokens, 2))
    contexts = prompt_len + steps
    if len(contexts) <= samples:
        return [decode_step_time(sm, microbatch, int(c)) for c in contexts]
    probe = np.unique(
        np.linspace(contexts[0], contexts[-1], samples).astype(int)
    )
    times = np.array([decode_step_time(sm, microbatch, int(c)) for c in probe])
    return np.interp(contexts, probe, times).tolist()
