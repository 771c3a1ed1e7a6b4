"""Memory cost model (paper Sec. IV-A).

Peak memory of a pipeline stage = quantized decoder-layer weights
+ KV-cache reservation for the maximum context (prompt ``s`` plus
generation budget ``n``) + peak activation workspace; the first stage
additionally holds the FP16 embeddings/LM head (``M_emb``, constraint 13)
and the last stage, when it is not the first, the LM head again.
Every per-stage byte count in the planner, simulator, degrade repair and
online admission goes through :func:`stage_overhead_bytes`.
"""

from __future__ import annotations

from ..models.architectures import ModelSpec
from ..models import layers as L


def layer_memory_bytes(
    spec: ModelSpec,
    bits: int,
    batch: int,
    context: int,
    bit_kv: int = 16,
) -> int:
    """Weights + KV reservation of one decoder layer (paper's M_{i,b})."""
    if batch < 0 or context < 0:
        raise ValueError("batch and context must be non-negative")
    return L.weight_storage_bytes(spec, bits) + L.kv_cache_bytes(
        spec, batch, context, bit_kv
    )


def activation_workspace_bytes(
    spec: ModelSpec, microbatch: int, chunk_tokens: int
) -> int:
    """Peak transient activation storage of one stage.

    Worst case is a prefill chunk in flight: hidden states plus the MLP
    intermediate for ``microbatch * chunk_tokens`` tokens (FlashAttention
    avoids materializing the s^2 score matrix).
    """
    tokens = microbatch * max(chunk_tokens, 1)
    per_token = (4 * spec.hidden + 2 * spec.ffn) * L.FP16_BYTES
    return tokens * per_token


def embedding_memory_bytes(spec: ModelSpec, microbatch: int = 1) -> int:
    """``M_emb``: embeddings, LM head, and the logits workspace."""
    logits_ws = microbatch * spec.vocab_size * L.FP16_BYTES
    return L.embedding_bytes(spec) + logits_ws


def stage_overhead_bytes(
    spec: ModelSpec,
    j: int,
    n_stages: int,
    microbatch: int,
    chunk_tokens: int,
) -> int:
    """Non-layer bytes of stage ``j`` of ``n_stages`` (constraints (12)-(13)).

    Every stage holds the activation workspace; the first also holds
    ``M_emb``, and the last holds the LM head again when it is not the
    first (it runs the postprocessing).  A stage's peak is this plus its
    layers' ``M_{i,b}``.
    """
    total = activation_workspace_bytes(spec, microbatch, chunk_tokens)
    if j == 0:
        total += embedding_memory_bytes(spec, microbatch)
    if j == n_stages - 1 and j != 0:
        total += spec.lm_head_elements * L.FP16_BYTES
    return total
