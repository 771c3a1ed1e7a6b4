"""TinyLM: a real decoder-only transformer in numpy.

This is the measurable stand-in for the paper's small evaluation models
(OPT-1.3B, BLOOM-3B): its weights are actually quantized (RTN or GPTQ),
its perplexity is actually computed, and its per-layer activations feed the
variance indicator — so indicator-vs-ground-truth experiments (Fig. 4,
Table I, Table V) run against real measurements rather than a model of a
model.

Architecture: pre-LN transformer with learned position embeddings, GELU
MLP, tied LM head; supports batched teacher-forced scoring, KV-cached
autoregressive generation, activation capture, and per-layer weight
quantization at mixed bitwidths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..plan import KV_BITS
from ..quant.gptq import gptq_quantize
from ..quant.indicator import OperatorStats, operator_stats_from_arrays
from ..quant.schemes import QuantConfig, quantize_dequantize

#: Names of the linear operators inside one decoder layer.
LINEAR_OPS = ("wq", "wk", "wv", "wo", "w1", "w2")


@dataclass(frozen=True)
class TinyLMConfig:
    """Shape of a TinyLM instance."""

    vocab: int = 256
    layers: int = 4
    hidden: int = 64
    ffn: int = 256
    heads: int = 4
    max_seq: int = 256
    seed: int = 0
    #: KV-cache storage precision; < 16 fake-quantizes K/V entries as they
    #: are written (the measurable counterpart of the planner's bit_kv).
    kv_bits: int = 16

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ValueError("hidden must be divisible by heads")
        if self.kv_bits not in KV_BITS:
            raise ValueError(f"kv_bits must be one of {KV_BITS}")


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3)))


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass
class LayerWeights:
    """Parameters of one decoder layer."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def linear(self, name: str) -> np.ndarray:
        if name not in LINEAR_OPS:
            raise KeyError(f"unknown linear op {name!r}")
        return getattr(self, name)

    def copy(self) -> "LayerWeights":
        return LayerWeights(
            **{k: np.array(getattr(self, k)) for k in self.__dataclass_fields__}
        )


@dataclass
class KVCache:
    """Per-layer key/value cache for autoregressive decoding."""

    keys: List[np.ndarray]  # each (B, T, H) — grows along T
    values: List[np.ndarray]

    @property
    def length(self) -> int:
        return 0 if not self.keys else self.keys[0].shape[1]


def attention_forward(
    config: TinyLMConfig,
    lw: "LayerWeights",
    x: np.ndarray,
    cache: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Multi-head causal attention over ``x`` (B, T, H).

    With ``cache`` (past K, past V) the new keys/values are appended and
    attention spans the full past.  Free function so pipeline-stage
    workers can run layer subsets without a full model instance.
    """
    B, T, H = x.shape
    hd = H // config.heads
    q = x @ lw.wq.T
    k = x @ lw.wk.T
    v = x @ lw.wv.T
    if config.kv_bits < 16:
        # Emulate low-precision KV-cache storage: entries are quantized
        # once on write and read back dequantized.
        kv_cfg = QuantConfig(
            bits=config.kv_bits, symmetric=True, granularity="tensor"
        )
        k = quantize_dequantize(k, kv_cfg)
        v = quantize_dequantize(v, kv_cfg)
    if cache is not None:
        k = np.concatenate([cache[0], k], axis=1)
        v = np.concatenate([cache[1], v], axis=1)
    S = k.shape[1]
    qh = q.reshape(B, T, config.heads, hd).transpose(0, 2, 1, 3)
    kh = k.reshape(B, S, config.heads, hd).transpose(0, 2, 1, 3)
    vh = v.reshape(B, S, config.heads, hd).transpose(0, 2, 1, 3)
    scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
    # Causal mask: query t may see keys up to (S - T + t).
    offset = S - T
    mask = np.tril(np.ones((T, S), dtype=bool), k=offset)
    scores = np.where(mask[None, None], scores, -1e30)
    attn = _softmax(scores, axis=-1) @ vh
    out = attn.transpose(0, 2, 1, 3).reshape(B, T, H)
    return out @ lw.wo.T, (k, v)


def layer_forward(
    config: TinyLMConfig,
    lw: "LayerWeights",
    x: np.ndarray,
    cache: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    capture: Optional[Dict[str, List[np.ndarray]]] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """One pre-LN decoder layer; returns (output, new KV pair)."""
    h = _layer_norm(x, lw.ln1_g, lw.ln1_b)
    if capture is not None:
        flat = h.reshape(-1, h.shape[-1])
        for name in ("wq", "wk", "wv"):
            capture[name].append(flat)
    attn, new_cache = attention_forward(config, lw, h, cache)
    x = x + attn
    h = _layer_norm(x, lw.ln2_g, lw.ln2_b)
    if capture is not None:
        capture["w1"].append(h.reshape(-1, h.shape[-1]))
    mid = _gelu(h @ lw.w1.T)
    if capture is not None:
        capture["w2"].append(mid.reshape(-1, mid.shape[-1]))
    return x + mid @ lw.w2.T, new_cache


class TinyLM:
    """A runnable, quantizable decoder-only language model."""

    def __init__(self, config: TinyLMConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        std = 0.08
        res_std = std / np.sqrt(2.0 * c.layers)
        self.embed = rng.standard_normal((c.vocab, c.hidden)).astype(np.float64) * std
        self.pos_embed = (
            rng.standard_normal((c.max_seq, c.hidden)).astype(np.float64) * std
        )
        self.layers: List[LayerWeights] = []
        for _ in range(c.layers):
            self.layers.append(
                LayerWeights(
                    ln1_g=np.ones(c.hidden),
                    ln1_b=np.zeros(c.hidden),
                    wq=rng.standard_normal((c.hidden, c.hidden)) * std,
                    wk=rng.standard_normal((c.hidden, c.hidden)) * std,
                    wv=rng.standard_normal((c.hidden, c.hidden)) * std,
                    wo=rng.standard_normal((c.hidden, c.hidden)) * res_std,
                    ln2_g=np.ones(c.hidden),
                    ln2_b=np.zeros(c.hidden),
                    w1=rng.standard_normal((c.ffn, c.hidden)) * std,
                    w2=rng.standard_normal((c.hidden, c.ffn)) * res_std,
                )
            )
        self.ln_f_g = np.ones(c.hidden)
        self.ln_f_b = np.zeros(c.hidden)
        # LM head tied to the embedding.

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------

    def _layer(
        self,
        lw: LayerWeights,
        x: np.ndarray,
        cache: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        capture: Optional[Dict[str, List[np.ndarray]]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        return layer_forward(self.config, lw, x, cache, capture)

    def embed_tokens(self, tokens: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """Token + position embedding for (B, T) int tokens."""
        tokens = np.asarray(tokens)
        B, T = tokens.shape
        if start_pos + T > self.config.max_seq:
            raise ValueError(
                f"sequence length {start_pos + T} exceeds max_seq "
                f"{self.config.max_seq}"
            )
        return self.embed[tokens] + self.pos_embed[start_pos : start_pos + T]

    def lm_head(self, hidden: np.ndarray) -> np.ndarray:
        """Final norm + tied logit projection."""
        h = _layer_norm(hidden, self.ln_f_g, self.ln_f_b)
        return h @ self.embed.T

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced logits (B, T, V)."""
        x = self.embed_tokens(tokens)
        for lw in self.layers:
            x, _ = self._layer(lw, x)
        return self.lm_head(x)

    def nll(self, tokens: np.ndarray) -> float:
        """Mean next-token negative log-likelihood over (B, T) tokens."""
        tokens = np.asarray(tokens)
        logits = self.logits(tokens[:, :-1])
        logp = logits - np.log(
            np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(
                axis=-1, keepdims=True
            )
        ) - logits.max(axis=-1, keepdims=True)
        targets = tokens[:, 1:]
        picked = np.take_along_axis(logp, targets[..., None], axis=-1)
        return float(-picked.mean())

    def perplexity(self, tokens: np.ndarray) -> float:
        """``exp(mean NLL)`` — the quality metric of the paper."""
        return float(np.exp(self.nll(tokens)))

    # ------------------------------------------------------------------
    # Generation (KV-cached) — used by the runtime engine
    # ------------------------------------------------------------------

    def prefill(self, tokens: np.ndarray) -> Tuple[np.ndarray, KVCache]:
        """Process a prompt; returns last-position logits and the KV cache."""
        x = self.embed_tokens(tokens)
        cache = KVCache(keys=[], values=[])
        for lw in self.layers:
            x, (k, v) = self._layer(lw, x)
            cache.keys.append(k)
            cache.values.append(v)
        return self.lm_head(x[:, -1:, :])[:, 0, :], cache

    def decode_step(
        self, tokens: np.ndarray, cache: KVCache
    ) -> Tuple[np.ndarray, KVCache]:
        """One autoregressive step for (B,) tokens given the cache."""
        tokens = np.asarray(tokens).reshape(-1, 1)
        x = self.embed_tokens(tokens, start_pos=cache.length)
        for i, lw in enumerate(self.layers):
            x, (k, v) = self._layer(lw, x, cache=(cache.keys[i], cache.values[i]))
            cache.keys[i] = k
            cache.values[i] = v
        return self.lm_head(x[:, -1:, :])[:, 0, :], cache

    def sample(
        self,
        batch: int,
        length: int,
        temperature: float = 0.8,
        seed: int = 0,
        prompt: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Autoregressively sample (batch, length) token sequences."""
        rng = np.random.default_rng(seed)
        if prompt is None:
            prompt = rng.integers(0, self.config.vocab, size=(batch, 1))
        tokens = np.asarray(prompt)
        logits, cache = self.prefill(tokens)
        out = [tokens]
        while sum(t.shape[1] for t in out) < length:
            p = _softmax(logits / max(temperature, 1e-3), axis=-1)
            cum = np.cumsum(p, axis=-1)
            u = rng.random((p.shape[0], 1))
            nxt = (cum < u).sum(axis=-1).clip(0, self.config.vocab - 1)
            out.append(nxt[:, None])
            logits, cache = self.decode_step(nxt, cache)
        return np.concatenate(out, axis=1)[:, :length]

    # ------------------------------------------------------------------
    # Calibration & quantization
    # ------------------------------------------------------------------

    def capture_layer_inputs(
        self, tokens: np.ndarray, max_samples: int = 512, seed: int = 0
    ) -> List[Dict[str, np.ndarray]]:
        """Per-layer, per-operator calibration inputs (in_dim x samples)."""
        x = self.embed_tokens(tokens)
        captures: List[Dict[str, np.ndarray]] = []
        rng = np.random.default_rng(seed)
        for lw in self.layers:
            cap: Dict[str, List[np.ndarray]] = {k: [] for k in LINEAR_OPS}
            x, _ = self._layer(lw, x, capture=cap)
            layer_inputs: Dict[str, np.ndarray] = {}
            for name in LINEAR_OPS:
                if name == "wo":
                    continue  # attention-internal input, skip capture
                mats = cap[name]
                if not mats:
                    continue
                m = np.concatenate(mats, axis=0)
                if m.shape[0] > max_samples:
                    idx = rng.choice(m.shape[0], size=max_samples, replace=False)
                    m = m[idx]
                layer_inputs[name] = m.T  # (in_dim, samples)
            captures.append(layer_inputs)
        return captures

    def layer_operator_stats(
        self, tokens: np.ndarray
    ) -> List[List[OperatorStats]]:
        """Measured :class:`OperatorStats` per layer for the indicator."""
        captures = self.capture_layer_inputs(tokens)
        out: List[List[OperatorStats]] = []
        for lw, cap in zip(self.layers, captures):
            ops = []
            for name in LINEAR_OPS:
                if name not in cap:
                    continue
                ops.append(operator_stats_from_arrays(lw.linear(name), cap[name]))
            out.append(ops)
        return out

    def quantized(
        self,
        bits_per_layer: Sequence[int],
        method: str = "rtn",
        calib_tokens: Optional[np.ndarray] = None,
        group_size: int = 32,
    ) -> "TinyLM":
        """A copy with each layer's linear weights quantized to its bitwidth.

        ``method`` is ``"rtn"`` (round-to-nearest fake quant) or ``"gptq"``
        (requires ``calib_tokens``).  16-bit layers are left untouched.
        """
        if len(bits_per_layer) != self.config.layers:
            raise ValueError("need one bitwidth per layer")
        if method not in ("rtn", "gptq"):
            raise ValueError(f"unknown method {method!r}")
        captures = None
        if method == "gptq":
            if calib_tokens is None:
                raise ValueError("gptq requires calib_tokens")
            captures = self.capture_layer_inputs(calib_tokens)
        clone = TinyLM.__new__(TinyLM)
        clone.config = self.config
        clone.embed = self.embed
        clone.pos_embed = self.pos_embed
        clone.ln_f_g = self.ln_f_g
        clone.ln_f_b = self.ln_f_b
        clone.layers = []
        for i, lw in enumerate(self.layers):
            bits = int(bits_per_layer[i])
            if bits >= 16:
                clone.layers.append(lw)
                continue
            new = lw.copy()
            cfg = QuantConfig(bits=bits, granularity="group", group_size=group_size)
            for name in LINEAR_OPS:
                w = lw.linear(name)
                if method == "gptq" and captures is not None and name in captures[i]:
                    res = gptq_quantize(w, captures[i][name], cfg)
                    setattr(new, name, res.quantized.dequantize())
                else:
                    setattr(new, name, quantize_dequantize(w, cfg))
            clone.layers.append(new)
        return clone

    def with_kv_bits(self, kv_bits: int) -> "TinyLM":
        """A view of this model whose KV cache stores at ``kv_bits``.

        Weights are shared; only the cache write path changes.
        """
        clone = TinyLM.__new__(TinyLM)
        clone.config = replace(self.config, kv_bits=kv_bits)
        clone.embed = self.embed
        clone.pos_embed = self.pos_embed
        clone.ln_f_g = self.ln_f_g
        clone.ln_f_b = self.ln_f_b
        clone.layers = self.layers
        return clone
