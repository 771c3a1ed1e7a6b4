"""Pipeline-stage workers: one thread per stage, each owning a layer range.

A worker receives hidden-state messages, runs its (quantized) decoder
layers with per-micro-batch KV caches, and forwards the result to the next
stage (or back to the master after the last stage) — the distributed
execution of Fig. 6, step 3, with threads standing in for worker
processes.

Fault-tolerance additions: workers poll their inbox with a short timeout
and tick a monotonic heartbeat every iteration (so the engine can tell a
hung worker from an idle one), consult a
:class:`~repro.runtime.faults.FaultInjector` before each job (the
deterministic kill/slowdown injection point), and account ``busy_time``
via try/finally so partially-executed jobs — including the one that kills
the worker — are still charged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import trace
from ..quality.tinylm import LayerWeights, TinyLMConfig, layer_forward
from .comm import Channel, ChannelClosed, StageFailure
from .faults import FaultInjector


@dataclass(frozen=True)
class StageMessage:
    """One unit of pipeline work."""

    phase: str  # "prefill" | "decode"
    mb_id: int
    hidden: np.ndarray  # (B, T, H) activations entering the stage
    #: Decode step (1-based) this job belongs to; 0 during prefill.  Set
    #: by the master so faults keyed on a step fire deterministically at
    #: every stage regardless of thread timing.
    step: int = 0


@dataclass(frozen=True)
class RegroupMessage:
    """Phase-switch control: re-slice KV caches into new micro-batches.

    The paper's master engine "dynamically adapts micro-batch sizes across
    generation phases" (Sec. III): prefill runs at eta, decode at xi.  Each
    entry of ``groups`` describes one new micro-batch as a concatenation of
    slices ``(old_mb_id, local_start, local_end)`` of the old ones.  The
    message flows through the pipeline so every stage regroups exactly
    once, and its arrival at the master signals completion.
    """

    groups: Tuple[Tuple[Tuple[int, int, int], ...], ...]


class StageWorker(threading.Thread):
    """Executes a contiguous range of decoder layers."""

    def __init__(
        self,
        stage_index: int,
        config: TinyLMConfig,
        layers: List[LayerWeights],
        in_ch: Channel,
        out_ch: Channel,
        injector: Optional[FaultInjector] = None,
        poll_s: float = 0.05,
    ) -> None:
        super().__init__(name=f"stage-{stage_index}", daemon=True)
        self.stage_index = stage_index
        self.config = config
        self.layers = layers
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.injector = injector
        self.poll_s = poll_s
        #: Per-micro-batch, per-local-layer KV caches.
        self._caches: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self.busy_time = 0.0
        self.jobs = 0
        self.error: Optional[BaseException] = None
        #: Monotonic timestamp of the last sign of life (recv poll or job
        #: boundary); the engine's stall detector compares against this.
        self.last_heartbeat = time.monotonic()

    def _beat(self) -> None:
        self.last_heartbeat = time.monotonic()

    def _forward(self, msg: StageMessage) -> np.ndarray:
        x = msg.hidden
        if msg.phase == "prefill":
            caches: List[Tuple[np.ndarray, np.ndarray]] = []
            for lw in self.layers:
                x, kv = layer_forward(self.config, lw, x)
                caches.append(kv)
            self._caches[msg.mb_id] = caches
        elif msg.phase == "decode":
            try:
                caches = self._caches[msg.mb_id]
            except KeyError:
                raise RuntimeError(
                    f"stage {self.stage_index}: decode for unknown "
                    f"micro-batch {msg.mb_id}"
                ) from None
            for i, lw in enumerate(self.layers):
                x, kv = layer_forward(self.config, lw, x, cache=caches[i])
                caches[i] = kv
        else:
            raise ValueError(f"unknown phase {msg.phase!r}")
        return x

    def _process(self, msg: StageMessage) -> None:
        """Run one job: injector gate, forward, busy accounting, send."""
        if self.injector is not None:
            # Deterministic kill/slowdown point: before the job's
            # compute, keyed on (stage, phase, step, mb).
            self.injector.on_job(
                self.stage_index,
                msg.phase,
                msg.step,
                msg.mb_id,
                heartbeat=self._beat,
            )
        t0 = time.perf_counter()
        try:
            out = self._forward(msg)
        finally:
            # Charge partial work even when the job raises, so busy
            # accounting stays correct across retries and injected
            # failures.
            self.busy_time += time.perf_counter() - t0
        self.jobs += 1
        self._beat()
        self.out_ch.send(
            StageMessage(
                phase=msg.phase,
                mb_id=msg.mb_id,
                hidden=out,
                step=msg.step,
            )
        )

    def _regroup(self, msg: RegroupMessage) -> None:
        new_caches: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for new_id, parts in enumerate(msg.groups):
            merged: List[Tuple[np.ndarray, np.ndarray]] = []
            for layer_idx in range(len(self.layers)):
                ks, vs = [], []
                for old_id, lo, hi in parts:
                    k, v = self._caches[old_id][layer_idx]
                    ks.append(k[lo:hi])
                    vs.append(v[lo:hi])
                merged.append(
                    (np.concatenate(ks, axis=0), np.concatenate(vs, axis=0))
                )
            new_caches[new_id] = merged
        self._caches = new_caches

    def run(self) -> None:
        try:
            while True:
                try:
                    msg = self.in_ch.recv(timeout=self.poll_s)
                except TimeoutError:
                    self._beat()  # idle but alive
                    continue
                except (ChannelClosed, StageFailure):
                    # Upstream shut down (cleanly or by dying): this
                    # worker is still healthy — propagate the close so
                    # the master notices, and exit without an error.
                    self.out_ch.close()
                    return
                self._beat()
                if isinstance(msg, RegroupMessage):
                    self._regroup(msg)
                    self.out_ch.send(msg)
                    continue
                if trace.enabled:
                    # Per-stage/per-micro-batch step span (traced runs
                    # only: the disabled path pays one attribute check).
                    with trace.span(
                        "runtime.step",
                        stage=self.stage_index,
                        phase=msg.phase,
                        step=msg.step,
                        mb=msg.mb_id,
                    ):
                        self._process(msg)
                else:
                    self._process(msg)
        except BaseException as exc:  # surfaced by the engine
            self.error = exc
            self.out_ch.close()

    def reset_caches(self) -> None:
        self._caches.clear()

    def cache_tokens(self, mb_id: int) -> int:
        """Current KV length for a micro-batch (test/inspection hook)."""
        caches = self._caches.get(mb_id)
        if not caches:
            return 0
        return int(caches[0][0].shape[1])
