"""The master engine: plan-driven pipelined generation over TinyLM.

The master performs centralized pre/post-processing — token embedding on
the way in, final norm + logit projection and sampling on the way out —
while stage workers hold the quantized decoder layers (Fig. 6's runtime).
Prefill micro-batches are pushed through the pipeline back-to-back; decode
steps iterate with the autoregressive feedback at the master.

Generation is greedy and bit-exact against a single-process reference on
the same quantized weights, which the test suite asserts.

Fault tolerance (offline serving on shared clusters means GPUs die
mid-batch): the master checkpoints every fully-committed token.  When a
stage worker fails — injected via :mod:`repro.runtime.faults` or for real
— the engine classifies the break (worker death, hang, or a stalled
pipeline with healthy workers), removes the dead stage's devices, asks
the planner for a degraded plan over the survivors
(:func:`repro.plan.degrade_plan` by default: same per-layer bitwidths,
re-partitioned under the memory caps), rebuilds the thread pipeline, and
*replays* the committed prefix before continuing.  Replay re-executes the
exact reference computation (prefill, then decode steps feeding the
committed tokens), so degraded generation stays bit-identical to the
fault-free single-process reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import trace
from ..plan import ExecutionPlan, degrade_plan
from ..quality.tinylm import TinyLM, TinyLMConfig
from .comm import Channel, ChannelClosed, StageFailure
from .faults import FaultInjector, FaultPlan, FaultRecord
from .worker import RegroupMessage, StageMessage, StageWorker

#: Bytes per float64 parameter (TinyLM runs in numpy float64).
_F64 = 8


def tinylm_layer_bytes(config: TinyLMConfig, bits: int) -> int:
    """Resident bytes of one TinyLM decoder layer quantized at ``bits``.

    The runtime's analogue of the paper's per-layer weight term: linear
    weights at the layer's bitwidth plus the FP layer norms.  Used as the
    ``layer_cost`` for memory-capped degraded replanning.
    """
    h, f = config.hidden, config.ffn
    linear = 4 * h * h + 2 * h * f
    norms = 4 * h
    return int(linear * bits / 8) + norms * _F64


@dataclass(frozen=True)
class GenerationResult:
    """Tokens plus runtime telemetry.

    Implements the :class:`repro.api.Summary` protocol —
    :meth:`to_dict` and :attr:`throughput_tokens_s` are uniform across
    planner, simulator and runtime results.
    """

    tokens: np.ndarray  # (B, prompt + generated)
    prefill_time_s: float
    decode_time_s: float
    stage_busy_s: Tuple[float, ...]
    microbatch: int
    #: Recovery attempts performed during this generation.
    replans: int = 0
    #: One record per recovery action, in order.
    fault_events: Tuple[FaultRecord, ...] = ()
    #: The plan the final (successful) attempt executed under.
    plan: Optional[ExecutionPlan] = None
    #: Prompt length folded into :attr:`tokens` (columns before column
    #: ``prompt_tokens`` were inputs, not generated output).
    prompt_tokens: int = 0

    @property
    def duration_s(self) -> float:
        """Measured wall-clock (the Summary-protocol duration)."""
        return self.prefill_time_s + self.decode_time_s

    @property
    def generated_tokens(self) -> int:
        """Output tokens per request (sequence length minus the prompt)."""
        return int(self.tokens.shape[1]) - self.prompt_tokens

    @property
    def throughput_tokens_s(self) -> float:
        """Measured output-token throughput across the batch."""
        if self.duration_s <= 0:
            return 0.0
        return self.tokens.shape[0] * self.generated_tokens / self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)


def reference_generate(
    model: TinyLM, prompts: np.ndarray, n_tokens: int
) -> np.ndarray:
    """Single-process greedy generation (the correctness oracle)."""
    prompts = np.asarray(prompts)
    logits, cache = model.prefill(prompts)
    out = [prompts]
    cur = logits.argmax(axis=-1)
    out.append(cur[:, None])
    for _ in range(n_tokens - 1):
        logits, cache = model.decode_step(cur, cache)
        cur = logits.argmax(axis=-1)
        out.append(cur[:, None])
    return np.concatenate(out, axis=1)


@dataclass
class _Checkpoint:
    """Master-side committed state: one (B,) token array per step."""

    committed: List[np.ndarray] = field(default_factory=list)

    def commit(self, tokens: np.ndarray) -> None:
        self.committed.append(tokens)

    @property
    def steps(self) -> int:
        return len(self.committed)


class PipelineEngine:
    """Distributed (threaded) inference runtime for one execution plan."""

    def __init__(
        self,
        model: TinyLM,
        plan: ExecutionPlan,
        fault_plan: Optional[FaultPlan] = None,
        replan: Optional[
            Callable[[ExecutionPlan, Tuple[int, ...]], ExecutionPlan]
        ] = None,
        device_capacity_bytes: Optional[Dict[int, int]] = None,
        max_replans: int = 2,
        recv_timeout_s: float = 30.0,
        stall_timeout_s: float = 1.0,
        worker_poll_s: float = 0.05,
    ) -> None:
        if plan.num_layers != model.config.layers:
            raise ValueError(
                f"plan has {plan.num_layers} layers, model has "
                f"{model.config.layers}"
            )
        self.plan = plan
        #: The quantized model (kept for reference checks and the LM head).
        self.model = model.quantized(list(plan.bits_per_layer))
        self.config = model.config
        self.injector = FaultInjector(fault_plan)
        self.device_capacity_bytes = device_capacity_bytes
        self.max_replans = max_replans
        self.recv_timeout_s = recv_timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.worker_poll_s = worker_poll_s
        self._replan_fn = replan or self._default_replan
        #: Every plan this engine has executed under, initial plan first.
        self.plan_history: List[ExecutionPlan] = [plan]
        #: Every recovery action ever taken (across generate() calls).
        self.fault_records: List[FaultRecord] = []
        #: Busy seconds of workers retired by rebuilds.
        self.retired_busy_s: float = 0.0
        self._expected_bits = plan.bits_per_layer
        self._dead_devices: set = set()
        self._channels: List[Channel] = []
        self._workers: List[StageWorker] = []
        self._build_pipeline(plan)
        self._started = False

    # ------------------------------------------------------------------
    # Pipeline construction / teardown
    # ------------------------------------------------------------------

    def _build_pipeline(self, plan: ExecutionPlan) -> None:
        self._channels = []
        self._workers = []
        prev = Channel("master->stage0")
        self._channels.append(prev)
        for j, st in enumerate(plan.stages):
            nxt = Channel(
                f"stage{j}->"
                + ("master" if j == plan.num_stages - 1 else f"stage{j + 1}")
            )
            worker = StageWorker(
                stage_index=j,
                config=self.config,
                layers=self.model.layers[st.layer_start : st.layer_end],
                in_ch=prev,
                out_ch=nxt,
                injector=self.injector,
                poll_s=self.worker_poll_s,
            )
            # The receiving end of `nxt` can now tell a clean close from
            # this worker dying — and drop faults intercept its sends.
            nxt.bind_sender(
                j,
                (lambda w=worker: w.error),
                fault_hook=self.injector.drop_hook(j),
            )
            self._channels.append(nxt)
            self._workers.append(worker)
            prev = nxt
        self._in = self._channels[0]
        self._out = self._channels[-1]

    def _teardown_pipeline(self) -> None:
        self._in.close()
        for w in self._workers:
            w.join(timeout=2.0)
            self.retired_busy_s += w.busy_time
        self._workers = []

    @property
    def current_plan(self) -> ExecutionPlan:
        """The plan the pipeline is currently built for."""
        return self.plan_history[-1]

    def start(self) -> None:
        if not self._started:
            for w in self._workers:
                w.start()
            self._started = True

    def shutdown(self) -> None:
        if self._started:
            self._teardown_pipeline()
            self._started = False

    def __enter__(self) -> "PipelineEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Failure detection and recovery
    # ------------------------------------------------------------------

    def _check_workers(self) -> None:
        for w in self._workers:
            if w.error is not None:
                raise StageFailure(
                    f"{w.name} failed: {w.error!r}", stage=w.stage_index
                ) from w.error

    def _dead_stage_indices(self) -> Tuple[List[int], str]:
        """Classify the break: which stages are gone, and why."""
        dead = [
            w.stage_index for w in self._workers if w.error is not None
        ]
        if dead:
            return dead, "stage-failure"
        now = time.monotonic()
        hung = [
            w.stage_index
            for w in self._workers
            if w.is_alive()
            and now - w.last_heartbeat > self.stall_timeout_s
        ]
        if hung:
            return hung, "hang"
        # All workers healthy and responsive yet the pipeline made no
        # progress: a message was lost in transit.
        return [], "stall"

    def _default_replan(
        self, plan: ExecutionPlan, surviving: Tuple[int, ...]
    ) -> ExecutionPlan:
        layer_cost = None
        if self.device_capacity_bytes is not None:
            cfg = self.config
            layer_cost = lambda i, b: tinylm_layer_bytes(cfg, b)  # noqa: E731
        return degrade_plan(
            plan,
            surviving,
            capacity_bytes=self.device_capacity_bytes,
            layer_cost=layer_cost,
        )

    def _recover(self, ckpt: _Checkpoint) -> FaultRecord:
        """Degrade-and-replan (or rebuild) after a pipeline break."""
        with trace.span("runtime.recover", committed=ckpt.steps) as sp:
            record = self._recover_inner(ckpt)
            sp.set(
                kind=record.kind,
                action=record.action,
                dead_stages=len(record.dead_stages),
            )
            return record

    def _recover_inner(self, ckpt: _Checkpoint) -> FaultRecord:
        dead_stages, kind = self._dead_stage_indices()
        plan = self.plan_history[-1]
        dead_devices = tuple(
            d for j in dead_stages for d in plan.stages[j].device_ids
        )
        self._dead_devices.update(dead_devices)
        detail = "; ".join(
            f"stage-{j}: {self._workers[j].error!r}"
            for j in dead_stages
            if self._workers[j].error is not None
        )
        self._teardown_pipeline()
        if dead_devices:
            surviving = tuple(
                d
                for st in plan.stages
                for d in st.device_ids
                if d not in self._dead_devices
            )
            with trace.span("runtime.replan", survivors=len(surviving)):
                new_plan = self._replan_fn(plan, surviving)
            if new_plan.bits_per_layer != self._expected_bits:
                raise RuntimeError(
                    "degraded replan changed per-layer bitwidths; the "
                    "quantized weights are fixed at runtime"
                )
            action = "replan"
        else:
            new_plan = plan  # lost message: same devices, fresh pipeline
            action = "rebuild"
        record = FaultRecord(
            kind=kind,
            dead_stages=tuple(dead_stages),
            dead_devices=dead_devices,
            committed_tokens=ckpt.steps,
            action=action,
            detail=detail,
        )
        self.fault_records.append(record)
        self.plan_history.append(new_plan)
        self._build_pipeline(new_plan)
        for w in self._workers:
            w.start()
        return record

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def _round_trip(
        self, jobs: List[StageMessage]
    ) -> Dict[int, np.ndarray]:
        """Push jobs through the pipeline; collect outputs by micro-batch."""
        for msg in jobs:
            self._in.send(msg)
        results: Dict[int, np.ndarray] = {}
        for _ in jobs:
            out = self._out.recv(timeout=self.recv_timeout_s)
            results[out.mb_id] = out.hidden
        return results

    @staticmethod
    def _slices(batch: int, mb: int) -> List[slice]:
        return [slice(s, min(s + mb, batch)) for s in range(0, batch, mb)]

    def _switch_phase(
        self, pre_slices: List[slice], dec_slices: List[slice]
    ) -> None:
        """Regroup the workers' KV caches from eta- to xi-micro-batches."""
        groups = []
        for d in dec_slices:
            parts = []
            for p_idx, p in enumerate(pre_slices):
                lo = max(d.start, p.start)
                hi = min(d.stop, p.stop)
                if lo < hi:
                    parts.append((p_idx, lo - p.start, hi - p.start))
            groups.append(tuple(parts))
        self._in.send(RegroupMessage(groups=tuple(groups)))
        echoed = self._out.recv(timeout=self.recv_timeout_s)
        if not isinstance(echoed, RegroupMessage):
            raise RuntimeError("phase switch desynchronized the pipeline")

    def _generate_attempt(
        self,
        prompts: np.ndarray,
        n_tokens: int,
        ckpt: _Checkpoint,
        forced_mb: Optional[int],
    ) -> Tuple[float, float, int]:
        """One pipeline pass: replay the committed prefix, then continue.

        Returns (prefill_time, decode_time, xi).  Raises StageFailure /
        ChannelClosed / TimeoutError on a pipeline break; ``ckpt`` keeps
        everything committed so far.
        """
        with trace.span(
            "runtime.attempt",
            stages=self.plan_history[-1].num_stages,
            replay_steps=ckpt.steps,
        ):
            return self._attempt_inner(prompts, n_tokens, ckpt, forced_mb)

    @staticmethod
    def _note_commit(step: int) -> None:
        """Zero-length marker span for a committed token step."""
        if trace.enabled:
            with trace.span("runtime.commit", step=step):
                pass

    def _attempt_inner(
        self,
        prompts: np.ndarray,
        n_tokens: int,
        ckpt: _Checkpoint,
        forced_mb: Optional[int],
    ) -> Tuple[float, float, int]:
        plan = self.plan_history[-1]
        B, T = prompts.shape
        eta = forced_mb or min(plan.prefill_microbatch, B)
        xi = forced_mb or min(plan.decode_microbatch, B)
        pre_slices = self._slices(B, eta)
        dec_slices = self._slices(B, xi)
        for w in self._workers:
            w.reset_caches()

        # Prefill: all micro-batches in flight back-to-back.
        t0 = time.perf_counter()
        with trace.span("runtime.prefill", microbatches=len(pre_slices)):
            jobs = [
                StageMessage(
                    phase="prefill",
                    mb_id=i,
                    hidden=self.model.embed_tokens(prompts[sl]),
                )
                for i, sl in enumerate(pre_slices)
            ]
            hiddens = self._round_trip(jobs)
            cur = np.empty(B, dtype=np.int64)
            for i, sl in enumerate(pre_slices):
                logits = self.model.lm_head(hiddens[i][:, -1:, :])[:, 0, :]
                cur[sl] = logits.argmax(axis=-1)
            if pre_slices != dec_slices:
                self._switch_phase(pre_slices, dec_slices)
        prefill_time = time.perf_counter() - t0
        if ckpt.steps == 0:
            ckpt.commit(cur.copy())
            self._note_commit(0)
        elif not np.array_equal(cur, ckpt.committed[0]):
            raise RuntimeError("replay diverged from the committed prefix")

        # Decode: per-step feedback at the master, micro-batches pipelined.
        # Steps <= the committed prefix are *replays* feeding the committed
        # tokens (deterministic KV reconstruction after a rebuild).
        t1 = time.perf_counter()
        with trace.span(
            "runtime.decode",
            steps=n_tokens - 1,
            microbatches=len(dec_slices),
        ):
            for step in range(1, n_tokens):
                pos = T + step - 1
                feed = ckpt.committed[step - 1]
                jobs = [
                    StageMessage(
                        phase="decode",
                        mb_id=i,
                        hidden=self.model.embed_tokens(
                            feed[sl].reshape(-1, 1), start_pos=pos
                        ),
                        step=step,
                    )
                    for i, sl in enumerate(dec_slices)
                ]
                hiddens = self._round_trip(jobs)
                nxt = np.empty(B, dtype=np.int64)
                for i, sl in enumerate(dec_slices):
                    logits = self.model.lm_head(hiddens[i][:, -1:, :])[:, 0, :]
                    nxt[sl] = logits.argmax(axis=-1)
                if step >= ckpt.steps:
                    ckpt.commit(nxt.copy())
                    self._note_commit(step)
                elif not np.array_equal(nxt, ckpt.committed[step]):
                    raise RuntimeError(
                        "replay diverged from the committed prefix"
                    )
        decode_time = time.perf_counter() - t1
        self._check_workers()
        return prefill_time, decode_time, xi

    def generate(
        self,
        prompts: np.ndarray,
        n_tokens: int,
        microbatch: Optional[int] = None,
    ) -> GenerationResult:
        """Greedy generation of ``n_tokens`` per request.

        Prefill runs at the plan's eta and decode at its xi; between the
        phases the master regroups the stage KV caches (the dynamic
        micro-batch adaptation of Fig. 6).  Passing ``microbatch`` forces
        one size for both phases.

        Survives up to ``max_replans`` pipeline breaks per call by
        degrading onto the surviving devices and replaying the committed
        token prefix; the output is bit-identical to the fault-free
        single-process reference either way.
        """
        if not self._started:
            raise RuntimeError("engine not started; use `with engine:`")
        prompts = np.asarray(prompts)
        with trace.span(
            "runtime.generate",
            batch=int(prompts.shape[0]),
            n_tokens=n_tokens,
        ) as sp:
            ckpt = _Checkpoint()
            events: List[FaultRecord] = []
            prefill_total = 0.0
            decode_total = 0.0
            attempts = 0
            while True:
                try:
                    prefill_t, decode_t, xi = self._generate_attempt(
                        prompts, n_tokens, ckpt, microbatch
                    )
                    prefill_total += prefill_t
                    decode_total += decode_t
                    break
                except (StageFailure, ChannelClosed, TimeoutError) as exc:
                    if attempts >= self.max_replans:
                        self._started = False  # pipeline already torn
                        raise
                    attempts += 1
                    record = self._recover(ckpt)  # may raise InfeasibleError
                    events.append(record)
                    del exc
            tokens = np.concatenate(
                [prompts] + [c[:, None] for c in ckpt.committed], axis=1
            )
            sp.set(replans=attempts)
            return GenerationResult(
                tokens=tokens,
                prefill_time_s=prefill_total,
                decode_time_s=decode_total,
                stage_busy_s=tuple(w.busy_time for w in self._workers),
                microbatch=xi,
                replans=attempts,
                fault_events=tuple(events),
                plan=self.plan_history[-1],
                prompt_tokens=int(prompts.shape[1]),
            )
