"""Deterministic fault injection for the threaded runtime.

SplitQuant targets offline serving on *shared* heterogeneous clusters —
exactly the fleets where GPUs get preempted, slow down, or die mid-batch
(the fragmentation story of Fig. 1).  This module gives the runtime a
first-class, reproducible fault model:

* :class:`FaultSpec` — one fault: kill stage *k* when the job for decode
  step *t* (or prefill micro-batch *m*) arrives, a transient slowdown of
  ``delay_s``, or an in-flight message drop on a stage's outbound channel.
* :class:`FaultPlan` — an immutable, seedable collection of fault specs;
  :meth:`FaultPlan.random` derives a deterministic plan from a seed so
  fuzz-style fault campaigns are exactly replayable.
* :class:`FaultInjector` — the mutable runtime half: tracks which specs
  have fired (a kill fires once, even across pipeline rebuilds) and is
  consulted by :class:`~repro.runtime.worker.StageWorker` before every job
  and by :class:`~repro.runtime.comm.Channel` on every send.

Everything here is plain Python (no numpy) so it can be serialized and
mirrored 1:1 into the discrete-event simulator
(:func:`repro.pipeline.simulator.simulate_degraded`).
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

FAULT_KINDS = ("kill", "slow", "drop")
PHASES = ("prefill", "decode")


class InjectedFault(RuntimeError):
    """Raised inside a stage worker when a ``kill`` fault fires."""

    def __init__(self, spec: "FaultSpec") -> None:
        super().__init__(
            f"injected {spec.kind} fault: stage {spec.stage} at "
            f"{spec.phase} step {spec.step}"
        )
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``stage`` indexes the pipeline *at the time the fault fires* (after a
    replan the degraded pipeline is renumbered 0..S'-1).  For ``decode``
    faults ``step`` is the 1-based decode step; for ``prefill`` faults it
    is the 0-based prefill micro-batch id.  ``drop`` faults discard the
    matching message on the stage's outbound channel — the message is lost
    in transit, the worker itself stays healthy.
    """

    kind: str
    stage: int
    phase: str = "decode"
    step: int = 1
    #: Restrict decode faults to one micro-batch id (None = any).
    mb_id: Optional[int] = None
    #: Transient slowdown duration for ``slow`` faults.
    delay_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}")
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}")
        if self.stage < 0:
            raise ValueError("stage must be non-negative")
        if self.step < 0:
            raise ValueError("step must be non-negative")
        if self.phase == "decode" and self.step < 1:
            raise ValueError("decode steps are 1-based")
        # NaN-safe: a NaN or infinite delay would poison simulated
        # makespans and hang the runtime injector.
        if not abs(self.delay_s) < math.inf:
            raise ValueError("delay_s must be finite")
        if self.kind == "slow" and self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    def matches(self, stage: int, phase: str, step: int, mb_id: int) -> bool:
        """Does a job with these coordinates trigger this fault?"""
        if stage != self.stage or phase != self.phase:
            return False
        if self.phase == "prefill":
            return mb_id == self.step
        if self.mb_id is not None and mb_id != self.mb_id:
            return False
        return step == self.step


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of faults."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def single_kill(
        cls, stage: int, step: int, phase: str = "decode"
    ) -> "FaultPlan":
        """The canonical campaign: kill one stage at one step."""
        return cls(specs=(FaultSpec("kill", stage, phase, step),))

    @classmethod
    def random(
        cls,
        seed: int,
        num_stages: int,
        n_tokens: int,
        n_faults: int = 1,
        kinds: Tuple[str, ...] = ("kill",),
        max_delay_s: float = 0.2,
    ) -> "FaultPlan":
        """A deterministic random campaign (same seed -> same plan)."""
        if num_stages <= 0 or n_tokens <= 1:
            raise ValueError("need at least one stage and two tokens")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        for _ in range(n_faults):
            kind = rng.choice(list(kinds))
            specs.append(
                FaultSpec(
                    kind=kind,
                    stage=rng.randrange(num_stages),
                    phase="decode",
                    step=rng.randint(1, n_tokens - 1),
                    delay_s=(
                        rng.uniform(0.01, max_delay_s)
                        if kind == "slow"
                        else 0.0
                    ),
                )
            )
        return cls(specs=tuple(specs), seed=seed)

    def kills(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == "kill")

    def in_order(self) -> Tuple[FaultSpec, ...]:
        """Specs sorted by the moment they fire (prefill first, then by
        step; stable for ties)."""
        return tuple(
            sorted(
                self.specs,
                key=lambda s: (0 if s.phase == "prefill" else 1, s.step),
            )
        )


@dataclass(frozen=True)
class FaultRecord:
    """One recovery action taken by the engine (runtime telemetry)."""

    #: What was observed: "stage-failure" (worker died), "stall" (pipeline
    #: stopped making progress with all workers healthy, e.g. a dropped
    #: message), or "hang" (a worker's heartbeat went stale).
    kind: str
    dead_stages: Tuple[int, ...]
    dead_devices: Tuple[int, ...]
    #: Tokens committed at the master when the fault was detected.
    committed_tokens: int
    #: "replan" (degraded plan on surviving devices) or "rebuild"
    #: (same plan, fresh pipeline).
    action: str
    detail: str = ""


class FaultInjector:
    """Mutable runtime state of a :class:`FaultPlan`.

    Shared by every worker and channel of an engine — and deliberately
    kept across pipeline rebuilds, so a fault that already fired does not
    fire again during checkpoint replay (which re-executes the very steps
    that triggered it).
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._fired: set = set()
        #: Specs that have fired, in firing order (telemetry).
        self.fired: List[FaultSpec] = []

    def _claim(self, idx: int, spec: FaultSpec) -> bool:
        """Atomically mark spec ``idx`` fired; False if already fired."""
        with self._lock:
            if idx in self._fired:
                return False
            self._fired.add(idx)
            self.fired.append(spec)
            return True

    def on_job(
        self,
        stage: int,
        phase: str,
        step: int,
        mb_id: int,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> None:
        """Worker-side hook, called before a job executes.

        May sleep (``slow``) or raise :class:`InjectedFault` (``kill``).
        Sleeps in small slices, ticking ``heartbeat`` so a deliberately
        slow worker is not mistaken for a hung one.
        """
        for idx, spec in enumerate(self.plan.specs):
            if spec.kind == "drop":
                continue
            if not spec.matches(stage, phase, step, mb_id):
                continue
            if not self._claim(idx, spec):
                continue
            if spec.kind == "slow":
                deadline = time.monotonic() + spec.delay_s
                while True:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        break
                    time.sleep(min(left, 0.02))
                    if heartbeat is not None:
                        heartbeat()
            elif spec.kind == "kill":
                raise InjectedFault(spec)

    def drop_hook(
        self, sending_stage: int
    ) -> Callable[[str, int, int], bool]:
        """Channel-side hook for the given stage's outbound channel.

        Returns a predicate ``(phase, step, mb_id) -> drop?`` consulted on
        every send; a matching unfired ``drop`` spec consumes the message.
        """

        def should_drop(phase: str, step: int, mb_id: int) -> bool:
            for idx, spec in enumerate(self.plan.specs):
                if spec.kind != "drop":
                    continue
                if not spec.matches(sending_stage, phase, step, mb_id):
                    continue
                if self._claim(idx, spec):
                    return True
            return False

        return should_drop

    @property
    def exhausted(self) -> bool:
        return len(self._fired) >= len(self.plan.specs)
