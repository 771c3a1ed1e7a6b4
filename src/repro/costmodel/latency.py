"""Latency cost model (paper Sec. IV-A): phase-aware linear regression.

Prefill time is compute-driven and regressed on FLOP-shaped features
``{1, v, s, v*s, v*s^2}``; decode time is memory-driven and regressed on
MOP-shaped features ``{1, v, v*(t+s), (t+s)}`` where ``t+s`` is the total
context length.  One regression is fit per (device, bitwidth, phase) from
profiled calibration samples, exactly as the assigner does online.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..hardware.gpus import GPUSpec
from ..models.architectures import ModelSpec
from ..simgpu.profiler import LatencySample, Profiler

#: Default calibration grids (batch sizes x sequence/past lengths).
PREFILL_GRID: Tuple[Tuple[int, ...], Tuple[int, ...]] = (
    (1, 2, 4, 8, 16, 32, 64, 128, 256),
    (64, 128, 256, 512, 1024, 2048),
)
DECODE_GRID: Tuple[Tuple[int, ...], Tuple[int, ...]] = (
    (1, 2, 4, 8, 16, 32, 64, 128, 256),
    (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
)


def prefill_features(batch: float, seq: float) -> np.ndarray:
    """Feature vector for the prefill regression."""
    v, s = float(batch), float(seq)
    return np.array([1.0, v, s, v * s, v * s * s])


def decode_features(batch: float, context: float) -> np.ndarray:
    """Feature vector for the decode regression (``context = t + s``)."""
    v, c = float(batch), float(context)
    return np.array([1.0, v, v * c, c])


@dataclass
class PhaseRegression:
    """A fitted least-squares model for one (device, bits, phase)."""

    phase: str
    coef: np.ndarray

    def __post_init__(self) -> None:
        # Scalar coefficient tuple: `predict` sits on the planner's hottest
        # path (every candidate cost tensor and every simulator dry-run goes
        # through it), where allocating feature arrays and dispatching a
        # BLAS dot for 4-5 terms costs more than the arithmetic itself.
        self._c = tuple(float(x) for x in self.coef)

    def predict(self, batch: float, seq: float) -> float:
        v, s = float(batch), float(seq)
        c = self._c
        if self.phase == "prefill":
            val = c[0] + c[1] * v + c[2] * s + c[3] * (v * s) + c[4] * (v * s * s)
        else:
            val = c[0] + c[1] * v + c[2] * (v * s) + c[3] * s
        return val if val > 0.0 else 0.0


def fit_phase(samples: Sequence[LatencySample], phase: str) -> PhaseRegression:
    """Least-squares fit over profiled samples of one phase.

    Rows are weighted by ``1/y`` so the fit minimizes *relative* error —
    otherwise the largest-batch samples dominate and small-shape
    predictions (where planning decisions are often made) degrade.
    """
    rows = [s for s in samples if s.phase == phase]
    if len(rows) < 5:
        raise ValueError(f"need >= 5 {phase} samples, got {len(rows)}")
    feat_fn = prefill_features if phase == "prefill" else decode_features
    a = np.stack([feat_fn(s.batch, s.seq) for s in rows])
    y = np.array([s.time_s for s in rows])
    w = 1.0 / np.maximum(y, 1e-12)
    coef, *_ = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)
    return PhaseRegression(phase=phase, coef=coef)


@dataclass
class LatencyCostModel:
    """Per-layer latency predictor across devices, precisions and phases.

    Fit once per (model, cluster) from profiler calibration payloads; used
    by the optimizer for the ``l_{i,j,b}`` terms of constraints (5)-(6).
    """

    spec: ModelSpec
    bit_kv: int = 16
    _models: Dict[Tuple[str, int, str], PhaseRegression] = field(
        default_factory=dict
    )

    def fit(
        self,
        gpus: Iterable[GPUSpec],
        bit_choices: Iterable[int],
        profiler: Profiler | None = None,
        prefill_grid: Tuple[Sequence[int], Sequence[int]] = PREFILL_GRID,
        decode_grid: Tuple[Sequence[int], Sequence[int]] = DECODE_GRID,
    ) -> "LatencyCostModel":
        """Profile calibration grids and fit every (gpu, bits, phase).

        Refitting a fitted entry raises: the simulators memoize durations
        per cost model, so a refit in place would serve stale timings.
        """
        profiler = profiler or Profiler(seed=0)
        for gpu in gpus:
            for bits in bit_choices:
                for phase, (batches, seqs) in (
                    ("prefill", prefill_grid),
                    ("decode", decode_grid),
                ):
                    key = (gpu.name, bits, phase)
                    if key in self._models:
                        raise ValueError(f"{key} is already fitted")
                    samples = profiler.profile_grid(
                        gpu, self.spec, bits, phase, batches, seqs, self.bit_kv
                    )
                    self._models[key] = fit_phase(samples, phase)
        return self

    def _get(self, gpu: GPUSpec, bits: int, phase: str) -> PhaseRegression:
        try:
            return self._models[(gpu.name, bits, phase)]
        except KeyError:
            raise KeyError(
                f"no fitted model for ({gpu.name}, {bits}, {phase}); call fit()"
            ) from None

    def prefill_time(self, gpu: GPUSpec, bits: int, batch: int, seq: int) -> float:
        """Predicted per-layer prefill time (s)."""
        return self._get(gpu, bits, "prefill").predict(batch, seq)

    def decode_time(
        self, gpu: GPUSpec, bits: int, batch: int, context: int
    ) -> float:
        """Predicted per-layer decode-step time (s) at total context."""
        return self._get(gpu, bits, "decode").predict(batch, context)

    def fitted_keys(self) -> List[Tuple[str, int, str]]:
        return sorted(self._models)


def relative_errors(
    model: LatencyCostModel,
    gpu: GPUSpec,
    bits: int,
    phase: str,
    workloads: Sequence[Tuple[int, int]],
    profiler: Profiler,
) -> np.ndarray:
    """|predicted - measured| / measured on unseen workloads (Fig. 8)."""
    errs = []
    for batch, seq in workloads:
        measured = profiler.measure_layer(gpu, model.spec, bits, phase, batch, seq)
        predicted = (
            model.prefill_time(gpu, bits, batch, seq)
            if phase == "prefill"
            else model.decode_time(gpu, bits, batch, seq)
        )
        errs.append(abs(predicted - measured) / measured)
    return np.array(errs)
