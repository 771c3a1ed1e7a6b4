"""Fig. 8: fidelity of the memory and latency cost models.

Memory: BLOOM-560m/1b7 and OPT-13b/30b/66b with random precision settings,
prompt lengths 128-512, batch sizes {2,4,8} and 100-200 generated tokens;
predicted weights+KV versus the page-rounded "measured" allocation.

Latency: per device, 50 unseen workloads (batch {3,5,7}, past {384,768})
never in the calibration grid; relative error of the fitted regressions.
The paper reports near-zero memory error and <6% mean latency error.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..costmodel.latency import LatencyCostModel, relative_errors
from ..costmodel.memory import layer_memory_bytes
from ..hardware.gpus import get_gpu
from ..models.architectures import get_model
from ..simgpu.profiler import Profiler
from .harness import ExperimentResult

MEMORY_MODELS = ("bloom-560m", "bloom-1b7", "opt-13b", "opt-30b", "opt-66b")
LATENCY_DEVICES = ("T4-16G", "P100-12G", "V100-32G", "A100-40G")
BITS = (3, 4, 8, 16)


def _memory_errors(model_name: str, n_cases: int, seed: int) -> np.ndarray:
    spec = get_model(model_name)
    rng = np.random.default_rng(seed)
    prof = Profiler(seed=seed)
    errs = []
    for _ in range(n_cases):
        prompt = int(rng.integers(128, 513))
        batch = int(rng.choice([2, 4, 8]))
        gen = int(rng.integers(100, 201))
        bits = rng.choice(BITS, size=spec.num_layers)
        predicted = sum(
            layer_memory_bytes(spec, int(b), batch, prompt + gen) for b in bits
        )
        measured = prof.measure_memory(spec, [int(b) for b in bits], batch,
                                       prompt + gen)
        errs.append(abs(predicted - measured) / measured)
    return np.array(errs)


def run(
    n_memory_cases: int = 20,
    n_latency_workloads: int = 50,
    latency_model: str = "opt-13b",
    seed: int = 0,
) -> ExperimentResult:
    rows = []
    mem_errs_all = []
    for name in MEMORY_MODELS:
        errs = _memory_errors(name, n_memory_cases, seed)
        mem_errs_all.append(errs)
        rows.append(["memory", name, "-", 100 * errs.mean(), 100 * errs.max()])

    spec = get_model(latency_model)
    cm = LatencyCostModel(spec).fit(
        [get_gpu(d) for d in LATENCY_DEVICES], BITS, Profiler(seed=seed + 1)
    )
    rng = np.random.default_rng(seed + 2)
    workloads: Sequence[Tuple[int, int]] = [
        (int(rng.choice([3, 5, 7])), int(rng.choice([384, 768])))
        for _ in range(n_latency_workloads)
    ]
    prof = Profiler(seed=seed + 3)
    lat_errs_all = []
    for device in LATENCY_DEVICES:
        gpu = get_gpu(device)
        for phase in ("prefill", "decode"):
            errs = relative_errors(cm, gpu, 16, phase, workloads, prof)
            lat_errs_all.append(errs)
            rows.append(
                ["latency", device, phase, 100 * errs.mean(), 100 * errs.max()]
            )
    mem_mean = float(np.concatenate(mem_errs_all).mean())
    lat_mean = float(np.concatenate(lat_errs_all).mean())
    return ExperimentResult(
        name="fig08",
        title="Cost model fidelity: predicted vs measured",
        headers=["cost_model", "target", "phase", "mean_err_%", "max_err_%"],
        rows=rows,
        summary={
            "memory_mean_err": mem_mean,
            "latency_mean_err": lat_mean,
        },
        notes="Paper: memory error almost negligible; latency mean error < 6%.",
    )
