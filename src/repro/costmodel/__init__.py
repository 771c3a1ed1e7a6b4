"""Cost models: memory (Sec. IV-A), latency regression, energy/$-cost."""

from .energy import (
    DEFAULT_ELECTRICITY_USD_PER_KWH,
    GPUPrice,
    PriceBook,
    default_price_book,
    plan_cost,
    plan_energy,
    stage_occupancies,
)
from .latency import (
    DECODE_GRID,
    PREFILL_GRID,
    LatencyCostModel,
    PhaseRegression,
    decode_features,
    fit_phase,
    prefill_features,
    relative_errors,
)
from .memory import layer_memory_bytes, stage_overhead_bytes

__all__ = [
    "DEFAULT_ELECTRICITY_USD_PER_KWH",
    "GPUPrice",
    "PriceBook",
    "default_price_book",
    "plan_cost",
    "plan_energy",
    "stage_occupancies",
    "DECODE_GRID",
    "PREFILL_GRID",
    "LatencyCostModel",
    "PhaseRegression",
    "decode_features",
    "fit_phase",
    "prefill_features",
    "relative_errors",
    "layer_memory_bytes",
    "stage_overhead_bytes",
]
