"""Planner configuration (the user inputs of Fig. 6, step 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..plan import KV_BITS


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the SplitQuant assigner.

    ``theta`` is the paper's quality scalar trading throughput against
    model quality in objective (4); ``quality_budget`` instead imposes a
    hard cap on the summed variance indicator (the Sec. VI-C mode that
    guarantees at-least-Uniform quality).  ``group_size`` groups decoder
    layers for ILP-size reduction (Table VI); ``use_heuristic`` swaps the
    ILP for the bitwidth-transfer heuristic, whose search prunes on the
    analytic bound alone (the ILP search adds Lagrangian and LP bounds).
    The tier, objective and budget are per-call arguments of
    :meth:`~repro.core.planner.SplitQuantPlanner.plan`.
    """

    bit_choices: Tuple[int, ...] = (3, 4, 8, 16)
    theta: float = 10.0
    quality_budget: Optional[float] = None
    group_size: int = 2
    use_heuristic: bool = False
    #: Per-solve wall-clock limit for the MILP backend (seconds).
    time_limit_s: float = 60.0
    bit_kv: int = 16
    #: Candidate KV-cache bitwidths to enumerate (extension beyond the
    #: paper, which fixes ``bit_kv``); None plans at ``bit_kv`` only.
    kv_bit_choices: Optional[Tuple[int, ...]] = None
    #: Candidate micro-batch sizes; None derives powers of two from B.
    microbatch_candidates: Optional[Tuple[int, ...]] = None
    #: Cap on device-topology orderings explored (pruned search space).
    max_orderings: int = 24
    #: Re-score this many top candidates with the cost-model-driven event
    #: simulator before committing (dry-run refinement; 1 disables).
    verify_top_k: int = 3
    #: Explore intra-node tensor-parallel stage groupings.
    enable_tp: bool = True
    #: Ablation: force the prefill and decode micro-batch sizes equal.
    tie_microbatches: bool = False
    #: Ablation: plan with phase-blind costs (prefill ratios for both
    #: phases), disabling the paper's phase-aware partitioning.
    phase_blind: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.bit_choices:
            raise ValueError("need at least one bitwidth choice")
        if sorted(set(self.bit_choices)) != list(self.bit_choices):
            raise ValueError("bit_choices must be strictly ascending")
        for kv in (self.bit_kv, *(self.kv_bit_choices or ())):
            if kv not in KV_BITS:
                raise ValueError(f"bit_kv must be one of {KV_BITS}, got {kv}")
        if not self.theta >= 0:
            raise ValueError("theta must be non-negative")
        # inf (no cap) and negative budgets (infeasible) keep their
        # meaning; NaN would fail every budget comparison silently.
        if self.quality_budget is not None and math.isnan(self.quality_budget):
            raise ValueError("quality_budget must not be NaN")
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be positive")
