"""Planner configuration (the user inputs of Fig. 6, step 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the SplitQuant assigner.

    ``theta`` is the paper's quality scalar trading throughput against
    model quality in objective (4); ``quality_budget`` instead imposes a
    hard cap on the summed variance indicator (the Sec. VI-C mode that
    guarantees at-least-Uniform quality).  ``group_size`` groups decoder
    layers for ILP-size reduction (Table VI); ``use_heuristic`` swaps the
    ILP for the bitwidth-transfer heuristic.
    """

    bit_choices: Tuple[int, ...] = (3, 4, 8, 16)
    #: Planning tier: ``"exact"`` runs the enumerating candidate search
    #: (MILP or hill-climb per candidate), ``"dp"`` the scalable
    #: DP-over-contiguous-segments planner, ``"auto"`` routes by instance
    #: size (exact up to ``auto_exact_max_devices`` GPUs, DP beyond).
    tier: str = "auto"
    #: Largest cluster (device count) ``tier="auto"`` still plans exactly.
    auto_exact_max_devices: int = 8
    #: Stage-count prefixes the DP tier tries per ordering (ranked by the
    #: flow relaxation); higher explores more pipeline depths.
    dp_prefix_candidates: int = 3
    #: Hill-climb polish iterations after the segment DP (0 disables).
    dp_polish_iters: int = 40
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
    #: Worker threads for candidate solving in the search engine; 1 keeps
    #: the solve loop serial.  The chosen plan is bit-identical either way
    #: (deterministic reduction on (score, enumeration index)).
    parallelism: int = 1
    #: Planning objective: ``"throughput"`` (the paper's default),
    #: ``"energy"`` (J/token) or ``"cost"`` ($/Mtoken).  Non-throughput
    #: objectives re-rank the verified candidate frontier by the energy
    #: model (:mod:`repro.costmodel.energy`); with a ``budget`` they
    #: instead maximize throughput subject to the ceiling.
    objective: str = "throughput"
    #: Optional objective budget: a J/token ceiling under
    #: ``objective="energy"``, a $/Mtoken ceiling under
    #: ``objective="cost"``; ignored for ``"throughput"``.
    budget: Optional[float] = None
    #: Skip candidates whose admissible lower bound proves they cannot
    #: enter the verified top-k.  Never changes the chosen plan.
    prune: bool = True
    #: Lower-bound family for pruning: "auto" picks "lp" (exact-MILP LP
    #: relaxation) for the ILP backend and "analytic" (MCKP + structural
    #: bounds) for the heuristic; "none" disables bounding entirely.
    bound: str = "auto"
    seed: int = 0

    def __post_init__(self):
        if not self.bit_choices:
            raise ValueError("need at least one bitwidth choice")
        if sorted(self.bit_choices) != list(self.bit_choices):
            raise ValueError("bit_choices must be sorted ascending")
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
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.bound not in ("auto", "lp", "analytic", "none"):
            raise ValueError(
                "bound must be one of 'auto', 'lp', 'analytic', 'none'"
            )
        if self.tier not in ("auto", "exact", "dp"):
            raise ValueError("tier must be one of 'auto', 'exact', 'dp'")
        if self.objective not in ("throughput", "energy", "cost"):
            raise ValueError(
                "objective must be one of 'throughput', 'energy', 'cost'"
            )
        if self.budget is not None and not self.budget > 0:
            raise ValueError("budget must be positive when set")
        if self.auto_exact_max_devices <= 0:
            raise ValueError("auto_exact_max_devices must be positive")
        if self.dp_prefix_candidates <= 0:
            raise ValueError("dp_prefix_candidates must be positive")
        if self.dp_polish_iters < 0:
            raise ValueError("dp_polish_iters must be non-negative")
