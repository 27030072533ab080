"""The HAMLET sharing optimizer (Section 4).

* :mod:`repro.optimizer.cost_model` — the shared / non-shared cost functions
  and the sharing benefit (Definitions 11 and 12, Equations 4, 6, 7 and 8).
* :mod:`repro.optimizer.statistics` — the per-burst statistics the executor
  hands to the optimizer.
* :mod:`repro.optimizer.query_set` — choice of the query subset that shares a
  burst, with the snapshot-driven and benefit-driven pruning principles
  (Theorems 4.1 and 4.2) plus an exhaustive search used to validate them.
* :mod:`repro.optimizer.decisions` — the dynamic optimizer: one light-weight
  share / not-share decision per burst (split and merge of graphlets).
* :mod:`repro.optimizer.static` — static optimizers (always share / never
  share / decide once) used as the comparison points of Figures 12 and 13.
"""

from repro.optimizer.cost_model import (
    CostModel,
    benefit,
    non_shared_cost,
    shared_cost,
)
from repro.optimizer.decisions import (
    DynamicSharingOptimizer,
    OptimizerStatistics,
    SharingDecision,
    SharingOptimizer,
)
from repro.optimizer.query_set import choose_query_set, exhaustive_best_plan
from repro.optimizer.registry import OPTIMIZER_POLICIES, resolve_optimizer_factory
from repro.optimizer.static import AlwaysShareOptimizer, NeverShareOptimizer, StaticPlanOptimizer
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile

__all__ = [
    "AlwaysShareOptimizer",
    "BurstStatistics",
    "CandidateSet",
    "CostModel",
    "DynamicSharingOptimizer",
    "NeverShareOptimizer",
    "OPTIMIZER_POLICIES",
    "OptimizerStatistics",
    "QueryBurstProfile",
    "SharingDecision",
    "SharingOptimizer",
    "StaticPlanOptimizer",
    "resolve_optimizer_factory",
    "benefit",
    "choose_query_set",
    "exhaustive_best_plan",
    "non_shared_cost",
    "shared_cost",
]
