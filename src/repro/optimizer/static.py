"""Static sharing optimizers.

The paper's Figures 12 and 13 compare HAMLET's dynamic per-burst decisions
against a *static* optimizer that fixes the sharing plan at compile time and
never revisits it while the stream fluctuates.  Three static policies are
provided:

* :class:`AlwaysShareOptimizer` — share every burst among all candidate
  queries (the plan a static optimizer picks when sharing looks beneficial
  on the compile-time statistics);
* :class:`NeverShareOptimizer` — never share (equivalent to running GRETA
  per query inside the HAMLET executor);
* :class:`StaticPlanOptimizer` — decide once, on the first burst, using the
  benefit model, and stick with that plan for the rest of the stream.
"""

from __future__ import annotations

from repro.optimizer.cost_model import CostModel
from repro.optimizer.decisions import SharingDecision, SharingOptimizer
from repro.optimizer.statistics import BurstStatistics, PlanKey


class AlwaysShareOptimizer(SharingOptimizer):
    """Share every burst among all candidate queries."""

    def _decide(self, stats: BurstStatistics) -> SharingDecision:
        candidates = stats.candidates.names
        if len(candidates) < 2:
            return SharingDecision(False, frozenset(), candidates, 0.0, "single candidate query")
        return SharingDecision(True, candidates, frozenset(), 0.0, "static plan: always share")


class NeverShareOptimizer(SharingOptimizer):
    """Process every burst per query (non-shared)."""

    def _decide(self, stats: BurstStatistics) -> SharingDecision:
        candidates = stats.candidates.names
        return SharingDecision(False, frozenset(), candidates, 0.0, "static plan: never share")


class StaticPlanOptimizer(SharingOptimizer):
    """Evaluate the benefit model once and keep that plan forever."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        super().__init__()
        self.cost_model = cost_model or CostModel()
        #: Fixed decisions per plan key ``(event type, candidate set)``; a
        #: type shared by several independent candidate sets (e.g. several
        #: query classes of the multi-window runtime) fixes one plan each.
        self._plan: dict[PlanKey, SharingDecision] = {}

    def _decide(self, stats: BurstStatistics) -> SharingDecision:
        if stats.plan_key in self._plan:
            fixed = self._plan[stats.plan_key]
            # Re-emit the fixed plan, restricted to the current candidates.
            candidates = stats.candidates.names
            shared = fixed.shared_queries & candidates
            if fixed.share and len(shared) >= 2:
                return SharingDecision(True, shared, candidates - shared, fixed.estimated_benefit,
                                       "static plan (fixed at first burst)")
            return SharingDecision(False, frozenset(), candidates, fixed.estimated_benefit,
                                   "static plan (fixed at first burst)")
        candidates = stats.candidates.names
        if len(candidates) < 2:
            decision = SharingDecision(False, frozenset(), candidates, 0.0, "single candidate query")
        else:
            estimated = self.cost_model.benefit(stats)
            if estimated > 0:
                decision = SharingDecision(True, candidates, frozenset(), estimated,
                                           "static plan: benefit positive at compile time")
            else:
                decision = SharingDecision(False, frozenset(), candidates, estimated,
                                           "static plan: benefit negative at compile time")
        self._plan[stats.plan_key] = decision
        return decision
