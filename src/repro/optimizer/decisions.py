"""Per-burst sharing decisions (Section 4.2).

The dynamic optimizer is consulted by the HAMLET executor once per completed
burst.  It plugs the burst statistics into the benefit model, chooses the
query subset worth sharing, and returns a :class:`SharingDecision`.  The
executor then merges graphlets (start or continue a shared graphlet) or
splits them (fall back to per-query processing) accordingly.

The optimizer also keeps the bookkeeping the paper reports in Section 6.2:
how many decisions were made, how many bursts were shared, and how much time
the decisions themselves took (they must stay a negligible fraction of the
total latency).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.optimizer.cost_model import CostModel
from repro.optimizer.query_set import cheapest_plan
from repro.optimizer.statistics import BurstStatistics, PlanKey


@dataclass(frozen=True)
class SharingDecision:
    """Outcome of one per-burst decision."""

    #: True if the burst should be processed in a shared graphlet.
    share: bool
    #: Queries that share the graphlet (empty when ``share`` is False).
    shared_queries: frozenset[str]
    #: Queries processed separately for this burst.
    non_shared_queries: frozenset[str]
    #: Estimated benefit of the selected plan over all-non-shared execution.
    estimated_benefit: float
    #: Human-readable reason, for logs and tests.
    reason: str = ""


@dataclass
class OptimizerStatistics:
    """Counters reported by the benchmarks (Section 6.2)."""

    decisions: int = 0
    shared_bursts: int = 0
    non_shared_bursts: int = 0
    merges: int = 0
    splits: int = 0
    decision_seconds: float = 0.0

    @property
    def shared_fraction(self) -> float:
        """Fraction of bursts the optimizer decided to share."""
        total = self.shared_bursts + self.non_shared_bursts
        return self.shared_bursts / total if total else 0.0

    def merge(self, other: "OptimizerStatistics") -> None:
        """Fold another optimizer's counters into this one.

        The streaming executor runs a pool of engines (one per active window
        instance), each with its own optimizer; run-level statistics are the
        sum over the pool.
        """
        self.decisions += other.decisions
        self.shared_bursts += other.shared_bursts
        self.non_shared_bursts += other.non_shared_bursts
        self.merges += other.merges
        self.splits += other.splits
        self.decision_seconds += other.decision_seconds


class SharingOptimizer:
    """Base class: subclasses implement :meth:`decide`."""

    def __init__(self) -> None:
        self.statistics = OptimizerStatistics()
        #: Previous decision per plan key ``(event type, candidate set)`` —
        #: not per event type alone: one burst may carry independent
        #: decisions for several query classes of the same type, whose
        #: continuity must not clobber each other (see
        #: :attr:`BurstStatistics.plan_key`).
        self._previous_share: dict[PlanKey, bool] = {}

    def begin_partition(self) -> None:
        """Reset the merge/split continuity tracking for a fresh partition.

        The engine calls this from ``start()``: merge/split counters compare
        each decision against the *previous decision for the same plan key*,
        and that continuity only exists within one partition.  Without the
        reset, the first burst of every new window instance was compared
        against the previous partition's last decision and miscounted as a
        merge or split.
        """
        self._previous_share.clear()

    def decide(self, stats: BurstStatistics) -> SharingDecision:
        """Decide whether (and with which queries) to share one burst."""
        start = time.perf_counter()
        decision = self._decide(stats)
        elapsed = time.perf_counter() - start
        self._record(stats, decision, elapsed)
        return decision

    def _decide(self, stats: BurstStatistics) -> SharingDecision:
        raise NotImplementedError

    def _record(self, stats: BurstStatistics, decision: SharingDecision, elapsed: float) -> None:
        self.statistics.decisions += 1
        self.statistics.decision_seconds += elapsed
        if decision.share:
            self.statistics.shared_bursts += 1
        else:
            self.statistics.non_shared_bursts += 1
        plan_key = stats.plan_key
        previous = self._previous_share.get(plan_key)
        if previous is not None and previous != decision.share:
            if decision.share:
                self.statistics.merges += 1
            else:
                self.statistics.splits += 1
        self._previous_share[plan_key] = decision.share


class DynamicSharingOptimizer(SharingOptimizer):
    """The HAMLET optimizer: benefit-driven decision per burst."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        super().__init__()
        self.cost_model = cost_model or CostModel()

    def _decide(self, stats: BurstStatistics) -> SharingDecision:
        candidates = stats.candidates.names
        if stats.query_count < 2:
            return SharingDecision(
                False, frozenset(), candidates, 0.0, "fewer than two candidate queries"
            )
        shared, _ = cheapest_plan(stats)
        if len(shared) < 2:
            return SharingDecision(
                False, frozenset(), candidates, 0.0,
                "no query subset with positive sharing benefit",
            )
        # Sharing everyone (the only outcome for snapshot-free candidates)
        # restricts to the statistics themselves.
        everyone = len(shared) == stats.query_count
        estimated_benefit = self.cost_model.benefit(stats if everyone else stats.restrict(shared))
        if estimated_benefit <= 0:
            return SharingDecision(
                False, frozenset(), candidates, estimated_benefit,
                "snapshot maintenance outweighs the sharing benefit",
            )
        return SharingDecision(
            True,
            shared,
            frozenset() if everyone else candidates - shared,
            estimated_benefit,
            "positive sharing benefit",
        )
