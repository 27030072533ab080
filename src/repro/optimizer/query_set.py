"""Choice of the query set that shares a Kleene sub-pattern (Section 4.3).

The search space of sharing plans — which subset of the candidate queries
``Q_E`` shares the burst and which queries run separately — is exponential
(Figure 7).  Two pruning principles reduce it to a linear scan:

* **Snapshot-driven pruning (Theorem 4.1)** — a query that introduces no new
  snapshots is always worth sharing; plans that exclude such a query are
  pruned.
* **Benefit-driven pruning (Theorem 4.2)** — a query that does introduce
  snapshots is shared exactly when the cost of maintaining its snapshots is
  below the cost of re-processing the burst for it separately; the
  classification at Level 2 of the plan lattice is globally optimal, so no
  deeper plans need to be examined.

To make the optimality of the per-query classification exact (and therefore
property-testable against exhaustive enumeration), the plan cost used here is
the additive decomposition of the paper's burst model:

* one *propagation* term ``b * (log2(g) + n * sp)`` paid once if anything is
  shared,
* one *snapshot maintenance* term ``sc_q * g * p`` per shared query ``q``
  (``sc_q`` counts the graphlet-level snapshot plus the event-level snapshots
  the query is expected to introduce), and
* one *re-processing* term ``b * (log2(g) + n)`` per query processed
  separately.

:func:`choose_query_set` implements the pruned selection in ``O(m)`` — and
in ``O(1)`` when no candidate introduces snapshots, the case every class of
the multi-window runtime is in;
:func:`exhaustive_best_plan` enumerates every plan and is used by the tests
to confirm the pruned choice is never worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.optimizer.cost_model import _log2
from repro.optimizer.statistics import BurstStatistics


@dataclass(frozen=True)
class QuerySetChoice:
    """Outcome of the query-set selection for one burst."""

    shared: frozenset[str]
    non_shared: frozenset[str]
    total_cost: float

    @property
    def share_count(self) -> int:
        """Number of queries selected to share the burst."""
        return len(self.shared)


def _propagation_cost(stats: BurstStatistics) -> float:
    """Cost of propagating the shared expressions through the burst (paid once)."""
    return stats.burst_size * (
        _log2(stats.graphlet_size) + stats.events_in_window * max(1, stats.snapshots_propagated)
    )


def _maintenance_cost(stats: BurstStatistics, expected_snapshots: float) -> float:
    """Per-query cost of maintaining the snapshots it needs in a shared graphlet."""
    snapshots = stats.graphlet_snapshots_needed + expected_snapshots
    return snapshots * stats.graphlet_size * stats.predecessor_types


def _reprocess_cost(stats: BurstStatistics) -> float:
    """Per-query cost of processing the burst separately (non-shared)."""
    return stats.burst_size * (_log2(stats.graphlet_size) + stats.events_in_window)


def plan_cost(stats: BurstStatistics, shared: frozenset[str]) -> float:
    """Cost of the plan that shares ``shared`` and processes the rest separately."""
    return _plan_cost(stats, shared, _reprocess_cost(stats))


def _plan_cost(stats: BurstStatistics, shared: frozenset[str], reprocess: float) -> float:
    sharing = len(shared)
    if sharing >= 2:
        candidates = stats.candidates
        if candidates.snapshot_free:
            # Every shared query pays the same integer-valued maintenance
            # term, so the product is the running sum, to the bit.
            maintenance = sharing * _maintenance_cost(stats, 0.0)
        else:
            profiles = candidates.by_name
            maintenance = sum(
                _maintenance_cost(stats, profiles[name].expected_snapshots) for name in shared
            )
        cost = 0.0 + _propagation_cost(stats) + maintenance
    else:
        # A "shared" group of zero or one query degenerates to separate processing.
        cost = 0.0 + sharing * reprocess
    return cost + (stats.query_count - sharing) * reprocess


def choose_query_set(stats: BurstStatistics) -> QuerySetChoice:
    """Select the subset of candidate queries that should share the burst.

    Queries introducing no snapshots are always shared (Theorem 4.1); each
    snapshot-introducing query is shared exactly when its snapshot
    maintenance is cheaper than re-processing the burst for it (Theorem 4.2).
    """
    shared, total_cost = cheapest_plan(stats)
    return QuerySetChoice(
        shared=shared, non_shared=stats.candidates.names - shared, total_cost=total_cost
    )


def cheapest_plan(stats: BurstStatistics) -> tuple[frozenset[str], float]:
    """:func:`choose_query_set` as a bare ``(shared set, plan cost)`` pair."""
    reprocess = _reprocess_cost(stats)
    candidates = stats.candidates
    if candidates.snapshot_free:
        # One margin for all: the beneficial set is everyone or no one.  A
        # two-query top-up of an all-harmful set costs the propagation term
        # plus twice the positive margin more than sharing nothing, so it is
        # never the cheaper option and need not be priced.
        shareable = len(candidates.profiles) >= 2
        margin = _maintenance_cost(stats, 0.0) - reprocess
        best_sharing = candidates.names if shareable and margin <= 0 else frozenset()
    else:
        best_sharing = _best_sharing_set(stats, reprocess)
    # ``min`` semantics of the two-option comparison: sharing must be
    # strictly cheaper than processing every query separately.
    separate_cost = _plan_cost(stats, frozenset(), reprocess)
    if best_sharing:
        sharing_cost = _plan_cost(stats, best_sharing, reprocess)
        if sharing_cost < separate_cost:
            return best_sharing, sharing_cost
    return frozenset(), separate_cost


def _best_sharing_set(stats: BurstStatistics, reprocess: float) -> frozenset[str]:
    """The cheapest plan that shares at all, for mixed candidate profiles."""
    # Margin of sharing a query: its snapshot-maintenance cost minus the cost
    # of re-processing the burst for it.  Queries that introduce no snapshots
    # only pay for the graphlet-level snapshot, which is why they are
    # (almost) always shared — Theorem 4.1; queries with expected event-level
    # snapshots are classified by the sign of the margin — Theorem 4.2.
    margins = {
        profile.query_name: _maintenance_cost(
            stats, profile.expected_snapshots if profile.introduces_snapshots else 0.0
        )
        - reprocess
        for profile in stats.profiles
    }
    candidate = {name for name, margin in margins.items() if margin <= 0}
    if len(candidate) < 2 and stats.query_count >= 2:
        # Sharing needs two participants; top the group up with the least
        # harmful queries so the comparison against the all-non-shared plan
        # considers the best possible sharing plan.
        remaining = sorted(
            (name for name in margins if name not in candidate), key=lambda name: margins[name]
        )
        candidate.update(remaining[: 2 - len(candidate)])
    return frozenset(candidate) if len(candidate) >= 2 else frozenset()


def exhaustive_best_plan(stats: BurstStatistics) -> QuerySetChoice:
    """Enumerate every sharing plan and return the cheapest.

    Exponential in the number of candidate queries; intended for validating
    :func:`choose_query_set` on small workloads.
    """
    names = [profile.query_name for profile in stats.profiles]
    best: QuerySetChoice | None = None
    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            shared = frozenset(subset)
            candidate = QuerySetChoice(
                shared=shared,
                non_shared=frozenset(names) - shared,
                total_cost=plan_cost(stats, shared),
            )
            if best is None or candidate.total_cost < best.total_cost - 1e-9:
                best = candidate
    assert best is not None
    return best
