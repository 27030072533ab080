"""The sharing cost model (Section 4.1).

Window-level costs (Equations 4 and 6)::

    NonShared(Q) = k * n^2
    Shared(Q)    = n^2 * s + s * k * g * t

Per-burst costs.  The paper gives two variants of the burst-level model:

* **Definition 11 (Equation 7)** — the variant used by the worked examples of
  Section 4.2 (Equations 9–11)::

      Shared(G_E, Q_E)    = b * n * sp  +  sc * k * g * t
      NonShared(G_E, Q_E) = k * b * n

* **Definition 12 (Equation 8)** — the refined variant with lookup terms::

      Shared(G_E, Q_E)    = sc * k * g * p  +  b * (log2(g) + n * sp)
      NonShared(G_E, Q_E) = k * b * (log2(g) + n)

``Benefit = NonShared - Shared`` in both; sharing a burst is beneficial when
the benefit is positive.  The unit tests reproduce Equations 9–11 verbatim
against the simple variant, pinning the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro.errors import SharingError
from repro.optimizer.statistics import BurstStatistics

#: Which burst-level cost variant to use.
CostVariant = Literal["simple", "refined"]


def _log2(value: float) -> float:
    """``log2`` clamped below at 0 (the paper treats log2 of small g as 0)."""
    if value <= 1:
        return 0.0
    return math.log2(value)


def _check(burst_size: int, queries: int) -> None:
    if burst_size < 0 or queries < 0:
        raise SharingError("burst size and query count must be non-negative")


# ---------------------------------------------------------------------- #
# Window-level model (Equations 4 and 6)
# ---------------------------------------------------------------------- #
def window_non_shared_cost(queries: int, events: int) -> float:
    """Equation 4: cost of processing a window without sharing."""
    return float(queries) * float(events) ** 2


def window_shared_cost(
    queries: int, events: int, snapshots: int, graphlet_size: int, types_per_query: int
) -> float:
    """Equation 6: cost of processing a window with sharing."""
    return (
        float(events) ** 2 * snapshots
        + float(snapshots) * queries * graphlet_size * types_per_query
    )


# ---------------------------------------------------------------------- #
# Per-burst model
# ---------------------------------------------------------------------- #
def shared_cost(
    burst_size: int,
    events_in_window: int,
    graphlet_size: int,
    queries: int,
    snapshots_created: float,
    snapshots_propagated: int,
    types_per_query: int = 2,
    predecessor_types: int = 1,
    variant: CostVariant = "simple",
) -> float:
    """Cost of sharing a burst among ``queries`` queries."""
    _check(burst_size, queries)
    propagated = max(1, snapshots_propagated)
    if variant == "simple":
        # Definition 11 / Equation 7.
        return (
            burst_size * events_in_window * propagated
            + snapshots_created * queries * graphlet_size * types_per_query
        )
    # Definition 12 / Equation 8.
    maintenance = snapshots_created * queries * graphlet_size * predecessor_types
    propagation = burst_size * (_log2(graphlet_size) + events_in_window * propagated)
    return maintenance + propagation


def non_shared_cost(
    burst_size: int,
    events_in_window: int,
    graphlet_size: int,
    queries: int,
    variant: CostVariant = "simple",
) -> float:
    """Cost of processing a burst once per query without sharing."""
    _check(burst_size, queries)
    if variant == "simple":
        return queries * burst_size * events_in_window
    return queries * burst_size * (_log2(graphlet_size) + events_in_window)


def benefit(
    burst_size: int,
    events_in_window: int,
    graphlet_size: int,
    queries: int,
    snapshots_created: float,
    snapshots_propagated: int,
    types_per_query: int = 2,
    predecessor_types: int = 1,
    variant: CostVariant = "simple",
) -> float:
    """Sharing benefit of a burst (positive means sharing wins)."""
    return non_shared_cost(
        burst_size, events_in_window, graphlet_size, queries, variant
    ) - shared_cost(
        burst_size,
        events_in_window,
        graphlet_size,
        queries,
        snapshots_created,
        snapshots_propagated,
        types_per_query,
        predecessor_types,
        variant,
    )


@dataclass(frozen=True)
class CostModel:
    """Evaluates the per-burst model on :class:`BurstStatistics`."""

    variant: CostVariant = "simple"

    def shared(
        self,
        stats: BurstStatistics,
        query_count: int | None = None,
        snapshots_created: float | None = None,
    ) -> float:
        """Shared cost of the burst for ``query_count`` sharing queries."""
        return shared_cost(
            burst_size=stats.burst_size,
            events_in_window=stats.events_in_window,
            graphlet_size=stats.graphlet_size,
            queries=stats.query_count if query_count is None else query_count,
            snapshots_created=(
                stats.snapshots_created if snapshots_created is None else snapshots_created
            ),
            snapshots_propagated=stats.snapshots_propagated,
            types_per_query=stats.types_per_query,
            predecessor_types=stats.predecessor_types,
            variant=self.variant,
        )

    def non_shared(self, stats: BurstStatistics, query_count: int | None = None) -> float:
        """Non-shared cost of the burst for ``query_count`` queries."""
        return non_shared_cost(
            burst_size=stats.burst_size,
            events_in_window=stats.events_in_window,
            graphlet_size=stats.graphlet_size,
            queries=stats.query_count if query_count is None else query_count,
            variant=self.variant,
        )

    def benefit(self, stats: BurstStatistics) -> float:
        """Benefit of sharing the burst among all candidate queries."""
        return benefit(
            stats.burst_size,
            stats.events_in_window,
            stats.graphlet_size,
            stats.query_count,
            stats.snapshots_created,
            stats.snapshots_propagated,
            stats.types_per_query,
            stats.predecessor_types,
            self.variant,
        )
