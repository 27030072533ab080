"""Tests for the sharing cost model, including the paper's worked examples."""

from __future__ import annotations

import pytest

from repro.errors import SharingError
from repro.optimizer import benefit, non_shared_cost, shared_cost
from repro.optimizer.cost_model import (
    CostModel,
    window_non_shared_cost,
    window_shared_cost,
)
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile


class TestPaperWorkedExamples:
    """Equations 9, 10 and 11 of Section 4.2, reproduced verbatim."""

    def test_equation9_decision_to_share_b3(self):
        shared = shared_cost(
            burst_size=4, events_in_window=7, graphlet_size=4, queries=2,
            snapshots_created=1, snapshots_propagated=1, types_per_query=2,
        )
        non_shared = non_shared_cost(burst_size=4, events_in_window=7, graphlet_size=4, queries=2)
        assert shared == 44.0
        assert non_shared == 56.0
        assert non_shared - shared == 12.0

    def test_equation10_decision_to_split_b3(self):
        shared = shared_cost(
            burst_size=4, events_in_window=11, graphlet_size=8, queries=2,
            snapshots_created=1, snapshots_propagated=2, types_per_query=2,
        )
        non_shared = non_shared_cost(burst_size=4, events_in_window=11, graphlet_size=8, queries=2)
        assert shared == 120.0
        assert non_shared == 88.0
        assert non_shared - shared == -32.0

    def test_equation11_decision_to_merge_b6(self):
        shared = shared_cost(
            burst_size=4, events_in_window=15, graphlet_size=4, queries=2,
            snapshots_created=1, snapshots_propagated=1, types_per_query=2,
        )
        non_shared = non_shared_cost(burst_size=4, events_in_window=15, graphlet_size=4, queries=2)
        assert shared == 76.0
        assert non_shared == 120.0
        assert benefit(
            burst_size=4, events_in_window=15, graphlet_size=4, queries=2,
            snapshots_created=1, snapshots_propagated=1, types_per_query=2,
        ) == 44.0


class TestCostModelProperties:
    def test_more_queries_increase_non_shared_cost_linearly(self):
        low = non_shared_cost(burst_size=10, events_in_window=50, graphlet_size=10, queries=2)
        high = non_shared_cost(burst_size=10, events_in_window=50, graphlet_size=10, queries=4)
        assert high == pytest.approx(2 * low)

    def test_more_snapshots_increase_shared_cost(self):
        cheap = shared_cost(10, 50, 10, 4, snapshots_created=1, snapshots_propagated=1)
        pricey = shared_cost(10, 50, 10, 4, snapshots_created=5, snapshots_propagated=3)
        assert pricey > cheap

    def test_negative_inputs_rejected(self):
        with pytest.raises(SharingError):
            shared_cost(-1, 10, 10, 2, 1, 1)
        with pytest.raises(SharingError):
            non_shared_cost(10, 10, 10, -2)

    def test_refined_variant_adds_log_terms(self):
        simple = non_shared_cost(8, 100, 16, 3, variant="simple")
        refined = non_shared_cost(8, 100, 16, 3, variant="refined")
        assert refined == pytest.approx(simple + 3 * 8 * 4)  # log2(16) = 4

    def test_window_level_model(self):
        assert window_non_shared_cost(queries=3, events=10) == 300.0
        assert window_shared_cost(queries=3, events=10, snapshots=2, graphlet_size=5,
                                  types_per_query=2) == 260.0


class TestCostModelOnStatistics:
    def _stats(self, **overrides):
        defaults = dict(
            event_type="B",
            burst_size=4,
            events_in_window=7,
            graphlet_size=4,
            snapshots_propagated=1,
            graphlet_snapshots_needed=1,
            profiles=(
                QueryBurstProfile("q1", introduces_snapshots=False, predecessor_types=2),
                QueryBurstProfile("q2", introduces_snapshots=False, predecessor_types=2),
            ),
            types_per_query=2,
        )
        defaults.update(overrides)
        candidates = CandidateSet(
            defaults.pop("event_type"), defaults.pop("profiles"), defaults.pop("types_per_query")
        )
        return BurstStatistics(candidates=candidates, **defaults)

    def test_benefit_matches_equation9(self):
        model = CostModel()
        stats = self._stats()
        assert model.shared(stats) == 44.0
        assert model.non_shared(stats) == 56.0
        assert model.benefit(stats) == 12.0

    def test_restrict_drops_profiles(self):
        stats = self._stats()
        restricted = stats.restrict(frozenset({"q1"}))
        assert restricted.query_count == 1
        assert stats.query_count == 2

    def test_snapshots_created_estimate(self):
        stats = self._stats(
            profiles=(
                QueryBurstProfile("q1", True, expected_snapshots=2.0),
                QueryBurstProfile("q2", False),
            )
        )
        assert stats.snapshots_created == pytest.approx(3.0)
        assert stats.predecessor_types == 1
