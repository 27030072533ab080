"""Tests for query-set choice (Theorems 4.1/4.2) and the sharing optimizers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer import (
    AlwaysShareOptimizer,
    CostModel,
    DynamicSharingOptimizer,
    NeverShareOptimizer,
    StaticPlanOptimizer,
    choose_query_set,
    exhaustive_best_plan,
)
from repro.optimizer.query_set import plan_cost
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile


def _stats(profiles, *, burst_size=6, events_in_window=40, graphlet_size=8,
           snapshots_propagated=1, graphlet_snapshots_needed=1) -> BurstStatistics:
    return BurstStatistics(
        candidates=CandidateSet("B", tuple(profiles), types_per_query=2),
        burst_size=burst_size,
        events_in_window=events_in_window,
        graphlet_size=graphlet_size,
        snapshots_propagated=snapshots_propagated,
        graphlet_snapshots_needed=graphlet_snapshots_needed,
    )


class TestChooseQuerySet:
    def test_snapshot_free_queries_are_shared(self):
        stats = _stats(
            [
                QueryBurstProfile("q1", introduces_snapshots=False),
                QueryBurstProfile("q2", introduces_snapshots=False),
                QueryBurstProfile("q3", introduces_snapshots=False),
            ]
        )
        choice = choose_query_set(stats)
        assert choice.shared == {"q1", "q2", "q3"}
        assert not choice.non_shared

    def test_expensive_snapshot_query_excluded(self):
        stats = _stats(
            [
                QueryBurstProfile("q1", introduces_snapshots=False),
                QueryBurstProfile("q2", introduces_snapshots=False),
                QueryBurstProfile("q3", introduces_snapshots=True, expected_snapshots=50.0),
            ]
        )
        choice = choose_query_set(stats)
        assert "q3" in choice.non_shared
        assert choice.shared == {"q1", "q2"}

    def test_single_candidate_never_shares(self):
        stats = _stats([QueryBurstProfile("q1", introduces_snapshots=False)])
        choice = choose_query_set(stats)
        assert not choice.shared

    @settings(max_examples=80, deadline=None)
    @given(
        expected=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=6),
        burst_size=st.integers(min_value=1, max_value=30),
        events=st.integers(min_value=1, max_value=200),
        graphlet=st.integers(min_value=1, max_value=64),
    )
    def test_pruned_choice_is_never_worse_than_exhaustive(self, expected, burst_size, events, graphlet):
        """The pruning principles never lose optimality (Theorems 4.1, 4.2)."""
        profiles = [
            QueryBurstProfile(f"q{i}", introduces_snapshots=value > 0, expected_snapshots=value)
            for i, value in enumerate(expected)
        ]
        stats = _stats(
            profiles, burst_size=burst_size, events_in_window=events, graphlet_size=graphlet
        )
        pruned = choose_query_set(stats)
        exhaustive = exhaustive_best_plan(stats)
        assert pruned.total_cost == pytest.approx(exhaustive.total_cost)
        assert plan_cost(stats, pruned.shared) == pytest.approx(pruned.total_cost)


# --------------------------------------------------------------------- #
# The selection as it was before the compile-once / O(1) rewrite, kept as
# the reference the rewritten functions are pinned against, to the bit.
# --------------------------------------------------------------------- #
def _reference_plan_cost(stats: BurstStatistics, shared: frozenset) -> float:
    log2 = math.log2(stats.graphlet_size) if stats.graphlet_size > 1 else 0.0
    reprocess = stats.burst_size * (log2 + stats.events_in_window)
    profiles = {profile.query_name: profile for profile in stats.profiles}
    p = max(1, round(sum(q.predecessor_types for q in stats.profiles) / len(stats.profiles)))
    cost = 0.0
    if len(shared) >= 2:
        cost += stats.burst_size * (
            log2 + stats.events_in_window * max(1, stats.snapshots_propagated)
        )
        cost += sum(
            (stats.graphlet_snapshots_needed + profiles[name].expected_snapshots)
            * stats.graphlet_size
            * p
            for name in shared
        )
    else:
        cost += len(shared) * reprocess
    cost += (len(stats.profiles) - len(shared)) * reprocess
    return cost


def _reference_choose(stats: BurstStatistics):
    log2 = math.log2(stats.graphlet_size) if stats.graphlet_size > 1 else 0.0
    reprocess = stats.burst_size * (log2 + stats.events_in_window)
    p = max(1, round(sum(q.predecessor_types for q in stats.profiles) / len(stats.profiles)))
    margins = {
        profile.query_name: (
            stats.graphlet_snapshots_needed
            + (profile.expected_snapshots if profile.introduces_snapshots else 0.0)
        )
        * stats.graphlet_size
        * p
        - reprocess
        for profile in stats.profiles
    }
    candidate = {name for name, margin in margins.items() if margin <= 0}
    if len(candidate) < 2 and len(stats.profiles) >= 2:
        remaining = sorted(
            (name for name in margins if name not in candidate), key=lambda name: margins[name]
        )
        candidate.update(remaining[: 2 - len(candidate)])
    best_sharing = frozenset(candidate) if len(candidate) >= 2 else frozenset()
    shared = min([frozenset(), best_sharing], key=lambda s: _reference_plan_cost(stats, s))
    return shared, _reference_plan_cost(stats, shared)


class TestCompileOnceDecisions:
    """The O(1) decision for snapshot-free candidate sets changes nothing."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        burst_size=st.integers(min_value=0, max_value=400),
        events=st.integers(min_value=1, max_value=20_000),
        graphlet_log2=st.integers(min_value=0, max_value=12),
        merge_needed=st.integers(min_value=0, max_value=1),
        queries=st.integers(min_value=1, max_value=6),
        predecessors=st.integers(min_value=1, max_value=4),
    )
    def test_uniform_snapshot_free_equals_exhaustive_to_the_bit(
        self, burst_size, events, graphlet_log2, merge_needed, queries, predecessors
    ):
        # A power-of-two ``g`` keeps every cost an exact integer, so ties
        # are exact and "equals the enumeration" is a statement about bits.
        profiles = [
            QueryBurstProfile(f"q{i}", False, 0.0, predecessors) for i in range(queries)
        ]
        stats = _stats(
            profiles,
            burst_size=burst_size,
            events_in_window=events,
            graphlet_size=2**graphlet_log2,
            graphlet_snapshots_needed=merge_needed,
        )
        assert stats.candidates.snapshot_free
        choice = choose_query_set(stats)
        exhaustive = exhaustive_best_plan(stats)
        assert choice.shared in (frozenset(), stats.candidates.names)  # all or nothing
        assert choice.share_count == (exhaustive.share_count if exhaustive.share_count >= 2 else 0)
        assert choice.total_cost == exhaustive.total_cost
        assert choice.non_shared == stats.candidates.names - choice.shared
        decision = DynamicSharingOptimizer().decide(stats)
        assert decision.share == (
            choice.share_count >= 2 and CostModel().benefit(stats) > 0
        )
        assert decision.shared_queries == (choice.shared if decision.share else frozenset())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        expected=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0)),
            min_size=1,
            max_size=6,
        ),
        burst_size=st.integers(min_value=0, max_value=60),
        events=st.integers(min_value=1, max_value=500),
        graphlet=st.integers(min_value=1, max_value=300),
        merge_needed=st.integers(min_value=0, max_value=1),
        predecessors=st.lists(st.integers(min_value=1, max_value=4), min_size=6, max_size=6),
    )
    def test_choice_and_plan_cost_are_unchanged(
        self, expected, burst_size, events, graphlet, merge_needed, predecessors
    ):
        """Uniform or mixed profiles, any ``g``: the same set, the same bits."""
        profiles = [
            QueryBurstProfile(f"q{i}", value > 0, value, predecessors[i])
            for i, value in enumerate(expected)
        ]
        stats = _stats(
            profiles,
            burst_size=burst_size,
            events_in_window=events,
            graphlet_size=graphlet,
            graphlet_snapshots_needed=merge_needed,
        )
        shared, total_cost = _reference_choose(stats)
        choice = choose_query_set(stats)
        assert (choice.shared, choice.total_cost) == (shared, total_cost)
        names = [profile.query_name for profile in profiles]
        for size in range(len(names) + 1):
            subset = frozenset(names[:size])
            assert plan_cost(stats, subset) == _reference_plan_cost(stats, subset)

    def test_derived_inputs_are_computed_once_per_candidate_set(self):
        profiles = (
            QueryBurstProfile("q1", False, 0.0, 1),
            QueryBurstProfile("q2", True, 2.5, 4),
        )
        candidates = CandidateSet("B", profiles, types_per_query=3)
        assert candidates.names == frozenset({"q1", "q2"})
        assert candidates.plan_key == ("B", frozenset({"q1", "q2"}))
        assert candidates.predecessor_types == 2  # round(2.5) -> banker's 2
        assert candidates.expected_snapshots == 2.5 and not candidates.snapshot_free
        stats = BurstStatistics(candidates, 4, 9, 4, 1, 1)
        assert stats.plan_key is candidates.plan_key
        assert stats.profile_map() is candidates.by_name
        assert (stats.event_type, stats.types_per_query, stats.query_count) == ("B", 3, 2)
        assert stats.snapshots_created == 3.5
        narrowed = stats.restrict(frozenset({"q1"}))
        assert narrowed.candidates.snapshot_free and narrowed.burst_size == 4


class TestDynamicOptimizer:
    def test_positive_benefit_shares(self):
        stats = _stats(
            [
                QueryBurstProfile("q1", introduces_snapshots=False, predecessor_types=2),
                QueryBurstProfile("q2", introduces_snapshots=False, predecessor_types=2),
            ],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        decision = DynamicSharingOptimizer().decide(stats)
        assert decision.share
        assert decision.shared_queries == {"q1", "q2"}
        assert decision.estimated_benefit > 0

    def test_negative_benefit_does_not_share(self):
        # Equation 10's setting: maintaining two propagated snapshots costs
        # more than re-processing the burst per query.
        stats = _stats(
            [
                QueryBurstProfile("q1", introduces_snapshots=True, expected_snapshots=1.0,
                                  predecessor_types=2),
                QueryBurstProfile("q2", introduces_snapshots=True, expected_snapshots=1.0,
                                  predecessor_types=2),
            ],
            burst_size=4, events_in_window=11, graphlet_size=8, snapshots_propagated=2,
        )
        decision = DynamicSharingOptimizer().decide(stats)
        assert not decision.share

    def test_single_query_never_shares(self):
        stats = _stats([QueryBurstProfile("q1", False)])
        decision = DynamicSharingOptimizer().decide(stats)
        assert not decision.share
        assert "fewer than two" in decision.reason

    def test_statistics_track_merges_and_splits(self):
        optimizer = DynamicSharingOptimizer()
        share_stats = _stats(
            [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        split_stats = _stats(
            [
                QueryBurstProfile("q1", True, expected_snapshots=40.0),
                QueryBurstProfile("q2", True, expected_snapshots=40.0),
            ],
            burst_size=2, events_in_window=5, graphlet_size=4,
        )
        assert optimizer.decide(share_stats).share
        assert not optimizer.decide(split_stats).share
        assert optimizer.decide(share_stats).share
        stats = optimizer.statistics
        assert stats.decisions == 3
        assert stats.shared_bursts == 2
        assert stats.splits == 1
        assert stats.merges == 1
        assert 0.0 < stats.shared_fraction < 1.0
        assert stats.decision_seconds >= 0.0

    def test_begin_partition_resets_merge_split_continuity(self):
        """A decision flip *across* partitions is neither a merge nor a split."""
        optimizer = DynamicSharingOptimizer()
        share_stats = _stats(
            [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        split_stats = _stats(
            [
                QueryBurstProfile("q1", True, expected_snapshots=40.0),
                QueryBurstProfile("q2", True, expected_snapshots=40.0),
            ],
            burst_size=2, events_in_window=5, graphlet_size=4,
        )
        assert optimizer.decide(share_stats).share
        optimizer.begin_partition()
        # The first burst of the new partition flips the decision, but there
        # is no shared graphlet to split in a fresh partition.
        assert not optimizer.decide(split_stats).share
        assert optimizer.statistics.splits == 0
        assert optimizer.statistics.merges == 0
        # Within the new partition the continuity applies again.
        assert optimizer.decide(share_stats).share
        assert optimizer.statistics.merges == 1

    def test_statistics_merge_folds_counters(self):
        first = DynamicSharingOptimizer()
        second = DynamicSharingOptimizer()
        share_stats = _stats(
            [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        first.decide(share_stats)
        second.decide(share_stats)
        second.decide(share_stats)
        merged = first.statistics
        merged.merge(second.statistics)
        assert merged.decisions == 3
        assert merged.shared_bursts == 3


class TestStaticOptimizers:
    def _two_query_stats(self):
        return _stats(
            [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )

    def test_always_share(self):
        decision = AlwaysShareOptimizer().decide(self._two_query_stats())
        assert decision.share
        assert decision.shared_queries == {"q1", "q2"}

    def test_never_share(self):
        decision = NeverShareOptimizer().decide(self._two_query_stats())
        assert not decision.share

    def test_static_plan_fixed_after_first_burst(self):
        optimizer = StaticPlanOptimizer()
        first = optimizer.decide(self._two_query_stats())
        assert first.share
        # Even a burst where sharing is clearly bad keeps the compile-time plan.
        bad_stats = _stats(
            [
                QueryBurstProfile("q1", True, expected_snapshots=100.0),
                QueryBurstProfile("q2", True, expected_snapshots=100.0),
            ],
            burst_size=2, events_in_window=5, graphlet_size=64, snapshots_propagated=5,
        )
        second = optimizer.decide(bad_stats)
        assert second.share
        assert "fixed" in second.reason

    def test_always_share_single_candidate(self):
        stats = _stats([QueryBurstProfile("q1", False)])
        assert not AlwaysShareOptimizer().decide(stats).share

    def test_static_plan_is_per_candidate_set_not_per_type(self):
        """Two independent candidate sets of one event type fix one plan each.

        The multi-window runtime consults the optimizer once per query
        class per burst; the first class's fixed plan must not be recycled
        (restricted to a disjoint candidate set => share=False forever) for
        every other class of the same type.
        """
        optimizer = StaticPlanOptimizer()
        first = optimizer.decide(self._two_query_stats())
        assert first.share and first.shared_queries == {"q1", "q2"}
        other_class = _stats(
            [QueryBurstProfile("q3", False), QueryBurstProfile("q4", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        second = optimizer.decide(other_class)
        assert second.share
        assert second.shared_queries == {"q3", "q4"}


class TestDecisionContinuityPerPlanKey:
    def test_interleaved_candidate_sets_do_not_fake_merges_or_splits(self):
        """Merge/split counters track each (type, candidate set) stream.

        One burst can carry several per-class decisions for the same event
        type; a class that stably shares interleaved with a class that
        stably does not share must record zero merges and zero splits —
        keyed by event type alone, every flush would count one of each.
        """
        optimizer = AlwaysShareOptimizer()
        sharing = _stats(
            [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)],
            burst_size=4, events_in_window=7, graphlet_size=4,
        )
        single = _stats([QueryBurstProfile("q3", False)])  # never shares (k=1)
        for _ in range(5):
            assert optimizer.decide(sharing).share
            assert not optimizer.decide(single).share
        assert optimizer.statistics.merges == 0
        assert optimizer.statistics.splits == 0
        assert optimizer.statistics.decisions == 10

    def test_real_transition_still_counts(self):
        optimizer = DynamicSharingOptimizer()
        profiles = [QueryBurstProfile("q1", False), QueryBurstProfile("q2", False)]
        good = _stats(profiles, burst_size=8, events_in_window=40, graphlet_size=8)
        bad = _stats(profiles, burst_size=1, events_in_window=1, graphlet_size=64,
                     graphlet_snapshots_needed=1)
        assert optimizer.decide(good).share
        assert not optimizer.decide(bad).share
        assert optimizer.decide(good).share
        assert optimizer.statistics.splits == 1
        assert optimizer.statistics.merges == 1
