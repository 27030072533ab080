"""Unit tests for aggregate functions and windows."""

from __future__ import annotations

import math

import pytest

from repro.errors import PatternError, WindowError
from repro.events import Event
from repro.query import (
    Window,
    avg,
    count_events,
    count_trends,
    max_of,
    min_of,
    parse_query,
    sum_of,
)
from repro.query.aggregates import AggregateFunction, AggregateKind


class TestAggregateFunctions:
    def test_constructors_and_describe(self):
        assert count_trends().describe() == "COUNT(*)"
        assert count_events("B").describe() == "COUNT(B)"
        assert sum_of("T", "duration").describe() == "SUM(T.duration)"
        assert avg("T", "speed").describe() == "AVG(T.speed)"
        assert min_of("T", "speed").describe() == "MIN(T.speed)"
        assert max_of("T", "speed").describe() == "MAX(T.speed)"

    def test_invalid_constructions(self):
        with pytest.raises(PatternError):
            AggregateFunction(AggregateKind.COUNT_TRENDS, event_type="B")
        with pytest.raises(PatternError):
            AggregateFunction(AggregateKind.COUNT_EVENTS)
        with pytest.raises(PatternError):
            AggregateFunction(AggregateKind.SUM, event_type="B")

    def test_contributions(self):
        travel = Event("T", 1.0, {"duration": 4.0})
        other = Event("R", 1.0, {"duration": 9.0})
        assert count_trends().contribution(travel) == 0.0
        assert count_events("T").contribution(travel) == 1.0
        assert count_events("T").contribution(other) == 0.0
        assert sum_of("T", "duration").contribution(travel) == 4.0
        assert sum_of("T", "duration").contribution(other) == 0.0
        assert min_of("T", "duration").candidate_value(travel) == 4.0
        assert min_of("T", "duration").candidate_value(other) is None
        assert sum_of("T", "duration").candidate_value(travel) is None

    def test_sharability_rules(self):
        assert count_trends().sharable_with(count_trends())
        assert not count_trends().sharable_with(count_events("B"))
        assert sum_of("B", "x").sharable_with(avg("B", "x"))
        assert sum_of("B", "x").sharable_with(count_events("B"))
        assert avg("B", "x").sharable_with(avg("B", "y"))
        assert min_of("B", "x").sharable_with(min_of("B", "x"))
        assert not min_of("B", "x").sharable_with(min_of("B", "y"))
        assert not min_of("B", "x").sharable_with(max_of("B", "x"))
        assert not min_of("B", "x").sharable_with(sum_of("B", "x"))

    def test_linearity(self):
        assert AggregateKind.COUNT_TRENDS.is_linear
        assert AggregateKind.AVG.is_linear
        assert not AggregateKind.MIN.is_linear
        assert not AggregateKind.MAX.is_linear


class TestWindows:
    def test_defaults_to_tumbling(self):
        window = Window(600.0)
        assert window.slide == 600.0
        assert window.is_tumbling

    def test_minutes_constructor(self):
        window = Window.minutes(10, 5)
        assert window.size == 600.0
        assert window.slide == 300.0
        assert not window.is_tumbling

    def test_invalid_windows(self):
        with pytest.raises(WindowError):
            Window(0.0)
        with pytest.raises(WindowError):
            Window(10.0, -1.0)
        with pytest.raises(WindowError):
            Window(10.0, 20.0)

    @pytest.mark.parametrize(
        "size, slide",
        [
            (math.nan, 0.0),
            (10.0, math.nan),
            (math.inf, 1.0),
            (math.inf, 0.0),
            (-math.inf, 1.0),
            (10.0, math.inf),
            (1e300, 1e-300),  # size / slide overflows
            (5.0, 5e-324),
            (10**400, 1.0),  # an int past the float range
        ],
    )
    def test_non_finite_or_degenerate_shapes_fail_at_construction(self, size, slide):
        with pytest.raises(WindowError):
            Window(size, slide)

    def test_the_largest_finite_shape_still_constructs(self):
        window = Window(1e300, 1e-7)
        assert math.isfinite(window.size / window.slide)

    def test_parser_rejects_a_within_past_the_float_range(self):
        # A 400-digit WITHIN parses to inf: rejected where the query is
        # built, not when the first event reaches covering_bounds.
        with pytest.raises(WindowError):
            parse_query("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN " + "9" * 400)

    def test_instances_covering(self):
        window = Window(10.0, 5.0)
        assert list(window.instances_covering(12.0)) == [(5.0, 15.0), (10.0, 20.0)]
        assert list(window.instances_covering(3.0)) == [(0.0, 10.0)]
        with pytest.raises(WindowError):
            list(window.instances_covering(-1.0))

    def test_tumbling_instances(self):
        window = Window(10.0)
        assert list(window.instances_covering(25.0)) == [(20.0, 30.0)]

    def test_boundary_belongs_to_next_window(self):
        window = Window(10.0, 5.0)
        instances = list(window.instances_covering(10.0))
        assert (0.0, 10.0) not in instances
        assert (5.0, 15.0) in instances
        assert (10.0, 20.0) in instances

    def test_instance_indices_are_integers(self):
        window = Window(10.0, 5.0)
        assert list(window.instance_indices_covering(12.0)) == [1, 2]
        assert list(window.instance_indices_covering(3.0)) == [0]
        assert window.instance_bounds(2) == (10.0, 20.0)
        assert window.instances_per_event == 2

    def test_fractional_slide_boundary_events(self):
        # 3 * 0.1 accumulates float error (0.30000000000000004); the integer
        # index arithmetic must still treat t=0.3 as the start of instance 3
        # and exclude instance 0 (whose half-open span [0, 0.3) just ended).
        window = Window(0.3, 0.1)
        assert list(window.instance_indices_covering(0.3)) == [1, 2, 3]
        assert window.instances_per_event == 3
        for k in range(20):
            # Every instance-start timestamp k*slide belongs to instance k.
            timestamp = k * 0.1
            assert list(window.instance_indices_covering(timestamp))[-1] == k

    def test_coverage_never_exceeds_instances_per_event(self):
        for window in (Window(0.3, 0.1), Window(10.0, 3.0), Window(7.0, 2.5)):
            for step in range(200):
                timestamp = step * 0.17
                indices = list(window.instance_indices_covering(timestamp))
                assert 1 <= len(indices) <= window.instances_per_event
                for k in indices:
                    assert k >= 0

    def test_both_edges_snap_consistently(self):
        # 0.7 - 0.4 == 0.29999999999999993: the upper edge snaps this to the
        # start of instance 3, so the lower edge must drop instance 0 — the
        # two are mutually exclusive ([0, 0.3) vs [0.3, 0.6)).  An unsnapped
        # lower edge used to return range(0, 4).
        window = Window(0.3, 0.1)
        timestamp = 0.7 - 0.4
        assert list(window.instance_indices_covering(timestamp)) == [1, 2, 3]

    @pytest.mark.parametrize("window", (Window(10.0, 2.0), Window(0.3, 0.1), Window(5.0, 2.5)))
    def test_end_after_is_the_smallest_instance_end_past_the_time(self, window):
        # Brute force over the instances around the time; 0.3-ish times land
        # a few ulps off an end, where the snapped covering range drops it.
        for timestamp in (0.0, 0.7 - 0.4, 0.6 - 0.3, 0.9999999999999999, 1.0, 5.5, 10.0, 29.9):
            low = max(0, math.floor(timestamp / window.slide) - 400)
            ends = (window.instance_bounds(index)[1] for index in range(low, low + 800))
            assert window.end_after(timestamp) == min(e for e in ends if e > timestamp)
