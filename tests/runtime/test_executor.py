"""Integration tests for the workload executor."""

from __future__ import annotations

import pytest

from repro.baselines import TwoStepEngine
from repro.core import HamletEngine
from repro.errors import WorkloadError
from repro.events import Event, EventStream
from repro.greta import GretaEngine
from repro.query import (
    Query,
    Window,
    Workload,
    count_trends,
    kleene,
    max_of,
    seq,
)
from repro.runtime import WorkloadExecutor, run_workload


def _stream() -> EventStream:
    events = []
    time = 0.0
    for window_index in range(2):
        for group in (1, 2):
            events.append(Event("A", time, {"g": group}))
            time += 1.0
            for _ in range(3):
                events.append(Event("B", time, {"g": group, "v": 2.0}))
                time += 1.0
        time = (window_index + 1) * 60.0
    events.sort()
    return EventStream(events)


def _workload() -> Workload:
    window = Window(60.0)
    return Workload(
        [
            Query.build(seq("A", kleene("B")), group_by=["g"], window=window, name="ex_q1"),
            Query.build(seq("C", kleene("B")), group_by=["g"], window=window, name="ex_q2"),
        ]
    )


class TestWorkloadExecutor:
    def test_hamlet_and_greta_agree_end_to_end(self):
        stream = _stream()
        workload = _workload()
        hamlet_report = WorkloadExecutor(workload, HamletEngine).run(stream)
        greta_report = WorkloadExecutor(workload, GretaEngine).run(stream)
        assert hamlet_report.totals == pytest.approx(greta_report.totals)
        # Two windows x two groups with events = 4 partitions per unit.
        assert hamlet_report.metrics.partitions == 4
        assert hamlet_report.metrics.stream_events == len(stream)
        # Per starter and window/group: 3 B events -> 2^3 - 1 = 7 trends; two
        # windows x two groups -> 28 in total for q1, 0 for q2 (no C events).
        assert hamlet_report.result_for("ex_q1") == 28.0
        assert hamlet_report.result_for("ex_q2") == 0.0

    def test_per_partition_results_exposed(self):
        report = run_workload(_workload(), _stream())
        per_partition = report.results_by_partition("ex_q1")
        assert len(per_partition) == 4
        assert all(value == 7.0 for value in per_partition.values())

    def test_min_max_queries_routed_to_greta(self):
        window = Window(60.0)
        workload = Workload(
            [
                Query.build(seq("A", kleene("B")), window=window, name="mm_q1"),
                Query.build(
                    seq("A", kleene("B")), aggregate=max_of("B", "v"), window=window, name="mm_q2"
                ),
            ]
        )
        stream = EventStream([Event("A", 0.0), Event("B", 1.0, {"v": 5.0}), Event("B", 2.0, {"v": 9.0})])
        report = WorkloadExecutor(workload, HamletEngine).run(stream)
        assert report.result_for("mm_q1") == 3.0
        assert report.result_for("mm_q2") == 9.0

    def test_decomposed_or_query_recombined(self):
        window = Window(60.0)
        or_query = Query.build(
            seq("A", kleene("B")) | seq("C", kleene("D")), window=window, name="or_q"
        )
        partner = Query.build(seq("Z", kleene("B")), window=window, name="or_partner")
        stream = EventStream(
            [Event("A", 0.0), Event("B", 1.0), Event("C", 2.0), Event("D", 3.0), Event("D", 4.0)]
        )
        report = WorkloadExecutor(Workload([or_query, partner]), HamletEngine).run(stream)
        # Left branch: 1 trend (a,b); right branch: 3 trends (c,d1),(c,d2),(c,d1,d2).
        assert report.result_for("or_q") == 4.0

    def test_or_query_with_only_one_matching_branch(self):
        """A stream matching only one OR branch: the absent branch enters the
        recombination as an explicit 0.0, not a dropped operand."""
        window = Window(60.0)
        or_query = Query.build(
            seq("A", kleene("B")) | seq("C", kleene("D")), window=window, name="or_half_q"
        )
        stream = EventStream([Event("A", 0.0), Event("B", 1.0), Event("B", 2.0)])
        report = WorkloadExecutor(Workload([or_query]), HamletEngine).run(stream)
        # Left branch alone: trends (a,b1), (a,b2), (a,b1,b2).
        assert report.result_for("or_half_q") == 3.0

    def test_and_query_sub_results_joined_across_units(self):
        """AND sub-queries are type-disjoint, hence evaluated in *different*
        execution units; their per-window results must be joined by partition
        key before multiplying, and a window where one operand is absent must
        contribute 0 — not a partial product."""
        window = Window(60.0)
        and_query = Query.build(
            seq("A", kleene("B")) & seq("C", kleene("D")), window=window, name="and_q"
        )
        both = EventStream(
            [Event("A", 0.0), Event("B", 1.0), Event("C", 2.0), Event("D", 3.0), Event("D", 4.0)]
        )
        report = WorkloadExecutor(Workload([and_query]), HamletEngine).run(both)
        # 1 left trend x 3 right trends.
        assert report.result_for("and_q") == 3.0
        # Only the left branch matches: the conjunction has no matches.
        left_only = EventStream([Event("A", 0.0), Event("B", 1.0), Event("B", 2.0)])
        report = WorkloadExecutor(Workload([and_query]), HamletEngine).run(left_only)
        assert report.result_for("and_q") == 0.0
        # Branches matching in *different* windows only must not be joined.
        disjoint_windows = EventStream(
            [Event("A", 0.0), Event("B", 1.0), Event("C", 70.0), Event("D", 71.0)]
        )
        report = WorkloadExecutor(Workload([and_query]), HamletEngine).run(disjoint_windows)
        assert report.result_for("and_q") == 0.0

    def test_different_windows_run_in_separate_units(self):
        workload = Workload(
            [
                Query.build(seq("A", kleene("B")), window=Window(60.0), name="w_q1"),
                Query.build(seq("A", kleene("B")), window=Window(120.0), name="w_q2"),
            ]
        )
        stream = EventStream([Event("A", 0.0), Event("B", 10.0), Event("B", 70.0)])
        report = WorkloadExecutor(workload, HamletEngine).run(stream)
        # w_q1 windows [0,60) and [60,120): 1 + 0 trends; w_q2 window [0,120): 3 trends.
        assert report.result_for("w_q1") == 1.0
        assert report.result_for("w_q2") == 3.0

    def test_engine_factory_pluggable(self):
        report = WorkloadExecutor(_workload(), TwoStepEngine).run(_stream())
        assert report.result_for("ex_q1") == 28.0
        assert report.engine_name == "two-step"

    def test_optimizer_statistics_attached_for_hamlet(self):
        report = WorkloadExecutor(_workload(), HamletEngine).run(_stream())
        assert report.optimizer_statistics is not None
        assert report.optimizer_statistics.decisions >= 1

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadExecutor(Workload())

    def test_empty_stream(self):
        report = WorkloadExecutor(_workload(), HamletEngine).run(EventStream())
        assert report.totals == {}
        assert report.metrics.partitions == 0
