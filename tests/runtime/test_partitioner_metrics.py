"""Unit tests for stream partitioning and execution metrics."""

from __future__ import annotations

import pytest

from repro.bench.workloads import kleene_sharing_workload
from repro.events import Event
from repro.events.block import EventBlock
from repro.events.event import GROUP_NAN, collapse_nan, group_key
from repro.greta import GretaEngine
from repro.query import Query, Window, kleene, seq
from repro.runtime import (
    ExecutionMetrics,
    GroupWindowPartitioner,
    Stopwatch,
    StreamingExecutor,
    WorkloadExecutor,
    run_sharded,
    run_streaming,
)
from repro.runtime.partitioner import PartitionSpec, group_sort_key


class TestPartitioner:
    def test_group_and_window_routing(self):
        q = Query.build(
            seq("A", kleene("B")), group_by=["g"], window=Window(10.0, 5.0), name="pt_q1"
        )
        partitioner = GroupWindowPartitioner.for_queries([q])
        partitioner.add_all(
            [
                Event("A", 1.0, {"g": 1}),
                Event("B", 2.0, {"g": 1}),
                Event("B", 2.5, {"g": 2}),
                Event("B", 7.0, {"g": 1}),
            ]
        )
        partitions = dict(partitioner.partitions())
        # Event at t=7 with a 10s/5s sliding window belongs to instances 0 and 1;
        # partitions are keyed by the integer instance index.
        assert ((1,), 0) in partitions
        assert ((1,), 1) in partitions
        assert ((2,), 0) in partitions
        assert len(partitions[((1,), 0)]) == 3
        assert len(partitions[((1,), 1)]) == 1
        assert partitioner.routed_event_count() == 5
        assert partitioner.partition_count() == 3
        assert partitioner.window_start(((1,), 1)) == 5.0

    def test_no_group_by(self):
        spec = PartitionSpec(group_by=(), window=Window(10.0))
        partitioner = GroupWindowPartitioner(spec)
        partitioner.add(Event("A", 3.0, {"g": 9}))
        ((key, index), events), = partitioner.partitions()
        assert key == ()
        assert index == 0
        assert len(events) == 1

    def test_partitions_sorted_by_window_instance(self):
        spec = PartitionSpec(group_by=(), window=Window(10.0))
        partitioner = GroupWindowPartitioner(spec)
        partitioner.add(Event("A", 25.0))
        partitioner.add(Event("A", 3.0))
        indices = [index for (_, index), _ in partitioner.partitions()]
        assert indices == sorted(indices)

    def test_incremental_route_stores_nothing(self):
        q = Query.build(seq("A", kleene("B")), window=Window(10.0, 5.0), name="pt_q2")
        partitioner = GroupWindowPartitioner.for_queries([q])
        assert list(partitioner.route(Event("A", 7.0))) == [((), 0), ((), 1)]
        assert partitioner.partition_count() == 0

    def test_group_keys_sort_numerically_not_by_repr(self):
        # repr-sorting ordered 10 before 2; the type-tagged total order must
        # sort numbers numerically.  The same key orders the streaming
        # executor's sweeps and the sharded driver's cross-shard merge.
        q = Query.build(
            seq("A", kleene("B")), group_by=["g"], window=Window(10.0), name="pt_q4"
        )
        partitioner = GroupWindowPartitioner.for_queries([q])
        for g in (10, 2, 1, 30):
            partitioner.add(Event("A", 1.0, {"g": g}))
        keys = [key for (key, _), _ in partitioner.partitions()]
        assert keys == [(1,), (2,), (10,), (30,)]

    def test_group_sort_key_totally_orders_mixed_types(self):
        values = [(10,), (2,), ("b",), ("a",), (None,), (2.5,), (True,), ((1, "x"),)]
        ordered = sorted(values, key=group_sort_key)
        assert ordered == [(None,), (True,), (2,), (2.5,), (10,), ("a",), ("b",), ((1, "x"),)]
        # Equal-valued int/float keys stay adjacent but deterministic.
        assert sorted([(1.0,), (1,)], key=group_sort_key) == [(1,), (1.0,)]

    def test_group_sort_key_survives_huge_ints_and_non_finite_floats(self):
        # float(10**400) overflows; NaN comparisons are neither < nor > and
        # would make sorted() output depend on input order.  Both must still
        # produce one deterministic total order.
        huge = [(10**400,), (2,), (-(10**400),), (10**400 + 1,)]
        assert sorted(huge, key=group_sort_key) == [
            (-(10**400),),
            (2,),
            (10**400,),
            (10**400 + 1,),
        ]
        nan = float("nan")
        mixed = [(nan,), (5.0,), (float("inf"),), (1.0,), (float("-inf"),)]
        first = sorted(mixed, key=group_sort_key)
        second = sorted(list(reversed(mixed)), key=group_sort_key)
        assert first == second  # order-independent, hence total

    def test_group_sort_key_mixed_numbers_compare_exactly(self):
        # The finite-number bucket compares raw values: CPython's mixed
        # int/float comparison is exact, so ints one past the 2**53 float
        # precision limit order strictly — a lossy float() conversion would
        # collapse them onto their neighbors.
        near = [(2**53 + 1,), (float(2**53),), (2**53 - 1,), (2**53,)]
        assert sorted(near, key=group_sort_key) == [
            (2**53 - 1,),
            (2**53,),
            (float(2**53),),
            (2**53 + 1,),
        ]
        # Equal int/float values tie-break on repr, deterministically.
        assert sorted([(0.5,), (1,), (0,)], key=group_sort_key) == [(0,), (0.5,), (1,)]

    def test_fractional_slide_keys_are_exact_integers(self):
        # 3 * 0.1 == 0.30000000000000004: float starts misassigned boundary
        # events and made keys unequal across units; integer indices cannot.
        q = Query.build(seq("A", kleene("B")), window=Window(0.3, 0.1), name="pt_q3")
        partitioner = GroupWindowPartitioner.for_queries([q])
        keys = list(partitioner.route(Event("A", 0.3)))
        assert keys == [((), 1), ((), 2), ((), 3)]


class TestMetrics:
    def test_record_and_derive(self):
        metrics = ExecutionMetrics()
        metrics.record_partition(seconds=0.5, events=100, memory_units=40, operations=10)
        metrics.record_partition(seconds=1.5, events=300, memory_units=25, operations=20)
        assert metrics.partitions == 2
        assert metrics.total_seconds == pytest.approx(2.0)
        assert metrics.average_latency == pytest.approx(1.0)
        assert metrics.max_latency == pytest.approx(1.5)
        assert metrics.throughput_engine == pytest.approx(200.0)
        assert metrics.peak_memory_units == 40
        assert metrics.operations == 30

    def test_empty_metrics(self):
        metrics = ExecutionMetrics()
        assert metrics.average_latency == 0.0
        assert metrics.throughput_engine == 0.0
        assert metrics.max_latency == 0.0

    def test_merge(self):
        first = ExecutionMetrics()
        first.record_partition(10, 5, 1, seconds=1.0)
        second = ExecutionMetrics()
        second.record_partition(20, 50, 2, seconds=2.0)
        first.merge(second)
        assert first.partitions == 2
        assert first.peak_memory_units == 50
        assert first.events_processed == 30

    def test_wall_clock_throughput_is_distinct_from_engine_throughput(self):
        metrics = ExecutionMetrics()
        # 4 engine-seconds of work (e.g. 4 parallel shards x 1s each) that
        # elapsed in 1 wall second over 100 distinct stream events.
        metrics.record_partition(seconds=4.0, events=400, memory_units=1, operations=4)
        metrics.stream_events = 100
        metrics.wall_seconds = 1.0
        assert metrics.throughput_engine == pytest.approx(100.0)
        assert not hasattr(metrics, "throughput")  # one name per meaning
        # Wall-clock throughput divides distinct events by elapsed time;
        # summed engine seconds would hide the parallelism entirely.
        assert metrics.throughput_wall == pytest.approx(100.0)
        assert ExecutionMetrics().throughput_wall == 0.0

    def test_merge_takes_max_wall_seconds(self):
        first = ExecutionMetrics()
        first.wall_seconds = 2.0
        second = ExecutionMetrics()
        second.wall_seconds = 3.0
        first.merge(second)
        # Concurrent shards elapse together: the merged wall clock is the
        # slowest member, never the sum.
        assert first.wall_seconds == 3.0

    def test_stopwatch(self):
        with Stopwatch() as watch:
            sum(range(1000))
        assert watch.elapsed >= 0.0


class TestStreamingPeakMemoryAccounting:
    """Peak memory counts live state once, not once per overlapping instance.

    Overlapping window instances of the same ``(unit, group)`` pair hold
    copies of the same event suffix; the streaming sample must not multiply
    that state by the overlap factor (BENCH_PR2 reported streaming_greta at
    9300 units against 460 for batch over identical state).
    """

    WINDOW = Window(10.0, 2.0)  # overlap factor 5

    def _queries(self):
        return [
            Query.build(seq("A", kleene("B")), window=self.WINDOW, name="mm_q1"),
            Query.build(seq("C", kleene("B")), window=self.WINDOW, name="mm_q2"),
        ]

    def _events(self, count=300):
        return [
            Event("A" if t % 9 == 0 else ("C" if t % 9 == 4 else "B"), float(t))
            for t in range(count)
        ]

    def test_per_instance_sample_dedupes_overlapping_instances(self):
        events = self._events()
        batch = WorkloadExecutor(self._queries(), GretaEngine).run(events)
        streaming = run_streaming(self._queries(), events, GretaEngine, shared_windows=False)
        # A lazy instance replays a suffix of its batch partition, so the
        # deduplicated concurrent sample can never exceed the batch peak —
        # with the old per-instance sum it was ~overlap-factor times larger.
        assert 0 < streaming.metrics.peak_memory_units <= batch.metrics.peak_memory_units

    def test_shared_windows_hold_state_once(self):
        events = self._events()
        batch = WorkloadExecutor(self._queries(), GretaEngine).run(events)
        shared = StreamingExecutor(self._queries(), GretaEngine).run(events)
        # The shared engine keeps per-window coefficients instead of
        # duplicated graphs; its footprint stays within the batch peak of a
        # single partition as well.
        assert 0 < shared.metrics.peak_memory_units <= batch.metrics.peak_memory_units


class TestNanGroupKeys:
    """A NaN group-by value is one group on every path, as in SQL.

    ``nan != nan`` and a NaN hashes by identity, so a stream whose NaN
    values are distinct float objects — every decoded stream — used to
    scatter one group over as many groups as it has rows, and the Kleene
    counts that need a prefix and its continuation in one group read 0.
    """

    @staticmethod
    def _workload():
        return kleene_sharing_workload(
            2,
            kleene_type="Travel",
            prefix_types=("Surge",),
            window=Window(10.0, 5.0),
            group_by=("district",),
            name="q",
        )

    @staticmethod
    def _events(district):
        return [
            Event(kind, float(time), {"district": district()}, sequence=time)
            for time, kind in enumerate(("Surge", "Travel", "Travel"))
        ]

    def test_group_key_collapses_every_float_nan_to_one_object(self):
        first, second = float("nan"), float("nan")
        assert first is not second
        keys = [group_key(Event("A", 0.0, {"d": value, "s": "x"}), ("d", "s"))
                for value in (first, second)]
        assert keys[0][0] is keys[1][0] is GROUP_NAN and keys[0] == keys[1]
        assert len({keys[0], keys[1]}) == 1
        plain = Event("A", 0.0, {"d": 3.0, "s": "x"})
        assert group_key(plain, ("d", "s")) == (3.0, "x") and group_key(plain, ()) == ()
        column = [1.0, first, 2, None, second, "n"]
        collapsed = collapse_nan(column)
        assert collapsed[1] is collapsed[4] is GROUP_NAN
        assert [collapsed[i] for i in (0, 2, 3, 5)] == [1.0, 2, None, "n"]
        clean = [1.0, float("inf"), float("-inf"), 10**400]
        assert collapse_nan(clean) is clean and collapse_nan(["a", None]) == ["a", None]

    def test_block_group_codes_collapse_nan(self):
        built = EventBlock.from_events(self._events(lambda: float("nan")))
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            table, codes = block.group_codes(("district",))
            assert list(codes) == [0, 0, 0] and table == ((GROUP_NAN,),)
            assert table[0][0] is GROUP_NAN
            assert block.payload_column("district")[0] is not GROUP_NAN  # values untouched

    @pytest.mark.parametrize(
        "path", ("scalar", "block", "per-instance", "per-instance-block", "sharded")
    )
    def test_nan_is_one_group_on_every_path(self, path):
        workload = self._workload()
        expected = run_streaming(workload, self._events(lambda: 3.0)).totals
        assert expected == {"q-q1": 3.0, "q-q2": 3.0}
        events = self._events(lambda: float("nan"))
        block = EventBlock.from_bytes(EventBlock.from_events(events).to_bytes())
        if path == "scalar":
            report = run_streaming(workload, events)
        elif path == "block":
            report = run_streaming(workload, block)
        elif path == "per-instance":
            report = run_streaming(workload, events, shared_windows=False)
        elif path == "per-instance-block":
            report = run_streaming(workload, block, shared_windows=False)
        else:
            report = run_sharded(workload, block, workers=0, shards=2)
        assert report.totals == expected
        assert {row.group_key for row in report.partition_results} == {(GROUP_NAN,)}

    def test_nan_is_one_group_across_worker_processes(self, hard_deadline):
        events = self._events(lambda: float("nan"))
        report = run_sharded(self._workload(), events, workers=2, batch_size=1)
        assert report.totals == {"q-q1": 3.0, "q-q2": 3.0}
        assert len({(row.group_key, row.window_index) for row in report.partition_results}) == len(
            report.partition_results
        )
