"""Sharded runtime: router determinism, batch codec, failure propagation.

The bit-identical equivalence of sharded execution against the
single-process streaming executor and the batch replay lives in
``test_streaming_equivalence.py``; this module covers the sharding
machinery itself.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HamletEngine
from repro.errors import ExecutionError
from repro.events import Event, EventBlock
from repro.optimizer import DynamicSharingOptimizer
from repro.query import Query, Window, avg, kleene, parse_pattern, seq, sum_of
from repro.runtime import (
    ShardRouter,
    ShardedStreamingExecutor,
    run_sharded,
    run_streaming,
)
from repro.runtime.sharding import stable_shard_hash

WINDOW = Window(16.0, 4.0)


def grouped_queries(window: Window = WINDOW) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="shq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=window, name="shq2"),
        Query.build(
            parse_pattern("SEQ(A, NOT X, B+)"), group_by=("g",), window=window, name="shq3"
        ),
    ]


def ungrouped_queries(window: Window = WINDOW) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), window=window, name="unq1"),
        Query.build(seq("C", kleene("D")), window=window, name="unq2"),
    ]


def _grouped_by_h() -> Query:
    return Query.build(seq("C", kleene("D")), group_by=("h",), window=WINDOW, name="hq")


def make_events(seed: int, size: int, groups: int = 6) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for index in range(size):
        type_name = rng.choices(("A", "B", "C", "D", "X"), weights=(1, 3, 1, 1, 0.2))[0]
        events.append(
            Event(
                type_name,
                float(index),
                {"v": float(rng.randint(0, 5)), "g": float(rng.randint(1, groups))},
            )
        )
    return events


class TestWireBatch:
    def test_round_trip_preserves_events_exactly(self):
        events = make_events(1, 200)
        decoded = EventBlock.from_events(events).to_events()
        assert decoded == events
        for original, copy in zip(events, decoded):
            assert copy.event_type == original.event_type
            assert copy.time == original.time
            assert copy.payload == original.payload
            # The (time, sequence) total order must survive the boundary.
            assert copy.sequence == original.sequence

    def test_byte_codec_round_trip(self):
        events = make_events(2, 64)
        batch = EventBlock.from_events(events)
        assert EventBlock.from_bytes(batch.to_bytes()).to_events() == events

    def test_interning_tables_stay_small(self):
        events = make_events(3, 500)
        batch = EventBlock.from_bytes(EventBlock.from_events(events).to_bytes())
        assert len(batch) == 500
        # 5 event types and one payload-key shape cross the boundary once.
        assert len(batch.event_types) <= 5
        assert len(batch.key_table) == 1

    def test_empty_batch(self):
        batch = EventBlock.from_bytes(EventBlock.from_events([]).to_bytes())
        assert len(batch) == 0 and not batch
        assert batch.to_events() == []


# --------------------------------------------------------------------- #
# Hypothesis round-trip fuzz for the wire codec
# --------------------------------------------------------------------- #
#: Payload values the codec must carry verbatim: numbers (ints beyond
#: 2**53, bools, finite floats), unicode text, None, and nested numeric
#: tuples.  NaN is excluded because NaN != NaN would fail any equality
#: check, not because the codec mishandles it.
_scalar_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)
_payload_values = st.one_of(
    _scalar_values,
    st.tuples(_scalar_values, _scalar_values),
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=3).map(tuple),
)
_payloads = st.dictionaries(st.text(max_size=16), _payload_values, max_size=5)


@st.composite
def _fuzz_events(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    events = []
    clock = 0.0
    for _ in range(count):
        clock += draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        events.append(
            Event(
                draw(st.text(min_size=1, max_size=8)),
                clock,
                draw(_payloads),
            )
        )
    return events


class TestWireBatchFuzz:
    """Property: encode/decode is the identity on arbitrary event chunks.

    The columnar body carries the strategy through its typed-column
    classification (f64 / i64 / bool columns with the object-pickle
    fallback for big ints, None, strings and nested tuples) — mixed dtypes
    under one key, unicode keys and ints beyond 2**63 all land in the
    fallback column and must still round-trip exactly.
    """

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(events=_fuzz_events())
    def test_round_trip_is_identity(self, events):
        for decoded in (
            EventBlock.from_events(events).to_events(),
            EventBlock.from_bytes(EventBlock.from_events(events).to_bytes()).to_events(),
        ):
            assert decoded == events  # (type, time, sequence) equality
            for original, copy in zip(events, decoded):
                # Event.__eq__ ignores the payload; compare it explicitly,
                # and key *order* too — interning is by exact key shape.
                assert copy.payload == original.payload
                assert tuple(copy.payload) == tuple(original.payload)
                assert copy.sequence == original.sequence
                assert copy.time == original.time
                for value, copied in zip(
                    original.payload.values(), copy.payload.values()
                ):
                    # Exact-type classification: 4 must not come back 4.0.
                    assert type(copied) is type(value)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(events=_fuzz_events())
    def test_interning_never_conflates_payload_shapes(self, events):
        batch = EventBlock.from_events(events)
        assert len(batch) == len(events)
        assert set(batch.event_types) == {event.event_type for event in events}
        # Key tuples are interned by exact shape: decoding must reproduce
        # each payload's key *order*, not just its mapping.
        for original, copy in zip(events, batch):
            assert tuple(copy.payload) == tuple(original.payload)


#: Whole columns at the edges of the dtype choice: uniform ones, the int64
#: boundaries, one value that breaks a typed column (an int outside i64, a
#: bool among ints, an int among floats), and the empty column.
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_edge_columns = st.one_of(
    st.just([]),
    st.lists(st.floats(allow_nan=False, width=64), max_size=12),
    st.lists(_i64, max_size=12),
    st.lists(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]), min_size=1, max_size=6),
    st.lists(st.booleans(), max_size=12),
    st.tuples(st.lists(_i64, max_size=6), st.sampled_from([2**63, -(2**63) - 1, 2**70])).map(
        lambda pair: pair[0] + [pair[1]]
    ),
    st.tuples(st.lists(_i64, min_size=1, max_size=6), st.booleans()).map(
        lambda pair: pair[0] + [pair[1]]
    ),
    st.tuples(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6), _i64).map(
        lambda pair: [pair[1]] + pair[0]
    ),
    st.lists(_scalar_values, max_size=8),
)


def _scanned_tag(values) -> bytes:
    """The dtype rule, one value at a time (the scan the codec once ran)."""
    tags = set()
    for value in values:
        if type(value) is float:
            tags.add(b"d")
        elif type(value) is int and -(2**63) <= value <= 2**63 - 1:
            tags.add(b"q")
        elif type(value) is bool:
            tags.add(b"b")
        else:
            tags.add(b"O")
    return tags.pop() if len(tags) == 1 else (b"O" if tags else b"d")


class TestColumnDtypeFuzz:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(values=_edge_columns)
    def test_column_tag_and_round_trip(self, values):
        from repro.events import columnar

        out = b"".join(columnar._column_parts(values))
        tag = bytes(out[:1])
        assert tag == _scanned_tag(values)
        decoded, offset = columnar._decode_column(memoryview(out), 0, len(values))
        assert offset == len(out)
        # The typed contract: f64/i64 columns stay typed arrays, bool and
        # object columns are lists.
        if tag in (b"d", b"q"):
            assert isinstance(decoded, array) and decoded.typecode == tag.decode()
        else:
            assert type(decoded) is list
        assert list(decoded) == values
        assert [type(v) for v in decoded] == [type(v) for v in values]
        # -0.0 == 0.0: the f64 column must keep the sign bit too.
        assert [str(v) for v in decoded] == [str(v) for v in values]
        # ... and a decoded column encodes back to the very same bytes.
        assert b"".join(columnar._column_parts(decoded)) == out


class TestShardRouter:
    def test_group_routing_is_deterministic_across_router_instances(self):
        events = make_events(4, 300)
        first = ShardRouter(grouped_queries(), 4)
        second = ShardRouter(grouped_queries(), 4)
        assert first.mode == "group"
        assert [first.route(event) for event in events] == [
            second.route(event) for event in events
        ]

    def test_group_routing_is_a_pure_function_of_the_group_key(self):
        router = ShardRouter(grouped_queries(), 4)
        events = make_events(5, 300)
        shard_of_group: dict[tuple, int] = {}
        for event in events:
            routed = router.route(event)
            if not routed:
                continue
            (shard,) = routed
            key = (event.get("g"),)
            assert shard == shard_of_group.setdefault(key, shard)
            assert shard == stable_shard_hash(key) % router.shards

    def test_equal_comparing_keys_route_to_one_shard(self):
        # Partitions are dicts keyed by group tuples, where 4 == 4.0 == ...
        # land in ONE partition; hashing their reprs would split it across
        # shards.  True == 1 likewise.
        for shards in (2, 3, 4, 7):
            assert (
                stable_shard_hash((4,)) % shards
                == stable_shard_hash((4.0,)) % shards
            )
            assert (
                stable_shard_hash((True,)) % shards
                == stable_shard_hash((1,)) % shards
                == stable_shard_hash((1.0,)) % shards
            )
        # ...but the string "None" is not the value None.
        assert stable_shard_hash((None,)) != stable_shard_hash(("None",))
        # Exotic numerics that compare equal as dict keys hash alike too.
        from decimal import Decimal
        from fractions import Fraction

        assert stable_shard_hash((Decimal("4"),)) == stable_shard_hash((4,))
        assert stable_shard_hash((Fraction(4),)) == stable_shard_hash((4.0,))
        assert stable_shard_hash((complex(4, 0),)) == stable_shard_hash((4,))

    def test_mixed_numeric_group_keys_match_single_process(self):
        # Regression: events carrying g=4 (int) and g=4.0 (float) form one
        # partition; sharded execution must not straddle it.
        queries = grouped_queries()
        events = [
            Event("A", 0.0, {"g": 4}),
            Event("B", 1.0, {"g": 4.0}),
            Event("B", 2.0, {"g": 4.0}),
            Event("A", 3.0, {"g": True}),
            Event("B", 4.0, {"g": 1}),
        ]
        single = run_streaming(queries, events)
        for shards in (2, 3):
            sharded = run_sharded(queries, events, workers=0, shards=shards)
            assert sharded.totals == single.totals

    def test_stable_hash_spreads_small_numeric_keys(self):
        shards = {stable_shard_hash((float(g),)) % 4 for g in range(1, 9)}
        assert len(shards) >= 2  # 8 keys must not collapse onto one shard

    def test_irrelevant_event_types_are_dropped(self):
        router = ShardRouter(grouped_queries(), 2)
        assert router.route(Event("Unrelated", 0.0, {"g": 1.0})) == ()

    def test_ungrouped_workload_falls_back_to_unit_routing(self):
        router = ShardRouter(ungrouped_queries(), 2)
        assert router.mode == "unit"
        # The two queries share no execution unit, so they split 1/1 and
        # every event goes only to the shard(s) referencing its type.
        all_names = {
            query.name for shard in range(router.shards) for query in router.shard_queries(shard)
        }
        assert all_names == {"unq1", "unq2"}
        for event_type in ("A", "B", "C", "D"):
            routed = router.route(Event(event_type, 0.0))
            assert len(routed) == 1

    def test_unit_routing_keeps_sharing_units_together(self):
        # shq1..shq3 share the Kleene B+ sub-pattern, the window and the
        # GROUP BY, so they form one execution unit; the ungrouped unq2
        # leaves no common GROUP BY, and unit routing must keep the unit
        # co-located.
        router = ShardRouter([*grouped_queries(), ungrouped_queries()[1]], 4)
        assert router.mode == "unit" and router.shards == 2
        placement = [
            {query.name for query in router.shard_queries(shard)} for shard in range(2)
        ]
        assert placement == [{"shq1", "shq2", "shq3"}, {"unq2"}]

    @pytest.mark.parametrize(
        "queries, mode",
        (
            (grouped_queries(), "group"),
            ([*grouped_queries(), ungrouped_queries()[1]], "unit"),
            ([grouped_queries()[0], _grouped_by_h()], "unit"),
            (ungrouped_queries(), "unit"),
        ),
        ids=("common-group-by", "grouped-and-ungrouped", "two-group-bys", "no-group-by"),
    )
    def test_the_workload_decides_the_routing_mode(self, queries, mode):
        """Group hashing needs one non-empty GROUP BY on every query; any
        other workload is sharded by execution unit, without an error."""
        router = ShardRouter(queries, 2)
        assert router.mode == ShardedStreamingExecutor(queries, shards=2).routing_mode == mode
        if mode == "group":
            assert router.shards == 2 and router.shard_queries(0) == router.shard_queries(1)

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ExecutionError):
            ShardRouter(grouped_queries(), 0)


class TestShardedStreamingExecutor:
    def test_partitions_never_straddle_shards(self):
        events = make_events(6, 400)
        executor = ShardedStreamingExecutor(grouped_queries(), workers=0, shards=3)
        report = executor.run(events)
        owner: dict[tuple, int] = {}
        for shard in report.shards:
            for partition in shard.report.partition_results:
                key = (partition.group_key, partition.window_index)
                assert owner.setdefault(key, shard.shard_id) == shard.shard_id

    def test_shard_reports_account_for_all_routed_events(self):
        events = make_events(7, 300)
        executor = ShardedStreamingExecutor(grouped_queries(), workers=0, shards=3)
        for event in events:
            executor.process(event)
        # Live introspection reflects the in-flight run; finish() resets it.
        live_counts = executor.shard_event_counts
        report = executor.finish()
        assert report.metrics.stream_events == len(events)
        assert live_counts == tuple(s.events for s in report.shards)
        assert executor.shard_event_counts == (0, 0, 0)
        # The grouped workload references A, B, C and (under NOT) X; D events
        # are dropped at the router and reach no shard.
        relevant = sum(1 for e in events if e.event_type in ("A", "B", "C", "X"))
        assert sum(s.events for s in report.shards) == relevant

    def test_merged_partition_order_is_shard_count_invariant(self):
        events = make_events(8, 400)
        keys = None
        for shards in (1, 2, 4):
            report = run_sharded(grouped_queries(), events, workers=0, shards=shards)
            ordered = [(p.group_key, p.window_index) for p in report.partition_results]
            if keys is None:
                keys = ordered
            assert ordered == keys

    def test_concurrent_gauges_sum_across_shards(self):
        events = make_events(14, 300)
        report = run_sharded(grouped_queries(), events, workers=0, shards=3)
        # Shards hold their peaks concurrently: the merged report sums them
        # (merge()'s max would hide all but the largest shard).
        assert report.metrics.peak_memory_units == sum(
            s.report.metrics.peak_memory_units for s in report.shards
        )
        assert report.metrics.peak_active_windows == sum(
            s.report.metrics.peak_active_windows for s in report.shards
        )

    def test_wall_clock_metrics_populated(self):
        events = make_events(9, 200)
        report = run_sharded(grouped_queries(), events, workers=0, shards=2)
        assert report.metrics.wall_seconds > 0.0
        assert report.metrics.throughput_wall > 0.0

    def test_on_window_requires_in_process_mode(self):
        with pytest.raises(ExecutionError):
            ShardedStreamingExecutor(
                grouped_queries(), workers=2, on_window=lambda result: None
            )

    def test_shards_param_conflicts_with_workers(self):
        with pytest.raises(ExecutionError):
            ShardedStreamingExecutor(grouped_queries(), workers=2, shards=4)

    def test_incremental_reuse_starts_a_fresh_run(self):
        # finish() must reset the driver completely: a second
        # process()/finish() cycle is a new run (fresh clock and counters),
        # matching StreamingExecutor's incremental contract.
        executor = ShardedStreamingExecutor(grouped_queries(), workers=0, shards=2)
        executor.process(Event("A", 5.0, {"g": 1.0}))
        first = executor.finish()
        assert first.metrics.stream_events == 1
        executor.process(Event("A", 1.0, {"g": 1.0}))  # earlier time: new run
        executor.process(Event("B", 2.0, {"g": 1.0}))
        second = executor.finish()
        assert second.metrics.stream_events == 2
        assert sum(s.events for s in second.shards) == 2

    def test_out_of_order_events_rejected(self):
        executor = ShardedStreamingExecutor(grouped_queries(), workers=0)
        executor.process(Event("A", 5.0, {"g": 1.0}))
        with pytest.raises(ExecutionError):
            executor.process(Event("A", 1.0, {"g": 1.0}))

    def test_in_process_on_window_callback_fires(self):
        events = make_events(10, 200)
        seen: list[tuple] = []
        executor = ShardedStreamingExecutor(
            grouped_queries(),
            workers=0,
            shards=2,
            on_window=lambda result: seen.append((result.group_key, result.window_index)),
        )
        report = executor.run(events)
        assert len(seen) == report.metrics.partitions


def multi_aggregate_queries(window: Window = WINDOW) -> list[Query]:
    """One 2-member query class: gives the adaptive optimizer work to do.

    SUM and AVG are mutually sharable (AVG = SUM / COUNT); COUNT(*) would
    not be (it only shares with COUNT(*), Definition 5) and would fall into
    its own singleton class.
    """
    return [
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=window,
            name="maq1",
        ),
        Query.build(
            seq("A", kleene("B")),
            aggregate=avg("B", "v"),
            group_by=("g",),
            window=window,
            name="maq2",
        ),
    ]


class TestOptimizerStatisticsMerge:
    """The merged report must never drop per-shard optimizer statistics.

    Counters (decisions, shared/non-shared bursts, merges, splits) are
    shard-count invariant by construction — bursts are segmented per
    ``(group, unit)`` stream and every such stream lives wholly inside one
    shard — so the driver's merge is pinned against the single-process
    numbers, for both the adaptive shared-window path and the per-instance
    fallback path (whose engines run their own optimizers).
    """

    @staticmethod
    def counters(statistics):
        assert statistics is not None
        return (
            statistics.decisions,
            statistics.shared_bursts,
            statistics.non_shared_bursts,
            statistics.merges,
            statistics.splits,
        )

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_adaptive_shared_path_statistics_survive_the_merge(self, shards):
        events = make_events(11, 300)
        queries = multi_aggregate_queries()
        factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
        single = run_streaming(queries, events, factory, optimizer="dynamic")
        sharded = run_sharded(
            queries, events, factory, workers=0, shards=shards, optimizer="dynamic"
        )
        assert self.counters(sharded.optimizer_statistics) == self.counters(
            single.optimizer_statistics
        )
        assert sharded.optimizer_statistics.decisions > 0
        # Per-shard statistics stay readable on the shard sub-reports, and
        # the merged counters are exactly their sum.
        per_shard = [
            shard.report.optimizer_statistics
            for shard in sharded.shards
            if shard.report.optimizer_statistics is not None
        ]
        assert sum(s.decisions for s in per_shard) == sharded.optimizer_statistics.decisions

    def test_adaptive_statistics_survive_worker_processes(self):
        events = make_events(12, 300)
        queries = multi_aggregate_queries()
        factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
        single = run_streaming(queries, events, factory, optimizer="dynamic")
        sharded = run_sharded(
            queries, events, factory, workers=2, batch_size=32, optimizer="dynamic"
        )
        assert self.counters(sharded.optimizer_statistics) == self.counters(
            single.optimizer_statistics
        )

    @pytest.mark.parametrize("shards", (1, 3))
    def test_per_instance_engine_statistics_survive_the_merge(self, shards):
        events = make_events(13, 300)
        factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
        single = run_streaming(grouped_queries(), events, factory, shared_windows=False)
        sharded = run_sharded(
            grouped_queries(),
            events,
            factory,
            workers=0,
            shards=shards,
            shared_windows=False,
        )
        assert self.counters(sharded.optimizer_statistics) == self.counters(
            single.optimizer_statistics
        )
        assert sharded.optimizer_statistics.decisions > 0


class _ExplodingEngine(HamletEngine):
    """Raises mid-stream; per-instance path so ``process`` actually runs."""

    shared_window_flavor = None

    def process(self, event):
        if event.time >= 50.0:
            raise RuntimeError("engine exploded for the crash test")
        super().process(event)


class _DyingEngine(HamletEngine):
    """Kills its worker process outright (no traceback makes it back)."""

    shared_window_flavor = None

    def process(self, event):
        os._exit(23)


class TestWorkerFailurePropagation:
    def test_worker_exception_propagates_with_traceback(self):
        events = make_events(11, 200)
        with pytest.raises(ExecutionError, match="engine exploded"):
            run_sharded(
                grouped_queries(),
                events,
                _ExplodingEngine,
                workers=2,
                batch_size=32,
                shared_windows=False,
            )

    def test_worker_hard_crash_is_detected(self):
        events = make_events(12, 200)
        with pytest.raises(ExecutionError, match="died without a report"):
            run_sharded(
                grouped_queries(),
                events,
                _DyingEngine,
                workers=2,
                batch_size=32,
                shared_windows=False,
            )

    def test_driver_side_error_shuts_down_the_pool(self):
        import multiprocessing

        events = make_events(15, 100)
        executor = ShardedStreamingExecutor(
            grouped_queries(), HamletEngine, workers=2, batch_size=8
        )
        for event in events[:50]:
            executor.process(event)
        assert len(multiprocessing.active_children()) == 2
        with pytest.raises(ExecutionError, match="in-order"):
            executor.process(Event("A", 0.0, {"g": 1.0}))  # before stream time
        for process in multiprocessing.active_children():
            process.join(timeout=5.0)
        # The rejected event must not orphan workers blocked on their queues.
        assert len(multiprocessing.active_children()) == 0

    def test_multiprocess_run_matches_single_process(self):
        from collections import Counter

        events = make_events(13, 300)
        factory = HamletEngine
        single = run_streaming(grouped_queries(), events, factory)
        forked = run_sharded(
            grouped_queries(), events, factory, workers=2, batch_size=64
        )
        assert forked.totals == single.totals
        # Multiset comparison: partitions of different units share a
        # (group key, window index) key, so a dict keyed by it would drop
        # all but one partition per key.
        def rows(report):
            return Counter(
                ((p.group_key, p.window_index), tuple(sorted(p.results.items())))
                for p in report.partition_results
            )

        assert rows(forked) == rows(single)
