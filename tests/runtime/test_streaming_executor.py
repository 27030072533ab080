"""Unit tests for the single-pass streaming executor.

The randomized cross-executor equivalence lives in
``test_streaming_equivalence.py``; this file pins the streaming-specific
behaviour: emission order and callbacks, eviction and bounded state, the
per-event feed bound, lazy opening, the incremental API and metrics.
"""

from __future__ import annotations

import pytest

from repro.core import HamletEngine
from repro.errors import ExecutionError
from repro.events import Event, EventStream
from repro.greta import GretaEngine
from repro.interfaces import TrendAggregationEngine
from repro.query import Query, Window, Workload, avg, kleene, max_of, parse_pattern, seq, sum_of
from repro.runtime import StreamingExecutor, WorkloadExecutor, run_streaming


def _ab_workload(window: Window, group_by=()) -> Workload:
    return Workload(
        [
            Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="st_q1"),
            Query.build(seq("C", kleene("B")), group_by=group_by, window=window, name="st_q2"),
        ]
    )


class _CountingEngine(TrendAggregationEngine):
    """Stub engine counting how many instances each event is fed to."""

    name = "counting"

    def __init__(self, feeds: dict[int, int]) -> None:
        self._feeds = feeds
        self._queries = ()

    def start(self, queries):
        self._queries = tuple(queries)

    def process(self, event):
        self._feeds[event.sequence] = self._feeds.get(event.sequence, 0) + 1

    def results(self):
        return {query.name: 0.0 for query in self._queries}

    def memory_units(self):
        return 0


class TestEmission:
    def test_windows_emitted_in_close_order(self):
        window = Window(10.0, 5.0)
        events = [Event("A", 0.0), Event("B", 3.0), Event("A", 7.0), Event("B", 12.0), Event("B", 21.0)]
        emitted = []
        report = run_streaming(_ab_workload(window), events, on_window=lambda r: emitted.append(r))
        assert [r.window_index for r in emitted] == sorted(r.window_index for r in emitted)
        ends = [r.window_end for r in emitted]
        assert ends == sorted(ends)
        # Every emitted window matches the corresponding batch partition result.
        batch = WorkloadExecutor(_ab_workload(window), HamletEngine).run(events)
        batch_results = {p.key: p.results for p in batch.partition_results}
        for result in emitted:
            assert dict(result.results) == batch_results[(result.group_key, result.window_index)]
        assert report.totals == batch.totals

    def test_window_bounds_and_latency_reported(self):
        window = Window(10.0, 5.0)
        emitted = []
        run_streaming(
            _ab_workload(window),
            [Event("A", 1.0), Event("B", 2.0), Event("B", 30.0)],
            on_window=lambda r: emitted.append(r),
        )
        first = emitted[0]
        assert (first.window_start, first.window_end) == (0.0, 10.0)
        assert first.events == 2
        assert first.emission_latency >= 0.0

    def test_empty_stream(self):
        report = run_streaming(_ab_workload(Window(10.0)), [])
        assert report.totals == {}
        assert report.metrics.partitions == 0


class TestEvictionAndBounds:
    def test_closed_windows_are_evicted_and_engines_pooled(self):
        # Engine pooling is a per-instance-path behaviour; pin that path.
        window = Window(10.0, 2.0)
        events = [Event("A", float(t)) if t % 7 == 0 else Event("B", float(t)) for t in range(300)]
        executor = StreamingExecutor(
            _ab_workload(window), HamletEngine, lazy_open=False, shared_windows=False
        )
        report = executor.run(events)
        # Peak state is bounded by the windows covering one timestamp, never
        # by the stream length; closed state is gone at the end.
        assert report.metrics.peak_active_windows <= window.instances_per_event
        assert report.metrics.partitions > 10 * report.metrics.peak_active_windows
        assert executor.active_window_count() == 0
        # Engine instances are pooled and reused across window instances.
        assert executor.engines_created <= report.metrics.peak_active_windows

    def test_peak_memory_does_not_grow_with_stream_length(self):
        """Eviction bounds held state: tripling the stream leaves the peak
        concurrent footprint flat while the window count triples."""
        window = Window(10.0, 2.0)

        def run(length: int):
            events = [
                Event("A" if t % 7 == 0 else "B", float(t)) for t in range(length)
            ]
            return StreamingExecutor(_ab_workload(window), HamletEngine).run(events)

        short = run(100)
        long = run(300)
        assert long.metrics.partitions >= 2.5 * short.metrics.partitions
        assert long.metrics.peak_memory_units <= 2 * short.metrics.peak_memory_units

    def test_peak_scales_with_groups_not_stream(self):
        window = Window(10.0, 2.0)
        events = []
        for t in range(200):
            events.append(Event("A" if t % 5 == 0 else "B", float(t), {"g": t % 3}))
        executor = StreamingExecutor(
            _ab_workload(window, group_by=("g",)), HamletEngine, lazy_open=False
        )
        report = executor.run(events)
        assert report.metrics.peak_active_windows <= 3 * window.instances_per_event
        assert executor.active_window_count() == 0

    def test_each_event_fed_to_at_most_coverage_instances(self):
        window = Window(10.0, 3.0)
        feeds: dict[int, int] = {}
        events = [Event("A", t * 0.5) for t in range(100)]
        workload = [Query.build(seq("A", kleene("A")), window=window, name="cv_q1")]
        run_streaming(workload, events, engine_factory=lambda: _CountingEngine(feeds), lazy_open=False)
        assert feeds  # every event was seen
        assert max(feeds.values()) <= window.instances_per_event
        # Single pass: no event is ever replayed into the same instance twice,
        # so total feeds equal the batch partitioner's routed assignments.
        from repro.runtime.partitioner import GroupWindowPartitioner

        partitioner = GroupWindowPartitioner.for_queries(workload)
        partitioner.add_all(events)
        assert sum(feeds.values()) == partitioner.routed_event_count()


class TestLazyOpen:
    def test_inert_prefix_skipped_without_changing_results(self):
        window = Window(60.0)
        # B events before the first start-type event (A or C) are inert.
        events = [Event("B", float(t)) for t in range(10)] + [Event("A", 10.0)] + [
            Event("B", 10.0 + t) for t in range(1, 4)
        ]
        lazy = StreamingExecutor(_ab_workload(window), HamletEngine)
        lazy_report = lazy.run(events)
        eager = StreamingExecutor(_ab_workload(window), HamletEngine, lazy_open=False)
        eager_report = eager.run(events)
        batch = WorkloadExecutor(_ab_workload(window), HamletEngine).run(events)
        assert lazy_report.totals == eager_report.totals == batch.totals
        assert lazy_report.metrics.events_processed < eager_report.metrics.events_processed

    def test_startless_windows_never_open(self):
        window = Window(10.0)
        events = [Event("B", float(t)) for t in range(50)]  # no A/C at all
        executor = StreamingExecutor(_ab_workload(window), HamletEngine)
        report = executor.run(events)
        assert report.metrics.partitions == 0
        assert report.metrics.events_processed == 0
        assert report.totals == {"st_q1": 0.0, "st_q2": 0.0}


class TestIncrementalApi:
    def test_process_and_finish(self):
        window = Window(10.0)
        executor = StreamingExecutor(_ab_workload(window), HamletEngine)
        executor.process(Event("A", 0.0))
        executor.process(Event("B", 1.0))
        assert executor.active_window_count() == 1
        report = executor.finish()
        assert report.result_for("st_q1") == 1.0
        assert executor.active_window_count() == 0

    def test_out_of_order_rejected(self):
        executor = StreamingExecutor(_ab_workload(Window(10.0)), HamletEngine)
        executor.process(Event("A", 5.0))
        with pytest.raises(ExecutionError):
            executor.process(Event("B", 1.0))

    def test_run_time_slice_uses_stream_index(self):
        window = Window(10.0)
        stream = EventStream(
            [Event("A", 1.0), Event("B", 2.0), Event("A", 11.0), Event("B", 12.0), Event("B", 25.0)]
        )
        executor = StreamingExecutor(_ab_workload(window), HamletEngine)
        # Replaying only the second tumbling pane [10, 20) sees one A+B pair;
        # window indices stay aligned with absolute time.
        report = executor.run(stream, start=10.0, end=20.0)
        assert report.metrics.stream_events == 2
        assert report.result_for("st_q1") == 1.0
        full = executor.run(stream)
        assert full.metrics.stream_events == 5

    def test_run_resets_previous_state(self):
        window = Window(10.0)
        executor = StreamingExecutor(_ab_workload(window), HamletEngine)
        first = executor.run([Event("A", 0.0), Event("B", 1.0)])
        second = executor.run([Event("A", 0.0), Event("B", 1.0)])
        assert first.totals == second.totals
        assert second.metrics.stream_events == 2


class TestEngineRouting:
    def test_min_max_unit_routed_to_greta(self):
        window = Window(60.0)
        workload = Workload(
            [
                Query.build(seq("A", kleene("B")), window=window, name="sm_q1"),
                Query.build(
                    seq("A", kleene("B")), aggregate=max_of("B", "v"), window=window, name="sm_q2"
                ),
            ]
        )
        stream = EventStream(
            [Event("A", 0.0), Event("B", 1.0, {"v": 5.0}), Event("B", 2.0, {"v": 9.0})]
        )
        report = run_streaming(workload, stream)
        assert report.result_for("sm_q1") == 3.0
        assert report.result_for("sm_q2") == 9.0

    def test_optimizer_statistics_merged_across_pool(self):
        # Sharing decisions are made by per-instance HAMLET engines; the
        # shared-window path has no per-burst decisions to report.
        window = Window(10.0, 5.0)
        events = []
        for t in range(60):
            events.append(Event("A" if t % 9 == 0 else ("C" if t % 9 == 4 else "B"), float(t)))
        report = run_streaming(_ab_workload(window), events, shared_windows=False)
        assert report.optimizer_statistics is not None
        assert report.optimizer_statistics.decisions >= 1

    def test_optimizer_statistics_are_per_run(self):
        window = Window(10.0, 5.0)
        events = []
        for t in range(60):
            events.append(Event("A" if t % 9 == 0 else ("C" if t % 9 == 4 else "B"), float(t)))
        executor = StreamingExecutor(_ab_workload(window), HamletEngine, shared_windows=False)
        first = executor.run(events).optimizer_statistics
        second = executor.run(events).optimizer_statistics
        # Pooled engines survive across runs; their counters must not.
        assert second.decisions == first.decisions
        assert second.shared_bursts == first.shared_bursts

    def test_engine_name_resolved_without_instantiation(self):
        executor = StreamingExecutor(_ab_workload(Window(10.0)), GretaEngine)
        report = executor.run([Event("A", 0.0), Event("B", 1.0)])
        assert report.engine_name == "greta"


class TestSharedWindows:
    """The multi-window shared execution path (shared_windows=True, default)."""

    def _overlap_events(self, count=200, group=False):
        events = []
        for t in range(count):
            name = "A" if t % 7 == 0 else ("C" if t % 11 == 0 else "B")
            attrs = {"g": t % 3} if group else {}
            events.append(Event(name, float(t), attrs))
        return events

    def test_each_event_processed_once_per_group(self):
        window = Window(10.0, 2.0)  # overlap factor 5
        events = self._overlap_events()
        shared = StreamingExecutor(_ab_workload(window), HamletEngine, lazy_open=False)
        shared_report = shared.run(events)
        instances = StreamingExecutor(
            _ab_workload(window), HamletEngine, lazy_open=False, shared_windows=False
        )
        instances.run(events)
        # One unit, one group: the shared path touches the engine once per
        # event where the per-instance path feeds every covering instance.
        assert shared.engine_feeds == len(events)
        assert instances.engine_feeds > 4 * shared.engine_feeds
        # The per-window *accounting* is unchanged: each emitted window still
        # reports every event it contains.
        assert shared_report.metrics.events_processed == pytest.approx(
            instances.run(events).metrics.events_processed
        )

    def test_window_results_identical_to_per_instance_path(self):
        window = Window(10.0, 3.0)
        events = self._overlap_events(150, group=True)
        workload = _ab_workload(window, group_by=("g",))
        shared_emitted, instance_emitted = [], []
        shared = run_streaming(workload, events, on_window=shared_emitted.append)
        instances = run_streaming(
            workload, events, on_window=instance_emitted.append, shared_windows=False
        )
        assert shared.totals == instances.totals
        key = lambda r: (r.group_key, r.window_index)  # noqa: E731
        shared_map = {key(r): r for r in shared_emitted}
        instance_map = {key(r): r for r in instance_emitted}
        assert shared_map.keys() == instance_map.keys()
        for k, result in shared_map.items():
            other = instance_map[k]
            assert dict(result.results) == dict(other.results)
            assert result.events == other.events
            assert (result.window_start, result.window_end) == (
                other.window_start,
                other.window_end,
            )

    def test_one_shared_engine_per_group_not_per_instance(self):
        window = Window(10.0, 2.0)
        events = self._overlap_events(200, group=True)
        executor = StreamingExecutor(_ab_workload(window, group_by=("g",)), HamletEngine)
        peak_groups = 0
        for event in events:
            executor.process(event)
            peak_groups = max(peak_groups, executor.shared_group_count)
        executor.finish()
        assert peak_groups == 3  # one engine per live group key, never per instance
        assert executor.engines_created == 0  # no per-instance engines built
        assert executor.active_window_count() == 0  # everything closed
        # Groups are evicted with their last window: memory tracks live
        # state, not every group key ever seen.
        assert executor.shared_group_count == 0

    def test_shared_state_evicted_as_windows_close(self):
        window = Window(10.0, 2.0)
        workload = [
            Query.build(
                # Negation forces the shared store to keep events; eviction
                # must still bound it by the live-window span.
                parse_pattern("SEQ(A, NOT X, B+)"),
                window=window,
                name="sw_evict_q",
            )
        ]
        executor = StreamingExecutor(workload, HamletEngine)
        short = executor.run(self._overlap_events(100))
        long = executor.run(self._overlap_events(300))
        assert long.metrics.partitions >= 2.5 * short.metrics.partitions
        assert long.metrics.peak_memory_units <= 2 * short.metrics.peak_memory_units

    def test_coefficient_accounting_invariant(self):
        """The engine's incremental entry counter tracks the table exactly."""
        window = Window(10.0, 2.0)
        events = self._overlap_events(150, group=True)
        executor = StreamingExecutor(_ab_workload(window, group_by=("g",)), HamletEngine)

        def engines():
            for unit in executor._units:
                for group in unit.groups.values():
                    yield group.engine

        for step, event in enumerate(events):
            executor.process(event)
            if step % 23 == 0:
                for engine in engines():
                    assert engine.live_coefficient_entries() == (
                        engine.coefficients.entry_count()
                    )
        executor.finish()
        for engine in engines():
            assert engine.live_coefficient_entries() == engine.coefficients.entry_count() == 0

    @pytest.mark.parametrize("policy", ("dynamic", "never", "always"))
    def test_coefficient_accounting_invariant_under_splits(self, policy):
        """Split/merge transitions keep both entry counters exact.

        ``never`` keeps every multi-member class permanently split (replica
        columns live throughout); ``dynamic`` flips columns mid-stream; in
        all cases the incremental canonical and replica counters must match
        their ground-truth scans at every step and drain to zero.
        """
        window = Window(10.0, 2.0)
        events = [
            Event(
                "A" if t % 7 == 0 else ("C" if t % 11 == 0 else "B"),
                float(t),
                {"g": t % 3, "v": float(t % 5)},
            )
            for t in range(150)
        ]
        workload = [
            Query.build(
                seq("A", kleene("B")),
                aggregate=sum_of("B", "v"),
                group_by=("g",),
                window=window,
                name="sw_adp_sum",
            ),
            Query.build(
                seq("A", kleene("B")),
                aggregate=avg("B", "v"),
                group_by=("g",),
                window=window,
                name="sw_adp_avg",
            ),
        ]
        executor = StreamingExecutor(workload, HamletEngine, optimizer=policy)

        def engines():
            for unit in executor._units:
                for group in unit.groups.values():
                    yield group.engine

        saw_replicas = False
        for step, event in enumerate(events):
            executor.process(event)
            if step % 11 == 0:
                for engine in engines():
                    assert engine.live_coefficient_entries() == (
                        engine.coefficients.entry_count()
                    )
                    assert engine.replica_coefficient_entries() == (
                        engine.replica_entry_count()
                    )
                    saw_replicas = saw_replicas or engine.replica_coefficient_entries() > 0
        executor.finish()
        for engine in engines():
            assert engine.live_coefficient_entries() == engine.coefficients.entry_count() == 0
            assert engine.replica_coefficient_entries() == engine.replica_entry_count() == 0
        if policy == "never":
            assert saw_replicas  # the split path was actually exercised

    @pytest.mark.parametrize("option", ("burst_size", "kernel_backend"))
    def test_one_fold_and_one_burst_rule_take_no_options(self, option):
        """A burst is the maximal same-type run and the reference fold is
        the only fold: neither executor takes a knob for either."""
        from repro.runtime import ShardedStreamingExecutor

        for executor_class in (StreamingExecutor, ShardedStreamingExecutor):
            with pytest.raises(TypeError, match=option):
                executor_class(_ab_workload(Window(10.0, 2.0)), HamletEngine, **{option: None})

    @pytest.mark.parametrize("block", (False, True), ids=("events", "block"))
    @pytest.mark.parametrize("policy", (None, "dynamic", "always", "never", "static"))
    def test_a_buffered_burst_is_the_maximal_same_type_run(self, monkeypatch, policy, block):
        """Only a type change cuts a buffered burst: however long the run,
        one flush folds it (a type the unit ignores cuts nothing), and the
        static plan buffers no burst at all."""
        from repro.events.block import EventBlock
        from repro.runtime import MultiWindowLinearEngine

        process_burst = MultiWindowLinearEngine.process_burst
        flushed = []

        def recording(engine, burst, event_type):
            flushed.append((event_type, len(burst)))
            return process_burst(engine, burst, event_type)

        monkeypatch.setattr(MultiWindowLinearEngine, "process_burst", recording)
        types = "A" * 3 + "B" * 40 + "C" + "B" * 25 + "A" + "B" * 70
        events = [Event(name, float(t), {"v": float(t % 4)}) for t, name in enumerate(types)]
        window = Window(1000.0)  # no window closes: only types cut bursts
        workload = [
            Query.build(
                seq("A", kleene("B")), aggregate=sum_of("B", "v"), window=window, name="mr_sum"
            ),
            Query.build(
                seq("A", kleene("B")), aggregate=avg("B", "v"), window=window, name="mr_avg"
            ),
        ]
        reference = run_streaming(workload, events, HamletEngine)
        flushed.clear()
        executor = StreamingExecutor(workload, HamletEngine, optimizer=policy)
        report = executor.run(EventBlock.from_events(events) if block else events)
        expected = [] if policy is None else [("A", 3), ("B", 65), ("A", 1), ("B", 70)]
        assert flushed == expected
        assert report.totals == reference.totals

    @pytest.mark.parametrize("sharded", (False, True), ids=("streaming", "sharded"))
    def test_no_environment_variable_chooses_the_fold(self, monkeypatch, sharded):
        """``REPRO_KERNEL_BACKEND`` is read by nothing: both executors fold
        every run with the reference fold, bit for bit as without it."""
        from repro.core.kernels import PythonKernelBackend
        from repro.runtime import run_sharded

        window = Window(10.0, 2.0)
        events = [
            Event("AB"[(t // 6) % 2], float(t), {"g": t % 3, "v": float(t % 5)})
            for t in range(120)
        ]
        workload = [
            Query.build(
                seq("A", kleene("B")), aggregate=sum_of("B", "v"), group_by=("g",),
                window=window, name="env_sum",
            ),
            Query.build(
                seq("A", kleene("B")), aggregate=avg("B", "v"), group_by=("g",),
                window=window, name="env_avg",
            ),
        ]

        def run():
            if sharded:
                return run_sharded(
                    workload, events, HamletEngine, workers=0, shards=2, optimizer="dynamic"
                )
            return run_streaming(workload, events, HamletEngine, optimizer="dynamic")

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        reference = run()
        folded = []
        fold_vector_run = PythonKernelBackend.fold_vector_run

        def counting(backend, total_map, indices, sources, base, rows, dimension):
            folded.append(len(rows))
            return fold_vector_run(backend, total_map, indices, sources, base, rows, dimension)

        monkeypatch.setattr(PythonKernelBackend, "fold_vector_run", counting)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        report = run()
        assert folded and max(folded) > 1  # whole runs, not single events
        assert report.totals == reference.totals

        def rows(result):
            return sorted((p.key, tuple(p.results.items())) for p in result.partition_results)

        assert rows(report) == rows(reference)

    def test_open_memory_counts_pending_burst_buffer(self):
        """Buffered adaptive bursts are live state the memory gauge must see."""
        window = Window(10.0, 2.0)
        workload = [
            Query.build(
                seq("A", kleene("B")), aggregate=sum_of("B", "v"), window=window, name="mb_sum"
            ),
            Query.build(
                seq("A", kleene("B")), aggregate=avg("B", "v"), window=window, name="mb_avg"
            ),
        ]
        executor = StreamingExecutor(workload, HamletEngine, optimizer="always")
        executor.process(Event("A", 0.0, {"v": 1.0}))
        for t in range(1, 6):  # same-type run: stays buffered, no close passes
            executor.process(Event("B", float(t), {"v": 1.0}))
        (unit,) = executor._units
        (group,) = unit.groups.values()
        assert len(group.burst) == 5
        assert (
            executor._open_memory_units()
            == group.engine.memory_units() + len(group.burst)
        )
        executor.finish()

    def test_engine_level_split_and_merge_partitions(self):
        """Direct pin of the engine's column state machine."""
        from repro.runtime import MultiWindowLinearEngine, UnitCompilation

        window = Window(10.0, 2.0)
        queries = [
            Query.build(
                seq("A", kleene("B")), aggregate=sum_of("B", "v"), window=window, name="col_sum"
            ),
            Query.build(
                seq("A", kleene("B")), aggregate=avg("B", "v"), window=window, name="col_avg"
            ),
        ]
        compiled = UnitCompilation(queries, share_classes=True)
        (spec,) = compiled.classes
        engine = MultiWindowLinearEngine(compiled)
        assert engine.sharing_partition(spec.index, "B") == (0, 0)
        engine.process(Event("A", 0.0, {"v": 1.0}), 0, 0)
        engine.process(Event("B", 1.0, {"v": 2.0}), 0, 0)
        # Split: the replica column copies the canonical one.
        engine.apply_burst_decision(spec, "B", frozenset(), 1)
        assert engine.sharing_partition(spec.index, "B") == (0, 1)
        assert engine.replica_coefficient_entries() == engine.replica_entry_count() > 0
        engine.process(Event("B", 2.0, {"v": 3.0}), 0, 0)
        # Merge: replicas dropped, canonical kept.
        engine.apply_burst_decision(
            spec, "B", frozenset(q.name for q in queries), 1
        )
        assert engine.sharing_partition(spec.index, "B") == (0, 0)
        assert engine.replica_coefficient_entries() == engine.replica_entry_count() == 0
        results = engine.close_window(0)
        # SUM(B.v) over trends of A B... within the window; both members
        # were maintained bit-identically through the split and merge.
        assert set(results) == {"col_sum", "col_avg"}
        with pytest.raises(ExecutionError):
            engine.sharing_partition(99, "B")

    def test_inert_groups_never_build_engines(self):
        """Lazy opening is per group: start-less groups allocate nothing."""
        window = Window(10.0, 2.0)
        events = [Event("B", float(t), {"g": t % 50}) for t in range(200)]  # no A/C
        executor = StreamingExecutor(_ab_workload(window, group_by=("g",)), HamletEngine)
        report = executor.run(events)
        assert executor.shared_group_count == 0
        assert report.metrics.partitions == 0

    def test_equal_time_out_of_sequence_rejected_per_group_engine(self):
        # Two trend-start events at the same timestamp, fed in reverse
        # creation order: the shared engine's coefficient fast path needs
        # its events strictly ordered and rejects the second feed.
        late = Event("A", 1.0)
        early = Event("C", 1.0)  # created after `late`, so late < early
        executor = StreamingExecutor(_ab_workload(Window(10.0)), HamletEngine)
        executor.process(early)
        with pytest.raises(ExecutionError):
            executor.process(late)

    def test_equal_time_out_of_sequence_rejected_at_burst_flush(self):
        # The burst-buffering path defers engine feeds, but the ordering
        # invariant still holds: the flush rejects the out-of-order run.
        late = Event("A", 1.0)
        early = Event("C", 1.0)
        executor = StreamingExecutor(
            _ab_workload(Window(10.0)), HamletEngine, optimizer="dynamic"
        )
        executor.process(early)
        executor.process(late)  # buffered, not yet fed
        with pytest.raises(ExecutionError):
            executor.finish()

    def test_equal_time_events_of_different_groups_are_accepted(self):
        # Ordering is required per (group, unit) engine, not globally: an
        # equal-timestamp interleaving across groups is fine even when the
        # creation sequence runs against the arrival order.
        second = Event("A", 1.0, {"g": 1})
        first = Event("A", 1.0, {"g": 2})  # created later, arrives first
        events = [Event("A", 0.5, {"g": 1}), first, second, Event("B", 2.0, {"g": 1})]
        workload = _ab_workload(Window(10.0), group_by=("g",))
        shared = StreamingExecutor(workload, HamletEngine).run(events)
        instances = StreamingExecutor(workload, HamletEngine, shared_windows=False).run(events)
        assert shared.totals == instances.totals

    def test_emission_order_is_close_order(self):
        window = Window(10.0, 5.0)
        emitted = []
        run_streaming(
            _ab_workload(window), self._overlap_events(60), on_window=emitted.append
        )
        ends = [r.window_end for r in emitted]
        assert ends == sorted(ends)

    def test_min_max_units_fall_back_to_per_instance(self):
        window = Window(10.0, 5.0)
        workload = Workload(
            [
                Query.build(seq("A", kleene("B")), window=window, name="swf_q1"),
                Query.build(
                    seq("A", kleene("B")), aggregate=max_of("B", "v"), window=window, name="swf_q2"
                ),
            ]
        )
        events = [
            Event("A", 0.0, {"v": 1.0}),
            Event("B", 1.0, {"v": 5.0}),
            Event("B", 6.0, {"v": 9.0}),
            Event("B", 12.0, {"v": 2.0}),
        ]
        executor = StreamingExecutor(workload, HamletEngine)
        peak_groups = 0
        for event in events:
            executor.process(event)
            peak_groups = max(peak_groups, executor.shared_group_count)
        report = executor.finish()
        batch = WorkloadExecutor(workload, HamletEngine).run(events)
        assert report.totals == batch.totals
        # The COUNT unit ran shared; the MAX unit built per-instance engines.
        assert peak_groups == 1
        assert executor.engines_created >= 1
