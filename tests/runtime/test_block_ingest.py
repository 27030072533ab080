"""Differential suite for the columnar block-ingest fast path.

The block path (:meth:`StreamingExecutor.process_block` and the engine-side
:meth:`MultiWindowLinearEngine.process_block_run`) re-derives everything the
per-event path computes — window covering ranges, lazy opening, group
routing, kernel folds, metrics bookkeeping — from columns.  Its correctness
statement is differential and exact: feeding a stream as one
:class:`~repro.events.block.EventBlock` must be **bit-identical** to feeding
the same stream event by event, including per-partition results, abstract
operation counts and peak memory units, across execution paths (shared /
per-instance), kernel backends, lazy opening, GROUP BY, negation, and the
adaptive optimizer — whose pending burst survives the block boundary, so
bursts and per-burst decisions are those of the per-event run whatever the
block cuts.

All attributes are small integers so sums are exact in float64 and ``==``
comparison is meaningful (same convention as the streaming equivalence
suite).
"""

from __future__ import annotations

import random

import pytest

from repro.core import HamletEngine
from repro.events import Event
from repro.events import columnar
from repro.events.block import EventBlock
from repro.events.stream import EventStream
from repro.query import (
    Query,
    Window,
    avg,
    count_events,
    kleene,
    parse_pattern,
    seq,
    sum_of,
)
from repro.query.predicates import attr_less
from repro.runtime import StreamingExecutor
from tests.conftest import decision_counters

TYPE_NAMES = ("A", "B", "C", "D", "X")

SLIDING = Window(32.0, 8.0)
TUMBLING = Window(32.0)
#: Fractional slide: ``k * 3.2`` accumulates float error, exercising the
#: vectorized covering-range arithmetic against the snapped scalar division.
FRACTIONAL = Window(16.0, 3.2)


def make_stream(seed: int, size: int) -> list[Event]:
    """A random in-order stream with integer-valued attributes."""
    rng = random.Random(seed)
    weights = [1.0, 3.0, 1.0, 1.0, 0.08]
    events = []
    for index in range(size):
        type_name = rng.choices(TYPE_NAMES, weights=weights)[0]
        events.append(
            Event(
                type_name,
                float(index),
                {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 2))},
            )
        )
    return events


def workload(window: Window, *, group_by=()) -> list[Query]:
    """Shared-Kleene workload mixing COUNT(*) / COUNT(E) / SUM / AVG and NOT."""
    return [
        Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="bk_q1"),
        Query.build(seq("C", kleene("B")), group_by=group_by, window=window, name="bk_q2"),
        Query.build(
            seq("A", kleene("B")),
            predicates=[attr_less("v", 4.0, event_type="B")],
            group_by=group_by,
            window=window,
            name="bk_q3",
        ),
        Query.build(
            seq("C", kleene("B"), "D"),
            aggregate=sum_of("B", "v"),
            group_by=group_by,
            window=window,
            name="bk_q4",
        ),
        Query.build(
            seq("A", kleene("B")),
            aggregate=avg("B", "v"),
            group_by=group_by,
            window=window,
            name="bk_q5",
        ),
        Query.build(
            seq("D", kleene("B")),
            aggregate=count_events("B"),
            group_by=group_by,
            window=window,
            name="bk_q6",
        ),
        Query.build(
            parse_pattern("SEQ(A, NOT X, B+)"), group_by=group_by, window=window, name="bk_q7"
        ),
    ]


def partition_tuples(report):
    """Exact per-partition fingerprint: key, index, results and event count."""
    return [
        (p.group_key, p.window_index, dict(p.results), p.events)
        for p in report.partition_results
    ]


def assert_reports_identical(per_event, block):
    assert block.totals == per_event.totals
    assert partition_tuples(block) == partition_tuples(per_event)
    assert block.metrics.operations == per_event.metrics.operations
    assert block.metrics.peak_memory_units == per_event.metrics.peak_memory_units
    assert block.metrics.stream_events == per_event.metrics.stream_events
    assert block.metrics.events_processed == per_event.metrics.events_processed


def run_pair(queries, events, **kwargs):
    """Run the same workload per-event and as one block; return both reports."""
    factory = kwargs.pop("engine_factory", HamletEngine)
    per_event = StreamingExecutor(queries, factory, **kwargs).run(events)
    block = StreamingExecutor(queries, factory, **kwargs).run(
        EventBlock.from_events(events)
    )
    return per_event, block


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "window", (TUMBLING, SLIDING, FRACTIONAL), ids=("tumbling", "sliding", "fractional")
)
def test_block_ingest_bit_identical(seed, window):
    events = make_stream(seed, 400)
    assert_reports_identical(*run_pair(workload(window), events))


@pytest.mark.parametrize("seed", range(3))
def test_block_ingest_with_group_by(seed):
    events = make_stream(seed, 400)
    assert_reports_identical(*run_pair(workload(SLIDING, group_by=("g",)), events))


@pytest.mark.parametrize("lazy_open", (True, False), ids=("lazy", "eager"))
@pytest.mark.parametrize("shared_windows", (True, False), ids=("shared", "instances"))
def test_block_ingest_across_paths(lazy_open, shared_windows):
    events = make_stream(11, 400)
    per_event, block = run_pair(
        workload(SLIDING, group_by=("g",)),
        events,
        lazy_open=lazy_open,
        shared_windows=shared_windows,
    )
    assert_reports_identical(per_event, block)


def test_block_ingest_ungrouped():
    events = make_stream(5, 400)
    per_event, block = run_pair(workload(SLIDING), events)
    assert_reports_identical(per_event, block)


# --------------------------------------------------------------------- #
# Burst-buffered configurations on the block path
# --------------------------------------------------------------------- #
#: A short stream (times 0..35) with windows closing inside it at 16, 24
#: and 32, so the every-offset cuts below land mid-burst, on a type change
#: and exactly on a close.
ADAPTIVE_EVENTS = 36
ADAPTIVE_WINDOW = Window(16.0, 8.0)


def adaptive_workload(*, with_negation: bool = False) -> list[Query]:
    """Two 2-member classes (so per-burst decisions are taken), vector unit."""
    patterns = [("A", "ad_a"), ("C", "ad_c")]
    queries = []
    for prefix, name in patterns:
        for aggregate, tag in ((sum_of("B", "v"), "sum"), (avg("B", "v"), "avg")):
            queries.append(
                Query.build(
                    seq(prefix, kleene("B")),
                    aggregate=aggregate,
                    group_by=("g",),
                    window=ADAPTIVE_WINDOW,
                    name=f"{name}_{tag}",
                )
            )
    if with_negation:
        queries.append(
            Query.build(
                parse_pattern("SEQ(A, NOT X, B+)"),
                aggregate=sum_of("B", "v"),
                group_by=("g",),
                window=ADAPTIVE_WINDOW,
                name="ad_not",
            )
        )
    return queries


def run_collecting(queries, feed, **kwargs):
    """Run ``feed(executor)``; return the report and the emission sequence."""
    emitted = []
    executor = StreamingExecutor(
        queries,
        on_window=lambda r: emitted.append((r.group_key, r.window_index, dict(r.results))),
        **kwargs,
    )
    feed(executor)
    return executor.finish(), emitted


@pytest.mark.parametrize("optimizer", ("dynamic", "always", "never", "static"))
def test_block_ingest_adaptive_equals_per_event_at_every_cut(optimizer):
    # A pending burst survives the block boundary: whatever the cut, bursts
    # — and so decisions, merges and splits — are those of the per-event run.
    events = make_stream(3, ADAPTIVE_EVENTS)
    block = EventBlock.from_events(events)
    queries = adaptive_workload()
    options = dict(optimizer=optimizer)

    def per_event(executor):
        for event in events:
            executor.process(event)

    expected, expected_emitted = run_collecting(queries, per_event, **options)
    assert decision_counters(expected)[0] > 0
    for cut in range(len(events) + 1):

        def two_blocks(executor, cut=cut):
            executor.process_block(block.slice(0, cut))
            executor.process_block(block.slice(cut, len(block)))

        report, emitted = run_collecting(queries, two_blocks, **options)
        assert_reports_identical(expected, report)
        assert emitted == expected_emitted, cut
        assert decision_counters(report) == decision_counters(expected), cut


@pytest.mark.parametrize("optimizer", ("dynamic", "static"))
def test_block_ingest_adaptive_with_declined_runs(optimizer):
    # Negation puts stored and negated types in the unit: their runs are
    # declined by the engine and replayed per event, mid-burst cuts included.
    events = make_stream(5, 120)
    block = EventBlock.from_events(events)
    queries = adaptive_workload(with_negation=True)

    def per_event(executor):
        for event in events:
            executor.process(event)

    def sliced(executor):
        for start in range(0, len(block), 7):
            executor.process_block(block.slice(start, min(start + 7, len(block))))

    expected, expected_emitted = run_collecting(queries, per_event, optimizer=optimizer)
    report, emitted = run_collecting(queries, sliced, optimizer=optimizer)
    assert_reports_identical(expected, report)
    assert emitted == expected_emitted
    assert decision_counters(report) == decision_counters(expected)


class _RowViewSpy:
    """Counts ``EventBlock.event_at`` calls and the rows of declined runs."""

    def __init__(self, monkeypatch):
        from repro.runtime import MultiWindowLinearEngine

        self.materialized = 0
        self.declined_rows = 0
        event_at = EventBlock.event_at
        process_block_run = MultiWindowLinearEngine.process_block_run

        def counting_event_at(block, index):
            self.materialized += 1
            return event_at(block, index)

        def counting_run(engine, event_type, times, *columns):
            folded = process_block_run(engine, event_type, times, *columns)
            if not folded:
                self.declined_rows += len(times)
            return folded

        monkeypatch.setattr(EventBlock, "event_at", counting_event_at)
        monkeypatch.setattr(MultiWindowLinearEngine, "process_block_run", counting_run)


@pytest.mark.parametrize("optimizer", (None, "dynamic", "always"))
def test_default_adaptive_path_builds_no_row_views(monkeypatch, optimizer):
    events = make_stream(7, 300)
    block = EventBlock.from_events(events)
    spy = _RowViewSpy(monkeypatch)
    executor = StreamingExecutor(adaptive_workload(), optimizer=optimizer)
    for start in range(0, len(block), 64):
        executor.process_block(block.slice(start, min(start + 64, len(block))))
    report = executor.finish()
    assert report.metrics.operations > 0
    assert (spy.materialized, spy.declined_rows) == (0, 0)


@pytest.mark.parametrize("optimizer", (None, "dynamic"))
def test_row_views_are_built_only_for_declined_runs(monkeypatch, optimizer):
    events = make_stream(7, 300)
    block = EventBlock.from_events(events)
    spy = _RowViewSpy(monkeypatch)
    executor = StreamingExecutor(adaptive_workload(with_negation=True), optimizer=optimizer)
    for start in range(0, len(block), 64):
        executor.process_block(block.slice(start, min(start + 64, len(block))))
    executor.finish()
    assert spy.declined_rows > 0
    assert spy.materialized == spy.declined_rows


def test_block_from_wire_bytes_matches_from_events():
    events = make_stream(9, 300)
    data = columnar.encode_events(events)
    queries = workload(SLIDING, group_by=("g",))
    from_events = StreamingExecutor(queries, HamletEngine).run(EventBlock.from_events(events))
    from_bytes = StreamingExecutor(queries, HamletEngine).run(EventBlock.from_bytes(data))
    assert_reports_identical(from_events, from_bytes)


def test_block_slices_match_whole_block():
    # Feeding a block in consecutive zero-copy slices equals feeding it whole.
    events = make_stream(13, 300)
    block = EventBlock.from_events(events)
    queries = workload(SLIDING)
    whole = StreamingExecutor(queries, HamletEngine)
    whole.process_block(block)
    whole_report = whole.finish()
    sliced = StreamingExecutor(queries, HamletEngine)
    for start in range(0, len(block), 37):
        sliced.process_block(block.slice(start, min(start + 37, len(block))))
    sliced_report = sliced.finish()
    assert_reports_identical(whole_report, sliced_report)


def test_block_interleaved_with_events():
    # Blocks and loose events can interleave on one executor.
    events = make_stream(17, 300)
    block = EventBlock.from_events(events)
    queries = workload(SLIDING)
    reference = StreamingExecutor(queries, HamletEngine)
    for event in events:
        reference.process(event)
    reference_report = reference.finish()
    mixed = StreamingExecutor(queries, HamletEngine)
    for event in events[:100]:
        mixed.process(event)
    mixed.process_block(block.slice(100, len(block)))
    mixed_report = mixed.finish()
    assert_reports_identical(reference_report, mixed_report)


def test_event_stream_to_block_roundtrip():
    events = make_stream(21, 200)
    stream = EventStream(events)
    block = stream.to_block()
    queries = workload(TUMBLING)
    assert_reports_identical(
        StreamingExecutor(queries, HamletEngine).run(events),
        StreamingExecutor(queries, HamletEngine).run(block),
    )


def test_out_of_order_block_raises():
    events = [Event("A", 5.0, {"v": 1.0}), Event("A", 1.0, {"v": 1.0})]
    executor = StreamingExecutor(workload(TUMBLING), HamletEngine)
    with pytest.raises(Exception):
        executor.process_block(EventBlock.from_events(events))
