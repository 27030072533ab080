"""Each closed window's row goes to one sink; ``report.totals`` folds as
rows are emitted.

With an ``on_window`` callback the callback is the sink and the report
keeps no rows; without one the report keeps them.  Pinned here against a
callback-less twin run: the same rows in the same emission order with the
same value bits, and ``report.totals`` with the same ``float.hex`` — on
the scalar and the block ingest path, in strict order and under every late
policy (``retract`` with a late row that rewrites an emitted window), for
decomposed OR/AND queries, across a mid-stream ``snapshot_state`` /
``restore_state``, and through the in-process sharded driver (which keeps
its shards' rows to merge them).  A callback run's traced memory is flat
in the stream length.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, kleene, max_of, seq, sum_of
from repro.runtime import (
    StreamingExecutor,
    WindowResult,
    close,
    foldcore,
    run_sharded,
    run_streaming,
)
from repro.runtime.executor import recombined_partitions

SLIDING, TUMBLING = Window(8.0, 4.0), Window(10.0)
REPO_ROOT = Path(__file__).resolve().parents[2]
HORIZON = 4.0


def _queries() -> list[Query]:
    """A two-member scalar class, a vector unit, a per-instance MAX unit
    and a decomposed OR and AND query (type-disjoint halves, one unit each)."""
    def build(pattern, name, window=SLIDING, **options):
        return Query.build(pattern, group_by=("g",), window=window, name=name, **options)

    ab, cd = seq("A", kleene("B")), seq("C", kleene("D"))
    return [
        build(ab, "cnt_ab"),
        build(ab, "cnt_ab_twin"),
        build(ab, "sum_ab", TUMBLING, aggregate=sum_of("B", "v")),
        build(seq("C", kleene("B")), "max_cb", TUMBLING, aggregate=max_of("B", "v")),
        build(ab | cd, "or_q"),
        build(seq("A", kleene("B")) & seq("C", kleene("D")), "and_q"),
    ]


def _events(seed: int, size: int, groups: int = 3, spacing: float = 0.25) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            rng.choices("ABCD", weights=(1, 4, 1, 3))[0],
            index * spacing,
            {"v": rng.uniform(0.0, 3.0), "g": float(rng.randint(1, groups))},
            sequence=index,
        )
        for index in range(size)
    ]


def _arrivals(events: list[Event], late: bool, every: int = 37) -> list[Event]:
    """Adjacent pairs swapped (disorder within the horizon) and, with
    ``late``, every ``every``-th event held back 10 time units: behind the
    watermark."""
    arrivals = list(events)
    for index in range(0, len(arrivals) - 1, 2):
        arrivals[index], arrivals[index + 1] = arrivals[index + 1], arrivals[index]
    if late:
        for index in range(every, len(arrivals) - 60, every):
            arrivals.insert(index + 40, arrivals.pop(index))
    return arrivals


def _feed(executor, events: list[Event], path: str):
    """Every event through ``process`` or as 16-row blocks; the report."""
    if path == "scalar":
        for event in events:
            executor.process(event)
    else:
        block = EventBlock.from_events(events)
        for start in range(0, len(block), 16):
            executor.process_block(block.slice(start, min(start + 16, len(block))))
    return executor.finish()


def _feed_partial(executor, events: list[Event], path: str) -> None:
    """The first part of a stream, without ``finish``."""
    if path == "scalar":
        for event in events:
            executor.process(event)
    else:
        executor.process_block(EventBlock.from_events(events))


def _hex(totals) -> dict[str, str]:
    return {name: float(value).hex() for name, value in totals.items()}


def _row(result) -> tuple:
    """What a row and a :class:`WindowResult` share, value bits included."""
    values = result.results
    return (
        result.group_key,
        result.window_index,
        result.window_start,
        result.events,
        values.layout.names,
        values.slots.tobytes(),
    )


def _twins(events: list[Event], path: str, **options):
    """The callback run (report, emitted) and its callback-less twin's report."""
    emitted: list = []
    sink = StreamingExecutor(_queries(), on_window=emitted.append, **options)
    report = _feed(sink, events, path)
    kept = _feed(StreamingExecutor(_queries(), **options), events, path)
    return report, emitted, kept


def _assert_same_output(report, emitted, kept) -> None:
    assert report.partition_results == []
    assert len(kept.partition_results) > 100
    assert [_row(result) for result in emitted] == [_row(row) for row in kept.partition_results]
    assert _hex(report.totals) == _hex(kept.totals)
    assert list(report.totals) == list(kept.totals)
    assert report.metrics.partitions == kept.metrics.partitions


@pytest.mark.parametrize("path", ("scalar", "block"))
def test_a_callback_run_emits_what_its_twin_keeps(path):
    report, emitted, kept = _twins(_events(1, 600), path)
    _assert_same_output(report, emitted, kept)
    # Totals carry bits a rounding would lose, and every query has one.
    assert {query.name for query in _queries()} <= set(report.totals)
    assert any(value != round(value) for value in report.totals.values())


@pytest.mark.parametrize("path", ("scalar", "block"))
@pytest.mark.parametrize("policy", ("raise", "drop", "side_output"))
def test_every_late_policy_keeps_one_sink(path, policy):
    late: list = []
    options = dict(allowed_lateness=HORIZON, late_policy=policy)
    if policy == "side_output":
        options["on_late"] = late.append
    arrivals = _arrivals(_events(2, 600), late=policy != "raise")
    report, emitted, kept = _twins(arrivals, path, **options)
    _assert_same_output(report, emitted, kept)
    caught = report.metrics.late_dropped + report.metrics.late_side_output
    assert (caught > 0) == (policy != "raise")
    assert caught == kept.metrics.late_dropped + kept.metrics.late_side_output
    assert len(late) == (2 * caught if policy == "side_output" else 0)  # both twins' rows


@pytest.mark.parametrize("path", ("scalar", "block"))
def test_a_retraction_rewrites_an_emitted_window_and_the_totals_follow(path):
    """The rollback restores the running totals with the core, and the
    replay folds the re-closed rows again: the final totals are the ordered
    run's, and the last emission per window and unit carries the twin's kept
    row's values (a re-close that changed no value emits nothing, so its
    event count may lag the kept row's)."""
    events = _events(3, 600)
    options = dict(allowed_lateness=HORIZON, late_policy="retract")
    report, emitted, kept = _twins(_arrivals(events, late=True), path, **options)
    assert report.partition_results == []
    assert report.metrics.late_retracted == kept.metrics.late_retracted > 0
    rewritten = [result for result in emitted if result.retraction]
    assert rewritten

    def last_values(rows) -> dict:
        return {(*_row(r)[:3], r.results.layout.names): _row(r)[-1] for r in rows}

    assert last_values(emitted) == last_values(kept.partition_results)
    ordered = run_streaming(_queries(), events)
    assert [_row(row) for row in kept.partition_results] == [
        _row(row) for row in ordered.partition_results
    ]
    assert _hex(report.totals) == _hex(kept.totals) == _hex(ordered.totals)


@pytest.mark.parametrize("path", ("scalar", "block"))
def test_decomposed_queries_fold_one_combine_per_window(path):
    """What ``recombine_decompositions`` summed over the kept rows, folded
    sweep by sweep: ``sum()`` of the per-window values, bit for bit."""
    report, _, kept = _twins(_events(4, 600), path)
    for name in ("or_q", "and_q"):
        per_window = kept.results_by_partition(name)
        assert len(per_window) > 50 and any(per_window.values())
        expected = float(sum(per_window.values())).hex()
        assert float(report.totals[name]).hex() == float(kept.totals[name]).hex() == expected


@pytest.mark.parametrize("incremental", (False, True), ids=("full", "incremental"))
@pytest.mark.parametrize("path", ("scalar", "block"))
def test_a_restored_callback_run_reproduces_the_totals_bits(path, incremental):
    options = dict(allowed_lateness=HORIZON, late_policy="retract")
    # Sparse late rows: the retract ring rotates past its first snapshot, so
    # a rollback after row 600 cannot rewind the output mark to 0.
    arrivals = _arrivals(_events(5, 1_200), late=True, every=150)
    head, middle, tail = arrivals[:600], arrivals[600:800], arrivals[800:]
    expected: list = []
    uninterrupted = StreamingExecutor(_queries(), on_window=expected.append, **options)
    _feed_partial(uninterrupted, head, path)
    _feed_partial(uninterrupted, middle, path)
    whole = _feed(uninterrupted, tail, path)
    assert whole.metrics.late_retracted > 0
    emitted: list = []
    first = StreamingExecutor(_queries(), on_window=emitted.append, **options)
    _feed_partial(first, head, path)
    _, early = first.snapshot_state(0)
    mark = first.windows_closed
    _feed_partial(first, middle, path)
    if incremental:
        payload, delta = first.snapshot_state(mark)
        start, rows = pickle.loads(delta)
        assert start > 0 and rows == []  # the callback took the rows
        output = [early, delta]
    else:
        payload, output = first.snapshot_state(), []
    second = StreamingExecutor(_queries(), on_window=emitted.append, **options)
    second.restore_state(payload, output)
    resumed = _feed(second, tail, path)
    assert resumed.partition_results == []
    assert _hex(resumed.totals) == _hex(whole.totals)
    assert [_row(r) for r in emitted] == [_row(r) for r in expected]


def test_the_in_process_sharded_driver_keeps_rows_beside_a_callback():
    events = _events(6, 600)
    emitted: list = []
    report = run_sharded(_queries(), events, workers=0, shards=2, on_window=emitted.append)
    twin = run_sharded(_queries(), events, workers=0, shards=2)
    assert len(report.partition_results) == len(emitted) > 100
    assert [_row(row) for row in report.partition_results] == [
        _row(row) for row in twin.partition_results
    ]
    assert sorted(map(_row, emitted)) == sorted(map(_row, twin.partition_results))
    assert _hex(report.totals) == _hex(twin.totals)


@pytest.mark.parametrize("sweep", ("compiled", "reference"))
def test_each_closed_window_is_one_row_object_on_every_sink(sweep, monkeypatch):
    """In-process sharded with ``on_window`` and decomposed OR/AND queries:
    the object handed to the callback is the one in the merged report and
    the one the sweep's recombination read — one row per closed window."""
    if sweep == "reference":
        monkeypatch.setattr(foldcore, "core", None)
    elif foldcore.core is None:
        pytest.skip(foldcore.reason)
    recombined: list = []

    def spy(decomposition, rows):
        recombined.extend(rows)
        return recombined_partitions(decomposition, rows)

    monkeypatch.setattr(close, "recombined_partitions", spy)
    emitted: list = []
    report = run_sharded(
        _queries(), _events(6, 600), workers=0, shards=2, on_window=emitted.append
    )
    rows = report.partition_results
    assert len(rows) == len(emitted) == report.metrics.partitions > 100
    assert all(type(row) is WindowResult for row in rows)
    assert {id(row) for row in rows} == {id(row) for row in emitted}
    assert recombined and {id(row) for row in recombined} <= {id(row) for row in rows}


def test_results_by_partition_refuses_rows_that_went_to_the_callback():
    report = run_streaming(_queries(), _events(7, 200), on_window=lambda result: None)
    assert report.metrics.partitions > 0
    with pytest.raises(ExecutionError, match="on_window"):
        report.results_by_partition("cnt_ab")
    # No window closed: nothing was withheld, the answer is just empty.
    empty = run_streaming(_queries(), [], on_window=lambda result: None)
    assert empty.results_by_partition("cnt_ab") == {}


def _traced_peak(events: list[Event], every: int = 500) -> int:
    """Traced peak bytes of one callback run over ``events``.

    Every ``every`` events the peak so far is read and a full collection
    empties the interpreter's free lists: a freed tuple parked there stays
    traced, and the lists fill over a long run — growth that is not state.
    """
    executor = StreamingExecutor(_queries(), on_window=lambda result: None)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        peak = 0
        for count, event in enumerate(events, 1):
            executor.process(event)
            if count % every == 0:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - baseline)
                gc.collect()
                tracemalloc.reset_peak()
        executor.finish()
        return max(peak, tracemalloc.get_traced_memory()[1] - baseline)
    finally:
        tracemalloc.stop()


#: One stream length's traced peak, measured in a fresh interpreter: the
#: median of three runs after a warm-up that fills lazy caches and
#: interned tables.
_FRESH_PEAK = """
import statistics, sys
from tests.runtime.test_output_sink import _events, _traced_peak
events = _events(8, int(sys.argv[1]))
_traced_peak(_events(8, 1_500))
print(statistics.median(_traced_peak(events) for _ in range(3)))
"""


def _fresh_peak(size: int) -> float:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join((str(REPO_ROOT / "src"), str(REPO_ROOT)))
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_PEAK, str(size)],
        env=env, capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    return float(result.stdout)


def test_a_callback_run_holds_no_output_as_the_stream_grows():
    """State is bounded by the open windows, not by the windows emitted:
    at 4x the stream length the traced peak stays within +10%.  Each length
    is measured in its own fresh interpreter: a peak in this one moves by
    tens of bytes with the allocator and free-list state earlier tests
    leave, and the margin is about that."""
    peaks = [_fresh_peak(1_500), _fresh_peak(6_000)]
    assert peaks[1] <= peaks[0] * 1.10, peaks
