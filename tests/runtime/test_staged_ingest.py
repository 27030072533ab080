"""Differential suite for the one Cover stage both ingest paths share.

``process()`` stages each row — its event, time, sequence, type code and
own arrival stamp — and folds the staged rows through the Cover loop
``process_block`` runs: at the first arrival at or past the earliest end of
an open window or of one a staged row opens, or sooner when
``process_block``, a snapshot, ``finish`` or a live-state reader needs the
core.  So a stream switched between the two entry points anywhere must be
**bit-identical** to its all-block run: emission order, value bits and
retraction flags, totals, operation counts, peak memory units, peak active
windows, late and decision counters — also across a snapshot taken while
rows are staged, a retraction whose rollback drops them, and under
``optimizer="dynamic"``.  Two pins cover the timing the staging must not
move: a window closes inside the ``process()`` call of the first arrival
at or past its end, and ``emission_latency`` counts from the contributing
row's own arrival, not from the fold.  And the stage stays bounded: rows of
a type no unit reads are never staged, and a full stage folds early.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, max_of, parse_pattern, seq, sum_of
from repro.runtime import StreamingExecutor
from repro.runtime.lateness import STAGE_ROWS, Lateness
from tests.conftest import decision_counters

#: ``size % slide != 0``: covering ranges change between close sweeps.
WINDOW = Window(10.0, 4.0)
LATE = {"allowed_lateness": 2.0, "late_policy": "retract"}


def workload() -> list[Query]:
    """A shared scalar unit, a vector class with twin members (an
    optimizer's eligible class), a declined type (``NOT``) and a MIN/MAX
    unit evaluated per instance."""
    entries = (
        ("ab", seq("A", kleene("B")), None),
        ("cbd", seq("C", kleene("B"), "D"), None),
        ("not", parse_pattern("SEQ(C, NOT E, D+)"), None),
        ("sum", seq("A", kleene("B")), sum_of("B", "v")),
        ("avg", seq("A", kleene("B")), avg("B", "v")),
        ("max", seq("A", kleene("B")), max_of("B", "v")),
    )
    return [
        Query.build(pattern, aggregate=aggregate, group_by=("g",), window=WINDOW, name=f"si_{n}")
        for n, pattern, aggregate in entries
    ]


def stream(seed: int, size: int = 240) -> list[Event]:
    """In-order rows of the query types plus ``X``, which no query reads."""
    rng = random.Random(seed)
    types, weights = "ABCDEX", (1.0, 4.0, 1.0, 1.5, 0.5, 0.5)
    return [
        Event(
            rng.choices(types, weights=weights)[0],
            index * 0.25,
            {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 2))},
        )
        for index in range(size)
    ]


def late_arrivals(events: list[Event]) -> list[Event]:
    """``events`` with a row moved 30 rows (7.5 time units) later every 50
    rows: behind the 2.0 horizon, so the retract policy rolls back."""
    arrivals = list(events)
    for index in range(40, len(arrivals) - 40, 50):
        arrivals.insert(index + 30, arrivals.pop(index))
    return arrivals


class Run:
    """One executor and what it emitted, in order."""

    def __init__(self, **options) -> None:
        self.emitted: list = []
        self.executor = StreamingExecutor(workload(), on_window=self.record, **options)

    def record(self, r) -> None:
        values = {name: float(value).hex() for name, value in r.results.items()}
        self.emitted.append((r.group_key, r.window_index, r.events, r.retraction, values))

    def events(self, rows) -> None:
        for event in rows:
            self.executor.process(event)

    def block(self, rows) -> None:
        self.executor.process_block(EventBlock.from_events(rows))

    def outcome(self) -> tuple:
        report = self.executor.finish()
        metrics = report.metrics
        return (
            self.emitted,
            {name: value.hex() for name, value in report.totals.items()},
            metrics.operations,
            metrics.peak_memory_units,
            metrics.peak_active_windows,
            metrics.events_processed,
            metrics.stream_events,
            metrics.late_retracted,
            decision_counters(report),
        )


def all_block(arrivals, **options) -> tuple:
    run = Run(**options)
    run.block(arrivals)
    return run.outcome()


def switched(arrivals, cut: int, width: int, **options) -> tuple:
    """Rows before ``cut`` through ``process()``, the next ``width`` as one
    block, the rest through ``process()`` again."""
    run = Run(**options)
    run.events(arrivals[:cut])
    run.block(arrivals[cut : cut + width])
    run.events(arrivals[cut + width :])
    return run.outcome()


@pytest.mark.parametrize(
    "options",
    ({}, {"optimizer": "dynamic"}),
    ids=("static", "dynamic"),
)
def test_switching_ingest_paths_at_every_offset_is_the_block_run(options):
    events = stream(3)
    expected = all_block(events, **options)
    assert len(expected[0]) > 50 and expected[2] > 0
    if "optimizer" in options:
        assert expected[-1][0] > 0  # decisions were taken
    assert switched(events, len(events), 0, **options) == expected
    for cut in range(0, 160, 3):
        assert switched(events, cut, 37, **options) == expected, cut


def test_a_snapshot_taken_while_rows_are_staged_resumes_bit_identically():
    events = stream(5)
    expected = all_block(events)
    cuts = range(20, 220, 7)
    staged = 0
    for cut in cuts:
        first = Run()
        first.events(events[:cut])
        # Rows wait for their fold, unless the last arrival folded them and
        # is of the type no unit reads, which is never staged.
        staged += bool(first.executor._staged) or events[cut - 1].event_type == "X"
        payload = first.executor.snapshot_state()
        second = Run()
        second.emitted = first.emitted
        second.executor.restore_state(payload)
        second.block(events[cut:])
        assert second.outcome() == expected, cut
    assert staged == len(cuts)


def test_a_retraction_drops_the_staged_rows_its_replay_feeds_again(monkeypatch):
    arrivals = late_arrivals(stream(9))
    expected = all_block(arrivals, **LATE)
    assert expected[7] > 0  # rows were retracted
    # Under lateness the rows the core has not taken yet wait in the stage's
    # buffer, above the watermark: a rollback leaves them there, and the
    # replay feeds only what the core had taken.
    staged_at_rollback = []
    retract = Lateness._retract

    def counting(stage, *args):
        staged_at_rollback.append(len(stage.buffer))
        return retract(stage, *args)

    monkeypatch.setattr(Lateness, "_retract", counting)
    for cut in range(0, len(arrivals), 9):
        run = Run(**LATE)
        run.events(arrivals[:cut])
        run.block(arrivals[cut:])
        assert run.outcome() == expected, cut
    run = Run(**LATE)
    run.events(arrivals)
    assert run.outcome() == expected
    assert max(staged_at_rollback) > 0


@pytest.mark.parametrize("block_every", (0, 40), ids=("events", "mixed"))
def test_a_window_closes_inside_the_call_of_the_arrival_that_passes_its_end(block_every):
    # ``mixed``: a 10-row block every 40 rows, so stages also start right
    # after a block moved the next close.
    events = stream(7)
    closed: list = []
    call_of_row: list = []
    call = [None]
    executor = StreamingExecutor(
        workload(), on_window=lambda r: closed.append((call[0], r.window_end))
    )
    while len(call_of_row) < len(events):
        position = len(call_of_row)
        call[0] = position
        if block_every and position % block_every == 0:
            rows = events[position : position + 10]
            executor.process_block(EventBlock.from_events(rows))
        else:
            rows = events[position : position + 1]
            executor.process(rows[0])
        call_of_row += [position] * len(rows)
    call[0] = None
    executor.finish()
    assert sum(made is not None for made, _ in closed) > 20
    for made, end in closed:
        first = next((i for i, event in enumerate(events) if event.time >= end), None)
        assert made == (None if first is None else call_of_row[first]), (made, end)


def shuffled_within(events: list[Event], horizon: float, seed: int) -> list[Event]:
    """``events`` reordered so every arrival stays within ``horizon`` of the
    watermark (a key displaced at most ``horizon / 2``)."""
    rng = random.Random(seed)
    return sorted(events, key=lambda event: event.time + rng.uniform(-horizon / 2, horizon / 2))


@pytest.mark.parametrize("block_every", (0, 40), ids=("events", "mixed"))
@pytest.mark.parametrize("policy", ("raise", "drop", "side_output"))
def test_under_lateness_a_window_closes_inside_the_call_that_lifts_the_watermark_past_it(
    policy, block_every
):
    # The twin of the strict-order pin: a window emits inside the call whose
    # arrival first lifts the watermark strictly past the earliest row, in
    # key order, at or after its end.  Rows behind the watermark on arrival
    # never reach the core (``drop`` / ``side_output`` see some).
    lateness = 2.0
    arrivals = shuffled_within(stream(7), lateness, seed=8)
    if policy != "raise":
        arrivals = late_arrivals(arrivals)
    handed: list = []
    closed: list = []
    call = [None]
    executor = StreamingExecutor(
        workload(),
        on_window=lambda r: closed.append((call[0], r.window_end)),
        allowed_lateness=lateness,
        late_policy=policy,
        on_late=handed.append if policy == "side_output" else None,
    )
    calls: list[list[Event]] = []
    position = 0
    while position < len(arrivals):
        call[0] = len(calls)
        if block_every and position % block_every == 0:
            rows = arrivals[position : position + 10]
            executor.process_block(EventBlock.from_events(rows))
        else:
            rows = arrivals[position : position + 1]
            executor.process(rows[0])
        calls.append(rows)
        position += len(rows)
    call[0] = None
    report = executor.finish()
    # The watermark after each call, and the rows that were not late.
    newest, accepted, watermarks = float("-inf"), [], []
    for rows in calls:
        for event in rows:
            if event.time >= newest - lateness:
                accepted.append(event)
                newest = max(newest, event.time)
        watermarks.append(newest - lateness)
    ordered = sorted(accepted, key=lambda event: (event.time, event.sequence))
    late = len(arrivals) - len(accepted)
    assert (report.metrics.late_dropped, report.metrics.late_side_output) == (
        (late, 0) if policy == "drop" else (0, late)
    )
    assert (late > 0) == (policy != "raise") and len(handed) == report.metrics.late_side_output
    assert sum(made is not None for made, _ in closed) > 20
    for made, end in closed:
        first = next((event for event in ordered if event.time >= end), None)
        expected = None
        if first is not None:
            expected = next(
                (index for index, mark in enumerate(watermarks) if mark > first.time), None
            )
        assert made == expected, (made, end)


def test_a_block_that_opens_a_window_leaves_the_next_arrival_to_close_it():
    # The stage ``process()`` started before the block had no window to
    # bound it; the block opened one, and the next arrival past its end
    # must still close it in its own call.
    emitted: list = []
    queries = [Query.build(seq("A", kleene("B")), window=Window(10.0), name="si_gap")]
    executor = StreamingExecutor(queries, on_window=emitted.append)
    executor.process(Event("B", 1.0))  # inert: nothing is open
    executor.process_block(EventBlock.from_events([Event("A", 2.0), Event("B", 3.0)]))
    assert emitted == []
    executor.process(Event("B", 10.0))
    assert [(r.window_end, r.events) for r in emitted] == [(10.0, 2)]


def test_emission_latency_counts_from_the_rows_own_arrival():
    emitted: list = []
    queries = [Query.build(seq("A", kleene("B")), window=Window(10.0), name="si_latency")]
    executor = StreamingExecutor(queries, on_window=emitted.append)
    executor.process(Event("A", 1.0))
    executor.process(Event("B", 2.0))  # staged, not folded
    time.sleep(0.05)
    executor.process(Event("B", 10.0))  # passes the end of [0, 10): fold, close
    (result,) = emitted
    assert result.events == 2
    assert result.emission_latency >= 0.05


def test_the_stage_stays_bounded_on_a_long_stream_with_nothing_to_close():
    # 100k rows before any trend can start: ``B`` rows (read, but opening no
    # window) and ``X`` rows (read by no unit).  Then one window's worth of
    # trends whose close interval is longer than a stage.
    queries = [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=Window(4e5), name="si_long")
    ]
    rng = random.Random(13)
    quiet = [
        Event(rng.choice("BX"), index * 0.5, {"g": float(rng.randint(1, 3))})
        for index in range(100_000)
    ]
    busy = [
        Event(rng.choice("ABBB"), 5e4 + index * 0.5, {"g": float(rng.randint(1, 3))})
        for index in range(3 * STAGE_ROWS)
    ]
    unread = StreamingExecutor(queries)
    for index in range(1000):
        unread.process(Event("X", index * 0.5))
    assert not unread._staged and unread.finish().metrics.stream_events == 1000
    expected = StreamingExecutor(queries).run(EventBlock.from_events(quiet + busy))
    executor = StreamingExecutor(queries)
    high = 0
    for event in quiet:
        executor.process(event)
        high = max(high, len(executor._staged))
    assert 0 < high <= STAGE_ROWS
    assert executor.active_window_count() == 0 and executor.shared_group_count == 0
    for event in busy:
        executor.process(event)
        high = max(high, len(executor._staged))
    assert high <= STAGE_ROWS
    report = executor.finish()
    assert report.metrics.stream_events == len(quiet) + len(busy)
    assert report.totals == expected.totals and report.totals["si_long"] > 0
    assert report.metrics.operations == expected.metrics.operations
    assert report.metrics.peak_memory_units == expected.metrics.peak_memory_units
