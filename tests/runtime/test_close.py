"""Compiled-vs-reference differential for the Close/Emit stage.

``runtime/close.py`` closes the windows the stream passed; for a unit of
store-free scalar shared-window engines with no optimizer, one fold-core
call per unit sweep (``_foldcore.sweep_unit``) does the readout, the
evictions, the metrics, the totals and the emission.  The Python sweep is
the reference, selected with ``foldcore.core = None``.  Both run on the
same state under ``test_foldcore``'s deterministic clock, so everything
must agree: emitted rows (values as ``float.hex``, events, retraction
flags and the clock-derived latencies), kept report rows, totals,
operations, peak memory units and active windows — and the bytes of
``snapshot_state()`` after every step.  Neither sweep times an engine:
``total_seconds`` and ``max_latency`` stay 0.0, and a pass reads the clock
once per closed window and once per ingest stamp, plus ``finish()``'s.

The cases are what the compiled sweep handles on its own: the close order
over mixed-kind group keys, units of different windows closing in one
sweep, both sinks, retractions, int times past 2**53 (``end <= now`` is
compared exactly), ``finish()``'s ``now = inf``, and an ``on_window`` that
raises mid-sweep.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bench.workloads import kleene_sharing_workload
from repro.datasets import RidesharingGenerator
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, kleene, parse_pattern, seq
from repro.runtime import StreamingExecutor, foldcore, group_sort_key, streaming
from repro.runtime.close import CloseStage
from tests.runtime.test_foldcore import (
    LATE,
    _Counting,
    deferred_workload,
    fold,
    late_arrivals,
    mixed_workload,
    needs_core,
    stream,
    vector_workload,
)

#: A sweep that leaves a passed window open sweeps again forever: fail instead.
pytestmark = pytest.mark.usefixtures("hard_deadline")

#: One value per group-key kind ``group_sort_key`` orders: ``True``, ``1``
#: and ``1.0`` are one dict key, so they share a group.
MIXED_KEYS = (
    None, True, float("nan"), float("inf"), float("-inf"), "a", "b", 1, 1.0, 2, 0.5,
    (1, "x"), (1, None), (),
)


def _row(r) -> tuple:
    """One row's fields, values as ``float.hex``."""
    values = tuple((name, float(value).hex()) for name, value in r.results.items())
    return (r.group_key, r.window_index, r.window_start, r.window_end, r.events,
            r.emission_latency.hex(), r.retraction, values)


def run(queries, steps, options, core, *, sink: str = "window", raise_at: int = 0) -> tuple:
    """Feed ``steps`` (``("events" | "block", rows)``) to one executor with
    ``sink`` ``"window"`` (``on_window``) or ``"report"``; ``raise_at``
    makes ``on_window`` raise at that call, once, and the raising arrival
    is fed again."""
    emitted: list = []
    calls = 0

    def record(r) -> None:
        nonlocal calls
        emitted.append(_row(r))
        calls += 1
        if calls == raise_at:
            raise RuntimeError("sink failed")

    snapshots, after_failure = [], []
    with fold(core):
        on_window = record if sink == "window" else None
        executor = StreamingExecutor(queries, on_window=on_window, **options)
        for kind, rows in steps:
            if kind == "block":
                executor.process_block(EventBlock.from_events(rows))
            else:
                for event in rows:
                    try:
                        executor.process(event)
                    except RuntimeError:
                        after_failure.append(
                            (executor.windows_closed, executor.active_window_count(),
                             executor.snapshot_state())
                        )
                        executor.process(event)  # not consumed: fed again
            snapshots.append(executor.snapshot_state())
        report = executor.finish()
    metrics = report.metrics
    return (
        emitted,
        [_row(row) for row in report.partition_results],
        {name: value.hex() for name, value in report.totals.items()},
        metrics.operations,
        metrics.peak_memory_units,
        metrics.peak_active_windows,
        metrics.partitions,
        (metrics.total_seconds, metrics.max_latency),
        metrics.emission_seconds.hex(),
        metrics.late_retracted,
        after_failure,
        snapshots,
    )


def assert_same_on_both_sweeps(queries, steps, options=None, **run_options) -> tuple:
    """The compiled and the reference sweep agree; returns the compiled
    outcome and the core's calls."""
    options = options or {}
    counting = _Counting(foldcore.core)
    compiled = run(queries, steps, options, counting, **run_options)
    reference = run(queries, steps, options, None, **run_options)
    assert compiled[:-1] == reference[:-1]
    assert compiled[7] == (0.0, 0.0)  # engine seconds: the batch executor's alone
    assert len(compiled[-1]) == len(reference[-1])
    for step, (got, expected) in enumerate(zip(compiled[-1], reference[-1])):
        assert got == expected, f"snapshot after step {step} differs"
    assert counting.calls["sweep_unit"] > 0
    return compiled, counting.calls


def keyed(values, window: Window, *, start: float = 0.0, step: float = 0.5) -> list[Event]:
    """For each group value, a trend start then Kleene rows, all groups in
    lockstep: every group's windows close at the same ends."""
    events = []
    for tick in range(40):
        for value in values:
            kind = "A" if tick % 9 == 0 else "B"
            events.append(Event(kind, start + tick * step, {"g": value}))
    return events


@needs_core
@pytest.mark.parametrize("kind", ("events", "block"))
def test_mixed_kind_group_keys_close_in_one_order(kind):
    window = Window(4.0, 2.0)
    queries = deferred_workload(window)
    events = keyed(MIXED_KEYS, window)
    (emitted, *_), _ = assert_same_on_both_sweeps(queries, [(kind, events)])
    closed_at: dict = {}
    for group_key, _, _, end, *_ in emitted:
        closed_at.setdefault(end, []).append(group_key)
    assert len({key for keys in closed_at.values() for key in keys}) == len(MIXED_KEYS) - 2
    for keys in closed_at.values():  # True == 1 == 1.0: one group
        assert len(keys) > 1 and keys == sorted(keys, key=group_sort_key)


@needs_core
def test_two_units_with_different_windows_close_in_one_sweep():
    queries = [
        *deferred_workload(Window(10.0, 2.0)),
        Query.build(seq("A", kleene("B")), group_by=("g",), window=Window(6.0, 2.0), name="w6"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=Window(4.0), name="w4"),
    ]
    events = stream(5, 300, groups=3)
    steps = [("block", events[:120]), ("events", events[120:200]), ("block", events[200:])]
    _, calls = assert_same_on_both_sweeps(queries, steps)
    assert calls["sweep_unit"] >= 3


@needs_core
@pytest.mark.parametrize("sink", ("window", "report"))
def test_report_sink_and_on_window_with_a_decomposed_query(sink):
    window = Window(10.0, 4.0)
    queries = [
        *deferred_workload(window),
        Query.build(
            seq("A", kleene("B")) | seq("D", kleene("E")), group_by=("g",), window=window,
            name="or_q",
        ),
    ]
    events = stream(8, 240)
    steps = [("events", events[:100]), ("block", events[100:])]
    compiled, _ = assert_same_on_both_sweeps(queries, steps, sink=sink)
    emitted, kept = compiled[0], compiled[1]
    if sink == "window":
        assert emitted and not kept
    else:
        assert kept and not emitted
    assert "or_q" in compiled[2]


@needs_core
def test_report_rows_match_the_emitted_windows():
    queries = deferred_workload(Window(10.0, 4.0))
    steps = [("block", stream(4, 200))]
    window_run = run(queries, steps, {}, foldcore.core)
    report_run = run(queries, steps, {}, foldcore.core, sink="report")
    assert window_run[0] == report_run[1]
    assert window_run[2] == report_run[2]


@needs_core
@pytest.mark.parametrize("seed", range(3))
def test_retract_policy(seed):
    events = late_arrivals(stream(seed, 240))
    steps = [("events", events[:90]), ("block", events[90:150]), ("events", events[150:])]
    compiled, _ = assert_same_on_both_sweeps(deferred_workload(Window(10.0, 4.0)), steps, LATE)
    assert compiled[9] > 0  # late_retracted
    assert any(retraction for *_, retraction, _ in compiled[0])


@needs_core
@pytest.mark.parametrize(
    "window",
    (Window(10 * 10**9, 2 * 10**9), Window(10e9, 2e9)),
    ids=("int-window", "float-window"),
)
def test_int_times_past_two_to_the_53rd(window):
    base = 2**60 + 7  # every time an int no double holds exactly
    events = [
        Event("ABCB"[i % 4], base + i * 700_000_001, {"g": float(i % 2)}) for i in range(120)
    ]
    # After a gap, arrivals 100 ns before the last open window's end: as a
    # double the time rounds onto that end, but the window must stay open
    # (the sweep they run closes only the earlier ones) and take them.
    end = events[-1].time // 2_000_000_000 * 2_000_000_000 + 10_000_000_000
    assert float(end - 100) == end
    events += [Event("B", end - 100, {"g": g}) for g in (0.0, 1.0)]
    steps = [("events", events[:50]), ("block", events[50:])]
    compiled, _ = assert_same_on_both_sweeps(deferred_workload(window), steps)
    assert len(compiled[0]) > 10


@needs_core
def test_finish_closes_everything_at_infinity():
    queries = [
        *deferred_workload(Window(1000.0, 10.0)),
        Query.build(seq("A", kleene("B")), group_by=("g",), window=Window(500.0), name="w500"),
    ]
    events = stream(3, 200, groups=4)
    compiled, calls = assert_same_on_both_sweeps(queries, [("block", events)])
    # Nothing closes before finish(): its one sweep at inf closes them all,
    # one core call per unit.
    assert calls["sweep_unit"] == len(StreamingExecutor(queries)._units) == 3
    assert len(compiled[0]) == compiled[6]


@needs_core
@pytest.mark.parametrize("raise_at", (1, 5, 17))
def test_a_raising_on_window_loses_and_repeats_nothing(raise_at):
    queries = [
        *deferred_workload(Window(8.0, 2.0)),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=Window(6.0, 3.0), name="w6"),
    ]
    events = stream(9, 200, groups=3)
    steps = [("events", events)]
    failed, _ = assert_same_on_both_sweeps(queries, steps, raise_at=raise_at)
    ((closed, active, _),) = failed[10]
    assert closed == raise_at  # the raising window closed and counted
    assert active > 0
    clean, _ = assert_same_on_both_sweeps(queries, steps)
    # The next process() emits the rest: every window once, in order.
    assert failed[0] == clean[0]
    assert failed[2:10] == clean[2:10]


@needs_core
def test_the_ingest_shape_closes_in_one_core_call_per_unit_sweep(monkeypatch):
    # The bench's ingest queries: no Python per-window close runs, and every
    # unit sweep the reference makes is one core call.
    queries = kleene_sharing_workload(
        10, kleene_type="Travel", prefix_types=("Surge", "Breakdown"),
        window=Window(10.0, 2.0), name="ingest",
    )
    generator = RidesharingGenerator(events_per_minute=10_000.0, seed=7, districts=20)
    block = generator.generate_block(60.0)
    counting = _Counting(foldcore.core)
    unit_sweeps = 0
    close_expired = CloseStage._close_expired

    def counted(stage, *args):
        nonlocal unit_sweeps
        unit_sweeps += 1
        return close_expired(stage, *args)

    monkeypatch.setattr(CloseStage, "_close_expired", counted)
    monkeypatch.setattr(foldcore, "core", None)
    reference = StreamingExecutor(queries, on_window=lambda result: None)
    reference.process_block(block)
    reference.finish()
    assert unit_sweeps > 20 and reference.windows_closed > 10 * unit_sweeps

    def no_python_close(*args):
        raise AssertionError("a Python close ran")

    monkeypatch.setattr(CloseStage, "_close_expired", no_python_close)
    monkeypatch.setattr(CloseStage, "_close_window", no_python_close)
    monkeypatch.setattr(foldcore, "core", counting)
    compiled = StreamingExecutor(queries, on_window=lambda result: None)
    compiled.process_block(block)
    compiled.finish()
    assert counting.calls["sweep_unit"] == unit_sweeps
    assert compiled.windows_closed == reference.windows_closed


@pytest.mark.parametrize("core", ("compiled", "reference"))
@pytest.mark.parametrize(
    "options",
    ({}, {"shared_windows": False}, {"optimizer": "dynamic"}),
    ids=("deferred", "per-instance", "dynamic"),
)
def test_a_pass_reads_the_clock_once_per_closed_window_and_per_ingest_call(core, options):
    if core == "compiled" and foldcore.core is None:
        pytest.skip(foldcore.reason)
    events = stream(11, 300, groups=3)
    blocks, scalars = (events[:100], events[200:]), events[100:200]
    with fold(foldcore.core if core == "compiled" else None):
        clock = streaming.time
        executor = StreamingExecutor(
            deferred_workload(Window(10.0, 4.0)), on_window=lambda result: None, **options
        )
        before = clock.reads
        executor.process_block(EventBlock.from_events(blocks[0]))
        for event in scalars:
            executor.process(event)
        executor.process_block(EventBlock.from_events(blocks[1]))
        report = executor.finish()
    # No engine call is timed: one read per close (its emission latency),
    # one arrival stamp per block and per staged process() row (a type no
    # unit reads is only counted), and finish()'s wall clock.
    stamps = len(blocks) + sum(event.event_type != "X" for event in scalars)
    assert report.metrics.partitions > 20
    assert clock.reads - before == report.metrics.partitions + stamps + 1
    assert (report.metrics.total_seconds, report.metrics.max_latency) == (0.0, 0.0)


def negation_workload(window: Window) -> list[Query]:
    """A NOT class: its engines keep an event store."""
    return [
        Query.build(parse_pattern("SEQ(A, NOT X, B+)"), group_by=("g",), window=window,
                    name="fc_not"),
        *deferred_workload(window),
    ]


@needs_core
@pytest.mark.parametrize(
    "workload, options",
    [
        (deferred_workload, {}),
        (mixed_workload, {}),
        (vector_workload, {}),
        (negation_workload, {}),
        (deferred_workload, {"shared_windows": False}),
        (vector_workload, {"optimizer": "dynamic"}),
    ],
    ids=("deferred", "mixed", "vector", "store", "per-instance", "dynamic-bursts"),
)
def test_the_core_samples_the_reference_memory_units(workload, options):
    # ``open_memory_units`` is one core loop over the live groups; the
    # Python sum is its reference, on the same state at every step.
    events = stream(5, 400, groups=4)
    peaks = []
    for core in (foldcore.core, None):
        with fold(core):
            executor = StreamingExecutor(
                workload(Window(6.0, 2.0)), on_window=lambda result: None, **options
            )
            for start in range(0, len(events), 37):
                executor.process_block(EventBlock.from_events(events[start : start + 37]))
                executor.active_window_count()  # (folds what is staged)
                sampled = executor._close.open_memory_units()
                with fold(None):
                    assert executor._close.open_memory_units() == sampled
            peaks.append(executor.finish().metrics.peak_memory_units)
    assert peaks[0] == peaks[1] > 0


def test_window_result_replaces_and_pickles():
    from dataclasses import FrozenInstanceError, replace

    from repro.runtime.results import ResultLayout, WindowResult, WindowValues
    from array import array

    values = WindowValues(ResultLayout(("q",)), array("d", [3.0]))
    result = WindowResult(("g",), 4, 8.0, 18.0, values, 5, 0.25)
    assert not hasattr(result, "__dict__")
    with pytest.raises(FrozenInstanceError):
        result.events = 6  # type: ignore[misc]
    retracted = replace(result, retraction=True)
    assert retracted.retraction and retracted.results is values
    assert replace(retracted, retraction=False) == result
    for copy in (pickle.loads(pickle.dumps(result)), pickle.loads(pickle.dumps(retracted))):
        assert copy == (result if not copy.retraction else retracted)
        assert copy.results["q"] == 3.0
