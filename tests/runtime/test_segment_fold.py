"""Differential suite for segment-at-a-time folding on the static block path.

With no optimizer, ``process_block`` hands a
columnar unit's rows to the engine one ``(group, close-sweep segment)`` at
a time, and the engine folds the mixed-type segment class by class, cell
by cell (``MultiWindowLinearEngine.process_block_run`` with one type name
per row).  Cells may reorder against the per-event run; the rows within a
cell may not — so everything observable must be **bit-identical** to the
per-event ``process()`` loop, however the stream is cut into blocks:
result bits (also past 2**53, where float adds round and any other
association shows), abstract operation counts, ``WindowResult.events``,
emission order, peak memory units and the engines' incremental entry
counters.

Scalar prefix + Kleene classes fold *deferred*: a Kleene row is counted,
and a cell pays the steps it owes when one of its own prefix rows arrives,
when its window is read out, or when a reader needs eager state.  The
``check`` of these tests is such a reader (``engine.coefficients``), so
every differential also runs with ``introspect=False``, where cells stay
unsettled from block to block; further down, the readers one by one —
``process()`` between blocks, a snapshot, a retraction's rollback.

The last test is a mechanism gate in counts, not seconds: on the fig9 query
shape the engine is entered at most once per ``(group, sweep segment)`` and
a Kleene row costs no cell visit.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload
from repro.datasets import RidesharingGenerator
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, parse_pattern, seq, sum_of
from repro.query.predicates import attr_less
from repro.runtime import MultiWindowLinearEngine, StreamingExecutor, shared_windows
from repro.runtime.shared_windows import UnitCompilation

#: ``size % slide != 0``: windows open at multiples of 4 and close at
#: 10, 14, 18, ... so covering ranges change *inside* a sweep segment.
UNEVEN = Window(10.0, 4.0)
SLIDING = Window(12.0, 4.0)
WINDOWS = (UNEVEN, SLIDING, Window(16.0, 3.2), Window(8.0))


def make_stream(seed: int, size: int, *, groups: int = 3, spacing: float = 0.25):
    """Random in-order stream; ``v`` is a small integer, ``g`` the group."""
    rng = random.Random(seed)
    types, weights = ("A", "B", "C", "D", "E"), (1.0, 4.0, 1.0, 1.0, 0.5)
    return [
        Event(
            rng.choices(types, weights=weights)[0],
            index * spacing,
            {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, groups))},
        )
        for index in range(size)
    ]


def scalar_workload(window: Window, *, bare_kleene: bool = True) -> list[Query]:
    """COUNT(*) classes: the prefix + Kleene pair, SEQ(A, B+, C), two
    prefixes before the Kleene type, and a bare Kleene start type."""
    patterns = {
        "ab": seq("A", kleene("B")),
        "cb": seq("C", kleene("B")),
        "db": seq("D", kleene("B")),
        "abc": seq("A", kleene("B"), "C"),
        "adb": seq("A", "D", kleene("B")),
        "cdbe": seq("C", "D", kleene("B"), "E"),
    }
    if bare_kleene:
        patterns["b"] = kleene("B")
    return [
        Query.build(pattern, group_by=("g",), window=window, name=f"sg_{name}")
        for name, pattern in patterns.items()
    ]


def vector_workload(window: Window) -> list[Query]:
    queries = list(
        multi_aggregate_workload(
            8,
            kleene_type="B",
            prefix_types=("A", "C"),
            window=window,
            group_by=("g",),
            payload_attribute="v",
            name="sg_vec",
        )
    )
    queries.append(
        Query.build(
            seq("A", kleene("B"), "D"),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=window,
            name="sg_vec_abd",
        )
    )
    return queries


def live_engines(executor: StreamingExecutor):
    return [
        group.engine for unit in executor._units for group in unit.groups.values()
    ]


def emission(r):
    """What a differential compares of one emitted ``WindowResult``."""
    return (
        r.group_key,
        r.window_index,
        r.events,
        r.retraction,
        {name: float(value).hex() for name, value in r.results.items()},
    )


def run_collecting(queries, feed, *, introspect=True, **options):
    """Run ``feed(executor)``: the report, what was emitted in which order,
    and whether the incremental entry counters held after every feed step.
    ``introspect=False`` leaves the coefficient table alone between steps
    (reading it settles every deferred cell)."""
    emitted = []
    executor = StreamingExecutor(
        queries,
        on_window=lambda r: emitted.append(emission(r)),
        **options,
    )

    def check():
        for engine in live_engines(executor):
            assert engine._armed_entries == engine.armed_window_count()
            if introspect:
                assert engine.live_coefficient_entries() == engine.coefficients.entry_count()
                assert not engine._unsettled

    feed(executor, check)
    check()
    return executor.finish(), emitted


def per_event(events):
    def feed(executor, check):
        for event in events:
            executor.process(event)

    return feed


def in_blocks(events, cuts):
    block = EventBlock.from_events(events)
    bounds = [0, *sorted(cuts), len(block)]

    def feed(executor, check):
        for start, stop in zip(bounds, bounds[1:]):
            executor.process_block(block.slice(start, stop))
            check()

    return feed


def assert_same_run(expected, got):
    (expected_report, expected_emitted), (report, emitted) = expected, got
    assert emitted == expected_emitted
    assert {k: v.hex() for k, v in report.totals.items()} == {
        k: v.hex() for k, v in expected_report.totals.items()
    }
    for field in ("operations", "peak_memory_units", "events_processed", "stream_events"):
        assert getattr(report.metrics, field) == getattr(expected_report.metrics, field), field


class _SegmentSpy:
    """Counts segment folds and the rows they took."""

    def __init__(self, monkeypatch):
        self.calls = self.rows = 0
        fold_segment = MultiWindowLinearEngine._fold_segment

        def counting(engine, types, *columns):
            self.calls += 1
            self.rows += len(types)
            return fold_segment(engine, types, *columns)

        monkeypatch.setattr(MultiWindowLinearEngine, "_fold_segment", counting)


@pytest.mark.parametrize("window", WINDOWS, ids=("uneven", "sliding", "fractional", "tumbling"))
@pytest.mark.parametrize("workload", (scalar_workload, vector_workload), ids=("scalar", "vector"))
@pytest.mark.parametrize("seed", range(3))
def test_segment_fold_equals_per_event_under_random_cuts(monkeypatch, seed, workload, window):
    events = make_stream(seed, 360)
    queries = workload(window)
    expected = run_collecting(queries, per_event(events))
    assert expected[0].metrics.operations > 0
    spy = _SegmentSpy(monkeypatch)
    rng = random.Random(seed)
    for cuts in ((), rng.sample(range(1, len(events)), 5), range(40, len(events), 40)):
        for introspect in (True, False):
            got = run_collecting(queries, in_blocks(events, cuts), introspect=introspect)
            assert_same_run(expected, got)
    assert spy.calls > 0


def test_segment_fold_equals_per_event_at_every_cut():
    # Short enough to try every two-block cut: mid-run, on a type change,
    # on a window opening (multiples of 4) and on a close (10, 14, ...).
    events = make_stream(4, 72, groups=2)
    for queries in (scalar_workload(UNEVEN), vector_workload(UNEVEN)):
        expected = run_collecting(queries, per_event(events))
        for cut in range(len(events) + 1):
            for introspect in (True, False):
                got = run_collecting(queries, in_blocks(events, (cut,)), introspect=introspect)
                assert_same_run(expected, got)


def test_prefix_arriving_mid_segment_and_inert_group_prefix():
    # The group starts with rows no query can start on (dropped: it has no
    # open window yet), then C opens the windows, B rows fold into the C
    # classes only, and A arms its classes mid-segment.
    spec = "B B E B C B B A B B D B A B B C A B E"
    events = [
        Event(name, 0.5 * index, {"v": float(index % 5), "g": 1.0})
        for index, name in enumerate(spec.split())
    ]
    for queries in (scalar_workload(UNEVEN, bare_kleene=False), vector_workload(UNEVEN)):
        expected = run_collecting(queries, per_event(events))
        assert all(total != 0.0 for total in expected[0].totals.values())
        for cuts in ((), (5,), (9, 10)):
            assert_same_run(expected, run_collecting(queries, in_blocks(events, cuts)))
    executor = StreamingExecutor(scalar_workload(UNEVEN, bare_kleene=False))
    executor.process_block(EventBlock.from_events(events))
    assert executor.engine_feeds == len(events) - 4


def test_counts_past_two_to_the_53rd_stay_bit_identical():
    # ~70 Kleene rows per window: counts pass 2**53, every add rounds, and
    # the prefix rows in between make the association order observable.
    rng = random.Random(9)
    events = [
        Event(rng.choices("ABC", weights=(1, 8, 1))[0], 0.1 * index, {"v": 1.0, "g": 1.0})
        for index in range(400)
    ]
    window = Window(10.0, 5.0)
    for queries in (scalar_workload(window), vector_workload(window)):
        expected = run_collecting(queries, per_event(events))
        assert max(expected[0].totals.values()) > 2.0**53
        for cuts in ((), (57, 58, 211)):
            for introspect in (True, False):
                got = run_collecting(queries, in_blocks(events, cuts), introspect=introspect)
                assert_same_run(expected, got)


# --------------------------------------------------------------------- #
# The deferred fold's eager readers
# --------------------------------------------------------------------- #
def owed_steps(executor) -> int:
    """Kleene steps the executor's deferred cells have not been paid yet."""
    return sum(
        state.kleene.rows - stamp
        for engine in live_engines(executor)
        for state in engine._deferred.values()
        for stamp in state.armed.values()
    )


@pytest.mark.parametrize("window", (UNEVEN, Window(10.0, 5.0)), ids=("uneven", "past2to53"))
def test_process_and_process_block_interleave_on_one_executor(window):
    # process() is an eager reader: it settles what the blocks before it
    # left deferred, and the next block resumes deferral from its state.
    rng = random.Random(11)
    if window is UNEVEN:
        events = make_stream(11, 400)
    else:
        events = [
            Event(rng.choices("ABC", weights=(1, 8, 1))[0], 0.1 * index, {"v": 1.0, "g": 1.0})
            for index in range(400)
        ]
    queries = scalar_workload(window)
    expected = run_collecting(queries, per_event(events))
    block = EventBlock.from_events(events)
    deferred = []

    def feed(executor, check):
        position = 0
        while position < len(events):
            stop = min(position + rng.randint(1, 40), len(events))
            if rng.random() < 0.5:
                for event in events[position:stop]:
                    executor.process(event)
            else:
                executor.process_block(block.slice(position, stop))
                deferred.append(owed_steps(executor))
            position = stop
            check()

    for introspect in (True, False):
        assert_same_run(expected, run_collecting(queries, feed, introspect=introspect))
    assert max(deferred) > 0
    if window is not UNEVEN:
        assert max(expected[0].totals.values()) > 2.0**53


def test_snapshot_taken_while_cells_are_unsettled_resumes_bit_identically():
    events = make_stream(6, 360)
    queries = scalar_workload(UNEVEN)
    expected = run_collecting(queries, per_event(events))
    block = EventBlock.from_events(events)
    for cut in (97, 180, 251):
        emitted: list = []

        def on_window(r):
            emitted.append(emission(r))

        first = StreamingExecutor(queries, on_window=on_window)
        first.process_block(block.slice(0, cut))
        owed = owed_steps(first)
        assert owed > 0  # the snapshot is taken over unsettled cells ...
        payload = first.snapshot_state()
        before = list(emitted)
        second = StreamingExecutor(queries, on_window=on_window)
        second.restore_state(payload)
        assert owed_steps(second) == owed  # ... and carries them as they are
        second.process_block(block.slice(cut, len(block)))
        assert_same_run(expected, (second.finish(), emitted))
        # The snapshot did not disturb the run it was taken from either.
        del emitted[len(before) :]
        first.process_block(block.slice(cut, len(block)))
        assert_same_run(expected, (first.finish(), emitted))


def test_retraction_rolls_back_across_unsettled_cells(monkeypatch):
    events = make_stream(8, 320)
    arrivals = list(events)
    for index in range(60, 300, 60):
        arrivals.insert(index + 40, arrivals.pop(index))  # 10 time units late
    queries = scalar_workload(UNEVEN)
    options = {"allowed_lateness": 2.0, "late_policy": "retract"}
    scalar = run_collecting(queries, per_event(arrivals), **options)
    settled_unsettled = []
    settle = MultiWindowLinearEngine._settle

    def counting(engine):
        settled_unsettled.append(engine._unsettled)
        return settle(engine)

    monkeypatch.setattr(MultiWindowLinearEngine, "_settle", counting)
    blocked = run_collecting(
        queries, in_blocks(arrivals, range(50, 320, 50)), introspect=False, **options
    )
    assert_same_run(scalar, blocked)
    assert blocked[0].metrics.late_retracted == scalar[0].metrics.late_retracted == 4
    assert any(settled_unsettled)  # snapshots and replays did meet deferred cells
    ordered = run_collecting(queries, per_event(events))
    assert {k: v.hex() for k, v in blocked[0].totals.items()} == {
        k: v.hex() for k, v in ordered[0].totals.items()
    }


def test_introspection_settles_and_the_entry_counters_agree():
    executor = StreamingExecutor(scalar_workload(UNEVEN))
    executor.process_block(EventBlock.from_events(make_stream(3, 150)))
    engines = live_engines(executor)
    assert engines and owed_steps(executor) > 0
    behind = 0
    for engine in engines:
        counted, units, ops = (
            engine.live_coefficient_entries(),
            engine.memory_units(),
            engine.operations(),
        )
        # The counters run ahead of the table: an owed Kleene step may be
        # the one that creates the cell's Kleene entry.
        behind += counted - engine._coefficients.entry_count()
        assert engine.coefficients.entry_count() == counted  # the read settles
        assert not engine._unsettled
        assert (engine.live_coefficient_entries(), engine.memory_units(), engine.operations()) == (
            counted,
            units,
            ops,
        )
    assert behind > 0 and owed_steps(executor) == 0


def test_unit_with_a_declined_type_keeps_the_run_path(monkeypatch):
    # A local predicate on B: B's runs need Events, so the unit is not
    # columnar and falls back whole — zero segment folds, same results.
    queries = scalar_workload(SLIDING) + [
        Query.build(
            seq("A", kleene("B")),
            predicates=[attr_less("v", 4.0, event_type="B")],
            group_by=("g",),
            window=SLIDING,
            name="sg_local",
        )
    ]
    events = make_stream(2, 300)
    expected = run_collecting(queries, per_event(events))
    spy = _SegmentSpy(monkeypatch)
    assert_same_run(expected, run_collecting(queries, in_blocks(events, (100, 101))))
    assert spy.calls == 0


def test_burst_buffered_configurations_keep_the_run_path(monkeypatch):
    spy = _SegmentSpy(monkeypatch)
    executor = StreamingExecutor(scalar_workload(SLIDING), optimizer="always")
    executor.process_block(EventBlock.from_events(make_stream(1, 200)))
    assert executor.finish().metrics.operations > 0
    assert spy.calls == 0


def test_prefix_kleene_classes_fold_cell_locally(monkeypatch):
    # The dominant shape never enters the run fold on the static
    # path (its Kleene rows are counted, its cells settled in closed form);
    # any other class goes there one same-type run of the class at a time,
    # so a foreign type in between cuts nothing.
    from repro.core.kernels import PythonKernelBackend

    calls = []
    fold_scalar_run = PythonKernelBackend.fold_scalar_run

    def counting(backend, total_map, indices, sources, base, count):
        calls.append(count)
        return fold_scalar_run(backend, total_map, indices, sources, base, count)

    monkeypatch.setattr(PythonKernelBackend, "fold_scalar_run", counting)
    events = make_stream(1, 200, groups=1)
    pairs = [query for query in scalar_workload(Window(1000.0)) if query.name[3:] in ("ab", "cb")]
    executor = StreamingExecutor(pairs)
    executor.process_block(EventBlock.from_events(events))
    assert executor.finish().metrics.operations > 0
    assert calls == []
    chain = [query for query in scalar_workload(Window(1000.0)) if query.name == "sg_abc"]
    executor = StreamingExecutor(chain)
    executor.process_block(EventBlock.from_events(events))
    assert executor.finish().metrics.operations > 0
    # One window, one segment: the class's rows from the first A on, cut
    # only where *its* type changes (D and E rows in between cut nothing).
    own = [event.event_type for event in events if event.event_type in "ABC"]
    own = own[own.index("A") :]
    assert len(calls) == 1 + sum(a != b for a, b in zip(own, own[1:]))
    assert sum(calls) == len(own)


@pytest.mark.parametrize("optimizer", ("always", "dynamic"))
def test_start_run_crossing_a_window_opening_on_the_run_path(monkeypatch, optimizer):
    # Burst-buffered: one same-type run of the start type spans t=8 and
    # t=12, where a new window opens but none closes — the run is folded in
    # cuts, each arming its covering range first, and lands on the static
    # per-event results.
    spec = "A B " + "A " * 30 + "B B A B"
    events = [
        Event(name, 6.0 + 0.25 * index, {"v": 2.0, "g": 1.0})
        for index, name in enumerate(spec.split())
    ]
    queries = vector_workload(UNEVEN)
    expected = StreamingExecutor(queries)
    for event in events:
        expected.process(event)
    uneven_runs = []
    process_block_run = MultiWindowLinearEngine.process_block_run

    def recording(engine, event_type, times, sequences, lows, highs, *rest):
        if highs[0] != highs[-1]:
            uneven_runs.append((event_type, len(times)))
        return process_block_run(engine, event_type, times, sequences, lows, highs, *rest)

    monkeypatch.setattr(MultiWindowLinearEngine, "process_block_run", recording)
    blocked = StreamingExecutor(queries, optimizer=optimizer)
    blocked.process_block(EventBlock.from_events(events))
    expected_report, report = expected.finish(), blocked.finish()
    assert uneven_runs and all(event_type == "A" for event_type, _ in uneven_runs)
    assert report.totals == expected_report.totals
    assert [(p.group_key, p.window_index, p.results, p.events) for p in report.partition_results] == [
        (p.group_key, p.window_index, p.results, p.events)
        for p in expected_report.partition_results
    ]


# --------------------------------------------------------------------- #
# The engine entry on its own
# --------------------------------------------------------------------- #
def engine_pair(queries):
    unit = UnitCompilation(queries, share_classes=True)
    return MultiWindowLinearEngine(unit), MultiWindowLinearEngine(unit)


def coefficient_bits(engine):
    return {
        consumer: {index: repr(value) for index, value in window_map.items()}
        for consumer, window_map in engine.coefficients._maps.items()
    }


@pytest.mark.parametrize("introspect", (True, False), ids=("settled", "unsettled"))
@pytest.mark.parametrize("workload", (scalar_workload, vector_workload), ids=("scalar", "vector"))
def test_engine_segment_equals_per_event_process(workload, introspect):
    rng = random.Random(3)
    queries = [query for query in workload(UNEVEN)]
    by_event, by_segment = engine_pair(queries)
    assert by_segment.unit.columnar
    window = UNEVEN
    clock = 0.0
    for _ in range(12):
        rows = []
        for _ in range(rng.randint(1, 14)):
            clock += rng.choice((0.0, 0.25, 1.5))
            rows.append(
                Event(rng.choice("ABBBCDE"), clock, {"v": float(rng.randint(0, 5)), "g": 1.0})
            )
        covering = [window.instance_indices_covering(event.time) for event in rows]
        lows = [indices.start for indices in covering]
        highs = [indices.stop - 1 for indices in covering]
        for event, lo, hi in zip(rows, lows, highs):
            by_event.process(event, lo, hi)
        assert by_segment.process_block_run(
            [event.event_type for event in rows],
            [event.time for event in rows],
            [event.sequence for event in rows],
            lows,
            highs,
            None if by_segment.unit.scalar else [by_segment.unit.contributions(e) for e in rows],
        )
        assert by_segment.operations() == by_event.operations()
        assert by_segment.memory_units() == by_event.memory_units()
        assert by_segment.live_coefficient_entries() == by_event.live_coefficient_entries()
        if introspect:  # reading the table settles the deferred cells
            assert coefficient_bits(by_segment) == coefficient_bits(by_event)
            assert by_segment.live_coefficient_entries() == by_segment.coefficients.entry_count()
        # Close the oldest window now and then: later segments fold around it.
        oldest = min((i for armed in by_event._armed for i in armed), default=None)
        if oldest is not None and rng.random() < 0.4:
            assert by_segment.close_window(oldest) == by_event.close_window(oldest)
    assert coefficient_bits(by_segment) == coefficient_bits(by_event)


def test_engine_declines_a_segment_it_cannot_fold_from_columns():
    negated = [
        Query.build(parse_pattern("SEQ(A, NOT X, B+)"), window=UNEVEN, name="sg_not"),
    ]
    engine = MultiWindowLinearEngine(UnitCompilation(negated, share_classes=True))
    assert not engine.unit.columnar
    assert engine.process_block_run(["A", "B"], [1.0, 2.0], [1, 2], [0, 0], [0, 0]) is False
    assert engine.operations() == 0 and engine._latest_event is None
    # A split sharing column (adaptive mode) declines too, untouched.
    shared = [
        Query.build(seq("A", kleene("B")), aggregate=aggregate, window=UNEVEN, name=name)
        for name, aggregate in (("sg_sum", sum_of("B", "v")), ("sg_avg", avg("B", "v")))
    ]
    engine = MultiWindowLinearEngine(UnitCompilation(shared, share_classes=True))
    spec = engine.unit.classes[0]
    engine.apply_burst_decision(spec, "B", frozenset(), 1)
    assert engine.process_block_run(["A"], [1.0], [1], [0], [0], [(0.0, 0.0)]) is False
    assert engine._latest_event is None


# --------------------------------------------------------------------- #
# Mechanism gate (counts, not seconds)
# --------------------------------------------------------------------- #
def test_fig9_shape_enters_the_engine_once_per_group_segment(monkeypatch):
    districts = 20
    queries = kleene_sharing_workload(
        50, kleene_type="Travel", window=Window(10.0, 2.0), name="fig9"
    )
    block = RidesharingGenerator(
        events_per_minute=10_000.0, seed=7, districts=districts
    ).generate_block(120.0)
    assert len(block) == 20_000
    spy = _SegmentSpy(monkeypatch)
    sweeps = 0
    close_passed = StreamingExecutor._close_passed_windows

    def counting_sweep(executor, now):
        nonlocal sweeps
        sweeps += 1
        return close_passed(executor, now)

    monkeypatch.setattr(StreamingExecutor, "_close_passed_windows", counting_sweep)
    settles = []
    settle_kleene = shared_windows.settle_kleene

    def counting_settle(prefix, total, steps):
        settles.append(steps)
        return settle_kleene(prefix, total, steps)

    monkeypatch.setattr(shared_windows, "settle_kleene", counting_settle)
    executor = StreamingExecutor(queries)
    executor.process_block(block)
    report = executor.finish()
    assert report.metrics.operations > 0
    assert 0 < spy.calls <= districts * (sweeps + 1)
    assert spy.rows == executor.engine_feeds
    assert spy.rows / spy.calls >= 10
    # The shared Kleene run is counted, not stepped through the cells: a
    # settle pays ~10 owed steps at once here (the eager fold visited the
    # cell once per step), and only ever more than zero.
    assert min(settles) >= 1
    assert sum(settles) >= 5 * len(settles)
