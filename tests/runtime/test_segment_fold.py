"""Differential suite for segment-at-a-time folding on the static plan.

With no optimizer, ``process_block`` — and ``process()``, which stages
rows for the same loop — hands a shared unit's rows to the engine one
``(group, close-sweep segment)`` at a time, and the engine folds the
mixed-type segment class by class, cell by cell
(``MultiWindowLinearEngine.process_block_run`` with one type name per
row); a row of a type outside ``columnar_types`` (negation, local
or edge predicates) folds through the per-event body on its row view.
Cells may reorder against the per-event run; the rows within a cell may
not — so everything observable must be **bit-identical** to the
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
from repro.errors import ExecutionError
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, parse_pattern, seq, sum_of
from repro.query.predicates import AdjacentComparison, attr_less
from repro.runtime import MultiWindowLinearEngine, StreamingExecutor, foldcore, shared_windows
from repro.runtime.close import CloseStage
from repro.runtime.shared_windows import UnitCompilation
from tests.conftest import RunFolds, on_both_folds, selected_fold

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
    """The executor's live shared-window engines."""
    return [
        group.engine
        for unit in executor._units
        for group in unit.groups.values()
        if isinstance(group.engine, MultiWindowLinearEngine)
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


def mixed_stream(seed: int, size: int, *, groups: int = 2):
    """``make_stream`` plus ``X`` rows, the negated type of ``mixed_workload``."""
    rng = random.Random(seed)
    types, weights = ("A", "B", "C", "D", "E", "X"), (1.0, 5.0, 1.0, 2.0, 1.0, 0.5)
    return [
        Event(
            rng.choices(types, weights=weights)[0],
            index * 0.25,
            {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, groups))},
        )
        for index in range(size)
    ]


def mixed_workload(window: Window, *, vector: bool = False) -> list[Query]:
    """One static unit: a prefix + Kleene class on the columnar types A and
    B, classes reading A, B and E or C and B, and NOT, local- and
    edge-predicate classes, which put C, D, E and X outside
    ``columnar_types`` (so the C + B class may not defer)."""
    entries = (
        ("ab", seq("A", kleene("B")), (), sum_of("B", "v")),
        ("ab_twin", seq("A", kleene("B")), (), sum_of("B", "v")),
        ("abe", seq("A", kleene("B"), "E"), (), avg("B", "v")),
        ("cb", seq("C", kleene("B")), (), sum_of("B", "v")),
        ("not", parse_pattern("SEQ(C, NOT X, D+)"), (), sum_of("D", "v")),
        ("local", seq("C", "E"), (attr_less("v", 4.0, event_type="E"),), sum_of("E", "v")),
        ("edge", seq("C", kleene("D")), (AdjacentComparison("v", "<=", "v", "D"),), avg("D", "v")),
    )
    return [
        Query.build(
            pattern,
            predicates=list(predicates),
            aggregate=aggregate if vector else None,
            group_by=("g",),
            window=window,
            name=f"mx_{name}",
        )
        for name, pattern, predicates, aggregate in entries
    ]


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


class _EntrySpy:
    """Records how the engine is entered: ``runs`` holds the rows of every
    run (``process_block_run`` with one type name, or ``process_burst``),
    ``segments`` the per-row type lists of every segment and ``entries``
    its ``(engine, close sweeps before it)``."""

    def __init__(self, monkeypatch):
        self.runs, self.segments, self.entries = [], [], []
        self.sweeps = 0
        process_block_run = MultiWindowLinearEngine.process_block_run
        process_burst = MultiWindowLinearEngine.process_burst
        sweep_of = CloseStage.sweep

        def block_run(engine, event_type, times, *columns):
            if isinstance(event_type, str):
                self.runs.append(len(times))
            else:
                self.segments.append(list(event_type))
                self.entries.append((engine, self.sweeps))
            return process_block_run(engine, event_type, times, *columns)

        def sweep(stage, now):
            self.sweeps += 1
            return sweep_of(stage, now)

        def burst(engine, rows, event_type):
            self.runs.append(len(rows))
            return process_burst(engine, rows, event_type)

        monkeypatch.setattr(MultiWindowLinearEngine, "process_block_run", block_run)
        monkeypatch.setattr(MultiWindowLinearEngine, "process_burst", burst)
        monkeypatch.setattr(CloseStage, "sweep", sweep)


@pytest.mark.parametrize("window", WINDOWS, ids=("uneven", "sliding", "fractional", "tumbling"))
@pytest.mark.parametrize("workload", (scalar_workload, vector_workload), ids=("scalar", "vector"))
@pytest.mark.parametrize("seed", range(3))
def test_segment_fold_equals_per_event_under_random_cuts(monkeypatch, seed, workload, window):
    events = make_stream(seed, 360)
    queries = workload(window)
    expected = run_collecting(queries, per_event(events))
    assert expected[0].metrics.operations > 0
    spy = _EntrySpy(monkeypatch)
    rng = random.Random(seed)
    for cuts in ((), rng.sample(range(1, len(events)), 5), range(40, len(events), 40)):
        for introspect in (True, False):
            got = run_collecting(queries, in_blocks(events, cuts), introspect=introspect)
            assert_same_run(expected, got)
    assert spy.segments


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
    # process() stages rows for the same segment fold: deferral runs on
    # across both ingest modes, whatever the interleaving.
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
    owed_at_snapshot = []
    core_state = StreamingExecutor._core_state

    def counting(executor):
        owed_at_snapshot.append(owed_steps(executor))
        return core_state(executor)

    monkeypatch.setattr(StreamingExecutor, "_core_state", counting)
    blocked = run_collecting(
        queries, in_blocks(arrivals, range(50, 320, 50)), introspect=False, **options
    )
    assert_same_run(scalar, blocked)
    assert blocked[0].metrics.late_retracted == scalar[0].metrics.late_retracted == 4
    assert max(owed_at_snapshot) > 0  # the rollbacks restored deferred cells
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


@pytest.mark.parametrize("vector", (False, True), ids=("scalar", "vector"))
def test_mixed_unit_rides_the_segment_fold_at_every_cut(vector):
    # A prefix + Kleene class, a class reading a declined type, and NOT,
    # local- and edge-predicate classes in one unit: per event, as two
    # blocks cut anywhere, and per window instance, it is one run.
    events = mixed_stream(5, 88)
    types = "".join(event.event_type for event in events)
    assert any(types[i] == types[i + 2] == "B" and types[i + 1] in "CDEX" for i in range(86))
    queries = mixed_workload(UNEVEN, vector=vector)
    compiled = UnitCompilation(queries, share_classes=True)
    assert compiled.columnar_types == {"A", "B"}
    engine = MultiWindowLinearEngine(compiled)  # (its segment feeds built with it)
    assert bool(engine._deferred) is not vector  # the A/B class defers in scalar units
    expected = run_collecting(queries, per_event(events))
    assert all(expected[0].totals[query.name] != 0.0 for query in queries)
    for cut in range(len(events) + 1):
        for introspect in (True, False):
            got = run_collecting(queries, in_blocks(events, (cut,)), introspect=introspect)
            assert_same_run(expected, got)
    report, emitted = run_collecting(queries, per_event(events), shared_windows=False)
    assert emitted == expected[1]
    assert {k: v.hex() for k, v in report.totals.items()} == {
        k: v.hex() for k, v in expected[0].totals.items()
    }


@pytest.mark.parametrize("ingest", ("events", "block"))
def test_static_plan_enters_the_engine_by_segments_only(monkeypatch, ingest):
    events = mixed_stream(2, 300)
    queries = mixed_workload(SLIDING)
    expected = run_collecting(queries, per_event(events), shared_windows=False)
    spy = _EntrySpy(monkeypatch)
    feed = per_event(events) if ingest == "events" else in_blocks(events, (100, 101))
    got = run_collecting(queries, feed)
    assert got[0].totals == expected[0].totals
    assert spy.runs == [] and spy.segments
    if ingest == "events":
        # process() stages rows and folds them through the block loop: at
        # most one entry per (group, close sweep), not one per row.
        keys = [(id(engine), sweeps) for engine, sweeps in spy.entries]
        assert len(keys) == len(set(keys))
        assert max(map(len, spy.segments)) > 1
    assert {t for types in spy.segments for t in types} == set("ABCDEX")


@pytest.mark.parametrize("ingest", ("events", "block"))
@pytest.mark.parametrize(
    "pattern, predicates",
    (
        (parse_pattern("SEQ(A, NOT X, B+)"), ()),
        (seq("A", kleene("B")), (attr_less("v", 4.0, event_type="B"),)),
    ),
    ids=("not", "local"),
)
def test_a_unit_with_no_columnar_type_compiles_its_feeds_once(ingest, pattern, predicates):
    # Every row of such a unit is declined and its feed table is empty: it
    # must still be compiled once per engine, not once per segment.
    queries = [
        Query.build(pattern, predicates=list(predicates), group_by=("g",), window=SLIDING, name=n)
        for n in ("nc_a", "nc_b")
    ]
    assert not UnitCompilation(queries, share_classes=True).columnar_types
    events = mixed_stream(4, 600)
    executor = StreamingExecutor(queries)
    block = EventBlock.from_events(events)
    for start in range(0, len(events), 50):
        if ingest == "events":
            for event in events[start : start + 50]:
                executor.process(event)
        else:
            executor.process_block(block.slice(start, start + 50))
        # A public reader folds what process() staged before the peek.
        assert executor.shared_group_count == len(live_engines(executor))
        engines = live_engines(executor)
        assert engines
        for engine in engines:
            assert engine._segment_feeds == {}
            assert len(engine._eager) == len(engine.unit.classes) == 1
    assert executor.finish().metrics.operations > 0


def test_burst_buffered_configurations_keep_the_run_path(monkeypatch):
    spy = _EntrySpy(monkeypatch)
    executor = StreamingExecutor(scalar_workload(SLIDING), optimizer="always")
    executor.process_block(EventBlock.from_events(make_stream(1, 200)))
    assert executor.finish().metrics.operations > 0
    assert spy.segments == [] and spy.runs


@on_both_folds
def test_prefix_kleene_classes_fold_cell_locally(monkeypatch, fold):
    # The dominant shape never enters the run fold on the static
    # path (its Kleene rows are counted, its cells settled in closed form);
    # any other class goes there one same-type run of the class at a time,
    # so a foreign type in between cuts nothing.
    with selected_fold(fold):
        runs = RunFolds(monkeypatch)
        events = make_stream(1, 200, groups=1)
        pairs = [q for q in scalar_workload(Window(1000.0)) if q.name[3:] in ("ab", "cb")]
        executor = StreamingExecutor(pairs)
        executor.process_block(EventBlock.from_events(events))
        assert executor.finish().metrics.operations > 0
        assert runs.counts == []
        chain = [query for query in scalar_workload(Window(1000.0)) if query.name == "sg_abc"]
        executor = StreamingExecutor(chain)
        executor.process_block(EventBlock.from_events(events))
        assert executor.finish().metrics.operations > 0
        runs.check()
    # One window, one segment: the class's rows from the first A on, cut
    # only where *its* type changes (D and E rows in between cut nothing).
    own = [event.event_type for event in events if event.event_type in "ABC"]
    own = own[own.index("A") :]
    assert len(runs.counts) == 1 + sum(a != b for a, b in zip(own, own[1:]))
    assert sum(runs.counts) == len(own)


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
@pytest.mark.parametrize(
    "workload",
    (scalar_workload, vector_workload, mixed_workload),
    ids=("scalar", "vector", "mixed"),
)
def test_engine_segment_equals_per_event_process(workload, introspect):
    rng = random.Random(3)
    queries = [query for query in workload(UNEVEN)]
    by_event, by_segment = engine_pair(queries)
    window = UNEVEN
    clock = 0.0
    for _ in range(12):
        rows = []
        for _ in range(rng.randint(1, 14)):
            clock += rng.choice((0.0, 0.25, 1.5))
            rows.append(
                Event(rng.choice("ABBBCDEX"), clock, {"v": float(rng.randint(0, 5)), "g": 1.0})
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
            rows,
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


def test_engine_needs_events_only_for_rows_outside_columnar_types():
    negated = [
        Query.build(parse_pattern("SEQ(A, NOT X, B+)"), window=UNEVEN, name="sg_not"),
        Query.build(seq("C", kleene("D")), window=UNEVEN, name="sg_cd"),
    ]
    engine = MultiWindowLinearEngine(UnitCompilation(negated, share_classes=True))
    assert engine.unit.columnar_types == {"C", "D"}
    # A run of a declined type without its events is refused, untouched ...
    assert engine.process_block_run("A", [1.0], [1], [0], [0]) is False
    assert engine.operations() == 0 and engine._latest_event is None
    # ... a columnar run needs none ...
    assert engine.process_block_run("C", [1.0], [1], [0], [0]) is True
    # ... and neither a segment does, until it reaches a declined row.
    with pytest.raises(ExecutionError, match="needs its event"):
        engine.process_block_run(["D", "A"], [2.0, 3.0], [2, 3], [0, 0], [0, 0])
    assert engine.process_block_run("A", [4.0], [4], [0], [0], None, [Event("A", 4.0)])
    assert engine.armed_window_count() == 2
    # Split sharing columns are adaptive state: a segment refuses them.
    shared = [
        Query.build(seq("A", kleene("B")), aggregate=aggregate, window=UNEVEN, name=name)
        for name, aggregate in (("sg_sum", sum_of("B", "v")), ("sg_avg", avg("B", "v")))
    ]
    engine = MultiWindowLinearEngine(UnitCompilation(shared, share_classes=True))
    engine.apply_burst_decision(engine.unit.classes[0], "B", False, 1)
    with pytest.raises(ExecutionError, match="fully shared"):
        engine.process_block_run(["A"], [1.0], [1], [0], [0], [(0.0, 0.0)])


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
    spy = _EntrySpy(monkeypatch)
    sweeps = 0
    sweep_of = CloseStage.sweep

    def counting_sweep(stage, now):
        nonlocal sweeps
        sweeps += 1
        return sweep_of(stage, now)

    monkeypatch.setattr(CloseStage, "sweep", counting_sweep)
    settles = []
    settle_kleene = shared_windows.settle_kleene

    def counting_settle(prefix, total, steps):
        settles.append(steps)
        return settle_kleene(prefix, total, steps)

    monkeypatch.setattr(shared_windows, "settle_kleene", counting_settle)
    compiled = foldcore.core
    monkeypatch.setattr(foldcore, "core", None)  # the spy sees the reference fold's settles
    executor = StreamingExecutor(queries)
    executor.process_block(block)
    counters = fold_counters(executor)
    report = executor.finish()
    assert report.metrics.operations > 0
    calls, rows = len(spy.segments), sum(map(len, spy.segments))
    assert 0 < calls <= districts * (sweeps + 1)
    assert rows == executor.engine_feeds
    assert rows / calls >= 10
    # The shared Kleene run is counted, not stepped through the cells: a
    # settle pays ~10 owed steps at once here (the eager fold visited the
    # cell once per step), and only ever more than zero.
    assert min(settles) >= 1
    assert sum(settles) >= 5 * len(settles)
    if compiled is None:
        pytest.skip(foldcore.reason)
    # The compiled fold defers the same way: the same engine counters, and
    # its own settles pay as many owed steps at once.
    monkeypatch.setattr(foldcore, "core", compiled)
    before = compiled.settle_counts()
    twin = StreamingExecutor(queries)
    twin.process_block(block)
    assert fold_counters(twin) == counters
    paid, steps = (now - then for now, then in zip(compiled.settle_counts(), before))
    assert paid >= 1 and steps >= 5 * paid
    assert twin.finish().metrics.operations == report.metrics.operations


def fold_counters(executor) -> list:
    """Each live engine's ``(group, _ops, _coeff_entries, _armed_entries)``."""
    return [
        (key, engine._ops, engine._coeff_entries, engine._armed_entries)
        for unit in executor._units
        for key, group in sorted(unit.groups.items())
        if isinstance(engine := group.engine, MultiWindowLinearEngine)
    ]
